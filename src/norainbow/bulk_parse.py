"""Instance parsing in bulk: the body of an instance file as one int array.

parse_instance reads the lines up to the header one at a time, converts the
rest of the text to integers in one numpy call, checks it with whole-array
operations, and builds the Hypergraph and its incidence from that array.
The body it takes is ASCII digits, spaces, tabs and LF line ends, one edge
per line. Every other text, and every text that fails a check, goes to the
line parser `hypergraph.parse_lines`, which gives the same result or the
line-numbered ParseError. So a comment or blank line after the header, a
CR, FF or other `str.splitlines` boundary, a sign, a non-ASCII digit or a
`1_0` all take the line parser.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .hypergraph import Hypergraph, incidence_of, parse_lines

_BODY_BYTES = b"0123456789 \t\n"
# the str.splitlines boundaries other than LF; the header scan splits at LF
_OTHER_LINE_ENDS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# a larger incidence is left to the line parser's graph, which builds it on demand
_INCIDENCE_BYTES = 1 << 28


def parse_instance(text: str) -> Hypergraph:
    """Parse instance text: 'c' comments, a 'p nrc <n> <m> <r>' header, then
    m lines of r space-separated 1-indexed node ids."""
    hg = _parse_bulk(text)
    return parse_lines(text) if hg is None else hg


def _parse_bulk(text: str) -> Optional[Hypergraph]:
    """The parsed Hypergraph, with its incidence set, or None when the text
    is not one the bulk path takes or fails one of its checks."""
    start = 0
    while True:
        end = text.find("\n", start)
        tokens = text[start : None if end < 0 else end].split()
        if tokens and tokens[0] != "c":
            break
        if end < 0:
            return None
        start = end + 1
    body_start = len(text) if end < 0 else end + 1
    head = text[:body_start]
    if len(tokens) != 5 or tokens[:2] != ["p", "nrc"] or any(c in head for c in _OTHER_LINE_ENDS):
        return None
    try:
        n, m, r = map(int, tokens[2:])
        body = text[body_start:].encode("ascii")
    except (ValueError, UnicodeEncodeError):
        return None
    if body and not body.endswith(b"\n"):
        body += b"\n"
    if (
        n < 0
        or r < 2
        or body.translate(None, _BODY_BYTES)
        or body.count(b"\n") != m
        or n * ((m + 7) // 8 + 8) > _INCIDENCE_BYTES
    ):
        return None
    # A 0 closes each of the m lines. With m * (r + 1) numbers and no 0 among
    # the first r of any row, the m zeros fill the last column: r ids a line.
    table = np.fromstring(body.replace(b"\n", b" 0 "), dtype=np.int64, sep=" ")
    if table.size != m * (r + 1):
        return None
    table = table.reshape(m, r + 1)
    rows = np.sort(table[:, :r], axis=1)
    if (
        rows[:, 0].min(initial=1) < 1
        or rows[:, -1].max(initial=n) > n
        or (rows[:, 1:] == rows[:, :-1]).any()
    ):
        return None
    rows -= 1
    if r * n.bit_length() <= 63:  # n**r < 2**63: one int64 key per row
        keys = rows[:, 0]
        for j in range(1, r):
            keys = keys * n + rows[:, j]
        rows = rows[np.unique(keys, return_index=True)[1]]
    else:
        rows = np.unique(rows, axis=0)
    edges = tuple(zip(*rows.T.tolist()))
    return Hypergraph.from_canonical(n, r, edges, incidence_of(rows, n))
