"""Instance parsing in bulk: the body of an instance file as one int array.

parse_instance reads the lines up to the header one at a time, converts the
rest of the text to integers in one numpy call, checks the declared m and
the ids per line, and hands the (m, r) array to the Hypergraph constructor,
which checks and canonicalizes it as it does every edge list. The body it
takes is ASCII digits, spaces, tabs and LF line ends, one edge
per line. Every other text, and every text that fails a check, goes to the
line parser `hypergraph.parse_lines`, which gives the same result or the
line-numbered ParseError. So a comment or blank line after the header, a
CR, FF or other `str.splitlines` boundary, a sign, a non-ASCII digit or a
`1_0` all take the line parser.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .hypergraph import Hypergraph, parse_lines

_BODY_BYTES = b"0123456789 \t\n"
# the str.splitlines boundaries other than LF; the header scan splits at LF
_OTHER_LINE_ENDS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def parse_instance(text: str) -> Hypergraph:
    """Parse instance text: 'c' comments, a 'p nrc <n> <m> <r>' header, then
    m lines of r space-separated 1-indexed node ids."""
    hg = _parse_bulk(text)
    return parse_lines(text) if hg is None else hg


def _parse_bulk(text: str) -> Optional[Hypergraph]:
    """The parsed Hypergraph, or None when the text is not one the bulk path
    takes or fails one of its or the constructor's checks."""
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
    if n < 0 or r < 2 or body.translate(None, _BODY_BYTES) or body.count(b"\n") != m:
        return None
    # A 0 closes each of the m lines. With m * (r + 1) numbers and no 0 among
    # the first r of any row, the m zeros fill the last column: r ids a line.
    # The constructor rejects the id -1 that a misplaced 0 becomes.
    table = np.fromstring(body.replace(b"\n", b" 0 "), dtype=np.int64, sep=" ")
    if table.size != m * (r + 1):
        return None
    try:
        return Hypergraph(n, r, table.reshape(m, r + 1)[:, :r] - 1)
    except ValueError:
        return None
