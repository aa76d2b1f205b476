"""Reproducible instance families: uniform random, planted-satisfiable,
complete (never colorable), and the (r-1)-shadow families shadow (planted)
and free-shadow (unplanted), where no start's root certifies."""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional

from .hypergraph import Hypergraph, format_certificate, parse_certificate

# per family, the spec keys it reads besides n and r (generate refuses a nonzero
# other one) and its generator, from a spec to the graph and its witness or None
FAMILIES = {
    "random": (("m", "seed"), lambda s: (gen_random(s.n, s.m, s.r, s.seed), None)),
    "planted": (("m", "seed"), lambda s: gen_planted(s.n, s.m, s.r, s.seed)),
    "complete": ((), lambda s: (gen_complete(s.n, s.r), None)),
    "shadow": (("seed",), lambda s: gen_shadow(s.n, s.r, s.seed)),
    "free-shadow": (("seed",), lambda s: gen_shadow(s.n, s.r, s.seed, planted=False)),
}
# below this many r-subsets, sample by enumeration; above it, by rejection
_ENUMERATE_LIMIT = 200_000


@dataclass(frozen=True)
class InstanceSpec:
    """Generator parameters for one reproducible instance, named by its token."""

    family: str  # a key of FAMILIES
    n: int
    r: int
    m: int = 0
    seed: int = 0

    def generate(self) -> tuple[Hypergraph, Optional[list[int]]]:
        if self.n < self.r:
            raise ValueError(f"instance spec needs n >= r, got n={self.n}, r={self.r}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown instance family {self.family!r}")
        reads, generator = FAMILIES[self.family]
        for key in ("m", "seed"):  # instance_id could not name a key the family does not read
            if getattr(self, key) and key not in reads:
                raise ValueError(f"a {self.family} instance takes no {key}, got {key}={getattr(self, key)}")
        return generator(self)

    def instance_id(self) -> str:
        keys = "".join(f",{key}={getattr(self, key)}" for key in FAMILIES[self.family][0])
        return f"{self.family}:r={self.r},n={self.n}{keys}"

    @classmethod
    def parse(cls, token: str) -> list[InstanceSpec]:
        """instance_id's inverse: the specs of a 'family:key=value,...' token, one per n of a
        lo..hi range (only n may be one); m and seed default to 0, and generate checks the family."""
        family, _, body = token.partition(":")
        fields = {}
        for item in body.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise ValueError(f"bad corpus spec field {item!r} in {token!r}")
            key = key.strip()
            if key in fields:
                raise ValueError(f"repeated corpus spec key {key!r} in {token!r}")
            fields[key] = value.strip()
        if unknown := set(fields) - {"n", "m", "r", "seed"}:
            raise ValueError(f"unknown corpus spec keys {sorted(unknown)} in {token!r}")
        if "n" not in fields or "r" not in fields:
            raise ValueError(f"corpus spec {token!r} needs at least n and r")

        def integer(key: str, text: str) -> int:
            try:
                return int(text)
            except ValueError:
                raise ValueError(f"non-integer {key} value {text!r} in {token!r}") from None

        lo, dots, hi = fields["n"].partition("..")
        n_values = range(integer("n", lo), integer("n", hi if dots else lo) + 1)
        if not n_values:
            raise ValueError(f"empty n range {fields['n']!r} in {token!r}")
        kwargs = {key: integer(key, fields[key]) for key in ("r", "m", "seed") if key in fields}
        return [cls(family, n, **kwargs) for n in n_values]


def gen_random(n: int, m: int, r: int, seed: int) -> Hypergraph:
    """m distinct edges drawn uniformly without replacement from all
    r-subsets of the n nodes; a pure function of its arguments."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    limit = math.comb(n, r)
    if m > limit:
        raise ValueError(f"m={m} exceeds the {limit} distinct r-subsets of {n} nodes")
    rng = random.Random(seed)
    if limit <= _ENUMERATE_LIMIT:
        edges = rng.sample(list(itertools.combinations(range(n), r)), m)
    else:
        edges = set()
        while len(edges) < m:
            edges.add(tuple(sorted(rng.sample(range(n), r))))
    return Hypergraph(n, r, edges)


def gen_planted(n: int, m: int, r: int, seed: int) -> tuple[Hypergraph, list[int]]:
    """Draw a uniform surjective coloring, then m distinct r-subsets that are
    NOT rainbow under it. The coloring is a valid witness by construction.

    Subsets are rejection-sampled; more than 1000*m rejections means the
    request is infeasible (n = r being the canonical case: every full-size
    subset of a bijection is rainbow).
    """
    if n < r:
        raise ValueError(f"no surjective coloring exists for n={n} < r={r}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if m > math.comb(n, r):
        raise ValueError(f"m={m} exceeds the {math.comb(n, r)} distinct r-subsets")
    rng = random.Random(seed)
    witness = _surjective_coloring(n, r, rng)
    chosen: set[tuple[int, ...]] = set()
    rejections = 0
    while len(chosen) < m:
        edge = tuple(sorted(rng.sample(range(n), r)))
        if edge in chosen or len({witness[v] for v in edge}) == r:
            rejections += 1
            if rejections > 1000 * m:
                raise ValueError(
                    f"infeasible: could not find {m} non-rainbow r-subsets "
                    f"for n={n}, r={r} (planted coloring leaves too few)"
                )
            continue
        chosen.add(edge)
    return Hypergraph(n, r, chosen), witness


def _surjective_coloring(n: int, r: int, rng: random.Random) -> list[int]:
    """A uniform surjective coloring of n >= r nodes, drawn by rejection."""
    while True:
        witness = [rng.randint(1, r) for _ in range(n)]
        if set(witness) == set(range(1, r + 1)):
            return witness


def gen_shadow(n: int, r: int, seed: int, planted: bool = True) -> tuple[Hypergraph, Optional[list[int]]]:
    """One edge T + {w} per (r-1)-set T of the nodes, in itertools.combinations
    order, w drawn by rng.choice among the nodes outside T; duplicates merge.
    Every (r-1)-set lies in an edge, so no det root certifies, and m comes
    out near C(n, r-1). planted first draws a surjective coloring as
    gen_planted does and allows only the w that keep the edge non-rainbow
    under it, skipping a T with none (only at tiny n): the coloring is then
    a witness, returned with the graph. Unplanted, the answer is left to
    chance, and the witness is None."""
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    rng = random.Random(seed)
    witness = _surjective_coloring(n, r, rng) if planted else None
    edges = []
    for t in itertools.combinations(range(n), r - 1):
        outside = [w for w in range(n) if w not in t]
        if witness is not None:
            colors = {witness[v] for v in t}
            if len(colors) == r - 1:  # T's colors are distinct: w must repeat one
                outside = [w for w in outside if witness[w] in colors]
        if outside:
            edges.append((*t, rng.choice(outside)))
    return Hypergraph(n, r, edges), witness


def gen_complete(n: int, r: int) -> Hypergraph:
    """All C(n, r) subsets as edges. Never colorable: any surjective coloring
    has one node of each color, and that r-set is a rainbow edge."""
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    return Hypergraph(n, r, itertools.combinations(range(n), r))


def planted_comment(witness: list[int]) -> str:
    """Comment line carrying the planted witness; parsers skip it."""
    return "c planted: " + format_certificate(witness)


def read_planted_witness(text: str) -> Optional[list[int]]:
    """Recover the witness from a planted instance's comment, if present."""
    for line in text.splitlines():
        tokens = line.split()
        if tokens[:2] == ["c", "planted:"]:
            return parse_certificate(" ".join(tokens[2:]))
    return None
