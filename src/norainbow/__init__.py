"""Solvers for the surjective no-rainbow coloring problem on r-uniform
hypergraphs: a deterministic bounded-radius branching search, a randomized
restart walk, a brute-force oracle, and instance generators."""

from .det_solver import det_nrc, det_starts, local_search, search_radius
from .hypergraph import (
    COLORABLE,
    NOT_COLORABLE,
    Hypergraph,
    ParseError,
    SearchOutcome,
    SearchStats,
    format_certificate,
    is_no_rainbow_coloring,
    parse_certificate,
    parse_instance,
    write_instance,
)
from .instances import (
    InstanceSpec,
    gen_complete,
    gen_planted,
    gen_random,
    gen_shadow,
    read_planted_witness,
)
from .oracle import OracleReport, oracle_decide, oracle_verify_certificate
from .rand_solver import rand_nrc, trial_count

__version__ = "0.1.0"
