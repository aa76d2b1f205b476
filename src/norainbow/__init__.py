"""Solvers for the surjective no-rainbow coloring problem on r-uniform
hypergraphs: a deterministic bounded-radius branching search, a randomized
restart walk, a brute-force oracle, and instance generators."""

from .det_solver import det_nrc, enumerate_initial_pairs, local_search, search_radius
from .hypergraph import (
    COLORABLE,
    NOT_COLORABLE,
    BranchTarget,
    CandidatePair,
    Hypergraph,
    ParseError,
    SearchOutcome,
    SearchState,
    SearchStats,
    background_completion,
    completion_safe,
    first_rainbow_edge,
    format_certificate,
    has_fully_frozen_rainbow,
    is_no_rainbow_coloring,
    is_rainbow_edge,
    parse_certificate,
    parse_instance,
    write_instance,
)
from .instances import (
    InstanceSpec,
    gen_complete,
    gen_planted,
    gen_random,
    read_planted_witness,
)
from .oracle import OracleReport, oracle_decide, oracle_verify_certificate
from .rand_solver import derive_rng, rand_local_search, rand_nrc, trial_count

__version__ = "0.1.0"
