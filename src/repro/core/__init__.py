"""The cascaded exact dependence analyzer — the paper's contribution."""

from repro.core.analyzer import DependenceAnalyzer
from repro.core.directions import refine_directions
from repro.core.distances import constant_distances, forced_directions
from repro.core.engine import (
    BatchReport,
    PairOutcome,
    PairQuery,
    analyze_batch,
    queries_from_program,
    queries_from_suite,
)
from repro.core.graph import DependenceGraph, build_graph
from repro.core.kinds import DependenceEdge, DependenceKind, classify_pair
from repro.core.memo import Memoizer, MemoStats, MemoTable
from repro.core.parallel import (
    LoopReport,
    aggregate_loop_reports,
    analyze_parallelism,
    carried_levels,
)
from repro.core.persist import load_memoizer, merge_memoizers, save_memoizer
from repro.core.result import DECIDED_CONSTANT, DependenceResult, DirectionResult
from repro.core.stats import TEST_ORDER, AnalyzerStats
from repro.core.symbolic import (
    has_symbolic_terms,
    problem_is_symbolic,
    symbolic_terms,
)
from repro.core.transforms import (
    gather_dependences,
    interchange_legal,
    permutation_legal,
    reversal_legal,
)
from repro.core.vectorize import VectorizationResult, vectorize

__all__ = [
    "DependenceAnalyzer",
    "DependenceResult",
    "DirectionResult",
    "DECIDED_CONSTANT",
    "refine_directions",
    "constant_distances",
    "forced_directions",
    "MemoTable",
    "MemoStats",
    "Memoizer",
    "save_memoizer",
    "load_memoizer",
    "merge_memoizers",
    "BatchReport",
    "PairOutcome",
    "PairQuery",
    "analyze_batch",
    "queries_from_program",
    "queries_from_suite",
    "aggregate_loop_reports",
    "AnalyzerStats",
    "TEST_ORDER",
    "has_symbolic_terms",
    "symbolic_terms",
    "problem_is_symbolic",
    "DependenceKind",
    "DependenceEdge",
    "classify_pair",
    "LoopReport",
    "analyze_parallelism",
    "carried_levels",
    "gather_dependences",
    "permutation_legal",
    "interchange_legal",
    "reversal_legal",
    "DependenceGraph",
    "build_graph",
    "vectorize",
    "VectorizationResult",
]
