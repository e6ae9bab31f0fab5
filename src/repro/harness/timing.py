"""Per-test cost measurements (paper section 7's msec/test numbers).

The paper timed the four tests on a MIPS R2000: SVPC ~0.1 ms, Acyclic
~0.5 ms, Loop Residue ~0.9 ms, Fourier-Motzkin ~3 ms per test — the
cost ordering that justifies the cascade order.  Absolute numbers are
hardware-bound; we measure each test on a representative input drawn
from the same workload bucket and report times plus ratios to SVPC.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.deptests.acyclic import AcyclicTest
from repro.deptests.fourier_motzkin import FourierMotzkinTest
from repro.deptests.loop_residue import LoopResidueTest
from repro.deptests.svpc import SvpcTest
from repro.perfect.patterns import make_query
from repro.system.constraints import ConstraintSystem
from repro.system.depsystem import build_problem
from repro.system.transform import gcd_transform

__all__ = ["representative_system", "time_tests", "TestTiming"]

# Workload bucket that exercises each test.
_BUCKET_FOR_TEST = {
    "svpc": "svpc",
    "acyclic": "acyclic",
    "loop_residue": "loop_residue",
    "fourier_motzkin": "fourier_motzkin",
}


def representative_system(test_name: str, idx: int = 0) -> ConstraintSystem:
    """A transformed constraint system that the named test decides."""
    query = make_query(_BUCKET_FOR_TEST[test_name], idx)
    problem = build_problem(query.ref1, query.nest1, query.ref2, query.nest2)
    outcome = gcd_transform(problem)
    assert outcome.transformed is not None
    system = outcome.transformed.system
    if test_name in ("loop_residue", "fourier_motzkin"):
        # These run on the Acyclic test's residual in the real cascade.
        elimination = AcyclicTest().eliminate(system)
        if elimination.residual is not None:
            system = elimination.residual
    return system


@dataclass
class TestTiming:
    name: str
    microseconds: float
    ratio_to_svpc: float


def time_tests(repeats: int = 200) -> list[TestTiming]:
    """Measure per-invocation cost of each cascade test."""
    tests = {
        "svpc": SvpcTest(),
        "acyclic": AcyclicTest(),
        "loop_residue": LoopResidueTest(),
        "fourier_motzkin": FourierMotzkinTest(),
    }
    measured: dict[str, float] = {}
    for name, test in tests.items():
        systems = [representative_system(name, idx) for idx in range(5)]
        start = time.perf_counter()
        for _ in range(repeats):
            for system in systems:
                test.run(system)
        elapsed = time.perf_counter() - start
        measured[name] = 1e6 * elapsed / (repeats * len(systems))
    base = measured["svpc"] or 1.0
    return [
        TestTiming(name, microseconds, microseconds / base)
        for name, microseconds in measured.items()
    ]

