"""Exactness on subscript coefficients wider than 64 bits.

Every case below has subscript coefficients in ``[2**62, 2**63)`` on a
two-deep nest of short loops, and two-dimensional references, so the
Extended GCD change of variables multiplies coefficients together: at
least one row of the t-space system carries a coefficient of magnitude
``>= 2**63``, past what a signed 64-bit slot holds.  The cascade works
on Python ints, so these rows must decide exactly like small ones.

Half of the cases plant a collision (the second reference's constants
are chosen so that one iteration pair touches the same element); the
rest are random and independent.  Each case's verdict and direction
vectors are checked against the enumeration oracle.
"""

import random

import pytest

from repro.core.analyzer import DependenceAnalyzer
from repro.core.memo import Memoizer
from repro.ir import builder as B
from repro.oracle.enumerate import oracle_direction_vectors
from repro.system.depsystem import build_problem
from repro.system.transform import gcd_transform

SEED = 20261017
N_CASES = 24
WIDE_LO, WIDE_HI = 2**62, 2**63


def _wide(rng: random.Random) -> int:
    return rng.choice((1, -1)) * rng.randrange(WIDE_LO, WIDE_HI)


def _case(index: int):
    """Seeded reference pair: planted collision on even indices."""
    rng = random.Random(f"{SEED}:{index}")
    uppers = [rng.randint(2, 3), rng.randint(2, 3)]
    nest = B.nest(("i", 1, uppers[0]), ("j", 1, uppers[1]))
    point1 = [rng.randint(1, u) for u in uppers]
    point2 = [rng.randint(1, u) for u in uppers]
    subs1, subs2 = [], []
    for _dim in range(2):
        row1 = [_wide(rng), _wide(rng)]
        row2 = [_wide(rng), _wide(rng)]
        const1 = rng.randint(-3, 3)
        if index % 2 == 0:
            hit = row1[0] * point1[0] + row1[1] * point1[1] + const1
            const2 = hit - row2[0] * point2[0] - row2[1] * point2[1]
        else:
            const2 = rng.randint(-3, 3)
        subs1.append(B.v("i") * row1[0] + B.v("j") * row1[1] + const1)
        subs2.append(B.v("i") * row2[0] + B.v("j") * row2[1] + const2)
    return B.ref("a", subs1, write=True), nest, B.ref("a", subs2), nest


def _widest_t_coefficient(case) -> int:
    outcome = gcd_transform(build_problem(*case))
    if outcome.independent:
        return 0
    rows = outcome.transformed.system.constraints
    return max((abs(c) for con in rows for c in con.coeffs), default=0)


def _wide_cases():
    """The first ``N_CASES`` seeded cases whose t-space rows pass int64."""
    cases = []
    index = 0
    while len(cases) < N_CASES:
        case = _case(index)
        if _widest_t_coefficient(case) >= WIDE_HI:
            cases.append((index, case))
        index += 1
        assert index < 4 * N_CASES, "generator stopped producing wide rows"
    return cases


CASES = _wide_cases()


def test_cases_cover_both_verdicts():
    verdicts = {bool(oracle_direction_vectors(*case)) for _, case in CASES}
    assert verdicts == {True, False}


@pytest.mark.parametrize("index,case", CASES, ids=[str(i) for i, _ in CASES])
def test_wide_rows_decide_like_the_oracle(index, case):
    assert _widest_t_coefficient(case) >= WIDE_HI
    truth = oracle_direction_vectors(*case)
    for memoizer in (None, Memoizer()):
        analyzer = DependenceAnalyzer(memoizer=memoizer)
        result = analyzer.analyze(*case)
        assert result.exact
        assert result.dependent == bool(truth), f"case {index}"
        if result.witness is not None:
            ref1, _, ref2, _ = case
            x = dict(zip(("i", "j", "i'", "j'"), result.witness))
            env2 = {"i": x["i'"], "j": x["j'"]}
            for sub1, sub2 in zip(ref1.subscripts, ref2.subscripts):
                assert sub1.evaluate(x) == sub2.evaluate(env2)
        vectors = analyzer.directions(*case)
        assert vectors.exact
        assert set(vectors.vectors) == truth, f"case {index}"
