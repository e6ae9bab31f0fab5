"""The incremental re-analysis gauntlet (repro.core.incremental).

The module's contract is *delta ≡ full*: after any sequence of edits,
the incrementally maintained graph must be bit-identical — same edge
list, same DOT text, same ``edge_dicts`` serde — to a cold full
re-analysis of the current program.  This suite enforces it over a
500-edit seeded storm, pins the efficiency claim (a single-statement
edit on a ~100-nest program re-queries < 10% of pairs), and checks the
degradation rule (a budget-degraded verdict is answered conservatively
but never retained).
"""

import random

import pytest

import repro.core.graph
import repro.core.incremental
import repro.ir.fingerprint
import repro.ir.program
from repro.api import AnalysisConfig, AnalysisSession
from repro.core.incremental import (
    IncrementalMismatchError,
    IncrementalSession,
    full_graph,
)
from repro.frontends import extract_or_raise
from repro.fuzz.edits import EDIT_KINDS, mutate, storm_program
from repro.ir.affine import const, var
from repro.ir.arrays import AccessKind, ArrayRef
from repro.ir.loops import Loop, LoopNest
from repro.ir.program import Program, Statement, reference_pairs
from repro.robust.budget import ResourceBudget
from repro.system.depsystem import Direction


def _assert_identical(session: IncrementalSession, program) -> None:
    reference = full_graph(program)
    assert session.graph.edges == reference.edges
    assert session.graph.to_dot() == reference.to_dot()
    assert session.graph.edge_dicts() == reference.edge_dicts()


def _retained_pairs(session: IncrementalSession) -> int:
    """Pair answers the session keeps for its next update."""
    return sum(
        len(row.pairs) for rows in session._rows.values() for row in rows
    )


def _step(session: IncrementalSession, program):
    """One update, checked against a cold full re-analysis."""
    report = session.update(program)
    _assert_identical(session, program)
    return report


def _stmt(array: str, rank: int = 1) -> Statement:
    """``array[i]...[i] = array[i - 1]...[i]`` over ``i = 1 .. 9``."""
    nest = LoopNest([Loop("i", const(1), const(9))])
    rest = (var("i"),) * (rank - 1)
    return Statement(
        nest,
        ArrayRef(array, (var("i"), *rest), AccessKind.WRITE),
        (ArrayRef(array, (var("i") - 1, *rest), AccessKind.READ),),
    )


def _with(program, statements) -> Program:
    return Program(program.name, list(statements), program.source_lines)


def _edit_bounds(stmt: Statement) -> Statement:
    loops = [Loop(loop.var, loop.lower, loop.upper + 1) for loop in stmt.nest]
    return Statement(LoopNest(loops), stmt.write, stmt.reads, stmt.label)


class TestFirstUpdate:
    def test_first_update_is_a_full_analysis(self):
        program = storm_program(seed=0, statements=8, arrays=4)
        session = IncrementalSession()
        report = session.update(program)
        assert report.requery_fraction == 1.0
        assert report.reused_pairs == 0
        assert report.delta.dirty == tuple(range(8))
        _assert_identical(session, program)

    def test_unchanged_program_reuses_everything(self):
        program = storm_program(seed=0, statements=8, arrays=4)
        session = IncrementalSession()
        session.update(program)
        report = session.update(program)
        assert report.delta.unchanged
        assert report.requeried_pairs == 0
        assert report.requery_fraction == 0.0
        _assert_identical(session, program)

    def test_summary_shape(self):
        program = storm_program(seed=0, statements=4, arrays=3)
        report = IncrementalSession().update(program)
        summary = report.summary()
        for key in (
            "statements",
            "kept",
            "dirty",
            "removed",
            "pairs",
            "reused",
            "requeried",
            "requery_fraction",
            "degraded_pairs",
            "edges",
            "elapsed_ms",
        ):
            assert key in summary


class TestEditStorm:
    """The 500-edit gauntlet: every step verified against full."""

    def test_500_seeded_edits_stay_identical_to_full(self):
        rng = random.Random(20260807)
        program = storm_program(seed=20260807, statements=8, arrays=4)
        session = IncrementalSession()
        session.update(program, verify=True)
        kinds_seen = set()
        reused_any = 0
        for _ in range(500):
            program, description = mutate(program, rng, arrays=4)
            kinds_seen.add(description.split()[0])
            # verify=True runs the cold full analysis and raises
            # IncrementalMismatchError on any divergence.
            report = session.update(program, verify=True)
            assert report.verified
            reused_any += report.reused_pairs
        # the storm actually exercised every edit kind, and the delta
        # path actually reused work (it isn't full re-analysis in
        # disguise)
        assert kinds_seen == {"insert", "delete", "mutate"}
        assert reused_any > 0

    @pytest.mark.parametrize("seed", [1, 7])
    def test_interleaved_storms_with_shared_session(self, seed):
        """Alternating between two diverging programs still verifies:
        the pair cache only ever holds the *current* program's pairs,
        so flip-flopping editors cannot resurrect stale answers."""
        rng = random.Random(seed)
        base = storm_program(seed=seed, statements=6, arrays=3)
        left, _ = mutate(base, rng, arrays=3)
        right, _ = mutate(base, rng, arrays=3)
        session = IncrementalSession()
        for program in (base, left, right, left, base, right):
            session.update(program, verify=True)


class TestRequeryBound:
    """The headline efficiency claim on a ~100-nest program."""

    def test_single_statement_edits_requery_under_ten_percent(self):
        program = storm_program(seed=2026, statements=100, arrays=12)
        session = IncrementalSession()
        first = session.update(program)
        assert first.total_pairs == 1646  # the program is actually dense
        rng = random.Random(99)
        kinds_seen = set()
        fractions = []
        for _ in range(8):
            edited, description = mutate(program, rng, arrays=12)
            kinds_seen.add(description.split()[0])
            report = session.update(edited)
            assert report.requery_fraction < 0.10, (
                f"{description}: re-queried {report.requeried_pairs} of "
                f"{report.total_pairs} pairs"
            )
            fractions.append(report.requery_fraction)
            _assert_identical(session, edited)
            # each trial edits the same base program, so re-seed it
            session.update(program)
        assert kinds_seen == {"insert", "delete", "mutate"}
        assert max(fractions) == 43 / 1689  # 0.0255: an insert at 16

    def test_kept_pairs_cost_no_engine_queries(self):
        program = storm_program(seed=2026, statements=100, arrays=12)
        session = IncrementalSession()
        session.update(program)
        rng = random.Random(3)
        edited, _ = mutate(program, rng, arrays=12)
        report = session.update(edited)
        assert report.reused_pairs + report.requeried_pairs == (
            report.total_pairs
        )
        assert report.reused_pairs > report.requeried_pairs * 9


class TestDegradation:
    """Degraded verdicts: conservative in the graph, never retained."""

    def test_degraded_pairs_are_conservative_and_not_cached(self):
        program = storm_program(seed=5, statements=6, arrays=3)
        blown = ResourceBudget(deadline_s=0.0)
        session = IncrementalSession(budget=blown)
        report = session.update(program)
        assert report.degraded_pairs > 0
        # degraded answers reach the graph as the lattice top ...
        degraded_edges = [
            e
            for e in session.graph.edges
            if any(c == Direction.ANY for c in e.vector)
        ]
        assert degraded_edges
        # ... but are excluded from the retained pair answers
        assert _retained_pairs(session) == (
            report.total_pairs - report.degraded_pairs
        )

    def test_degraded_pairs_are_requeried_next_update(self):
        program = storm_program(seed=5, statements=6, arrays=3)
        blown = ResourceBudget(deadline_s=0.0)
        session = IncrementalSession(budget=blown)
        first = session.update(program)
        assert first.degraded_pairs > 0
        assert session.graph.edges != full_graph(program).edges
        # lift the pressure: the same session, no budget, same program
        session.budget = None
        second = session.update(program)
        assert second.requeried_pairs == first.degraded_pairs
        assert second.degraded_pairs == 0
        # with the hedge lifted the graph now matches ungoverned full
        _assert_identical(session, program)
        third = session.update(program)
        assert third.requeried_pairs == 0
        _assert_identical(session, program)
        assert _retained_pairs(session) == third.total_pairs

    def test_verify_raises_on_divergence(self):
        program = storm_program(seed=5, statements=6, arrays=3)
        session = IncrementalSession(budget=ResourceBudget(deadline_s=0.0))
        session.update(program)
        with pytest.raises(IncrementalMismatchError):
            # the degraded graph is conservative, not exact: verify
            # against the ungoverned full analysis must fail loudly
            session.verify()


class TestSplice:
    """Edits that move rows, arrays and identities: every step ≡ full."""

    def test_insert_at_zero_changes_the_array_order(self):
        program = storm_program(seed=3, statements=12, arrays=4)
        session = IncrementalSession()
        _step(session, program)
        arrays = list(dict.fromkeys(s.ref.array for s in program.sites()))
        late = arrays[-1]
        rank = next(s.ref.rank for s in program.sites() if s.ref.array == late)
        edited = _with(program, [_stmt(late, rank), *program.statements])
        report = _step(session, edited)
        assert report.requeried_pairs < report.total_pairs
        assert session.graph.edges[0].source.ref.array == late
        assert list(session._rows)[0] == late
        _step(session, program)

    def test_deleting_the_only_user_of_an_array(self):
        base = storm_program(seed=4, statements=10, arrays=4)
        statements = list(base.statements)
        statements.insert(5, _stmt("solo"))
        program = _with(base, statements)
        session = IncrementalSession()
        _step(session, program)
        assert "solo" in session._rows
        del statements[5]
        report = _step(session, _with(base, statements))
        assert "solo" not in session._rows
        assert report.requeried_pairs == 0

    def test_one_update_that_edits_two_statements(self):
        program = storm_program(seed=6, statements=14, arrays=4)
        session = IncrementalSession()
        _step(session, program)
        statements = list(program.statements)
        statements[2] = _edit_bounds(statements[2])
        statements[9] = _edit_bounds(statements[9])
        report = _step(session, _with(program, statements))
        assert report.delta.dirty == (2, 9)

    def test_one_update_that_swaps_two_statements(self):
        program = storm_program(seed=6, statements=14, arrays=3)
        session = IncrementalSession()
        _step(session, program)
        statements = list(program.statements)
        statements[3], statements[10] = statements[10], statements[3]
        report = _step(session, _with(program, statements))
        assert not report.delta.dirty and not report.delta.removed
        # the swapped statements' pairs with each other and with the
        # statements between them changed order: they are re-queried
        assert report.requeried_pairs > 0
        statements[0], statements[1] = statements[1], statements[0]
        _step(session, _with(program, statements))
        _step(session, program)

    def test_fingerprint_twins(self):
        base = storm_program(seed=8, statements=8, arrays=3)
        twin = base.statements[2]
        statements = list(base.statements)
        statements[5:5] = [twin, twin]
        session = IncrementalSession()
        _step(session, _with(base, statements))
        steps = [
            lambda s: s.insert(0, twin),  # a fourth twin, first of all
            lambda s: s.pop(4),  # a twin from the middle
            lambda s: s.__setitem__(1, _edit_bounds(s[1])),
            lambda s: s.__setitem__(0, _edit_bounds(s[0])),  # not a twin
            lambda s: s.append(twin),
        ]
        for edit in steps:
            edit(statements)
            _step(session, _with(base, statements))

    def test_python_text_session(self):
        text = (
            "def f(A, B, n):\n"
            "    for i in range(1, n):\n"
            "        A[i] = A[i - 1] + B[i]\n"
            "    for i in range(0, n):\n"
            "        B[i] = A[i + 1]\n"
        )
        edits = [
            text.replace("range(1, n)", "range(2, n)"),
            text.replace(
                "def f(A, B, n):\n",
                "def f(A, B, n):\n"
                "    for j in range(0, n):\n"
                "        B[j] = B[j + 2]\n",
            ),
            text.replace("        B[i] = A[i + 1]\n", "        B[i] = B[i]\n"),
            text,
        ]
        session = IncrementalSession()
        for source in [text, *edits]:
            report = session.update_source(source, lang="python")
            program = extract_or_raise(source, lang="python").program
            assert session.program == program
            _assert_identical(session, program)
            assert report.spans_compiled == report.spans_reused == 0
        again = session.update_source(text, lang="python")
        assert again.delta.unchanged and again.requeried_pairs == 0


class TestDirtyWork:
    """An edit pays for its dirty pairs: pinned by call counts."""

    def test_bound_and_subscript_edits_classify_only_requeried_pairs(
        self, monkeypatch
    ):
        program = storm_program(seed=2026, statements=100, arrays=12)
        session = IncrementalSession()
        session.update(program)
        calls = {"classify_pair": 0, "reference_pairs": 0}
        classify = repro.core.incremental.classify_pair

        def counted_classify(*args, **kwargs):
            calls["classify_pair"] += 1
            return classify(*args, **kwargs)

        def counted_pairs(*args, **kwargs):
            calls["reference_pairs"] += 1
            return reference_pairs(*args, **kwargs)

        monkeypatch.setattr(
            repro.core.incremental, "classify_pair", counted_classify
        )
        for module in (repro.ir.program, repro.core.graph, repro.core.incremental):
            monkeypatch.setattr(
                module, "reference_pairs", counted_pairs, raising=False
            )
        rng = random.Random(5)
        kinds = set()
        while kinds != {"bounds", "subscript"}:
            edited, description = mutate(program, rng, arrays=12)
            if not description.startswith("mutate"):
                continue
            kinds.add(description.split()[1])
            calls["classify_pair"] = 0
            report = session.update(edited)
            assert 0 < report.requeried_pairs < report.total_pairs / 10
            assert calls["classify_pair"] <= report.requeried_pairs
            assert calls["reference_pairs"] == 0
            program = edited
        monkeypatch.undo()
        _assert_identical(session, program)

    def test_an_edit_hashes_only_the_statements_it_made(self, monkeypatch):
        program = storm_program(seed=2026, statements=100, arrays=12)
        session = IncrementalSession()
        session.update(program)
        hashed = []
        fingerprint = repro.ir.fingerprint.statement_fingerprint

        def counted_fingerprint(stmt):
            hashed.append(stmt)
            return fingerprint(stmt)

        for module in (repro.ir.fingerprint, repro.core.incremental):
            monkeypatch.setattr(
                module, "statement_fingerprint", counted_fingerprint
            )
        rng = random.Random(11)
        kinds = set()
        for _ in range(12):
            edited, description = mutate(program, rng, arrays=12)
            kinds.add(description.split()[0])
            hashed.clear()
            session.update(edited)
            assert len(hashed) <= 1, description
            program = edited
        assert kinds == {"insert", "delete", "mutate"}
        monkeypatch.undo()
        _assert_identical(session, program)

    def test_state_holds_only_the_current_program_after_a_storm(self):
        rng = random.Random(41)
        program = storm_program(seed=41, statements=30, arrays=6)
        session = IncrementalSession()
        session.update(program)
        for _ in range(200):
            program, _ = mutate(program, rng, arrays=6)
            report = session.update(program)
        assert report.degraded_pairs == 0
        assert _retained_pairs(session) == report.total_pairs
        assert report.total_pairs == len(reference_pairs(program))
        sites = program.sites()
        assert sum(len(rows) for rows in session._rows.values()) == len(sites)
        assert set(session._rows) == {site.ref.array for site in sites}
        assert len(session._ids) == len(session._sites) == len(
            program.statements
        )
        _assert_identical(session, program)


class TestApiSurface:
    def test_analysis_session_update_delegates(self):
        program = storm_program(seed=11, statements=6, arrays=3)
        session = AnalysisSession(AnalysisConfig())
        assert session.graph is None
        report = session.update(program, verify=True)
        assert report.verified
        assert session.graph is not None
        assert len(session.graph.edges) == report.edges
        rng = random.Random(11)
        edited, _ = mutate(program, rng, arrays=3)
        second = session.update(edited, verify=True)
        assert second.reused_pairs > 0

    def test_incremental_shares_the_session_memoizer(self):
        program = storm_program(seed=11, statements=6, arrays=3)
        session = AnalysisSession(AnalysisConfig())
        session.update(program)
        assert session._incremental.memoizer is session.memoizer

    def test_edit_kinds_constant_is_exhaustive(self):
        assert set(EDIT_KINDS) == {"bound", "subscript", "insert", "delete"}

    def test_reference_pair_order_is_the_graph_order(self):
        # splice correctness rests on rebuilding edges in
        # reference_pairs order; pin that the order is deterministic
        program = storm_program(seed=11, statements=6, arrays=3)
        first = [
            (a.site_index, b.site_index)
            for a, b in reference_pairs(program)
        ]
        second = [
            (a.site_index, b.site_index)
            for a, b in reference_pairs(program)
        ]
        assert first == second
