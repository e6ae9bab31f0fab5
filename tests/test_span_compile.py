"""Delta compile ≡ full compile (repro.opt.spans).

``IncrementalSession.update_source`` recompiles only the top-level
statements an edit changed.  Its contract is that the result equals
``compile_source(text, strict=False)``: the same program (labels and
``source_lines`` included), the same symbols and skip messages, or the
same error class and message.  This suite checks it over the 3,157
inputs of the front-end digest corpus, over a seeded edit storm sent
as text, and on the cases that must fall back to a whole-text compile
(a scalar assignment, a parse error).  It also pins how much is
reused, so a fast path that always falls back cannot pass.
"""

import random

import pytest

from repro.core.incremental import IncrementalSession
from repro.fuzz.edits import mutate, storm_program
from repro.lang import LangError, ParseError
from repro.lang.lower import label_line, line_label, skip_line
from repro.lang.unparse import program_to_source
from repro.opt import compile_source
from repro.opt.spans import SpanCompiler, split_spans
from tests.test_lang_digests import _bases, _inputs


def _outcome(compile_text, text):
    """A compile's LowerResult parts, or its error class and message."""
    try:
        result = compile_text(text)
    except LangError as err:
        return type(err).__name__, str(err)
    return result.program, result.symbols, result.skipped


def _edit_of_kind(program, rng, prefix, arrays=12):
    while True:
        edited, description = mutate(program, rng, arrays=arrays)
        if description.startswith(prefix):
            return edited


SCALAR_SOURCE = """\
n = 10
for i = 1 to n do
  a[i] = a[i - 1]
end
for j = 1 to 5 do
  b[j] = b[j + 1]
end
"""


class TestDeltaCompileEqualsFull:
    def test_digest_corpus_in_order_through_one_compiler_per_base(self):
        inputs = mismatches = reused = 0
        first = []
        for key, text in _bases().items():
            spans = SpanCompiler()
            for index, variant in enumerate(_inputs(key, text)):
                inputs += 1
                runs = []

                def span_compile(source):
                    runs.append(spans.compile(source))
                    return runs[-1].result

                got = _outcome(span_compile, variant)
                want = _outcome(lambda t: compile_source(t, strict=False), variant)
                if got != want:
                    mismatches += 1
                    first.append(f"{key}#{index}")
                reused += runs[0].reused if runs else 0
        assert inputs == 3157
        assert not mismatches, f"{mismatches} inputs differ: {first[:20]}"
        assert reused > 0  # the corpus exercised the reuse path

    def test_seeded_storm_sent_as_text(self):
        rng = random.Random(20261017)
        program = storm_program(17, statements=20, arrays=6)
        session = IncrementalSession()
        session.update_source(program_to_source(program))
        kinds = set()
        for _ in range(200):
            program, description = mutate(program, rng, arrays=6)
            kinds.add(description.split()[0])
            text = program_to_source(program)
            report = session.update_source(text, verify=True)
            assert report.verified
            assert session.program == compile_source(text).program
        assert kinds == {"insert", "delete", "mutate"}

    def test_scalar_assignment_compiles_the_whole_text(self):
        session = IncrementalSession()
        first = session.update_source(SCALAR_SOURCE)
        assert (first.spans_compiled, first.spans_reused) == (3, 0)
        edited = SCALAR_SOURCE.replace("n = 10", "n = 20")
        report = session.update_source(edited, verify=True)
        assert (report.spans_compiled, report.spans_reused) == (3, 0)
        assert session.program == compile_source(edited).program
        (loop,) = session.program.statements[0].nest.loops
        assert loop.upper.as_constant() == 20

    def test_adding_a_scalar_never_reuses_a_span_that_reads_it(self):
        session = IncrementalSession()
        before = "read(n)\n" + SCALAR_SOURCE.split("\n", 1)[1]
        session.update_source(before)
        report = session.update_source(SCALAR_SOURCE, verify=True)
        assert report.spans_reused == 0
        assert session.program == compile_source(SCALAR_SOURCE).program

    def test_a_span_with_a_skip_message_is_always_recompiled(self):
        # The skip message embeds its line, so the span is not reused.
        text = (
            "for i = 1 to 10 do\n  for j = 1 to 10 do\n    a[i * j] = 0\n"
            "  end\nend\nfor k = 1 to 5 do\n  b[k] = b[k + 1]\nend\n"
        )
        session = IncrementalSession()
        session.update_source(text)
        edited = "read(n)\n" + text.replace("b[k + 1]", "b[k + 2]")
        report = session.update_source(edited, verify=True)
        assert (report.spans_compiled, report.spans_reused) == (3, 0)
        assert report.skipped == compile_source(edited, strict=False).skipped
        assert report.skipped[0].startswith("line 4: ")

    def test_parse_error_changes_nothing_and_reuse_resumes(self):
        program = storm_program(3, statements=12, arrays=6)
        text = program_to_source(program)
        session = IncrementalSession()
        session.update_source(text)
        kept_program, kept_graph = session.program, session.graph
        kept_spans = session.spans._spans
        broken = text.replace("do\n", "do do\n", 1)
        with pytest.raises(ParseError) as err:
            session.update_source(broken)
        with pytest.raises(ParseError) as full:
            compile_source(broken)
        assert str(err.value) == str(full.value)
        assert session.program is kept_program
        assert session.graph is kept_graph
        assert session.spans._spans is kept_spans
        edited = program_to_source(
            _edit_of_kind(program, random.Random(1), "mutate bounds", arrays=6)
        )
        report = session.update_source(edited, verify=True)
        assert (report.spans_compiled, report.spans_reused) == (1, 11)

    def test_line_helpers_read_what_lowering_writes(self):
        text = (
            "for i = 1 to 10 do\n  for j = 1 to 10 do\n    a[i * j] = 0\n"
            "    b[i] = 1\n  end\nend\n"
        )
        result = compile_source(text, strict=False)
        (stmt,) = result.program.statements
        assert label_line(stmt.label) == 4
        assert stmt.label == line_label(4)
        assert [skip_line(message) for message in result.skipped] == [3]

    def test_unbalanced_split_falls_back_to_the_full_error(self):
        assert split_spans(["for i = 1 to 3 do", "  a[i] = 0"]) is None
        assert split_spans(["end"]) is None
        spans = SpanCompiler()
        spans.compile("for i = 1 to 3 do\n  a[i] = 0\nend\n")
        with pytest.raises(ParseError, match="missing 'end'"):
            spans.compile("for i = 1 to 3 do\n  a[i] = 0\n")


class TestReuseIsVisible:
    """On edit-session's 100-statement program."""

    @pytest.fixture
    def session(self):
        session = IncrementalSession()
        self.program = storm_program(0, statements=100, arrays=12)
        report = session.update_source(program_to_source(self.program))
        assert (report.spans_compiled, report.spans_reused) == (100, 0)
        return session

    @pytest.mark.parametrize(
        "prefix", ["mutate bounds", "mutate subscript", "insert statement"]
    )
    def test_one_statement_edit_compiles_one_span(self, session, prefix):
        edited = _edit_of_kind(self.program, random.Random(7), prefix)
        report = session.update_source(program_to_source(edited))
        assert report.spans_compiled == 1
        assert report.spans_compiled + report.spans_reused == len(edited.statements)
        summary = report.summary()
        assert summary["spans_compiled"] == 1
        assert summary["spans_reused"] == len(edited.statements) - 1

    def test_delete_compiles_no_span(self, session):
        edited = _edit_of_kind(self.program, random.Random(7), "delete statement")
        report = session.update_source(program_to_source(edited))
        assert (report.spans_compiled, report.spans_reused) == (0, 99)
        assert session.program == compile_source(program_to_source(edited)).program

    def test_program_updates_report_no_spans(self):
        report = IncrementalSession().update(storm_program(0, statements=4))
        assert (report.spans_compiled, report.spans_reused) == (0, 0)
