"""The language frontends: Python/C extraction, goldens, round trips.

The corpus under ``tests/corpus/frontends/`` holds real loop nests in
both surface languages plus committed golden dumps of each file's
dependence graph and skip-reason list.  Regenerate the goldens after
an intentional change with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/test_frontends.py

and review the diff like any other code change.
"""

import json
import os
import pathlib
import re

import pytest

from repro.api import analyze_source
from repro.cli import main as repro_main
from repro.core.analyzer import DependenceAnalyzer
from repro.core.graph import build_graph
from repro.frontends import (
    SkipReason,
    detect_language,
    extract_path,
    extract_source,
    program_to_c,
    program_to_python,
)
from repro.lang.unparse import program_to_source
from repro.opt import compile_source
from repro.perfect import load_suite
from repro.perfect.source_gen import queries_to_source

CORPUS = pathlib.Path(__file__).parent / "corpus" / "frontends"
GOLDEN = CORPUS / "golden"
EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

SOURCES = sorted(
    path for path in CORPUS.iterdir() if path.suffix in (".py", ".c")
)
STEMS = sorted({path.stem for path in SOURCES})
# skips.py / skips.c demonstrate each language's own refusals — they
# are deliberately not semantic twins.
TWIN_STEMS = sorted(
    stem
    for stem in STEMS
    if stem != "skips"
    and (CORPUS / f"{stem}.py").exists()
    and (CORPUS / f"{stem}.c").exists()
)


def _edges(program) -> list[dict]:
    return build_graph(program, DependenceAnalyzer()).edge_dicts()


def _snapshot(path: pathlib.Path) -> dict:
    extraction = extract_path(path)
    return {
        "language": extraction.language,
        "nests": len(extraction.nests),
        "statements": len(extraction.program.statements),
        "symbols": sorted(extraction.symbols),
        "skips": [
            f"{record.reason}@{record.line}" for record in extraction.skipped
        ],
        "edges": _edges(extraction.program),
    }


# -- corpus goldens ---------------------------------------------------------


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_corpus_matches_golden(path):
    """Every corpus file's graph + skip list is pinned by a golden."""
    got = _snapshot(path)
    golden_path = GOLDEN / f"{path.name}.json"
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        golden_path.write_text(
            json.dumps(got, indent=2, sort_keys=True) + "\n"
        )
    assert golden_path.exists(), (
        f"missing golden {golden_path.name}; run with REPRO_REGEN_GOLDENS=1"
    )
    want = json.loads(golden_path.read_text())
    assert got == want


@pytest.mark.parametrize("stem", TWIN_STEMS)
def test_twins_produce_identical_graphs(stem):
    """The .py and .c renderings of one kernel are indistinguishable."""
    py = extract_path(CORPUS / f"{stem}.py")
    c = extract_path(CORPUS / f"{stem}.c")
    assert _edges(py.program) == _edges(c.program)
    assert py.symbols == c.symbols
    assert len(py.nests) == len(c.nests)


def test_corpus_covers_skip_reasons():
    """The skip corpus exercises a broad slice of the stable codes."""
    seen = set()
    for path in (CORPUS / "skips.py", CORPUS / "skips.c"):
        seen |= {record.reason for record in extract_path(path).skipped}
    assert seen >= {
        SkipReason.NON_RANGE_LOOP,
        SkipReason.UNSUPPORTED_STATEMENT,
        SkipReason.NON_LITERAL_STEP,
        SkipReason.NONAFFINE_SUBSCRIPT,
        SkipReason.SLICE_SUBSCRIPT,
        SkipReason.CALL_EXPRESSION,
        SkipReason.CONTROL_FLOW,
        SkipReason.ALIAS,
        SkipReason.POINTER,
        SkipReason.UNSUPPORTED_EXPRESSION,
        SkipReason.MALFORMED_LOOP,
    }
    assert seen <= set(SkipReason.ALL)


# -- round trips ------------------------------------------------------------


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_unparse_to_loop_roundtrip(path):
    """extract -> IR -> mini-Fortran text -> re-compile -> same graph."""
    extraction = extract_path(path)
    text = program_to_source(extraction.program)
    recompiled = compile_source(text, name="<roundtrip>", strict=False)
    assert not recompiled.skipped
    assert _edges(recompiled.program) == _edges(extraction.program)


@pytest.mark.parametrize("stem", TWIN_STEMS)
def test_emitters_roundtrip(stem):
    """IR -> emitted .py/.c -> re-extract -> bit-identical graph."""
    extraction = extract_path(CORPUS / f"{stem}.py")
    native = _edges(extraction.program)
    for lang, emit in (("python", program_to_python), ("c", program_to_c)):
        text = emit(extraction.program)
        back = extract_source(text, lang=lang, name=f"<{lang}>")
        assert not back.skipped, back.skipped
        assert _edges(back.program) == native


def test_example_stencil_twins():
    """The shipped examples/stencil.py twin matches its .loop source."""
    py = extract_path(EXAMPLES / "stencil.py")
    loop = extract_path(EXAMPLES / "stencil.loop")
    assert _edges(py.program) == _edges(loop.program)
    assert _edges(py.program)  # non-empty: the stencil has dependences


# -- extraction metadata ----------------------------------------------------


def test_detect_language():
    assert detect_language("a.py") == "python"
    assert detect_language("a.c") == "c"
    assert detect_language("a.h") == "c"
    assert detect_language("a.loop") == "loop"
    assert detect_language("a.txt") == "loop"


def test_extraction_is_deterministic():
    text = (CORPUS / "skips.py").read_text()
    first = extract_source(text, lang="python", name="x").to_dict()
    second = extract_source(text, lang="python", name="x").to_dict()
    assert first == second


def test_nests_carry_spans_and_context():
    extraction = extract_path(CORPUS / "jacobi2d.py")
    assert [nest.context for nest in extraction.nests] == [
        "jacobi2d",
        "jacobi2d",
    ]
    assert all(nest.depth == 2 for nest in extraction.nests)
    assert extraction.nests[0].span.line < extraction.nests[1].span.line
    for nest in extraction.nests:
        assert nest.loop_variables() == ("i", "j")


# A function defined inside a loop: g's nest (lines 5-6) lies inside
# f's (lines 2-7), and the frontend lists g's first.
NESTED_FUNCTION = """\
def f(a, b, n):
    for i in range(n):
        a[i] = a[i] + 1
        def g(c, m):
            for j in range(m):
                c[j] = c[j] + 1
        b[i] = a[i]
"""


def test_overlapping_spans_group_to_the_first_nest():
    extraction = extract_source(NESTED_FUNCTION, lang="python")
    g, f = extraction.nests
    assert (g.context, g.span.line, g.span.end_line) == ("g", 5, 6)
    assert (f.context, f.span.line, f.span.end_line) == ("f", 2, 7)
    assert [s.label for s in g.statements] == ["line6"]
    assert [s.label for s in f.statements] == ["line3", "line7"]


def _grouping_sources():
    for path in SOURCES:
        yield path.name, path.read_text(), detect_language(path)
    yield "nested-function", NESTED_FUNCTION, "python"
    for program in load_suite(include_symbolic=True, scale=0.05):
        yield program.name, queries_to_source(list(program.queries)), "loop"


@pytest.mark.parametrize(
    "text, lang", [pytest.param(t, lang, id=n) for n, t, lang in _grouping_sources()]
)
def test_grouping_matches_first_containing_span(text, lang):
    """The line map gives every statement the nest the old linear scan
    over the spans gave it: the first whose span holds its line."""
    extraction = extract_source(text, lang=lang)
    grouped = {id(s): nest.index for nest in extraction.nests for s in nest.statements}
    assert extraction.program.statements
    for stmt in extraction.program.statements:
        line = int(re.fullmatch(r"line(\d+)", stmt.label).group(1))
        want = None
        for nest in extraction.nests:
            if nest.span.contains(line):
                want = nest.index
                break
        assert grouped.get(id(stmt)) == want, stmt.label


def test_parse_error_is_a_skip_not_a_crash():
    extraction = extract_source("def broken(:\n", lang="python", name="x")
    assert not extraction.program.statements
    assert [r.reason for r in extraction.skipped] == [SkipReason.PARSE_ERROR]


def test_lex_error_is_a_skip_not_a_crash(tmp_path, capsys):
    """A .loop lex error is a parse-error record, like a parse error."""
    extraction = extract_source("x = $\n", lang="loop", name="x")
    assert not extraction.program.statements
    assert [(r.reason, r.line, r.detail) for r in extraction.skipped] == [
        (SkipReason.PARSE_ERROR, 1, "1:5: unexpected character '$'")
    ]
    assert analyze_source("x = $\n").extraction.skipped == extraction.skipped
    path = tmp_path / "bad.loop"
    path.write_text("x = $\n")
    assert repro_main(["extract", str(path)]) == 0
    assert "[parse-error]" in capsys.readouterr().out


def test_unknown_language_rejected():
    with pytest.raises(ValueError):
        extract_source("x", lang="fortran", name="x")


# -- python frontend unit behaviour -----------------------------------------


def _python(text: str):
    return extract_source(text, lang="python", name="<t>")


def test_python_numpy_style_subscripts():
    ext = _python(
        "def f(A, B, n):\n"
        "    for i in range(0, n):\n"
        "        for j in range(0, n):\n"
        "            A[i, j] = B[j, i]\n"
    )
    assert not ext.skipped
    (stmt,) = ext.program.statements
    assert len(stmt.write.subscripts) == 2
    assert [str(r) for r in stmt.reads] == ["B[j][i]"]


def test_python_downward_range_normalizes():
    ext = _python(
        "def f(A, B):\n"
        "    for i in range(10, 0, -1):\n"
        "        A[i] = B[i]\n"
    )
    assert not ext.skipped
    assert len(ext.program.statements) == 1


def test_python_augassign_is_read_modify_write():
    ext = _python(
        "def f(A, n):\n"
        "    for i in range(0, n):\n"
        "        A[i] += A[i]\n"
    )
    (stmt,) = ext.program.statements
    assert str(stmt.write) in {str(r) for r in stmt.reads}


def test_python_induction_scalar_folds():
    ext = _python(
        "def f(A, n):\n"
        "    k = 0\n"
        "    for i in range(0, n):\n"
        "        A[k] = 0\n"
        "        k = k + 2\n"
    )
    assert not ext.skipped
    (stmt,) = ext.program.statements
    assert str(stmt.write) == "A[2*i]"


def test_python_alias_refused():
    ext = _python(
        "def f(A, n):\n"
        "    row = A\n"
        "    for i in range(0, n):\n"
        "        row[i] = 0\n"
    )
    assert [r.reason for r in ext.skipped] == [SkipReason.ALIAS]
    assert not ext.program.statements


def test_python_rank_mismatch_drops_later_use():
    ext = _python(
        "def f(A, n):\n"
        "    for i in range(0, n):\n"
        "        A[i] = 0\n"
        "\n"
        "def g(A, n):\n"
        "    for i in range(0, n):\n"
        "        A[i][0] = 1\n"
    )
    assert [r.reason for r in ext.skipped] == [SkipReason.RANK_MISMATCH]
    assert len(ext.program.statements) == 1


def test_python_free_names_become_symbols():
    ext = _python(
        "def f(A):\n"
        "    for i in range(lo, hi):\n"
        "        A[i + off] = 0\n"
    )
    assert not ext.skipped
    assert ext.symbols >= {"lo", "hi", "off"}


# -- c frontend unit behaviour ----------------------------------------------


def _c(text: str):
    return extract_source(text, lang="c", name="<t>")


def test_c_bound_inclusivity():
    ext = _c(
        "void f(int n) {\n"
        "  int i;\n"
        "  for (i = 0; i <= n; i++) A[i] = 0;\n"
        "  for (i = 0; i < n; i++) B[i] = 0;\n"
        "}\n"
    )
    assert not ext.skipped
    first, second = ext.program.statements
    assert first.nest.loops[0].upper != second.nest.loops[0].upper


def test_c_downward_loop():
    ext = _c(
        "void f(void) {\n"
        "  int i;\n"
        "  for (i = 10; i > 0; i--) A[i] = A[i - 1];\n"
        "}\n"
    )
    assert not ext.skipped
    assert len(ext.program.statements) == 1


def test_c_downward_symbolic_span_skips():
    """A downward loop over a symbolic span cannot be normalized —
    exactly like its native mini-Fortran equivalent — and must say so."""
    ext = _c(
        "void f(int n) {\n"
        "  int i;\n"
        "  for (i = n; i > 0; i--) A[i] = A[i - 1];\n"
        "}\n"
    )
    assert [r.reason for r in ext.skipped] == [
        SkipReason.NONNORMALIZABLE_STEP
    ]


def test_c_compound_assignment_is_rmw():
    ext = _c(
        "void f(int n) {\n"
        "  int i;\n"
        "  for (i = 0; i < n; i++) A[i] *= 2;\n"
        "}\n"
    )
    (stmt,) = ext.program.statements
    assert str(stmt.write) in {str(r) for r in stmt.reads}


def test_c_pointer_store_poisons():
    ext = _c(
        "void f(int n) {\n"
        "  int i;\n"
        "  int *p;\n"
        "  for (i = 0; i < n; i++) p[i] = 0;\n"
        "}\n"
    )
    assert SkipReason.POINTER in {r.reason for r in ext.skipped}
    assert not ext.program.statements


def test_c_alias_refused():
    ext = _c(
        "void f(int n) {\n"
        "  int i;\n"
        "  q = A;\n"
        "  for (i = 0; i < n; i++) q[i] = 0;\n"
        "}\n"
    )
    assert SkipReason.ALIAS in {r.reason for r in ext.skipped}


def test_c_statement_recovery_keeps_going():
    """A refused statement never swallows its neighbours."""
    ext = _c(
        "void f(int n) {\n"
        "  int i;\n"
        "  for (i = 0; i < n; i++) {\n"
        "    A[i % 3] = 0;\n"
        "    B[i] = A[i];\n"
        "  }\n"
        "}\n"
    )
    assert SkipReason.UNSUPPORTED_EXPRESSION in {
        r.reason for r in ext.skipped
    }
    assert [str(stmt.write) for stmt in ext.program.statements] == ["B[i]"]


def test_c_preprocessor_and_comments_skipped():
    ext = _c(
        "#include <stdio.h>\n"
        "#define N 100\n"
        "/* block */\n"
        "// line\n"
        "void f(int n) {\n"
        "  int i;\n"
        "  for (i = 0; i < n; i++) A[i] = 0;\n"
        "}\n"
    )
    assert not ext.skipped
    assert len(ext.program.statements) == 1


# -- api integration --------------------------------------------------------


def test_analyze_source_api():
    from repro.api import analyze_source

    text = (CORPUS / "seidel.py").read_text()
    result = analyze_source(text, lang="python", name="seidel.py")
    assert result.report.pairs
    summary = result.summary()
    assert summary["nests"] == 1
    assert summary["unique_pairs"] == len(result.report.pairs)
