"""One rank per array, decided once, in lowering, for every language.

The dependence system needs one rank per array.  Lowering refuses a
statement whose references use an array at another rank than an
earlier reference, in the statement or in an earlier lowered
statement, like any other statement it cannot lower.  So
``extract_source(text, "loop").program`` equals
``compile_source(text, strict=False).program`` by construction, and
every CLI verb answers a program that reuses an array at a second rank
with the conflicting statement skipped as ``rank-mismatch``.  The
files under ``tests/corpus/ranks/`` are ``.loop``/``.py``/``.c``
triplets with a conflict across statements (``a``) and one within a
statement (``c``).
"""

import pathlib

import pytest

from repro.cli import main as repro_main
from repro.frontends import SkipReason, extract_source
from repro.lang import LangError, LowerError
from repro.opt import compile_source
from tests.test_lang_digests import _bases, _inputs

RANKS = pathlib.Path(__file__).parent / "corpus" / "ranks"
LANGS = ["loop", "py", "c"]
TWINS = [str(RANKS / f"two_ranks.{suffix}") for suffix in LANGS]

ACROSS = """\
for i = 1 to 10 do
  a[i] = a[i - 1]
end
for i = 1 to 10 do
  a[i][1] = 0
end
"""

WITHIN = """\
for i = 1 to 10 do
  a[i] = a[i - 1][0]
end
"""

# The same conflicts in each language: within one statement, then
# across two.
CASES = {
    "loop": (WITHIN, ACROSS),
    "python": (
        "def f(A, n):\n    for i in range(1, n):\n        A[i] = A[i - 1][0]\n",
        "def f(A, n):\n    for i in range(1, n):\n        A[i] = A[i - 1]\n"
        "    for i in range(1, n):\n        A[i][1] = 0\n",
    ),
    "c": (
        "void f(int n) {\n  for (i = 1; i < n; i++)\n    A[i] = A[i - 1][0];\n}\n",
        "void f(int n) {\n  for (i = 1; i < n; i++)\n    A[i] = A[i - 1];\n"
        "  for (i = 1; i < n; i++)\n    A[i][1] = 0;\n}\n",
    ),
}


class TestLowering:
    def test_a_conflict_across_statements_skips_the_later_one(self):
        result = compile_source(ACROSS, strict=False)
        assert [str(stmt.write) for stmt in result.program.statements] == ["a[i]"]
        assert result.skipped == ["line 5: array 'a' used with rank 2 after rank 1"]

    def test_a_conflict_within_a_statement_skips_it(self):
        result = compile_source(WITHIN, strict=False)
        assert result.program.statements == []
        assert result.skipped == ["line 2: array 'a' used with rank 2 after rank 1"]

    @pytest.mark.parametrize("text", [ACROSS, WITHIN], ids=["across", "within"])
    def test_strict_lowering_refuses_the_statement(self, text):
        with pytest.raises(LowerError, match="used with rank 2 after rank 1"):
            compile_source(text)

    def test_only_lowered_statements_fix_a_rank(self):
        # The first statement is refused for its product, so it fixes
        # no rank and the second keeps rank 2.
        text = "for i = 1 to 10 do\n  a[i * i] = 0\n  a[i][1] = 0\nend\n"
        result = compile_source(text, strict=False)
        assert [str(stmt.write) for stmt in result.program.statements] == [
            "a[i][1]"
        ]
        assert "non-affine product" in result.skipped[0]


@pytest.mark.parametrize("lang", sorted(CASES))
def test_every_language_skips_a_conflict_as_rank_mismatch(lang):
    within, across = CASES[lang]
    first = extract_source(within, lang)
    assert first.program.statements == []
    assert [record.reason for record in first.skipped] == [SkipReason.RANK_MISMATCH]
    second = extract_source(across, lang)
    assert len(second.program.statements) == 1
    assert [record.reason for record in second.skipped] == [SkipReason.RANK_MISMATCH]
    (record,) = second.skipped
    assert record.detail.endswith("used with rank 2 after rank 1")


class TestOneFrontEnd:
    @pytest.mark.parametrize(
        "text",
        [ACROSS, WITHIN, (RANKS / "two_ranks.loop").read_text()],
        ids=["across", "within", "two_ranks"],
    )
    def test_extract_equals_compile_source_on_rank_conflicts(self, text):
        want = compile_source(text, strict=False).program
        assert extract_source(text, "loop").program == want

    def test_extract_equals_compile_source_on_the_digest_corpus(self):
        parsed = 0
        for key, text in _bases().items():
            for index, variant in enumerate(_inputs(key, text)):
                try:
                    want = compile_source(variant, strict=False).program
                except LangError:
                    continue
                parsed += 1
                assert extract_source(variant, "loop").program == want, (key, index)
        assert parsed == 432


class TestCliVerbs:
    """Each verb answers, exit 0 or 1, with the skip on stderr."""

    @pytest.mark.parametrize("path", TWINS, ids=LANGS)
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["deps"],
            ["parallelize"],
            ["dot"],
            ["stats", "--jobs", "1"],
            ["batch", "--jobs", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_verb_skips_the_conflict(self, path, argv, capsys):
        code = repro_main([argv[0], path, *argv[1:]])
        assert code in (0, 1)
        err = capsys.readouterr().err
        assert err.count("[rank-mismatch]") == 2
        assert "error" not in err

    @pytest.mark.parametrize("path", TWINS, ids=LANGS)
    def test_explain_answers_every_pair(self, path, capsys):
        assert repro_main(["explain", path, "--list"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert listed == ["[0] a[i] vs a[i - 1]"]
        assert repro_main(["explain", path, "--pair", "0"]) == 0
        captured = capsys.readouterr()
        assert "=> dependent" in captured.out
        assert "[rank-mismatch]" in captured.err

    @pytest.mark.parametrize("name", [f"two_ranks.{suffix}" for suffix in LANGS])
    def test_watch_skips_the_conflict(self, name, tmp_path, capsys):
        path = tmp_path / name
        path.write_text((RANKS / name).read_text())
        assert repro_main(["watch", str(path), "--count", "1", "--verify"]) == 0
        captured = capsys.readouterr()
        assert captured.err.count("[rank-mismatch]") == 2
        assert "1 stmts, 1 pairs" in captured.out

    def test_the_twins_print_identical_deps(self, capsys):
        outputs = []
        for path in TWINS:
            assert repro_main(["deps", path]) == 1
            outputs.append(capsys.readouterr().out)
        assert outputs == ["flow   a[i] -> a[i - 1] (<) [carried]\n"] * 3
