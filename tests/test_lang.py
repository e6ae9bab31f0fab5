"""Tests for the mini-Fortran lexer, parser and lowering."""

import pytest

from repro.cli import main as repro_main
from repro.ir.program import reference_pairs
from repro.lang import (
    Access,
    Assign,
    BinOp,
    ForLoop,
    LexError,
    LowerError,
    Name,
    ParseError,
    Read,
    lower,
    parse,
    tokenize,
)
from repro.lang.tokens import TokenKind


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("a[i] = b + 3 * c")
        kinds = [t.kind for t in tokens]
        assert TokenKind.IDENT in kinds
        assert TokenKind.LBRACKET in kinds
        assert kinds[-1] == TokenKind.EOF
        assert kinds[-2] == TokenKind.NEWLINE

    def test_keywords_recognized(self):
        tokens = tokenize("for i = 1 to 10 do")
        assert tokens[0].kind == TokenKind.KEYWORD
        assert tokens[0].text == "for"

    def test_comments_stripped(self):
        tokens = tokenize("x = 1 # a comment\ny = 2")
        texts = [t.text for t in tokens]
        assert "comment" not in " ".join(texts)

    def test_newlines_collapse(self):
        tokens = tokenize("x = 1\n\n\ny = 2")
        newlines = [t for t in tokens if t.kind == TokenKind.NEWLINE]
        assert len(newlines) == 2

    def test_line_numbers(self):
        tokens = tokenize("x = 1\ny = 2")
        y_token = [t for t in tokens if t.text == "y"][0]
        assert y_token.line == 2

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("x = $")

    def test_comment_newline_sits_at_the_hash(self):
        # Comment characters are not counted, so the NEWLINE ending a
        # commented line, and EOF after a final one, sit at the '#'.
        tokens = tokenize("x = 1 # note\ny = 2  # end")
        ends = [
            (t.kind, t.line, t.column) for t in tokens if t.kind in ("newline", "eof")
        ]
        assert ends == [("newline", 1, 7), ("newline", 2, 8), ("eof", 2, 8)]

    @pytest.mark.parametrize(
        "text, column",
        [("for i = 1 to ² do", 14), ("x = 1²", 6), ("x = ①", 5), ("a² = ½", 6)],
    )
    def test_non_decimal_numeral_is_a_lex_error(self, text, column):
        # str.isdigit() holds for '²' and '①', but int() reads neither:
        # an INT is a run of decimal digits, and no token starts with
        # another numeral.  Inside a name, one is still a name character.
        with pytest.raises(LexError) as info:
            tokenize(text)
        assert (info.value.line, info.value.column) == (1, column)
        bad = text[column - 1]
        assert str(info.value) == f"1:{column}: unexpected character {bad!r}"

    def test_decimal_digits_of_other_scripts(self):
        ints = [t for t in tokenize("x = ٣٣ + a²") if t.kind == TokenKind.INT]
        assert [(t.text, t.int_value) for t in ints] == [("٣٣", 33)]
        assert parse("x = ٣").body[0].expr.value == 3


class TestParser:
    def test_scalar_assign(self):
        program = parse("x = 3 + 4")
        (stmt,) = program.body
        assert isinstance(stmt, Assign)
        assert isinstance(stmt.target, Name)

    def test_array_assign(self):
        program = parse("a[i+1][j] = a[i][j]")
        (stmt,) = program.body
        assert isinstance(stmt.target, Access)
        assert len(stmt.target.subscripts) == 2
        assert isinstance(stmt.expr, Access)

    def test_read(self):
        program = parse("read(n)")
        (stmt,) = program.body
        assert isinstance(stmt, Read) and stmt.ident == "n"

    def test_loop(self):
        program = parse(
            "for i = 1 to 10 do\n  a[i] = 0\nend for"
        )
        (loop,) = program.body
        assert isinstance(loop, ForLoop)
        assert loop.var == "i" and loop.step == 1
        assert len(loop.body) == 1

    def test_loop_step(self):
        program = parse("for i = 1 to 10 step 2 do\nend")
        (loop,) = program.body
        assert loop.step == 2

    def test_negative_step(self):
        program = parse("for i = 10 to 1 step -1 do\nend")
        (loop,) = program.body
        assert loop.step == -1

    def test_zero_step_rejected(self):
        with pytest.raises(ParseError):
            parse("for i = 1 to 10 step 0 do\nend")

    def test_nested_loops(self):
        program = parse(
            "for i = 1 to n do\n"
            "  for j = 1 to i do\n"
            "    a[i][j] = 1\n"
            "  end for\n"
            "end for"
        )
        (outer,) = program.body
        (inner,) = outer.body
        assert isinstance(inner, ForLoop) and inner.var == "j"

    def test_missing_end(self):
        with pytest.raises(ParseError):
            parse("for i = 1 to 10 do\n  a[i] = 0\n")

    def test_precedence(self):
        program = parse("x = 1 + 2 * 3")
        (stmt,) = program.body
        assert isinstance(stmt.expr, BinOp) and stmt.expr.op == "+"
        assert isinstance(stmt.expr.right, BinOp)
        assert stmt.expr.right.op == "*"

    def test_unary_minus(self):
        program = parse("x = -i + 3")
        (stmt,) = program.body
        assert isinstance(stmt.expr, BinOp)

    def test_parentheses(self):
        program = parse("x = 2 * (i + 1)")
        (stmt,) = program.body
        assert stmt.expr.op == "*"

    def test_garbage_statement(self):
        with pytest.raises(ParseError):
            parse("to = 3")
        with pytest.raises(ParseError):
            parse("[x] = 3")


class TestCliExitCodes:
    def test_non_decimal_numeral_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.loop"
        path.write_text("for i = 1 to ² do\n  a[i] = a[i - 1]\nend\n")
        assert repro_main(["analyze", str(path)]) == 2
        assert "1:14: unexpected character '²'" in capsys.readouterr().err


class TestLowering:
    def test_simple_loop(self):
        result = lower(parse("for i = 1 to 10 do\n  a[i+1] = a[i]\nend"))
        (stmt,) = result.program.statements
        assert str(stmt.write) == "a[i + 1]"
        assert stmt.nest.depth == 1

    def test_reference_pairs_extracted(self):
        result = lower(
            parse(
                "for i = 1 to 10 do\n"
                "  a[i] = a[i+1] + b[i]\n"
                "  b[i] = a[i]\n"
                "end"
            )
        )
        pairs = reference_pairs(result.program)
        arrays = sorted({p[0].ref.array for p in pairs})
        assert arrays == ["a", "b"]

    def test_symbols_from_read(self):
        result = lower(parse("read(n)\nfor i = 1 to n do\n  a[i] = 0\nend"))
        assert result.symbols == {"n"}
        (stmt,) = result.program.statements
        assert stmt.nest.symbols() == {"n"}

    def test_nonaffine_subscript_strict(self):
        with pytest.raises(LowerError):
            lower(parse("for i = 1 to 9 do\n  a[i*i] = 0\nend"))

    def test_nonaffine_subscript_permissive(self):
        result = lower(
            parse("for i = 1 to 9 do\n  a[i*i] = 0\nend"), strict=False
        )
        assert result.program.statements == []
        assert result.skipped

    def test_indirect_subscript_rejected(self):
        with pytest.raises(LowerError):
            lower(parse("for i = 1 to 9 do\n  a[b[i]] = 0\nend"))

    def test_varying_scalar_in_subscript_rejected(self):
        source = parse(
            "for i = 1 to 9 do\n  k = k + i\n  a[k] = 0\nend"
        )
        with pytest.raises(LowerError):
            lower(source)

    def test_unnormalized_step_rejected(self):
        with pytest.raises(LowerError):
            lower(parse("for i = 1 to 9 step 2 do\n  a[i] = 0\nend"))

    def test_scalar_statements_ignored(self):
        result = lower(parse("x = 3\nfor i = 1 to 5 do\n  a[i] = x + 0*i\nend"),
                       strict=False)
        # x is assigned, so a[x...] would be rejected; but the RHS here
        # uses x only outside subscripts -- allowed.
        assert len(result.program.statements) <= 1
