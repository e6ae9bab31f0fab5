"""Recompile only the top-level statements an edit changed.

:func:`~repro.opt.pipeline.compile_source` pays for the whole file on
every call.  A :class:`SpanCompiler` remembers, for the last text it
compiled, what each top-level statement lowered to, keyed by the
statement's exact source lines (its *span*).  On the next text:

1. :func:`split_spans` cuts the text into one line span per top-level
   statement by counting ``for``/``if`` openers and ``end`` closers;
2. every span whose text is unchanged is reused: its lowered
   statements (relabelled ``line{N}`` when the span moved), its
   statement fingerprints and the symbols its ``read`` statements
   declare;
3. the other spans compile in one parse → optimize → lower pass over
   the text with the reused spans' lines blanked, so labels,
   ``source_lines``, skip messages and errors keep their absolute
   lines.

The result equals ``compile_source(text, strict=False)``, errors
included.  Why that holds:

* On text the parser accepts, statements start on fresh lines and
  every ``end`` closes one ``for``/``if``, so the opener/closer count
  puts span boundaries exactly where the parser's top-level statements
  begin and end.  A reused span therefore sits between top-level
  statements, and blanking its lines leaves the other statements'
  tokens, lines and columns as they are.
* Parsing, loop normalization and lowering are local to a statement,
  except through scalars and ranks.  ``substitute_inductions``
  carries scalar values from one statement to the next and lowering
  rejects subscripts that use any assigned scalar: any text that
  assigns a scalar is compiled whole, and no span of it is kept for
  reuse.  Lowering's rank rule reads the statements before it, which
  a reused span was lowered without: when the assembled statements
  disagree in rank, or the pass skipped a statement for its rank, the
  whole text is compiled.  Otherwise every kept statement agrees in
  rank with every one before it, as in the full compile, and every
  statement the pass skipped was skipped for a reason local to it.
* A span whose compile reported a skip message is never reused (the
  message embeds its line).  Every other span declares exactly the
  symbols of the ``read`` statements inside it.
* When the split does not balance, or the pass raises any front-end
  error, the whole text is compiled by ``compile_source``, so the
  error raised is the full compile's own.  A failed compile leaves the
  remembered spans as they were.

With nothing to reuse (the first text) the pass blanks nothing and is
one whole-text compile.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass

from repro.ir.fingerprint import statement_fingerprint
from repro.ir.program import Program, Statement
from repro.lang.ast_nodes import Assign, Name, Read, walk_statements
from repro.lang.errors import LangError
from repro.lang.lower import (
    RANK_WORDING,
    LowerResult,
    label_line,
    line_label,
    lower,
    rank_conflict,
    skip_line,
)
from repro.lang.parser import parse
from repro.opt.pipeline import compile_source, optimize

__all__ = ["SpanCompiler", "SpanCompile", "split_spans"]

# A word as the lexer reads one: a word character that is not a digit,
# then word characters.  Digits before it belong to a number token.
_WORD = re.compile(r"[^\W\d]\w*")
_OPENERS = frozenset({"for", "if"})


def split_spans(lines: list[str]) -> list[tuple[int, int]] | None:
    """``[start, end)`` line indices of each top-level statement.

    A span starts at a line with tokens at depth 0 and ends after the
    line that brings the depth back to 0.  ``for`` and ``if`` open
    unless they follow ``end`` (``end for``); every ``end`` closes.
    Returns None when the count goes negative or ends above 0.
    """
    spans: list[tuple[int, int]] = []
    depth = 0
    start = 0
    for index, line in enumerate(lines):
        cut = line.find("#")
        if cut >= 0:
            line = line[:cut]
        if depth == 0:
            if not line.strip(" \t\r"):
                continue
            start = index
        if "for" in line or "if" in line or "end" in line:
            previous = ""
            for word in _WORD.findall(line):
                if word == "end":
                    depth -= 1
                    if depth < 0:
                        return None
                elif word in _OPENERS and previous != "end":
                    depth += 1
                previous = word
        if depth == 0:
            spans.append((start, index + 1))
    return spans if depth == 0 else None


@dataclass(frozen=True)
class _Span:
    """What one top-level statement compiled to, at line ``start``."""

    start: int
    statements: tuple[Statement, ...]
    fingerprints: tuple[str, ...]
    symbols: frozenset[str]

    def moved_to(self, start: int) -> _Span:
        delta = start - self.start
        if delta == 0:
            return self
        statements = tuple(
            Statement(
                stmt.nest,
                stmt.write,
                stmt.reads,
                line_label(label_line(stmt.label) + delta),
            )
            for stmt in self.statements
        )
        return _Span(start, statements, self.fingerprints, self.symbols)


@dataclass
class SpanCompile:
    """One :meth:`SpanCompiler.compile`: the result, each statement's
    fingerprint, and how many spans were compiled and reused."""

    result: LowerResult
    fingerprints: tuple[str, ...]
    compiled: int
    reused: int


class SpanCompiler:
    """``compile_source(text, strict=False)`` that reuses the spans an
    edit left unchanged since the last successful call."""

    def __init__(self) -> None:
        self._spans: dict[str, _Span] = {}

    def compile(self, text: str, name: str = "<source>") -> SpanCompile:
        lines = text.split("\n")
        bounds = split_spans(lines)
        if bounds is None:
            return self._whole(text, name, 0)
        keys = ["\n".join(lines[start:end]) for start, end in bounds]
        reuse = [self._spans.get(key) for key in keys]
        reused = len(reuse) - reuse.count(None)
        if reused:
            for (start, end), span in zip(bounds, reuse):
                if span is not None:
                    lines[start:end] = [""] * (end - start)
            blanked = "\n".join(lines)
        else:
            blanked = text
        try:
            tree = parse(blanked, name=name)
            scalar = any(
                isinstance(stmt, Assign) and isinstance(stmt.target, Name)
                for stmt in walk_statements(tree.body)
            )
            # A scalar read across spans: only the whole text is exact.
            result = None if scalar and reused else lower(optimize(tree), strict=False)
        except LangError:
            result = None
        if result is None:
            return self._whole(text, name, len(bounds))

        starts = [start for start, _ in bounds]

        def span_of(line: int) -> int:
            return bisect_right(starts, line - 1) - 1

        compiled: dict[int, list[Statement]] = {}
        for stmt in result.program.statements:
            compiled.setdefault(span_of(label_line(stmt.label)), []).append(stmt)
        symbols: dict[int, set[str]] = {}
        for top in tree.body:
            reads = symbols.setdefault(span_of(top.line), set())
            for stmt in walk_statements([top]):
                if isinstance(stmt, Read):
                    reads.add(stmt.ident)
        skipped = {span_of(skip_line(message)) for message in result.skipped}

        spans: dict[str, _Span] = {}
        statements: list[Statement] = []
        fingerprints: list[str] = []
        for index, (key, span) in enumerate(zip(keys, reuse)):
            if span is not None:
                span = span.moved_to(starts[index] + 1)
            else:
                stmts = tuple(compiled.get(index, ()))
                span = _Span(
                    starts[index] + 1,
                    stmts,
                    tuple(statement_fingerprint(stmt) for stmt in stmts),
                    frozenset(symbols.get(index, ())),
                )
            statements.extend(span.statements)
            fingerprints.extend(span.fingerprints)
            if not scalar and index not in skipped:
                spans[key] = span
        if reused and _ranks_read_other_spans(statements, result.skipped):
            return self._whole(text, name, len(bounds))
        program = Program(name, statements, source_lines=len(lines))
        merged = set(result.symbols)
        for span in spans.values():
            merged |= span.symbols
        self._spans = spans
        return SpanCompile(
            result=LowerResult(program, frozenset(merged), result.skipped),
            fingerprints=tuple(fingerprints),
            compiled=len(bounds) - reused,
            reused=reused,
        )

    def _whole(self, text: str, name: str, spans: int) -> SpanCompile:
        """``compile_source`` itself, reported as ``spans`` compiled
        spans; no span is kept for reuse."""
        result = compile_source(text, name=name, strict=False)
        self._spans = {}
        return SpanCompile(
            result=result,
            fingerprints=tuple(
                statement_fingerprint(stmt) for stmt in result.program.statements
            ),
            compiled=spans,
            reused=0,
        )


def _ranks_read_other_spans(
    statements: list[Statement], skipped: list[str]
) -> bool:
    """Whether a span compile's rank decisions may differ from the full
    compile's: its statements disagree in rank, or it skipped one for
    its rank without seeing the reused spans' ranks."""
    if any(RANK_WORDING in message for message in skipped):
        return True
    ranks: dict[str, int] = {}
    return any(rank_conflict(stmt.refs(), ranks) for stmt in statements)
