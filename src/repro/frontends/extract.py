"""Shared extraction driver: real source text to analyzable IR.

``extract_source`` dispatches on language (``python`` / ``c`` /
``loop``), runs the frontend translation to the mini-Fortran AST, then
the *existing* prepass optimizer and permissive affine lowering — so a
frontend-extracted program is, by construction, indistinguishable from
the same nests written natively in the ``.loop`` language.  On top of
the lowered program it produces:

* :class:`~repro.frontends.base.ExtractedNest` records grouping the
  IR statements by outermost source nest (via source spans and the
  ``line{N}`` statement labels);
* a merged, line-ordered skip list in which lowering-stage refusals
  (strings like ``"line 4: non-affine product..."``, or the rank
  rule's ``"line 4: array 'a' used with rank 2 after rank 1"``) are
  mapped onto the same stable reason codes the frontends use;
* the free symbolic names the lowered program depends on.

Extraction is deterministic: identical text yields identical results,
and nests/skips appear in source order.  For ``.loop`` text the
program is ``compile_source(text, strict=False).program`` by
construction: the same parse, optimize and lower.

:func:`extract_or_raise` is the one place where a file that parsed
nothing becomes a typed :class:`~repro.lang.errors.ParseError`, for
every entry point that needs a program to analyze.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.frontends.base import (
    ExtractedNest,
    ExtractResult,
    SkipReason,
    SkipRecord,
    SourceSpan,
    Untranslatable,
)
from repro.ir.program import Program
from repro.lang.ast_nodes import ForLoop, SourceProgram, walk_statements
from repro.lang.errors import LangError, ParseError
from repro.lang.lower import RANK_WORDING, lower
from repro.lang.parser import parse as parse_loop
from repro.opt.pipeline import optimize

__all__ = [
    "LANGUAGES",
    "EXTENSIONS",
    "detect_language",
    "extract_source",
    "extract_or_raise",
    "extract_path",
    "lowering_skip_record",
]

LANGUAGES = ("python", "c", "loop")

EXTENSIONS = {
    ".py": "python",
    ".c": "c",
    ".h": "c",
    ".loop": "loop",
}

_SKIP_LINE = re.compile(r"^line (\d+): (.*)$", re.DOTALL)

# Lowering-stage refusal messages mapped onto the stable reason codes
# (message fragments are repro.lang.lower's wording).
_LOWERING_REASONS = (
    ("unnormalized step", SkipReason.NONNORMALIZABLE_STEP),
    ("not loop-invariant", SkipReason.SCALAR_NOT_INVARIANT),
    ("non-affine product", SkipReason.NONAFFINE_SUBSCRIPT),
    ("array element", SkipReason.NONAFFINE_SUBSCRIPT),
    (RANK_WORDING, SkipReason.RANK_MISMATCH),
)


def detect_language(path: str | Path) -> str:
    """Frontend language for a file path, by extension (default loop)."""
    return EXTENSIONS.get(Path(path).suffix.lower(), "loop")


def extract_source(
    text: str, lang: str = "loop", name: str = "<source>"
) -> ExtractResult:
    """Extract loop nests from source text in the given language.

    Never raises on malformed input: a file-level parse failure (a C
    file that ends inside a function body included) yields an empty
    program with a single ``parse-error`` skip record, so batch runs
    over real repositories keep going.
    """
    if lang not in LANGUAGES:
        raise ValueError(
            f"unknown language {lang!r}; expected one of {', '.join(LANGUAGES)}"
        )
    # The Python and C translators load on first use: a process that
    # only ever sees .loop text (a daemon on .loop sessions) skips them.
    try:
        if lang == "python":
            from repro.frontends.pyfront import translate_python

            ast_program, skipped, spans = translate_python(text, name)
        elif lang == "c":
            from repro.frontends.cfront import translate_c

            ast_program, skipped, spans = translate_c(text, name)
        else:
            ast_program = parse_loop(text, name=name)
            skipped = []
            spans = _loop_spans(ast_program)
    except (SyntaxError, LangError, Untranslatable) as err:
        line = getattr(err, "lineno", None) or getattr(err, "line", 0) or 0
        record = SkipRecord(SkipReason.PARSE_ERROR, line, str(err))
        return ExtractResult(
            language=lang,
            name=name,
            program=Program(name),
            skipped=[record],
        )
    result = lower(optimize(ast_program), strict=False)
    skipped = skipped + [lowering_skip_record(entry) for entry in result.skipped]
    skipped.sort(key=lambda record: record.line)
    return ExtractResult(
        language=lang,
        name=name,
        program=result.program,
        nests=_group_nests(lang, result.program, spans),
        skipped=skipped,
        symbols=result.symbols | _free_symbols(result.program),
    )


def extract_or_raise(
    text: str, lang: str = "loop", name: str = "<source>"
) -> ExtractResult:
    """:func:`extract_source` for callers that need a program.

    A file that parsed nothing and holds a ``parse-error`` record
    raises :class:`~repro.lang.errors.ParseError`, the record's detail
    its message.  Any other extraction is returned as it is, its skip
    records included.
    """
    extraction = extract_source(text, lang=lang, name=name)
    if not extraction.program.statements:
        for record in extraction.skipped:
            if record.reason == SkipReason.PARSE_ERROR:
                raise ParseError(record.detail)
    return extraction


def extract_path(path: str | Path, lang: str | None = None) -> ExtractResult:
    """Extract from a file, detecting the language from its extension."""
    path = Path(path)
    return extract_source(
        path.read_text(),
        lang=lang or detect_language(path),
        name=str(path),
    )


def lowering_skip_record(entry: str) -> SkipRecord:
    """A :attr:`~repro.lang.lower.LowerResult.skipped` message as a
    skip record with its stable reason code."""
    match = _SKIP_LINE.match(entry)
    line = int(match.group(1)) if match else 0
    detail = match.group(2) if match else entry
    detail = re.sub(r"^\d+:\d+: ", "", detail)  # drop LowerError's loc prefix
    for fragment, reason in _LOWERING_REASONS:
        if fragment in detail:
            return SkipRecord(reason, line, detail)
    return SkipRecord(SkipReason.LOWERING, line, detail)


def _loop_spans(program: SourceProgram) -> list[tuple[str, SourceSpan]]:
    """Outermost-loop spans of a native mini-Fortran program."""
    spans: list[tuple[str, SourceSpan]] = []
    for stmt in program.body:
        if isinstance(stmt, ForLoop):
            last = max(
                (inner.line for inner in walk_statements([stmt])),
                default=stmt.line,
            )
            spans.append(("<file>", SourceSpan(stmt.line, max(last, stmt.line))))
    return spans


_LABEL_LINE = re.compile(r"^line(\d+)$")


def _group_nests(
    lang: str, program: Program, spans: list[tuple[str, SourceSpan]]
) -> list[ExtractedNest]:
    """Each labelled statement joins the first nest whose span holds its
    line.  Spans overlap only where a function is defined inside a loop,
    and the function's nests come first in ``spans``."""
    nests = [
        ExtractedNest(index=i, language=lang, context=context, span=span)
        for i, (context, span) in enumerate(spans)
    ]
    owner: dict[int, ExtractedNest] = {}
    for nest in nests:
        for line in range(nest.span.line, nest.span.end_line + 1):
            owner.setdefault(line, nest)
    for stmt in program.statements:
        match = _LABEL_LINE.match(stmt.label)
        nest = owner.get(int(match.group(1))) if match else None
        if nest is not None:
            nest.statements.append(stmt)
    return nests


def _free_symbols(program: Program) -> frozenset[str]:
    """Free names the lowered statements depend on (non loop-variable)."""
    out: set[str] = set()
    for stmt in program.statements:
        out |= stmt.nest.symbols()
        loop_vars = set(stmt.nest.variables)
        for ref in stmt.refs():
            out |= ref.variables() - loop_vars
    return frozenset(out)
