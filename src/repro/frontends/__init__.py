"""Real-source frontends: lower C and Python loop nests into repro.ir.

See DESIGN.md section 16.  ``extract_source``/``extract_path`` are the
entry points, and ``extract_or_raise`` the one that turns a file that
parsed nothing into a :class:`~repro.lang.errors.ParseError`;
:mod:`repro.frontends.pyfront` and
:mod:`repro.frontends.cfront` hold the per-language translators, and
:mod:`repro.frontends.base` the shared record types and the stable
skip-reason codes.
"""

from repro.frontends.base import (
    ExtractedNest,
    ExtractResult,
    SkipReason,
    SkipRecord,
    SourceSpan,
    Untranslatable,
)
from repro.frontends.emit import program_to_c, program_to_python
from repro.frontends.extract import (
    EXTENSIONS,
    LANGUAGES,
    detect_language,
    extract_or_raise,
    extract_path,
    extract_source,
    lowering_skip_record,
)

__all__ = [
    "ExtractedNest",
    "ExtractResult",
    "SkipReason",
    "SkipRecord",
    "SourceSpan",
    "Untranslatable",
    "LANGUAGES",
    "EXTENSIONS",
    "detect_language",
    "extract_source",
    "extract_or_raise",
    "extract_path",
    "lowering_skip_record",
    "program_to_python",
    "program_to_c",
]
