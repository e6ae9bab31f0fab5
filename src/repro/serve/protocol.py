"""The serving wire protocol: versioned JSON lines with typed errors.

Every message is one JSON object on one ``\\n``-terminated line (UTF-8),
over TCP or stdio.  Requests carry a protocol version, a caller-chosen
id (echoed back verbatim, so pipelined responses can be matched out of
order), an operation name and an operation-specific ``params`` object::

    {"v": 1, "id": 7, "op": "analyze", "params": {"query": {...}}}

Responses are either a result or a typed error::

    {"id": 7, "ok": true, "result": {...}}
    {"id": 7, "ok": false, "error": {"code": "overloaded", "message": "..."}}

Operations
==========

===================  =======================================================
op                   params → result
===================  =======================================================
``analyze``          ``query`` (IR serde) *or* ``source`` + ``pair``;
                     optional ``directions`` (default true) →
                     one canonical dependence report
``analyze_program``  ``source`` (source text); optional
                     ``directions`` → per-pair reports + batch summary.
                     A degraded answer (``summary.degraded``) may have
                     no pairs (the deadline passed before the compile
                     finished) and means every pair is dependent
``explain``          same params as ``analyze`` → report + rendered
                     decision trace
``stats``            ``{}`` → merged metrics registry + cache statistics
``health``           ``{}`` → status / protocol / inflight snapshot
``shutdown``         ``{}`` → ``{"draining": true}``; server drains
                     in-flight work and exits 0
``open_session``     optional ``source`` → ``{"session": id, ...}``; opens
                     an incremental re-analysis session on this connection
                     (analyzing ``source`` when given).  Optional
                     ``session_id`` (client-minted durable id, the key
                     its journal replays under) + ``epoch`` (monotonic
                     incarnation counter: re-opening with a lower epoch
                     than the live session is rejected, equal-or-higher
                     replaces it — journal-replay recovery).  Both are
                     additive, so the protocol version is unchanged
``update_source``    ``session`` + ``source`` → delta statistics
                     (kept/dirty/requeried pairs, edge count); re-analyzes
                     only what the edit dirtied.  An id the server does
                     not hold answers ``unknown_session`` — the typed
                     signal for a client to replay its session journal
                     (e.g. after a reconnect or a restarted daemon)
``graph``            ``session`` → retained dependence graph as canonical
                     ``edges`` serde + ``dot`` text + last-update summary
===================  =======================================================

Every op that takes ``source`` also accepts an optional ``lang``
(``"loop"`` / ``"python"`` / ``"c"``, default ``"loop"``): non-loop
text goes through the matching :mod:`repro.frontends` extractor before
analysis.  The daemon advertises the accepted list under ``frontends``
in its ``health`` response; this is additive, so the protocol version
is unchanged.

What each op *is* — pure or mutating, control plane or analysis,
stateless or bound to a session — is declared once, in :data:`OPS`.
The server's dispatch, the client's retry eligibility and the
``repro query`` verb all read that table, so a new op is one row, and a
row cannot be half-registered.

The **canonical report** encoding (:func:`report_to_wire`) contains
only the semantic answer — verdict, deciding test, exactness,
distances, sorted direction vectors — never serving-state flags like
``from_memo``: a warm cache must answer bit-identically to a cold one.
``degraded`` is the one serving-layer field: ``True`` marks a verdict
that a deadline (or any other blown resource budget — see
:mod:`repro.robust.budget`) forced to the conservative "dependent, all
directions" answer, with ``degraded_reason`` naming the machine-readable
reason code (see :func:`degraded_report`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

from repro.api import DependenceReport
from repro.robust.budget import REASON_DEADLINE
from repro.system.depsystem import Direction

__all__ = [
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "Op",
    "OPS",
    "ErrorCode",
    "ProtocolError",
    "Request",
    "encode_request",
    "decode_request",
    "ok_response",
    "error_response",
    "encode_response",
    "decode_response",
    "report_to_wire",
    "degraded_report",
    "canonical_json",
]

#: Version 2 (the cluster release) added capability advertisement:
#: ``health`` results carry ``cluster`` (is this endpoint a
#: consistent-hash router fronting a worker fleet?) plus ``worker_id``
#: on bare workers.  Version 3 (the incremental release) added the
#: stateful session ops — ``open_session`` / ``update_source`` /
#: ``graph`` — and the ``sessions`` capability flag in ``health``.
#: The request/response framing and every pre-existing op are unchanged
#: in both revisions, so version 1 and 2 requests are still accepted —
#: negotiation is one-sided and backward: an old client may talk to a
#: new server, and a new client probes ``health`` for capabilities
#: before relying on them.  Since the router's removal ``cluster`` is
#: always false and ``worker_id`` is not sent.
PROTOCOL_VERSION = 3
MIN_PROTOCOL_VERSION = 1
SUPPORTED_VERSIONS = frozenset(
    range(MIN_PROTOCOL_VERSION, PROTOCOL_VERSION + 1)
)


@dataclass(frozen=True)
class Op:
    """One wire operation's semantics.

    ``pure``: the op is a pure function of its params, or a read-only
    probe, so a client may re-send it after a reconnect.  Only pure ops
    are ever retried; the default is the safe one.

    ``control``: the server answers the op inline, outside the
    admission limit and the drain check.

    ``session_param``: the param naming the incremental session the op
    acts on (``None``: stateless).  A stateful op bypasses the fast
    lane and single-flight.

    ``source``: the op takes ``source`` text and the optional ``lang``.
    """

    name: str
    pure: bool = False
    control: bool = False
    session_param: str | None = None
    source: bool = False

    @property
    def stateful(self) -> bool:
        return self.session_param is not None

    @property
    def handler(self) -> str:
        """The server method serving this op."""
        return f"_op_{self.name}"


#: Every op the protocol speaks, by name.
OPS = MappingProxyType(
    {
        op.name: op
        for op in (
            Op("analyze", pure=True, source=True),
            Op("analyze_program", pure=True, source=True),
            Op("explain", pure=True, source=True),
            Op("stats", pure=True, control=True),
            Op("health", pure=True, control=True),
            Op("shutdown", control=True),
            Op("open_session", session_param="session_id", source=True),
            Op("update_source", session_param="session", source=True),
            Op("graph", pure=True, session_param="session"),
        )
    }
)

# One line must always fit in a bounded buffer: requests beyond this
# are rejected with a parse error instead of ballooning server memory.
MAX_LINE_BYTES = 4 * 1024 * 1024


class ErrorCode:
    """Typed error codes a response can carry."""

    PARSE = "parse_error"  # line was not a valid JSON object
    BAD_REQUEST = "bad_request"  # missing/invalid fields or params
    UNSUPPORTED = "unsupported_op"  # unknown operation name
    VERSION = "version_mismatch"  # client protocol version != server's
    SOURCE = "source_error"  # source text failed to compile/extract
    OVERLOADED = "overloaded"  # backpressure: try again later
    SHUTTING_DOWN = "shutting_down"  # server is draining
    UNKNOWN_SESSION = "unknown_session"  # session id absent: replay your journal
    INTERNAL = "internal_error"  # unexpected server-side failure

    ALL = frozenset(
        {
            PARSE,
            BAD_REQUEST,
            UNSUPPORTED,
            VERSION,
            SOURCE,
            OVERLOADED,
            SHUTTING_DOWN,
            UNKNOWN_SESSION,
            INTERNAL,
        }
    )


class ProtocolError(Exception):
    """A request that cannot be served, with its wire error code."""

    def __init__(self, code: str, message: str, request_id: Any = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.request_id = request_id


@dataclass(frozen=True)
class Request:
    """One decoded request line."""

    id: Any
    op: str
    params: dict = field(default_factory=dict)
    version: int = PROTOCOL_VERSION


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_request(
    op: str,
    params: dict | None = None,
    request_id: Any = None,
    version: int = PROTOCOL_VERSION,
) -> bytes:
    line = canonical_json(
        {"v": version, "id": request_id, "op": op, "params": params or {}}
    )
    return line.encode("utf-8") + b"\n"


def decode_request(line: str | bytes) -> Request:
    """Parse one request line; raises :class:`ProtocolError` on defects.

    The error carries whatever request id could be salvaged, so the
    server can still address its error response.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        blob = json.loads(line)
    except ValueError as err:
        raise ProtocolError(ErrorCode.PARSE, f"invalid JSON: {err}") from err
    if not isinstance(blob, dict):
        raise ProtocolError(
            ErrorCode.PARSE, "request must be a JSON object"
        )
    request_id = blob.get("id")
    version = blob.get("v", PROTOCOL_VERSION)
    if not isinstance(version, int) or version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            ErrorCode.VERSION,
            f"protocol version {version!r} not supported "
            f"(supported: {MIN_PROTOCOL_VERSION}..{PROTOCOL_VERSION})",
            request_id,
        )
    op = blob.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "missing 'op' field", request_id
        )
    if op not in OPS:
        raise ProtocolError(
            ErrorCode.UNSUPPORTED,
            f"unknown op {op!r} (supported: {', '.join(sorted(OPS))})",
            request_id,
        )
    params = blob.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(
            ErrorCode.BAD_REQUEST, "'params' must be an object", request_id
        )
    return Request(id=request_id, op=op, params=params, version=version)


def ok_response(request_id: Any, result: Any) -> dict:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, code: str, message: str) -> dict:
    assert code in ErrorCode.ALL, code
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def encode_response(response: dict) -> bytes:
    return canonical_json(response).encode("utf-8") + b"\n"


def decode_response(line: str | bytes) -> dict:
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    blob = json.loads(line)
    if not isinstance(blob, dict) or "ok" not in blob:
        raise ProtocolError(ErrorCode.PARSE, "malformed response line")
    return blob


# -- canonical report encoding ----------------------------------------------


def report_to_wire(report: DependenceReport) -> dict:
    """The canonical wire form of one dependence answer.

    Deliberately excludes serving-state fields (``from_memo``,
    ``deduped``) and the witness point (an arbitrary representative):
    the encoding is a pure function of the *answer*, so a warm second
    run is bit-identical to a cold first one and to the serial batch
    engine's output for the same query.
    """
    return {
        "ref1": report.ref1,
        "ref2": report.ref2,
        "dependent": report.dependent,
        "decided_by": report.decided_by,
        "exact": report.exact,
        "distance": list(report.distance)
        if report.distance is not None
        else None,
        "directions": sorted(list(v) for v in report.directions)
        if report.directions is not None
        else None,
        "n_common": report.n_common,
        "degraded": report.degraded_reason is not None,
        "degraded_reason": report.degraded_reason,
    }


def degraded_report(
    ref1: str,
    ref2: str,
    n_common: int,
    want_directions: bool = True,
    reason: str = REASON_DEADLINE,
) -> dict:
    """The conservative verdict a blown deadline degrades to.

    "Dependent, under every direction" is the analysis lattice's top:
    it is correct for *any* query (a dependence tester may always
    over-approximate), merely imprecise, so a deadline can never make
    the server lie — only hedge, and say so via ``degraded: true``
    (with ``degraded_reason`` naming the blown limit; see
    :data:`repro.robust.budget.ALL_REASONS`).
    """
    vectors = [[Direction.ANY] * n_common] if n_common else [[]]
    return {
        "ref1": ref1,
        "ref2": ref2,
        "dependent": True,
        "decided_by": "deadline",
        "exact": False,
        "distance": None,
        "directions": vectors if want_directions else None,
        "n_common": n_common,
        "degraded": True,
        "degraded_reason": reason,
    }
