"""The ``python -m repro`` command-line tool.

Subcommands:

* ``analyze FILE``  — parse + optimize a mini-Fortran source file,
  run exact dependence analysis on every reference pair and print each
  pair's verdict, deciding test, distances and direction vectors.
* ``parallelize FILE`` — the same pipeline, summarized as a per-loop
  PARALLEL / serial report with the carrying dependences.
* ``deps FILE`` — classified dependence edges (flow / anti / output).
* ``extract FILE`` — show the loop nests a language frontend
  (:mod:`repro.frontends`) pulls out of real Python or C source,
  plus every skipped construct with its stable reason code.
* ``batch [FILE ...]`` — run the sharded batch engine over whole
  programs (or the synthetic PERFECT corpus when no files are given),
  with ``--jobs`` worker processes, an optional persistent
  ``--warm-cache`` memo table (loaded before the run when present,
  rewritten with the merged table afterwards), and an optional
  ``--trace`` JSONL dump of every query's decision events.
* ``explain FILE --pair N`` — pretty-print one reference pair's full
  decision trace (EGCD -> memo -> cascade stages -> verdict).
* ``stats [FILE ...]`` — run a corpus and dump the metrics registry
  (profile it with ``python -m cProfile -s cumulative -m repro stats``).
* ``fuzz`` — differential fuzzing of the exact cascade against the
  enumeration oracle (``--seed --iterations --tier --time-budget
  --shrink --corpus``), or deterministic corpus replay (``--replay``).
* ``tables ...`` — forwarded to :mod:`repro.harness` (regenerate the
  paper's tables).
* ``serve`` — run the long-lived dependence-query daemon
  (:mod:`repro.serve`): JSON-lines over TCP (or ``--stdio``), shared
  warm memo tables, optional persistent ``--cache``, per-query
  ``--deadline-ms`` degradation, SIGTERM-triggered graceful drain.
* ``query`` — one-shot client for a running daemon: ``analyze``,
  ``explain`` or ``analyze_program`` a source file, or hit the
  ``health`` / ``stats`` / ``shutdown`` control ops.
* ``watch FILE`` — incremental re-analysis as the file is edited:
  poll its mtime and re-analyze only the pairs each edit dirtied
  (:mod:`repro.core.incremental`), locally or against a daemon's
  protocol-v3 session ops via ``--endpoint`` (durable sessions: the
  client journals frames and replays them across reconnects and
  daemon restarts).
* ``ping --endpoint URL`` — one health round-trip with its latency;
  exit 0 when the endpoint answers, 3 when it does not.
* ``chaosproxy LISTEN UPSTREAM`` — the seeded network-fault proxy
  (:mod:`repro.robust.netchaos`): deterministic delay/drop/reset/
  torn-frame/partition injection between a client and an endpoint.

Reads from stdin when ``FILE`` is ``-``.

``FILE`` may be native mini-Fortran (``.loop``), Python (``.py``) or a
C subset (``.c``/``.h``); the language is picked by extension and can
be forced with ``--lang``.

Exit codes
==========

Every subcommand follows one convention:

* **0** — success, and no dependences/findings to report;
* **1** — success, but dependences (or fuzz mismatches) were found:
  ``analyze``/``deps``/``query`` report at least one dependent pair;
* **2** — usage error: unknown flags, missing or unparsable input,
  out-of-range ``--pair``;
* **3** — internal error: unexpected failure inside the tool (or an
  unreachable/overloaded server for ``query``);
* **130** — interrupted (Ctrl-C / SIGINT): the tool stops cleanly with
  no traceback; a ``batch --checkpoint`` run keeps every shard already
  flushed, so ``--resume`` picks up where the interrupt landed.

A downstream reader closing the pipe (``repro extract big.c | head``)
stops the tool quietly with exit 0 — never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.api import AnalysisSession
from repro.core.analyzer import DependenceAnalyzer
from repro.core.graph import build_graph
from repro.core.memo import Memoizer
from repro.core.parallel import analyze_parallelism
from repro.ir.program import Program, reference_pairs
from repro.lang.errors import LangError

__all__ = [
    "main",
    "EXIT_OK",
    "EXIT_DEPENDENCE",
    "EXIT_USAGE",
    "EXIT_INTERNAL",
    "EXIT_INTERRUPTED",
]

# The CLI-wide exit-code convention (documented in README.md).
EXIT_OK = 0  # success, nothing found
EXIT_DEPENDENCE = 1  # success, dependences/findings reported
EXIT_USAGE = 2  # bad invocation or unreadable/unparsable input
EXIT_INTERNAL = 3  # unexpected internal failure
EXIT_INTERRUPTED = 130  # Ctrl-C / SIGINT (128 + SIGINT, shell convention)


def _resolve_lang(path: str, lang: str | None) -> str:
    """The frontend language for a file: --lang wins, else extension."""
    from repro.frontends import detect_language

    if lang:
        return lang
    if path == "-":
        return "loop"
    return detect_language(path)


def _read_source(path: str) -> tuple[str, str]:
    if path == "-":
        return sys.stdin.read(), "<stdin>"
    return Path(path).read_text(), path


def _load_program(path: str, lang: str | None = None) -> Program:
    """The file's program, its skip records as warnings on stderr.

    A file that parsed nothing is a usage error: :class:`ParseError`
    (:func:`repro.frontends.extract_or_raise`).
    """
    from repro.frontends import extract_or_raise

    text, name = _read_source(path)
    extraction = extract_or_raise(text, lang=_resolve_lang(path, lang), name=name)
    for record in extraction.skipped:
        print(f"warning: skipped {record}", file=sys.stderr)
    return extraction.program


def _add_lang_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lang",
        choices=("loop", "python", "c"),
        default=None,
        help="source language (default: by extension — .py python, "
        ".c/.h C, else mini-Fortran .loop)",
    )


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    """The shared resource-governor flags (see repro.robust.budget)."""
    group = parser.add_argument_group(
        "resource budget",
        "bound the analysis; a blown budget degrades that query to the "
        "conservative flagged verdict instead of running away",
    )
    group.add_argument(
        "--deadline-s",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per query",
    )
    group.add_argument(
        "--max-fm-nodes",
        type=int,
        default=None,
        metavar="N",
        help="Fourier-Motzkin branch-and-bound node budget",
    )
    group.add_argument(
        "--max-constraints",
        type=int,
        default=None,
        metavar="N",
        help="live-constraint ceiling during FM elimination",
    )
    group.add_argument(
        "--max-coeff-bits",
        type=int,
        default=None,
        metavar="BITS",
        help="coefficient magnitude ceiling (bit length)",
    )
    group.add_argument(
        "--max-depth",
        type=int,
        default=None,
        metavar="N",
        help="FM elimination/branch depth ceiling",
    )


def _budget_from_args(args: argparse.Namespace):
    """A ResourceBudget from the shared flags, or None when all unset."""
    from repro.robust.budget import ResourceBudget

    budget = ResourceBudget(
        deadline_s=args.deadline_s,
        fm_branch_nodes=args.max_fm_nodes,
        max_live_constraints=args.max_constraints,
        max_coeff_bits=args.max_coeff_bits,
        max_elim_depth=args.max_depth,
    )
    return None if budget.unlimited else budget


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.api import AnalysisConfig

    program = _load_program(args.file, getattr(args, "lang", None))
    session = AnalysisSession(AnalysisConfig(budget=_budget_from_args(args)))
    pairs = reference_pairs(program)
    if not pairs:
        print("no testable reference pairs")
        return EXIT_OK
    found = 0
    for site1, site2 in pairs:
        report = session.analyze_sites(site1, site2, want_directions=True)
        verdict = "DEPENDENT" if report.dependent else "independent"
        line = f"{report.ref1} vs {report.ref2}: {verdict} [{report.decided_by}]"
        if report.degraded:
            line += f"  (degraded: {report.degraded_reason})"
        if report.dependent:
            found += 1
            vectors = " ".join(
                "(" + " ".join(v) + ")" for v in sorted(report.directions)
            )
            line += f"  directions {vectors}"
            if report.distance and any(d is not None for d in report.distance):
                line += f"  distance {report.distance}"
        print(line)
    return EXIT_DEPENDENCE if found else EXIT_OK


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs.events import write_jsonl

    program = _load_program(args.file, getattr(args, "lang", None))
    pairs = reference_pairs(program)
    if not pairs:
        print("no testable reference pairs")
        return 0
    if args.list or args.pair is None:
        for index, (site1, site2) in enumerate(pairs):
            print(f"[{index}] {site1.ref} vs {site2.ref}")
        if args.pair is None and not args.list:
            print("(pick one with --pair N)", file=sys.stderr)
        return 0
    if not 0 <= args.pair < len(pairs):
        print(
            f"error: --pair {args.pair} out of range (0..{len(pairs) - 1})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    site1, site2 = pairs[args.pair]
    session = AnalysisSession()
    explained = session.explain_sites(
        site1, site2, want_directions=not args.no_directions
    )
    print(explained.render())
    if args.jsonl:
        count = write_jsonl(explained.events, args.jsonl)
        print(f"wrote {count} events to {args.jsonl}", file=sys.stderr)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core.engine import (
        analyze_batch,
        queries_from_program,
        queries_from_suite,
    )

    queries = []
    for path in args.files:
        program = _load_program(path, getattr(args, "lang", None))
        queries.extend(queries_from_program(program))
    if args.suite or not args.files:
        from repro.perfect import load_suite

        suite = load_suite(include_symbolic=True, scale=args.scale)
        queries.extend(queries_from_suite(suite))
        print(
            f"corpus: {len(suite)} synthetic PERFECT programs",
            file=sys.stderr,
        )
    report = analyze_batch(queries, jobs=args.jobs)
    registry = report.stats.registry
    if args.json:
        print(json.dumps(registry.to_dict(), indent=2, sort_keys=True))
    else:
        print(registry.render())
    return 0


def _cmd_parallelize(args: argparse.Namespace) -> int:
    program = _load_program(args.file, getattr(args, "lang", None))
    for report in analyze_parallelism(program, jobs=args.jobs):
        status = "PARALLEL" if report.parallel else "serial  "
        print(f"[{status}] {report.loop}")
        if args.verbose:
            for site1, site2 in report.carriers:
                print(f"           carried by {site1.ref} <-> {site2.ref}")
    return 0


def _cmd_vectorize(args: argparse.Namespace) -> int:
    from repro.core.vectorize import vectorize

    program = _load_program(args.file, getattr(args, "lang", None))
    if not program.statements:
        print("nothing to vectorize")
        return 0
    # One report per nest, in program order of each nest's first statement.
    for nest in dict.fromkeys(stmt.nest for stmt in program.statements):
        sub = type(program)(
            program.name,
            [s for s in program.statements if s.nest == nest],
        )
        result = vectorize(sub, DependenceAnalyzer(memoizer=Memoizer()))
        print(result.render())
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    program = _load_program(args.file, getattr(args, "lang", None))
    graph = build_graph(program, DependenceAnalyzer(memoizer=Memoizer()))
    print(graph.to_dot())
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.core.engine import (
        analyze_batch,
        queries_from_program,
        queries_from_suite,
    )
    from repro.core.persist import load_memoizer_safe, save_memoizer

    queries = []
    for path in args.files:
        program = _load_program(path, getattr(args, "lang", None))
        queries.extend(queries_from_program(program))
    if args.suite or not args.files:
        from repro.perfect import load_suite

        suite = load_suite(include_symbolic=True, scale=args.scale)
        queries.extend(queries_from_suite(suite))
        print(
            f"corpus: {len(suite)} synthetic PERFECT programs",
            file=sys.stderr,
        )

    warm = None
    if args.warm_cache:
        # A corrupt or truncated cache file is a warmth problem, not a
        # correctness problem: warn and analyze cold (the save below
        # rewrites it wholesale anyway).
        import warnings as _warnings

        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always", RuntimeWarning)
            warm = load_memoizer_safe(args.warm_cache)
        for entry in caught:
            print(f"warning: {entry.message}", file=sys.stderr)
        if warm is not None:
            cached = len(warm.no_bounds) + len(warm.with_bounds)
            print(
                f"warm-start: {cached} cached cases from {args.warm_cache}",
                file=sys.stderr,
            )

    stream = None
    if args.trace:
        from repro.obs.sinks import StreamingSink

        stream = StreamingSink(args.trace)
    try:
        report = analyze_batch(
            queries,
            jobs=args.jobs,
            warm=warm,
            want_directions=not args.no_directions,
            sink=stream,
            budget=_budget_from_args(args),
            checkpoint=args.checkpoint,
            resume=args.resume,
            shard_timeout=args.shard_timeout,
            shard_retries=args.shard_retries,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if stream is not None:
            stream.close()
    if stream is not None:
        print(
            f"wrote {stream.emitted} trace events to {args.trace}",
            file=sys.stderr,
        )

    if args.verbose:
        for outcome in report.outcomes:
            verdict = (
                "DEPENDENT" if outcome.result.dependent else "independent"
            )
            line = (
                f"{outcome.query.ref1} vs {outcome.query.ref2}: "
                f"{verdict} [{outcome.result.decided_by}]"
            )
            if outcome.deduped:
                line += "  (deduped)"
            print(line)

    summary = report.summary()
    dependent = sum(1 for o in report.outcomes if o.result.dependent)
    print(
        f"{summary['queries']} queries -> "
        f"{summary['unique_pairs']} unique pairs -> "
        f"{summary['unique_problems']} unique problems "
        f"({summary['screened_constant']} constant-screened), "
        f"{summary['jobs']} worker(s)"
    )
    print(
        f"{dependent} dependent / {summary['queries'] - dependent} "
        f"independent; {summary['tests_run']} dependence tests run"
    )
    print(
        f"memo hit rates: no-bounds "
        f"{summary['memo_hit_rate_no_bounds']:.1%}, with-bounds "
        f"{summary['memo_hit_rate_bounds']:.1%}; "
        f"{summary['memo_entries']} merged table entries"
    )
    if summary["degraded_queries"]:
        print(
            f"{summary['degraded_queries']} queries degraded to the "
            "conservative verdict (blown resource budget)"
        )
    if report.quarantine:
        print(f"quarantined cases ({len(report.quarantine)}):")
        for case in report.quarantine:
            print(
                f"  [{case.rep_index}] {case.label}: {case.reason} "
                f"after {case.attempts} attempt(s)"
            )

    for path in filter(None, (args.warm_cache, args.save_cache)):
        save_memoizer(report.memoizer, path)
        print(f"saved merged memo table to {path}", file=sys.stderr)
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    """Show what the frontends extracted (and refused) from a file."""
    from repro.frontends import extract_source

    text, name = _read_source(args.file)
    language = _resolve_lang(args.file, args.lang)
    extraction = extract_source(text, lang=language, name=name)
    if args.json:
        print(json.dumps(extraction.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    summary = extraction.summary()
    print(
        f"{name}: language {language}, {summary['nests']} nest(s), "
        f"{summary['statements']} statement(s), "
        f"{summary['skipped']} skipped"
    )
    for nest in extraction.nests:
        loop_vars = ", ".join(nest.loop_variables()) or "-"
        print(
            f"  nest {nest.index} [{nest.context}] {nest.span}: "
            f"depth {nest.depth}, {len(nest.statements)} statement(s), "
            f"loops ({loop_vars})"
        )
        for stmt in nest.statements:
            reads = " + ".join(str(ref) for ref in stmt.reads) or "0"
            print(f"    {stmt.label}: {stmt.write} = {reads}")
    if extraction.symbols:
        print("  symbolic: " + ", ".join(sorted(extraction.symbols)))
    for record in extraction.skipped:
        print(f"  skip {record}")
    return EXIT_OK


def _cmd_deps(args: argparse.Namespace) -> int:
    program = _load_program(args.file, getattr(args, "lang", None))
    graph = build_graph(program, DependenceAnalyzer(memoizer=Memoizer()))
    for edge in graph.edges:
        vector = "(" + " ".join(edge.vector) + ")"
        carried = "carried" if edge.loop_carried else "loop-independent"
        print(
            f"{edge.kind:6s} {edge.source.ref} -> {edge.sink.ref} "
            f"{vector} [{carried}]"
        )
    if not graph.edges:
        print("no dependences")
    return EXIT_DEPENDENCE if graph.edges else EXIT_OK


# glibc <malloc.h> parameters, and the daemon's values for them.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_SERVE_TRIM_THRESHOLD = 256 * 1024 * 1024
_SERVE_MMAP_THRESHOLD = 1024 * 1024


def _keep_heap_top() -> None:
    """Stop glibc from trimming this process's heap top.

    Every socket read of the event loop allocates a 256 KiB buffer and
    frees it.  By default glibc then hands the freed heap top back to
    the kernel and faults it in again on the next read: minor page
    faults and system time per request that depend on where unrelated
    long-lived objects happen to sit.  A fixed trim threshold also
    stops glibc from raising its mmap threshold on its own, which would
    leave each buffer a fresh mapping (the same faults), so the mmap
    threshold is set above the buffer too.  Where the C library has no
    ``mallopt`` this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _SERVE_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _SERVE_TRIM_THRESHOLD)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import DependenceServer, ServeConfig

    # Here, not in DependenceServer: a test that runs the server inside
    # its own process keeps its own allocator settings.
    _keep_heap_top()
    config = ServeConfig(
        host=args.host,
        port=args.port,
        stdio=args.stdio,
        cache_path=args.cache,
        cache_max_bytes=args.cache_max_bytes,
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
        deadline_ms=args.deadline_ms,
        budget=_budget_from_args(args),
    )
    return DependenceServer(config).run()


def _retry_from_args(args: argparse.Namespace):
    """The RetryPolicy ``--retries``/``--retry-backoff`` ask for (or None)."""
    retries = getattr(args, "retries", 0)
    if not retries:
        return None
    from repro.serve.client import RetryPolicy

    return RetryPolicy(
        attempts=retries + 1,
        base_delay_s=getattr(args, "retry_backoff", 0.05),
    )


def _endpoint_url(text: str) -> str:
    """``--endpoint`` values: a URL :class:`~repro.serve.client.Client`
    accepts, or an argparse usage error naming the accepted forms."""
    from repro.serve.client import parse_endpoint

    try:
        parse_endpoint(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return text


def _port_number(text: str) -> int:
    """``--port`` values: a TCP port number, 0..65535."""
    try:
        port = int(text)
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"not a TCP port: {text!r}")
    return port


def _add_endpoint_flag(
    parser: argparse.ArgumentParser, required: bool = False
) -> None:
    parser.add_argument(
        "--endpoint",
        type=_endpoint_url,
        required=required,
        metavar="URL",
        help="the daemon: tcp://HOST:PORT, or stdio: (a private child "
        "daemon)",
    )


def _add_retry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retry-for",
        type=float,
        default=0.0,
        help="seconds to retry connecting while the server comes up",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry pure ops up to N times across reconnects after a "
        "transport failure (default 0: fail on the first)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base exponential-backoff delay between retries (default 0.05)",
    )


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serve.client import Client, ServeError
    from repro.serve.protocol import OPS, ErrorCode

    usage_codes = {
        ErrorCode.PARSE,
        ErrorCode.BAD_REQUEST,
        ErrorCode.UNSUPPORTED,
        ErrorCode.VERSION,
        ErrorCode.SOURCE,
    }
    if args.endpoint is not None:
        endpoint = args.endpoint
    elif args.port is not None and args.host:
        endpoint = f"tcp://{args.host}:{args.port}"
    else:
        print(
            "error: give --endpoint URL, or --port PORT and a non-empty "
            "--host",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        client = Client(
            endpoint, retry_for=args.retry_for, retry=_retry_from_args(args)
        )
    except OSError as err:
        print(
            f"error: cannot reach server at {endpoint}: {err}",
            file=sys.stderr,
        )
        return EXIT_INTERNAL
    with client:
        try:
            if not OPS[args.op].source:
                print(json.dumps(client.call(args.op), indent=2, sort_keys=True))
                return EXIT_OK
            if args.file is None:
                print(
                    f"error: op {args.op!r} needs a source FILE",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            if args.file == "-":
                text = sys.stdin.read()
            else:
                text = Path(args.file).read_text()
            language = _resolve_lang(args.file, getattr(args, "lang", None))
            if args.op == "analyze_program":
                result = client.analyze_program(text, lang=language)
                print(json.dumps(result, indent=2, sort_keys=True))
                # A degraded answer may carry no pairs at all (the
                # deadline passed before the compile finished): it
                # means "all dependent", never "nothing found".
                dependent = result["summary"].get("degraded") or any(
                    p["dependent"] for p in result["pairs"]
                )
                return EXIT_DEPENDENCE if dependent else EXIT_OK
            result = client.call(
                args.op, {"source": text, "pair": args.pair, "lang": language}
            )
            print(json.dumps(result, indent=2, sort_keys=True))
            report = result["report"] if args.op == "explain" else result
            return EXIT_DEPENDENCE if report["dependent"] else EXIT_OK
        except ServeError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_USAGE if err.code in usage_codes else EXIT_INTERNAL
        except (ConnectionError, OSError) as err:
            print(f"error: connection lost: {err}", file=sys.stderr)
            return EXIT_INTERNAL


def _watch_summary(index: int, summary: dict, verified: bool) -> str:
    """One human line per watch update from an UpdateReport summary."""
    fraction = summary.get("requery_fraction", 1.0)
    line = (
        f"[{index}] {summary.get('statements', '?')} stmts, "
        f"{summary.get('pairs', '?')} pairs: "
        f"reused {summary.get('reused', 0)}, "
        f"re-queried {summary.get('requeried', 0)} ({fraction:.1%}), "
        f"{summary.get('edges', '?')} edges "
        f"in {summary.get('elapsed_ms', 0.0):.1f}ms"
    )
    spans = summary.get("spans_compiled", 0) + summary.get("spans_reused", 0)
    if spans:
        line += f"; {summary['spans_compiled']} of {spans} spans compiled"
    if summary.get("degraded_pairs"):
        line += f"  ({summary['degraded_pairs']} degraded)"
    if verified:
        line += "  [verified ≡ full]"
    return line


def _cmd_watch(args: argparse.Namespace) -> int:
    import time as _time

    if args.file == "-":
        print("error: watch needs a real file, not -", file=sys.stderr)
        return EXIT_USAGE
    path = Path(args.file)
    if not path.exists():
        print(f"error: no such file: {path}", file=sys.stderr)
        return EXIT_USAGE

    language = _resolve_lang(args.file, getattr(args, "lang", None))

    client = None
    session_id = None
    local_session = None
    if args.endpoint is not None:
        from repro.serve.client import Client

        try:
            client = Client(
                args.endpoint,
                retry_for=args.retry_for,
                retry=_retry_from_args(args),
            )
        except OSError as err:
            print(f"error: cannot reach {args.endpoint}: {err}", file=sys.stderr)
            return EXIT_INTERNAL
        health = client.health()
        if not health.get("sessions"):
            print(
                f"error: {args.endpoint} does not serve incremental "
                "sessions (needs a protocol v3 daemon)",
                file=sys.stderr,
            )
            client.close()
            return EXIT_USAGE
        session_id = client.open_session()["session"]
    else:
        from repro.api import AnalysisConfig

        local_session = AnalysisSession(
            AnalysisConfig(budget=_budget_from_args(args))
        )

    def run_update(text: str, index: int) -> bool:
        """One re-analysis; returns False when the edit didn't parse."""
        if client is not None:
            from repro.serve.client import ServeError

            try:
                summary = client.update_source(
                    session_id, text, verify=args.verify, lang=language
                )
            except ServeError as err:
                print(
                    f"warning: {err} (keeping last graph)", file=sys.stderr
                )
                return False
            if summary.get("degraded") and "pairs" not in summary:
                print(
                    f"[{index}] degraded: deadline hit, session catches "
                    "up in the background",
                )
                return True
            print(_watch_summary(index, summary, args.verify))
            return True
        try:
            report = local_session.update_source(
                text, verify=args.verify, name=str(path), lang=language
            )
        except LangError as err:
            print(
                f"warning: parse error: {err} (keeping last graph)",
                file=sys.stderr,
            )
            return False
        for record in report.skip_records:
            print(f"warning: skipped {record}", file=sys.stderr)
        print(_watch_summary(index, report.summary(), report.verified))
        return True

    updates = 0
    last_mtime = None
    try:
        while True:
            try:
                mtime = path.stat().st_mtime_ns
            except OSError as err:
                print(f"warning: {err}", file=sys.stderr)
                _time.sleep(args.interval)
                continue
            if mtime != last_mtime:
                last_mtime = mtime
                try:
                    text = path.read_text()
                except OSError as err:
                    print(f"warning: {err}", file=sys.stderr)
                    _time.sleep(args.interval)
                    continue
                if run_update(text, updates):
                    updates += 1
            if args.count is not None and updates >= args.count:
                return EXIT_OK
            _time.sleep(args.interval)
    finally:
        if client is not None:
            client.close()


def _cmd_ping(args: argparse.Namespace) -> int:
    import time as _time

    from repro.serve.client import Client, ServeError

    try:
        client = Client(args.endpoint, timeout=args.timeout)
    except OSError as err:
        print(f"error: cannot reach {args.endpoint}: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        start = _time.perf_counter()
        health = client.health()
        elapsed_ms = (_time.perf_counter() - start) * 1000.0
    except (ServeError, ConnectionError, OSError) as err:
        print(f"error: {args.endpoint}: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        client.close()
    print(
        f"{args.endpoint}: {health.get('status', '?')} "
        f"protocol={health.get('protocol', '?')} "
        f"sessions={'yes' if health.get('sessions') else 'no'} "
        f"({elapsed_ms:.1f} ms)"
    )
    return EXIT_OK


def _parse_hostport(text: str, *, what: str) -> tuple[str, int]:
    """``HOST:PORT`` or bare ``PORT`` -> (host, port); raises ValueError."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "127.0.0.1", text
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"{what} must be HOST:PORT or PORT, got {text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"{what} port out of range: {port}")
    return host or "127.0.0.1", port


def _cmd_chaosproxy(args: argparse.Namespace) -> int:
    import signal

    from repro.robust.netchaos import ChaosProxy, NetFaultPlan

    try:
        listen_host, listen_port = _parse_hostport(args.listen, what="LISTEN")
        upstream_host, upstream_port = _parse_hostport(args.upstream, what="UPSTREAM")
        plan = NetFaultPlan(
            seed=args.seed,
            delay_rate=args.delay_rate,
            drop_rate=args.drop_rate,
            reset_rate=args.reset_rate,
            torn_rate=args.torn_rate,
            partition_rate=args.partition_rate,
            delay_s=args.delay_s,
            partition_conns=args.partition_conns,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE

    proxy = ChaosProxy(
        plan,
        upstream_host,
        upstream_port,
        host=listen_host,
        port=listen_port,
        announce=True,
    )
    signal.signal(signal.SIGTERM, lambda *_: proxy.request_shutdown())
    try:
        proxy.run()
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Exact data dependence analysis (Maydan/Hennessy/Lam, PLDI 1991)",
    )
    from repro import __version__
    from repro.serve.protocol import OPS

    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="per-pair dependence report")
    p_analyze.add_argument("file", help="source file (.loop/.py/.c), or -")
    _add_lang_flag(p_analyze)
    _add_budget_flags(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_par = sub.add_parser("parallelize", help="per-loop parallelism report")
    p_par.add_argument("file", help="source file (.loop/.py/.c), or -")
    _add_lang_flag(p_par)
    p_par.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the batch engine (default 1)",
    )
    p_par.add_argument("-v", "--verbose", action="store_true")
    p_par.set_defaults(func=_cmd_parallelize)

    p_deps = sub.add_parser("deps", help="classified dependence edges")
    p_deps.add_argument("file", help="source file (.loop/.py/.c), or -")
    _add_lang_flag(p_deps)
    p_deps.set_defaults(func=_cmd_deps)

    p_extract = sub.add_parser(
        "extract",
        help="show loop nests a frontend extracts from real source",
    )
    p_extract.add_argument("file", help="source file (.loop/.py/.c), or -")
    _add_lang_flag(p_extract)
    p_extract.add_argument(
        "--json", action="store_true", help="dump the extraction as JSON"
    )
    p_extract.set_defaults(func=_cmd_extract)

    p_batch = sub.add_parser(
        "batch",
        help="sharded multi-core batch analysis with warm-start caching",
    )
    p_batch.add_argument(
        "files",
        nargs="*",
        help="source files, .loop/.py/.c (none: the PERFECT corpus)",
    )
    _add_lang_flag(p_batch)
    p_batch.add_argument(
        "--suite",
        action="store_true",
        help="include the synthetic PERFECT corpus alongside any files",
    )
    p_batch.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="repetition scale for the synthetic corpus (default 1.0)",
    )
    p_batch.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: CPU count)",
    )
    p_batch.add_argument(
        "--warm-cache",
        metavar="PATH",
        help="persistent memo table: loaded if present, rewritten after",
    )
    p_batch.add_argument(
        "--save-cache",
        metavar="PATH",
        help="also write the merged memo table here",
    )
    p_batch.add_argument(
        "--no-directions",
        action="store_true",
        help="skip direction-vector analysis (verdicts only)",
    )
    p_batch.add_argument(
        "--trace",
        metavar="PATH",
        help="stream every query's decision events to a JSONL file",
    )
    p_batch.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="atomically checkpoint completed shards here (enables the "
        "supervised watchdog path)",
    )
    p_batch.add_argument(
        "--resume",
        action="store_true",
        help="replay shards already in --checkpoint instead of "
        "recomputing them (bit-identical to an uninterrupted run)",
    )
    p_batch.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard watchdog timeout; a case defeating the retries "
        "is quarantined with a conservative answer",
    )
    p_batch.add_argument(
        "--shard-retries",
        type=int,
        default=1,
        metavar="N",
        help="retries before a crashed/hung shard is split and its "
        "poison case quarantined (default 1)",
    )
    _add_budget_flags(p_batch)
    p_batch.add_argument("-v", "--verbose", action="store_true")
    p_batch.set_defaults(func=_cmd_batch)

    p_explain = sub.add_parser(
        "explain", help="pretty-print one pair's full decision trace"
    )
    p_explain.add_argument("file", help="source file (.loop/.py/.c), or -")
    _add_lang_flag(p_explain)
    p_explain.add_argument(
        "--pair",
        type=int,
        default=None,
        help="pair index to explain (omit or --list to enumerate)",
    )
    p_explain.add_argument(
        "--list", action="store_true", help="list pair indices and exit"
    )
    p_explain.add_argument(
        "--no-directions",
        action="store_true",
        help="skip the direction-refinement part of the trace",
    )
    p_explain.add_argument(
        "--jsonl",
        metavar="PATH",
        help="also dump the raw events as JSONL",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_stats = sub.add_parser(
        "stats", help="run a corpus and dump the metrics registry"
    )
    p_stats.add_argument(
        "files",
        nargs="*",
        help="source files, .loop/.py/.c (none: the PERFECT corpus)",
    )
    _add_lang_flag(p_stats)
    p_stats.add_argument(
        "--suite",
        action="store_true",
        help="include the synthetic PERFECT corpus alongside any files",
    )
    p_stats.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="repetition scale for the synthetic corpus (default 1.0)",
    )
    p_stats.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default 1)",
    )
    p_stats.add_argument(
        "--json", action="store_true", help="dump as JSON instead of text"
    )
    p_stats.set_defaults(func=_cmd_stats)

    from repro.fuzz.runner import add_fuzz_parser

    add_fuzz_parser(sub)

    p_vec = sub.add_parser(
        "vectorize", help="distribute + vectorize loops (Allen-Kennedy)"
    )
    p_vec.add_argument("file", help="source file (.loop/.py/.c), or -")
    _add_lang_flag(p_vec)
    p_vec.set_defaults(func=_cmd_vectorize)

    p_dot = sub.add_parser(
        "dot", help="dependence graph as Graphviz DOT"
    )
    p_dot.add_argument("file", help="source file (.loop/.py/.c), or -")
    _add_lang_flag(p_dot)
    p_dot.set_defaults(func=_cmd_dot)

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived dependence-query daemon (repro.serve)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: pick a free one, announced on stdout)",
    )
    p_serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve one session over stdin/stdout instead of TCP",
    )
    p_serve.add_argument(
        "--cache",
        metavar="PATH",
        help="persistent two-tier cache store (loaded if present, "
        "rewritten atomically on drain)",
    )
    p_serve.add_argument(
        "--cache-max-bytes",
        type=int,
        default=64 * 1024 * 1024,
        help="LRU byte bound for the persistent store (default 64 MiB)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="concurrent analysis worker threads (default 8)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=32,
        help="admitted-but-waiting requests before backpressure "
        "(default 32)",
    )
    p_serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-query budget; exceeded queries degrade to the "
        "conservative flagged verdict (default: unbounded)",
    )
    _add_budget_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_query = sub.add_parser(
        "query", help="query a running dependence daemon"
    )
    p_query.add_argument(
        "file",
        nargs="?",
        default=None,
        help="source file (.loop/.py/.c), or - (not needed for control ops)",
    )
    _add_lang_flag(p_query)
    _add_endpoint_flag(p_query)
    p_query.add_argument("--host", default="127.0.0.1")
    p_query.add_argument(
        "--port",
        type=_port_number,
        default=None,
        help="the daemon's port on --host (when no --endpoint is given)",
    )
    p_query.add_argument(
        "--op",
        default="analyze",
        # Every one-shot op; the session ops are driven by ``watch``.
        choices=[name for name, op in OPS.items() if not op.stateful],
    )
    p_query.add_argument(
        "--pair",
        type=int,
        default=0,
        help="reference-pair index for analyze/explain (default 0)",
    )
    _add_retry_flags(p_query)
    p_query.set_defaults(func=_cmd_query)

    p_watch = sub.add_parser(
        "watch",
        help="incremental re-analysis of a file as it is edited "
        "(in-process, or on a daemon's sessions with --endpoint)",
    )
    p_watch.add_argument("file", help="source file (.loop/.py/.c) to watch")
    _add_lang_flag(p_watch)
    p_watch.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="mtime poll period (default 0.5)",
    )
    p_watch.add_argument(
        "--count",
        type=int,
        default=None,
        metavar="N",
        help="exit after N successful updates (default: watch forever)",
    )
    _add_endpoint_flag(p_watch)
    p_watch.add_argument(
        "--verify",
        action="store_true",
        help="after every update, run a cold full analysis and assert "
        "the delta graph is identical (slow; for debugging)",
    )
    _add_retry_flags(p_watch)
    _add_budget_flags(p_watch)
    p_watch.set_defaults(func=_cmd_watch)

    p_ping = sub.add_parser(
        "ping",
        help="one health round-trip against a daemon, with latency",
    )
    _add_endpoint_flag(p_ping, required=True)
    p_ping.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="socket timeout for the round-trip (default 5)",
    )
    p_ping.set_defaults(func=_cmd_ping)

    p_chaos = sub.add_parser(
        "chaosproxy",
        help="seeded fault-injecting TCP proxy for resilience testing",
    )
    p_chaos.add_argument(
        "listen", metavar="LISTEN", help="HOST:PORT (or bare PORT) to listen on"
    )
    p_chaos.add_argument(
        "upstream",
        metavar="UPSTREAM",
        help="HOST:PORT (or bare PORT) of the real server behind the proxy",
    )
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument(
        "--delay-rate", type=float, default=0.0, metavar="P",
        help="probability of delaying a connection or frame",
    )
    p_chaos.add_argument(
        "--drop-rate", type=float, default=0.0, metavar="P",
        help="probability of swallowing a frame (or refusing a connect)",
    )
    p_chaos.add_argument(
        "--reset-rate", type=float, default=0.0, metavar="P",
        help="probability of a hard connection reset",
    )
    p_chaos.add_argument(
        "--torn-rate", type=float, default=0.0, metavar="P",
        help="probability of forwarding half a frame then resetting",
    )
    p_chaos.add_argument(
        "--partition-rate", type=float, default=0.0, metavar="P",
        help="probability a connect opens a partition window",
    )
    p_chaos.add_argument(
        "--delay-s", type=float, default=0.05, metavar="SECONDS",
        help="length of an injected delay (default 0.05)",
    )
    p_chaos.add_argument(
        "--partition-conns", type=int, default=3, metavar="N",
        help="connections refused per partition window (default 3)",
    )
    p_chaos.set_defaults(func=_cmd_chaosproxy)

    p_tables = sub.add_parser(
        "tables", help="regenerate the paper's tables (see repro.harness)"
    )
    p_tables.add_argument("rest", nargs=argparse.REMAINDER)
    p_tables.set_defaults(func=None)

    args = parser.parse_args(argv)
    if args.command == "tables":
        from repro.harness.cli import main as harness_main

        return harness_main(args.rest)
    try:
        return args.func(args)
    except LangError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        # Clean stop, no traceback: anything already flushed (e.g. a
        # batch checkpoint's completed shards) stays on disk.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # Downstream closed stdout (``repro extract ... | head``): the
        # Unix convention is a quiet stop, not a traceback.  Point
        # stdout at /dev/null so the interpreter's exit-time flush
        # cannot raise a second BrokenPipeError.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except Exception as err:  # noqa: BLE001 — map anything else to 3
        import traceback

        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
