"""Shard watchdog: supervised worker processes with quarantine.

This is the one place that starts worker processes: every
multi-process batch (the engine's shards, the fuzz harness's shards)
runs here.  A plain ``multiprocessing.Pool`` assumes workers are
well-behaved: a worker that dies (OOM kill, segfaulting C extension,
chaos injection) blocks ``Pool.map`` forever, and one that never
returns (pathological query with no budget) stalls the whole batch.
Here each shard payload runs in its *own* child process watched over a
pipe, with

* a **per-shard timeout** — a shard that exceeds it is killed and
  counted, never waited on forever;
* **bounded retry** — a dead or stuck shard gets a fresh process (the
  death may have been environmental);
* **poison-case quarantine** — a shard that fails every attempt is
  split into single-case payloads and each case gets one isolated run;
  a case that *still* kills its worker is the poison, and is handed to
  the caller's in-process ``fallback`` (the engine analyzes it under a
  strict :class:`~repro.robust.budget.ResourceBudget`) instead of
  sinking the run.

Supervision is deliberately engine-agnostic: payload structure is
opaque, and the engine supplies ``split`` / ``fallback`` callbacks; a
caller without them (the fuzz harness) gets a ``RuntimeError`` once a
shard has failed every attempt.
Outputs come back as one *list* of outputs per payload (usually a
singleton; a quarantined shard yields one output per case) so the
caller's reduce step stays a flat fold in payload order — which keeps
checkpoint resume and stats merges bit-identical to an uninterrupted
run.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable

from repro.robust import chaos

__all__ = [
    "QuarantinedCase",
    "run_supervised",
    "KIND_CRASH",
    "KIND_TIMEOUT",
]

KIND_CRASH = "crash"
KIND_TIMEOUT = "timeout"

#: How often a supervising thread re-checks the abort flag while
#: waiting on its worker's pipe.  Small enough that Ctrl-C feels
#: instant; large enough to cost nothing.
_POLL_SLICE_S = 0.05


@dataclass(frozen=True)
class QuarantinedCase:
    """One case the watchdog gave up running in a worker process."""

    rep_index: int
    label: str
    reason: str  # KIND_CRASH | KIND_TIMEOUT
    attempts: int  # worker processes this case burned before quarantine

    def to_dict(self) -> dict:
        return {
            "rep_index": self.rep_index,
            "label": self.label,
            "reason": self.reason,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QuarantinedCase":
        return cls(
            rep_index=payload["rep_index"],
            label=payload["label"],
            reason=payload["reason"],
            attempts=payload["attempts"],
        )


class _Aborted(Exception):
    """Internal: supervision cancelled (Ctrl-C in the driver)."""


def _mp_context():
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _child(conn, worker, payload, chaos_key: str) -> None:
    """Worker-process entry: chaos fault site, then the real work."""
    chaos.worker_fault("engine.shard", chaos_key)
    output = worker(payload)
    conn.send(output)
    conn.close()


def _run_attempt(
    worker: Callable[[Any], Any],
    payload: Any,
    timeout: float | None,
    chaos_key: str,
    abort: threading.Event,
) -> tuple[bool, Any]:
    """One supervised child process; ``(True, output)`` or ``(False, kind)``."""
    ctx = _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_child,
        args=(child_conn, worker, payload, chaos_key),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        while True:
            if abort.is_set():
                raise _Aborted()
            wait_s = _POLL_SLICE_S
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False, KIND_TIMEOUT
                wait_s = min(wait_s, remaining)
            if parent_conn.poll(wait_s):
                try:
                    return True, parent_conn.recv()
                except (EOFError, OSError):
                    # Readable-at-EOF: the child died without sending.
                    return False, KIND_CRASH
    finally:
        if proc.is_alive():
            proc.kill()
        proc.join()
        parent_conn.close()


def _record_failure(registry, kind: str) -> None:
    if registry is None:
        return
    if kind == KIND_CRASH:
        registry.inc("robust.shard_crashes")
    else:
        registry.inc("robust.shard_timeouts")


def _supervise_payload(
    index: int,
    payload: Any,
    worker: Callable[[Any], Any],
    timeout: float | None,
    attempts: int,
    split: Callable[[Any], list[tuple[int, str, Any]]] | None,
    fallback: Callable[[Any], Any] | None,
    registry,
    abort: threading.Event,
) -> tuple[list[Any], list[QuarantinedCase]]:
    """Run one payload to completion, whatever it takes."""
    for attempt in range(attempts):
        ok, outcome = _run_attempt(
            worker, payload, timeout, f"shard:{index}:{attempt}", abort
        )
        if ok:
            return [outcome], []
        _record_failure(registry, outcome)
        if attempt + 1 < attempts and registry is not None:
            registry.inc("robust.shard_retries")
    if split is None or fallback is None:
        raise RuntimeError(
            f"shard {index} failed {attempts} attempts "
            "and no quarantine path is configured"
        )
    # Poison shard: every attempt died.  Isolate case by case — the
    # innocent majority completes in its own worker; whichever case
    # still kills its process is quarantined to the in-process
    # strict-budget fallback.
    outputs: list[Any] = []
    quarantine: list[QuarantinedCase] = []
    for rep_index, label, case_payload in split(payload):
        ok, outcome = _run_attempt(
            worker, case_payload, timeout, f"case:{index}:{rep_index}", abort
        )
        if ok:
            outputs.append(outcome)
            continue
        _record_failure(registry, outcome)
        if registry is not None:
            registry.inc("robust.quarantined")
        outputs.append(fallback(case_payload))
        quarantine.append(
            QuarantinedCase(
                rep_index=rep_index,
                label=label,
                reason=outcome,
                attempts=attempts + 1,
            )
        )
    return outputs, quarantine


def run_supervised(
    payloads: list[Any],
    worker: Callable[[Any], Any],
    *,
    timeout: float | None = None,
    attempts: int = 2,
    split: Callable[[Any], list[tuple[int, str, Any]]] | None = None,
    fallback: Callable[[Any], Any] | None = None,
    registry=None,
    done: dict[int, tuple[list[Any], list[QuarantinedCase]]] | None = None,
    on_result: Callable[[int, list[Any], list[QuarantinedCase]], None] | None = None,
    max_workers: int | None = None,
) -> tuple[list[list[Any]], list[QuarantinedCase]]:
    """Run every payload under supervision; never lose the batch.

    Args:
        payloads: opaque work units, executed as ``worker(payload)`` in
            a child process each.
        worker: module-level picklable callable.
        timeout: per-*attempt* wall-clock limit (None: wait forever,
            crashes still supervised).
        attempts: worker processes a shard may burn before its cases
            are isolated (≥ 1).
        split: shard payload → ``[(rep_index, label, case_payload)]``
            for per-case isolation of a poison shard.
        fallback: in-process conservative analysis of one quarantined
            ``case_payload`` (must not raise).
        registry: optional :class:`~repro.obs.metrics.MetricsRegistry`
            receiving ``robust.shard_crashes`` / ``robust.shard_timeouts``
            / ``robust.shard_retries`` / ``robust.quarantined``.
        done: payload indices already completed (checkpoint resume);
            their entries are returned verbatim and not re-run.
        on_result: called (serialized under a lock) as each payload
            completes — the engine's checkpoint hook.
        max_workers: supervising threads (defaults to CPU count).

    Returns:
        ``(groups, quarantine)`` where ``groups[i]`` is the list of
        outputs for ``payloads[i]`` (singleton unless quarantined) and
        ``quarantine`` lists every quarantined case in payload order.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    results: dict[int, tuple[list[Any], list[QuarantinedCase]]] = dict(done or {})
    pending = [i for i in range(len(payloads)) if i not in results]
    abort = threading.Event()
    result_lock = threading.Lock()

    def _run_one(index: int) -> None:
        group = _supervise_payload(
            index,
            payloads[index],
            worker,
            timeout,
            attempts,
            split,
            fallback,
            registry,
            abort,
        )
        results[index] = group
        if on_result is not None:
            with result_lock:
                on_result(index, *group)

    if pending:
        workers = min(len(pending), max_workers or os.cpu_count() or 1)
        pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-watchdog"
        )
        futures = [pool.submit(_run_one, index) for index in pending]
        try:
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in finished:
                    future.result()  # surface supervision errors now
        except BaseException:
            # Ctrl-C (or a supervision bug): stop cleanly.  Running
            # threads notice the abort within one poll slice and kill
            # their children; queued payloads never start.
            abort.set()
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        pool.shutdown(wait=True)

    groups = [results[i][0] for i in range(len(payloads))]
    quarantine = [case for i in range(len(payloads)) for case in results[i][1]]
    return groups, quarantine
