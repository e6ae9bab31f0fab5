"""Deterministic chaos: a seeded fault plan for crash-safety testing.

Robustness claims ("a dead worker never sinks the batch", "a corrupt
cache never poisons an answer") are only as good as the failures they
were tested against.  This module injects those failures *on purpose*
and — crucially — *deterministically*: a :class:`FaultPlan` is a seed
plus per-fault-kind rates, and whether a given site fires is a pure
function of ``(seed, site, key)`` via a SHA-256 roll.  The same plan
replays the same faults in every run, in every process, on every
platform, so chaos tests can compute exactly which faults they expect
(:meth:`FaultPlan.peek`) and assert that every one was both injected
and survived.

Fault sites live in the production code but cost nothing when chaos is
off: each site calls a module function that returns immediately unless
the ``REPRO_CHAOS_PLAN`` environment variable carries a plan.  The
environment variable is the distribution channel — worker processes
inherit it across ``fork``/``spawn``, so a plan installed in the batch
driver reaches every shard worker with no plumbing through payloads.

Supported fault kinds:

* ``crash`` — the worker process dies instantly (``os._exit``), as if
  OOM-killed;
* ``hang`` — the worker sleeps past any reasonable shard timeout, as
  if deadlocked;
* ``corrupt`` — bytes written to disk are truncated and bit-flipped,
  as if torn by power loss;
* ``write_fail`` — the write raises :class:`OSError`, as if the disk
  were full.

Every injection is recorded in a per-process log so tests can audit
the plan against reality (:func:`injection_log`, :func:`injected_counts`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, fields

__all__ = [
    "FaultPlan",
    "ENV_VAR",
    "CRASH",
    "HANG",
    "CORRUPT",
    "WRITE_FAIL",
    "FAULT_KINDS",
    "CRASH_EXIT_CODE",
    "active_plan",
    "chaos_roll",
    "worker_fault",
    "write_fault",
    "corrupt_bytes",
    "injection_log",
    "injected_counts",
    "reset_log",
    "seeded_uniform",
    "first_fired",
]

ENV_VAR = "REPRO_CHAOS_PLAN"

CRASH = "crash"
HANG = "hang"
CORRUPT = "corrupt"
WRITE_FAIL = "write_fail"
FAULT_KINDS = (CRASH, HANG, CORRUPT, WRITE_FAIL)


def seeded_uniform(seed: int, site: str, key: object) -> float:
    """A uniform [0, 1) draw, pure in ``(seed, site, key)``.

    SHA-256 rather than ``hash()``: stable across processes and
    interpreter runs regardless of ``PYTHONHASHSEED``.  Every seeded
    schedule draws here: both fault plans and the client's retry
    jitter.
    """
    payload = f"{seed}\x00{site}\x00{key}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def first_fired(
    draw: float, kinds: tuple[str, ...], rate: Callable[[str], float]
) -> str | None:
    """The kind a ``draw`` selects: the first of ``kinds`` whose
    cumulative rate exceeds it, or None when their rates sum below it."""
    threshold = 0.0
    for kind in kinds:
        threshold += rate(kind)
        if draw < threshold:
            return kind
    return None


#: Exit status of a chaos-crashed worker.  Distinctive on purpose: a
#: watchdog test that sees 113 knows the death was injected, not real.
CRASH_EXIT_CODE = 113


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, rate-parameterized fault schedule.

    ``rate_*`` fields are probabilities in ``[0, 1]`` applied per fault
    site; ``hang_s`` is how long an injected hang sleeps (pick it
    comfortably above the shard timeout under test).
    """

    seed: int = 0
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    corrupt_rate: float = 0.0
    write_fail_rate: float = 0.0
    hang_s: float = 30.0

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "corrupt_rate", "write_fail_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {value!r}")

    # -- serialization (the env-var wire format) ---------------------------

    def to_json(self) -> str:
        return json.dumps(
            {f.name: getattr(self, f.name) for f in fields(self)},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls(**json.loads(text))

    def install(self) -> None:
        """Publish the plan to this process and all future children."""
        os.environ[ENV_VAR] = self.to_json()
        _invalidate_cache()

    @staticmethod
    def uninstall() -> None:
        os.environ.pop(ENV_VAR, None)
        _invalidate_cache()

    # -- the deterministic roll --------------------------------------------

    def rate(self, kind: str) -> float:
        return {
            CRASH: self.crash_rate,
            HANG: self.hang_rate,
            CORRUPT: self.corrupt_rate,
            WRITE_FAIL: self.write_fail_rate,
        }[kind]

    def uniform(self, site: str, key: str) -> float:
        """:func:`seeded_uniform` under this plan's seed."""
        return seeded_uniform(self.seed, site, key)

    def peek(self, site: str, key: str, kinds: tuple[str, ...]) -> str | None:
        """Which fault (if any) fires at this site — without injecting.

        Tests use this to precompute the exact fault schedule a run
        will experience: it is the same decision :func:`chaos_roll`
        makes, minus the side effects.
        """
        return first_fired(self.uniform(site, key), kinds, self.rate)


# -- per-process plan cache and injection log ------------------------------

_cached_raw: str | None = None
_cached_plan: FaultPlan | None = None
_log: list[tuple[str, str, str]] = []


def _invalidate_cache() -> None:
    global _cached_raw, _cached_plan
    _cached_raw = None
    _cached_plan = None


def active_plan() -> FaultPlan | None:
    """The installed plan, or None when chaos is off (the fast path)."""
    global _cached_raw, _cached_plan
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return None
    if raw != _cached_raw:
        _cached_raw = raw
        _cached_plan = FaultPlan.from_json(raw)
    return _cached_plan


def injection_log() -> list[tuple[str, str, str]]:
    """All ``(site, key, kind)`` injections this process has performed."""
    return list(_log)


def injected_counts() -> Counter:
    """Injection totals by fault kind (this process only)."""
    return Counter(kind for _site, _key, kind in _log)


def reset_log() -> None:
    _log.clear()


def chaos_roll(site: str, key: str, kinds: tuple[str, ...]) -> str | None:
    """Decide and record which fault (if any) fires at this site."""
    plan = active_plan()
    if plan is None:
        return None
    kind = plan.peek(site, key, kinds)
    if kind is not None:
        _log.append((site, key, kind))
    return kind


# -- fault actuators (called from production fault sites) ------------------


def worker_fault(site: str, key: str) -> None:
    """Worker-process fault site: may crash or hang the calling process.

    Placed at shard-worker entry.  A crash is ``os._exit`` — no
    cleanup, no exception propagation, exactly like a SIGKILL from the
    OOM killer.  A hang sleeps ``hang_s`` and then *continues*, so a
    run with no watchdog still terminates (slowly) rather than
    deadlocking the test suite.
    """
    kind = chaos_roll(site, key, (CRASH, HANG))
    if kind == CRASH:
        os._exit(CRASH_EXIT_CODE)
    if kind == HANG:
        time.sleep(active_plan().hang_s)


def corrupt_bytes(data: bytes, site: str, key: str) -> bytes:
    """Deterministically mangle a payload: truncate and flip a byte."""
    plan = active_plan()
    assert plan is not None
    keep = max(1, len(data) // 2)
    mangled = bytearray(data[:keep])
    if mangled:
        index = int(plan.uniform(site, key + "\x00byte") * len(mangled))
        mangled[index] ^= 0xFF
    return bytes(mangled)


def write_fault(data: bytes, site: str, key: str) -> bytes:
    """Disk-write fault site: may raise OSError or corrupt the payload.

    Called by :func:`repro.core.persist.atomic_write_text` with the
    bytes about to hit disk; returns them (possibly mangled).
    """
    kind = chaos_roll(site, key, (WRITE_FAIL, CORRUPT))
    if kind == WRITE_FAIL:
        raise OSError(f"chaos: injected write failure at {site} ({key})")
    if kind == CORRUPT:
        return corrupt_bytes(data, site, key)
    return data
