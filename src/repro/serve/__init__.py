"""repro.serve — the long-running dependence-query service.

The paper's systems result is that memoization makes exact dependence
testing cheap *because real workloads repeat a tiny number of unique
query patterns* (5,679 queries collapse to 332 tests on the PERFECT
Club).  That access profile rewards a long-lived **service** far more
than batch re-runs: a daemon keeps the memo tables warm across every
caller, forever.  This package is that daemon plus its client:

* :mod:`repro.serve.protocol` — the versioned JSON-lines request /
  response schema (TCP and stdio) with typed error codes;
* :mod:`repro.serve.cache` — the two-tier cache: the in-process
  :class:`~repro.core.memo.Memoizer` (made thread-safe and
  recency-tracked) backed by a persistent on-disk store with atomic
  writes, versioned invalidation and an LRU byte bound — plus
  single-flight coalescing of identical in-flight queries;
* :mod:`repro.serve.server` — the asyncio daemon: per-connection
  sessions, request pipelining, bounded concurrency with explicit
  backpressure, per-query deadlines that degrade to a conservative
  flagged verdict, and SIGTERM-triggered graceful drain.  Every op,
  whole-program ``analyze_program`` batches included, runs in a worker
  thread on the cache's one live memoizer, so the daemon starts no
  worker processes;
* :mod:`repro.serve.client` — the unified pipelining synchronous
  client (``tcp://``, ``cluster://`` and ``stdio:`` endpoints behind
  one :class:`~repro.serve.client.Client`);
* :mod:`repro.serve.router` — the consistent-hash cluster router:
  shards the canonical query-key space over a worker fleet and replays
  in-flight queries across worker loss;
* :mod:`repro.serve.cluster` — the fleet supervisor behind
  ``repro serve --cluster N``: N worker daemons, memo-warmth gossip,
  crash restarts and rolling restarts.

CLI entry points: ``repro serve`` and ``repro query``.

The re-exports below resolve on first use, so importing one submodule —
the CLI reads :data:`repro.serve.protocol.OPS` to build ``repro query``
— does not import the server, router and cluster with it.
"""

import importlib

_EXPORTS = {
    "PROTOCOL_VERSION": "repro.serve.protocol",
    "MIN_PROTOCOL_VERSION": "repro.serve.protocol",
    "SUPPORTED_VERSIONS": "repro.serve.protocol",
    "ErrorCode": "repro.serve.protocol",
    "ServeCache": "repro.serve.cache",
    "SingleFlight": "repro.serve.cache",
    "Client": "repro.serve.client",
    "ServeClient": "repro.serve.client",
    "ServeError": "repro.serve.client",
    "DependenceServer": "repro.serve.server",
    "ServeConfig": "repro.serve.server",
    "HashRing": "repro.serve.router",
    "ClusterRouter": "repro.serve.router",
    "RouterConfig": "repro.serve.router",
    "ClusterConfig": "repro.serve.cluster",
    "ClusterSupervisor": "repro.serve.cluster",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
