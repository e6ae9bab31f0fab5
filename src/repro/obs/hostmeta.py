"""Host metadata stamped into every benchmark result.

Raw wall-clock numbers are only comparable against the machine that
recorded them; each end-to-end benchmark result
(``benchmarks/e2e``) carries this block so results from different
runners can be told apart.  The perf gate compares a parent and a
change run on one runner, never these fields.
"""

from __future__ import annotations

import os
import platform

__all__ = ["host_metadata"]


def host_metadata() -> dict:
    return {
        "cpus": os.cpu_count() or 1,
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
        },
    }
