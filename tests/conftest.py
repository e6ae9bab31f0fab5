"""Test configuration: src/ importability, a per-test time ceiling and
the ``two_cpus`` fixture.

CI installs ``pytest-timeout`` (the ``dev`` extra) and passes
``--timeout`` explicitly.  Environments without the plugin still get a
hang guard: a SIGALRM-based fallback ceiling per test, so a robustness
regression (a quarantined case that really hangs, a watchdog that
waits forever) fails loudly instead of wedging the suite.
"""

import importlib.util
import os
import pathlib
import signal
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def two_cpus(monkeypatch):
    """Make ``os.cpu_count()`` report 2.

    A one-CPU host runs ``analyze_batch(jobs > 1)`` in-process; under
    this fixture it forks through the shard watchdog on every host, so
    sharded-vs-serial tests really compare the two paths.
    """
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


_HAVE_PYTEST_TIMEOUT = importlib.util.find_spec("pytest_timeout") is not None
_FALLBACK_TIMEOUT_S = int(os.environ.get("REPRO_TEST_TIMEOUT_S", "300"))

if not _HAVE_PYTEST_TIMEOUT and hasattr(signal, "SIGALRM"):

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        def _alarm(signum, frame):
            raise TimeoutError(
                f"test exceeded the {_FALLBACK_TIMEOUT_S}s fallback "
                "ceiling (REPRO_TEST_TIMEOUT_S)"
            )

        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(_FALLBACK_TIMEOUT_S)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
