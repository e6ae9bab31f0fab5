"""The wire protocol's op table (repro.serve.protocol.OPS).

Server dispatch, client retry eligibility and the ``repro query`` verb
all read one declaration.  These tests assert the table's properties
over every op at once, so an op added to the table is checked without
a new test:

* every op has a handler on the server;
* every op answers;
* only pure ops are retried by the client.
"""

import inspect

import pytest

from repro.cli import main
from repro.serve import protocol
from repro.serve.client import PURE_OPS, Client, RetryPolicy
from repro.serve.server import DependenceServer

from tests.test_serve_server import SOURCE, _RunningServer

OPS = protocol.OPS

#: One valid request per op, sent in this order over one connection
#: (``shutdown`` last).  A new op needs a row here: the live tests
#: refuse to run without one.
SAMPLE_PARAMS = {
    "health": {},
    "analyze": {"source": SOURCE, "pair": 0},
    "explain": {"source": SOURCE, "pair": 0},
    "analyze_program": {"source": SOURCE},
    "open_session": {"session_id": "t1", "source": SOURCE},
    "update_source": {"session": "t1", "source": SOURCE},
    "graph": {"session": "t1"},
    "stats": {},
    "shutdown": {},
}

#: What ``stats`` (sent second to last) has counted by then.
COUNTED = {op: 1 for op in SAMPLE_PARAMS if op != "shutdown"}


def test_every_op_has_a_sample():
    assert set(SAMPLE_PARAMS) == set(OPS)


def test_table_rows_are_consistent():
    for name, op in OPS.items():
        assert op.name == name
        # A control op answers where it lands; it holds no session.
        assert not (op.control and op.stateful), name
        # A session's source edits are mutations, never replayable.
        if op.stateful and op.source:
            assert not op.pure, name


def test_every_op_has_a_server_handler():
    for op in OPS.values():
        handler = getattr(DependenceServer, op.handler)
        # Analysis ops run on the executor under a deadline; control
        # ops answer inline on the event loop.
        assert inspect.iscoroutinefunction(handler) is not op.control, op.name


def test_only_pure_ops_are_retried():
    client = Client.__new__(Client)  # no connection: only the policy
    client.retry = RetryPolicy(attempts=3)
    for op in OPS.values():
        assert client._retriable(op.name, 0, None) is op.pure, op.name
    assert PURE_OPS == {name for name, op in OPS.items() if op.pure}
    assert {"shutdown", "open_session", "update_source"}.isdisjoint(PURE_OPS)


def test_query_verb_offers_every_one_shot_op(capsys):
    """Session ops are ``watch``'s; every other op is a ``query --op``
    (nothing listens on port 1, so an accepted op fails to connect)."""
    for op in OPS.values():
        argv = ["query", "--op", op.name, "--port", "1"]
        if op.stateful:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, op.name
        else:
            assert main(argv) == 3, op.name
    capsys.readouterr()


def test_every_op_answers_on_a_worker():
    running = _RunningServer()
    try:
        with running.client() as client:
            answers = {
                op: client.call(op, params)
                for op, params in SAMPLE_PARAMS.items()
            }
    finally:
        assert running.stop() == 0
    assert answers["health"]["status"] == "ok"
    assert answers["analyze"]["dependent"] is True
    assert answers["explain"]["report"] == answers["analyze"]
    assert answers["analyze_program"]["pairs"] == [answers["analyze"]]
    assert answers["open_session"]["session"] == "t1"
    assert answers["update_source"]["session"] == "t1"
    assert answers["graph"]["session"] == "t1"
    assert answers["shutdown"] == {"draining": True}
    requests = answers["stats"]["registry"]["families"]["serve.requests"]
    assert requests == COUNTED
