"""End-to-end tests of the live (real TCP) Falkon."""

import time

import pytest

from repro.config import SecurityMode
from repro.live import LiveClient, LiveDispatcher, LiveExecutor, LocalFalkon
from repro.types import TaskSpec

from tests.live.util import wait_until


def sleep_specs(n, seconds=0.0, prefix="lt"):
    return [TaskSpec.sleep(seconds, task_id=f"{prefix}-{i:05d}") for i in range(n)]


# ---------------------------------------------------------------- basics
def test_shell_tasks_run_for_real():
    with LocalFalkon(executors=2) as falkon:
        results = falkon.map_shell(["echo alpha", "echo beta"])
    outs = sorted(r.stdout.strip() for r in results)
    assert outs == ["alpha", "beta"]
    assert all(r.ok for r in results)


def test_python_registry_tasks():
    registry = {"square": lambda x: int(x) ** 2}
    with LocalFalkon(executors=2, python_registry=registry) as falkon:
        results = falkon.map_python("square", [(3,), (5,)])
    assert sorted(r.stdout for r in results) == ["25", "9"]


def test_unknown_python_task_fails_cleanly():
    with LocalFalkon(executors=1, python_registry={"ok": lambda: None}) as falkon:
        result = falkon.run(
            [TaskSpec(task_id="bad", command="python:missing")], timeout=10
        )[0]
    assert not result.ok
    assert "unknown python task" in result.error


def test_map_python_requires_registration():
    with LocalFalkon(executors=1) as falkon:
        with pytest.raises(KeyError):
            falkon.map_python("nope", [()])


def test_failing_subprocess_reports_return_code():
    with LocalFalkon(executors=1, max_retries=0) as falkon:
        result = falkon.map_shell(["false"])[0]
    assert result.return_code != 0
    assert not result.ok


def test_nonexistent_command_reports_error():
    with LocalFalkon(executors=1, max_retries=0) as falkon:
        result = falkon.map_shell(["definitely-not-a-command-xyz"])[0]
    assert not result.ok
    assert result.error


def test_many_small_tasks_all_complete():
    with LocalFalkon(executors=4) as falkon:
        results = falkon.run(sleep_specs(300), timeout=60)
    assert len(results) == 300
    assert all(r.ok for r in results)
    assert len({r.task_id for r in results}) == 300


def test_work_spreads_across_executors():
    with LocalFalkon(executors=4) as falkon:
        results = falkon.run(sleep_specs(40, seconds=0.05), timeout=60)
    assert len({r.executor_id for r in results}) >= 2


def test_timelines_are_consistent():
    with LocalFalkon(executors=2) as falkon:
        results = falkon.run(sleep_specs(20, seconds=0.01), timeout=30)
    for r in results:
        assert r.timeline.submitted <= r.timeline.dispatched <= r.timeline.completed


# ---------------------------------------------------------------- security
def test_secure_mode_round_trip():
    with LocalFalkon(executors=2, security=SecurityMode.GSI_SECURE_CONVERSATION) as falkon:
        results = falkon.map_shell(["echo signed"])
    assert results[0].stdout.strip() == "signed"


def test_unsigned_peer_rejected_by_secure_dispatcher():
    with LocalFalkon(executors=1, security=SecurityMode.GSI_SECURE_CONVERSATION) as falkon:
        address = falkon.dispatcher.endpoint
        # A client without the key cannot create an instance, and it
        # learns so as soon as the dispatcher drops the connection.
        from repro.errors import ProtocolError

        started = time.monotonic()
        with pytest.raises(ProtocolError):
            LiveClient(address, key=None)
        assert time.monotonic() - started < 2.0


# ---------------------------------------------------------------- retries
def test_executor_crash_replays_task():
    dispatcher = LiveDispatcher(max_retries=3)
    registry = {"slow": lambda: time.sleep(0.4)}
    victim = LiveExecutor(dispatcher.endpoint, python_registry=registry).start()
    assert victim.wait_registered()
    backup = LiveExecutor(dispatcher.endpoint, python_registry=registry).start()
    assert backup.wait_registered()
    client = LiveClient(dispatcher.endpoint)
    try:
        futures = client.submit(
            [TaskSpec(task_id=f"c{i}", command="python:slow") for i in range(4)]
        )
        # Wait until work is actually in flight, not a fixed grace period.
        assert wait_until(lambda: dispatcher.stats().busy >= 1, timeout=10.0)
        # Kill the victim's socket abruptly: its in-flight task replays.
        victim._conn.close()
        results = [f.result(timeout=30) for f in futures]
        assert all(r.ok for r in results)
        assert dispatcher.stats().retries >= 1
    finally:
        client.close()
        backup.stop()
        victim.stop()
        dispatcher.close()


def test_idle_timeout_releases_executor():
    dispatcher = LiveDispatcher()
    executor = LiveExecutor(dispatcher.endpoint, idle_timeout=0.3).start()
    assert executor.wait_registered()
    executor.join(timeout=5.0)
    assert not executor.running
    assert wait_until(lambda: dispatcher.stats().registered == 0, timeout=5.0)
    dispatcher.close()


# ---------------------------------------------------------------- provisioner
def test_provisioner_scales_up_and_drains():
    with LocalFalkon(provision=True, max_executors=3, idle_timeout=0.5) as falkon:
        results = falkon.run(sleep_specs(12, seconds=0.1, prefix="pr"), timeout=60)
        assert all(r.ok for r in results)
        assert falkon.provisioner.allocations >= 1
        assert falkon.provisioner.allocations <= 3
        # After idle_timeout, the pool drains.
        assert wait_until(lambda: falkon.provisioner.pool_size == 0, timeout=10.0)


# ---------------------------------------------------------------- dispatcher
def test_dispatcher_stats_shape():
    with LocalFalkon(executors=2) as falkon:
        falkon.run(sleep_specs(10, prefix="st"), timeout=30)
        stats = falkon.dispatcher.stats()
    assert stats.completed == 10
    assert stats.accepted == 10
    assert stats.queued == 0


def test_duplicate_executor_id_rejected():
    dispatcher = LiveDispatcher()
    a = LiveExecutor(dispatcher.endpoint, executor_id="dup").start()
    assert a.wait_registered()
    b = LiveExecutor(dispatcher.endpoint, executor_id="dup").start()
    assert b.wait_rejected()
    assert dispatcher.stats().registered == 1
    a.stop()
    b.stop()
    dispatcher.close()


def test_duplicate_task_id_rejected_client_side():
    with LocalFalkon(executors=1) as falkon:
        falkon.run([TaskSpec.sleep(0, task_id="once")], timeout=10)
        with pytest.raises(ValueError):
            falkon.client.submit([TaskSpec.sleep(0, task_id="once")])


def test_get_results_polling_path():
    from repro.net.message import Message, MessageType

    with LocalFalkon(executors=1) as falkon:
        falkon.run(sleep_specs(3, prefix="poll"), timeout=30)
        # Issue an explicit GET_RESULTS {9,10} on the client connection
        # and wait for the RESULTS reply to be handled.
        client = falkon.client
        client._results_reply.clear()
        client._conn.send(Message(MessageType.GET_RESULTS, sender=client.epr))
        assert client._results_reply.wait(10.0)
        assert falkon.dispatcher.stats().completed == 3


def test_validation():
    with pytest.raises(ValueError):
        LocalFalkon(executors=0)
    with pytest.raises(ValueError):
        LiveDispatcher(max_retries=-1)
    with pytest.raises(ValueError):
        LiveExecutor(("127.0.0.1", 1), idle_timeout=0)
