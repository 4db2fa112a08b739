"""The dispatcher's I/O-at-the-edges rule, checked on live runs.

All dispatcher state sits behind one lock, and nothing under that lock
may send or close a connection: a failed send closes its connection,
the close callback re-enters the dispatcher to drop the executor, and
the non-reentrant lock would deadlock.  These tests make the lock
record its owning thread and fail if any ``Connection.send`` /
``send_encoded`` / ``close`` runs on a thread that holds it — over a
pipelined bulk run and over a frame-loss chaos run, which exercise the
failed-send, replay and drop paths as well as the happy one.
"""

import threading

import pytest

import repro.live.dispatcher as dispatcher_mod
from repro.live import FaultPlan, LocalFalkon
from repro.live.faults import FaultyConnection
from repro.live.protocol import Connection
from repro.metrics import tasks_lost
from repro.obs.watchdog import TimedLock
from repro.types import TaskSpec


class _OwnedLock(TimedLock):
    """A TimedLock that remembers which thread holds it."""

    __slots__ = ("owner",)

    def __init__(self) -> None:
        super().__init__()
        self.owner = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = super().acquire(blocking, timeout)
        if acquired:
            self.owner = threading.get_ident()
        return acquired

    def release(self) -> None:
        self.owner = None
        super().release()

    def __exit__(self, *exc) -> None:
        self.release()


@pytest.fixture
def io_under_lock(monkeypatch):
    """Patch the dispatcher's lock and the connection I/O methods;
    yields the list of I/O calls made while holding a state lock."""
    locks: list[_OwnedLock] = []
    violations: list[str] = []

    def owned_lock() -> _OwnedLock:
        lock = _OwnedLock()
        locks.append(lock)
        return lock

    def guard(cls, name):
        original = getattr(cls, name)

        def wrapper(conn, *args, **kwargs):
            me = threading.get_ident()
            if any(lock.owner == me for lock in locks):
                violations.append(f"{cls.__name__}.{name} on {conn!r}")
            return original(conn, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    monkeypatch.setattr(dispatcher_mod, "TimedLock", owned_lock)
    for name in ("send", "send_encoded", "close"):
        guard(Connection, name)
    guard(FaultyConnection, "send_encoded")
    yield violations
    assert locks, "the dispatcher never built its state lock"


def test_no_io_under_state_lock_in_pipelined_bulk_run(io_under_lock):
    with LocalFalkon(executors=4, pipeline_depth=16, bundle_size=100) as falkon:
        specs = [TaskSpec.sleep(0.0, task_id=f"bulk-{i:05d}") for i in range(2000)]
        results = falkon.run(specs, timeout=120)
        stats = falkon.dispatcher.stats()
    assert all(r.ok for r in results)
    assert stats.completed == 2000
    assert io_under_lock == []


@pytest.mark.chaos
def test_no_io_under_state_lock_under_frame_loss(io_under_lock):
    plan = FaultPlan(seed=20070607, drop_rate=0.10)
    with LocalFalkon(executors=4, pipeline_depth=4, heartbeat_interval=0.2,
                     replay_timeout=0.75, max_retries=12,
                     fault_plan=plan) as falkon:
        specs = [TaskSpec.sleep(0.0, task_id=f"loss-{i:04d}") for i in range(200)]
        futures = falkon.client.submit(specs)
        results = [future.result(timeout=120.0) for future in futures]
        # One executor dies mid-workload: its session's close and the
        # replay of its in-flight tasks run through the drop path.
        victim = falkon.executors[0]
        victim._stop.set()
        victim._conn.close()
        more = [TaskSpec.sleep(0.0, task_id=f"after-{i:04d}") for i in range(50)]
        results += falkon.run(more, timeout=120)
        stats = falkon.dispatcher.stats()
    assert all(r.ok for r in results)
    assert tasks_lost(stats) == 0
    assert plan.snapshot()["frames_dropped"] > 0
    assert io_under_lock == []
