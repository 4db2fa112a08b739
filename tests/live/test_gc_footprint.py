"""Per-task collector footprint of the live plane, and a stress test
of the dispatcher's single state lock (records carry no lock of their
own, which also keeps them small).

CPython's cyclic collector walks every tracked container that is still
alive, so the objects each settled task leaves behind set the cost of
every collection that follows (``docs/PERFORMANCE.md``, "Collector
footprint").  The budget below counts everything a settled task keeps:
the caller's spec and future, the client's result, the dispatcher's
record and span trace.
"""

import gc
import sys
import threading
import time
from collections import Counter

from repro.live import LocalFalkon
from repro.types import TaskSpec

from tests.live.util import wait_until

TASKS = 4000
#: Tracked objects one settled sleep-0 task may leave alive.
BUDGET_PER_TASK = 12.0
#: Wall-clock bound on the state-lock stress run (it takes well under
#: a second when healthy).
STRESS_TIMEOUT_S = 30.0


def test_settled_task_tracked_object_budget():
    with LocalFalkon(executors=4, pipeline_depth=32, bundle_size=500) as falkon:
        # Warm-up: one-off lazily built state must not count per task.
        warm = [TaskSpec.sleep(0.0, task_id=f"warm-{i}") for i in range(100)]
        for future in falkon.client.submit(warm):
            future.result(30)
        del warm, future
        gc.collect()
        before = len(gc.get_objects())
        specs = [TaskSpec.sleep(0.0, task_id=f"gc-{i}") for i in range(TASKS)]
        futures = falkon.client.submit(specs)
        for future in futures:
            assert future.result(60).ok
        gc.collect()
        per_task = (len(gc.get_objects()) - before) / TASKS
    assert per_task <= BUDGET_PER_TASK, (
        f"{per_task:.2f} tracked objects per settled task "
        f"(budget {BUDGET_PER_TASK})")


def test_striped_record_locks_conserve_under_submit_settle_dlq_retry():
    """Submits, settles and operator DLQ retries race on the
    dispatcher's one state lock from three threads, with the GIL handed
    over as often as CPython allows.  (The name predates the single
    lock, when records shared striped locks.)  Every task must end
    completed exactly once and every poison failure quarantined exactly
    once — a lost update or a self-deadlock on the non-reentrant lock
    shows up as a wrong count or a timeout."""
    n_tasks, poison_every = 1500, 3
    runs: Counter = Counter()
    runs_lock = threading.Lock()

    def poison_once(task_id: str) -> str:
        with runs_lock:
            runs[task_id] += 1
            first = runs[task_id] == 1
        if first:
            raise RuntimeError("poison on the first run")
        return "healed"

    specs = [
        TaskSpec(task_id=f"p-{i}", command="python:poison_once", args=(f"p-{i}",))
        if i % poison_every == 0 else TaskSpec.sleep(0.0, task_id=f"s-{i}")
        for i in range(n_tasks)
    ]
    n_poison = sum(1 for spec in specs if spec.task_id.startswith("p-"))
    retried: Counter = Counter()
    outcome: dict = {}

    def scenario() -> None:
        with LocalFalkon(executors=4, pipeline_depth=8, bundle_size=25,
                         max_retries=0,
                         python_registry={"poison_once": poison_once}) as falkon:
            dispatcher = falkon.dispatcher
            stop = threading.Event()

            def operator() -> None:
                while not stop.is_set():
                    for entry in dispatcher.dlq_list():
                        if dispatcher.dlq_retry(entry["task_id"]):
                            retried[entry["task_id"]] += 1
                    time.sleep(0.001)

            threads = [threading.Thread(target=operator, daemon=True)]
            threads += [threading.Thread(target=falkon.client.submit,
                                         args=(specs[k::2],), daemon=True)
                        for k in range(2)]
            for thread in threads:
                thread.start()
            try:
                wait_until(lambda: dispatcher.stats().completed >= n_tasks,
                           timeout=STRESS_TIMEOUT_S)
            finally:
                stop.set()
                for thread in threads:
                    thread.join(10.0)
            outcome["stats"] = dispatcher.stats()

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # The deployment lives on a daemon thread so that a deadlock
        # (which would also wedge its shutdown) fails this test on the
        # clock instead of hanging the suite.
        runner = threading.Thread(target=scenario, daemon=True)
        runner.start()
        runner.join(STRESS_TIMEOUT_S + 30.0)
    finally:
        sys.setswitchinterval(old_interval)
    assert not runner.is_alive(), "the dispatcher state lock deadlocked"
    stats = outcome["stats"]
    assert stats.accepted == n_tasks
    assert stats.completed == n_tasks  # each task completed exactly once
    assert stats.failed == stats.dlq_total == n_poison  # each poison failed once
    assert stats.dlq_size == 0 and stats.queued == 0 and stats.busy == 0
    assert stats.retries == 0
    assert sorted(retried) == sorted(s.task_id for s in specs
                                     if s.task_id.startswith("p-"))
    assert set(retried.values()) == {1}
    assert set(runs.values()) == {2}
