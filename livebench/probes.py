"""Measurement probes for the live-plane benchmark.

Everything here observes the program from outside:

* :class:`ThreadCpu` reads each role thread's CPU clock
  (``time.pthread_getcpuclockid``) at the edges of a measured window
  and groups the deltas by thread-name prefix.  Whatever the named
  roles do not account for is reported as ``residual``, so the roles
  plus the residual add up to the process CPU by construction.
* :class:`Tracer` wraps public functions of the live plane (classes
  and module bindings) for the duration of a traced pass and restores
  them afterwards.  It only ever runs in ``--trace 1`` runs.
* :class:`GcProbe` times collector pauses through ``gc.callbacks``.
* :func:`host_steal_s` reads how much CPU time the hypervisor took from
  the process's CPUs (the ``steal`` column of ``/proc/stat``).
"""

from __future__ import annotations

import gc
import os
import threading
import time
from collections import Counter, defaultdict

#: Thread-name prefix -> role, first match wins (``hb-live-exec-*``
#: must be tested before ``live-exec``).  The benchmark's own helper
#: threads are named ``bench-*``.
ROLE_PREFIXES = (
    ("ioloop-dispatcher", "dispatcher_loop"),
    ("dispatcher-monitor", "monitor"),
    ("ioloop-shared", "ioloop_shared"),
    ("hb-", "executor"),
    ("live-exec", "executor"),
    ("journal-flusher", "journal_flusher"),
    ("obs-http", "obs_http"),
    ("MainThread", "main"),
    ("bench-", "bench"),
)
ROLES = tuple(dict.fromkeys(role for _, role in ROLE_PREFIXES)) + ("residual",)

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def host_steal_s() -> float:
    """Seconds the hypervisor ran something else while one of the CPUs
    this process may use wanted to run (0.0 where the kernel reports no
    steal).  Summed over those CPUs, at clock-tick resolution."""
    cpus = {f"cpu{n}" for n in os.sched_getaffinity(0)}
    ticks = 0
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                fields = line.split()
                if len(fields) > 8 and fields[0] in cpus:
                    ticks += int(fields[8])
    except (OSError, ValueError):
        return 0.0
    return ticks / _CLOCK_TICKS


def role_of(thread_name: str):
    for prefix, role in ROLE_PREFIXES:
        if thread_name.startswith(prefix):
            return role
    return None


def _thread_clocks() -> dict:
    """ident -> (role, cpu seconds) for every live role thread."""
    out = {}
    for thread in threading.enumerate():
        role = role_of(thread.name)
        if role is None or thread.ident is None or not thread.is_alive():
            continue
        try:
            clock = time.pthread_getcpuclockid(thread.ident)
            out[thread.ident] = (role, time.clock_gettime(clock))
        except OSError:
            continue
    return out


class ThreadCpu:
    """Per-role CPU seconds accumulated over one or more windows.

    Call :meth:`start` after a deployment is up and :meth:`stop` before
    it is closed: role threads must outlive the window (a thread that
    exits inside it is charged to ``residual``).
    """

    def __init__(self) -> None:
        self.roles: Counter = Counter()
        self.process = 0.0
        self._start = None

    def start(self) -> None:
        self._start = (_thread_clocks(), time.process_time())

    def stop(self) -> None:
        clocks0, process0 = self._start
        clocks1 = _thread_clocks()
        process = time.process_time() - process0
        named = 0.0
        for ident, (role, cpu) in clocks1.items():
            before = clocks0.get(ident)
            delta = cpu - (before[1] if before is not None and before[0] == role else 0.0)
            self.roles[role] += delta
            named += delta
        self.roles["residual"] += process - named
        self.process += process
        self._start = None


class _Acc:
    """One thread's private accumulators (no cross-thread writes)."""

    __slots__ = ("wall", "calls", "units", "samples")

    def __init__(self) -> None:
        self.wall = defaultdict(float)
        self.calls = Counter()
        self.units = Counter()
        self.samples = defaultdict(list)


class Tracer:
    """Wraps live-plane entry points and accumulates per-layer figures.

    Per-thread accumulators keep the hot path free of locks; totals are
    merged when read.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._accs: list[_Acc] = []
        self._accs_lock = threading.Lock()
        self._patches: list = []
        #: task id -> perf_counter when the submit call carrying it returned.
        self.submitted_at: dict = {}
        #: task id -> (start, end, nominal seconds) of LiveExecutor.execute.
        self.executed: dict = {}

    # -- accumulation -------------------------------------------------------
    def acc(self) -> _Acc:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = self._local.acc = _Acc()
            with self._accs_lock:
                self._accs.append(acc)
        return acc

    def wall(self, layer: str) -> float:
        return sum(a.wall[layer] for a in self._accs)

    def calls(self, layer: str) -> int:
        return sum(a.calls[layer] for a in self._accs)

    def units(self, layer: str) -> int:
        return sum(a.units[layer] for a in self._accs)

    def samples(self, layer: str) -> list:
        out = []
        for a in self._accs:
            out.extend(a.samples[layer])
        return out

    # -- patching -----------------------------------------------------------
    def patch(self, owner, name: str, wrapper_factory) -> None:
        original = getattr(owner, name)
        own = name in vars(owner)
        setattr(owner, name, wrapper_factory(original))
        self._patches.append((owner, name, original, own))

    def timed(self, owner, name: str, layer: str, keep_samples: bool = False,
              clock=time.perf_counter) -> None:
        """Time every call of ``owner.name`` into *layer*.

        The default clock gives wall time, for calls that block; pass
        ``time.thread_time`` to charge only the calling thread's CPU,
        which leaves out time spent waiting for the interpreter lock.
        """
        tracer = self

        def factory(original):
            def wrapper(*args, **kwargs):
                acc = tracer.acc()
                t0 = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    acc.wall[layer] += dt
                    acc.calls[layer] += 1
                    if keep_samples:
                        acc.samples[layer].append(dt)
            return wrapper

        self.patch(owner, name, factory)

    def timed_generator(self, owner, name: str, layer: str) -> None:
        """Charge the thread CPU of the generator's own steps (not its
        consumer's work between them) to *layer*."""
        tracer = self

        def factory(original):
            def wrapper(*args, **kwargs):
                acc = tracer.acc()
                gen = original(*args, **kwargs)
                while True:
                    t0 = time.thread_time()
                    try:
                        item = next(gen)
                    except StopIteration:
                        acc.wall[layer] += time.thread_time() - t0
                        acc.calls[layer] += 1
                        return
                    acc.wall[layer] += time.thread_time() - t0
                    yield item
            return wrapper

        self.patch(owner, name, factory)

    def restore(self) -> None:
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()

    # -- the live plane's public surface ------------------------------------
    def install(self) -> None:
        """Wrap the layer entry points named in ``livebench/README.md``."""
        import repro.live.dispatcher as dispatcher_mod
        import repro.live.protocol as protocol_mod
        from repro.live.client import LiveClient
        from repro.live.executor import LiveExecutor
        from repro.live.journal import Journal
        from repro.net.wire import FrameReader
        from repro.obs.events import EventLog
        from repro.obs.flight import FlightRecorder
        from repro.obs.trace import SpanCollector

        tracer = self

        def submit_factory(original):
            def submit(client, tasks):
                acc = tracer.acc()
                t0 = time.perf_counter()
                try:
                    return original(client, tasks)
                finally:
                    t1 = time.perf_counter()
                    acc.wall["client.submit"] += t1 - t0
                    acc.calls["client.submit"] += 1
                    specs = [tasks] if hasattr(tasks, "task_id") else tasks
                    acc.units["client.submit"] += len(specs)
                    for spec in specs:
                        tracer.submitted_at[spec.task_id] = t1
            return submit

        def execute_factory(original):
            def execute(executor, spec):
                t0 = time.perf_counter()
                try:
                    return original(executor, spec)
                finally:
                    tracer.executed[spec.task_id] = (t0, time.perf_counter(), spec.duration)
            return execute

        def send_encoded_factory(original):
            def send_encoded(conn, frame):
                acc = tracer.acc()
                acc.calls["protocol.frames"] += 1
                acc.units["protocol.bytes"] += len(frame)
                return original(conn, frame)
            return send_encoded

        self.patch(LiveClient, "submit", submit_factory)
        self.patch(LiveExecutor, "execute", execute_factory)
        self.patch(protocol_mod.Connection, "send_encoded", send_encoded_factory)
        cpu = time.thread_time
        self.timed(protocol_mod, "encode_message_v4", "wire.encode", clock=cpu)
        self.timed(protocol_mod, "encode_frame", "wire.encode", clock=cpu)
        self.timed_generator(FrameReader, "feed", "wire.decode")
        self.timed(Journal, "append", "journal.append", clock=cpu)
        self.timed(Journal, "append_many", "journal.append", clock=cpu)
        self.timed(Journal, "commit", "journal.commit", keep_samples=True)
        self.timed(dispatcher_mod, "recover_journal", "journal.recover", keep_samples=True)
        self.timed(SpanCollector, "begin_many", "obs.spans", clock=cpu)
        self.timed(SpanCollector, "record", "obs.spans", clock=cpu)
        self.timed(SpanCollector, "record_many", "obs.spans", clock=cpu)
        self.timed(FlightRecorder, "record", "obs.flight", clock=cpu)
        self.timed(EventLog, "emit", "obs.events", clock=cpu)


class GcProbe:
    """Collector pause times via ``gc.callbacks`` (traced runs only)."""

    def __init__(self) -> None:
        self.pauses: list[float] = []
        self._t0 = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pauses.append(time.perf_counter() - self._t0)

    def install(self) -> None:
        gc.callbacks.append(self._callback)

    def remove(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)
