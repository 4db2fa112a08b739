"""The three seeded live-plane workloads.

Each workload drives in-process :class:`repro.live.LocalFalkon`
deployments from the calling thread (plus, in traced passes, one
``bench-sampler`` thread) over one client connection per deployment,
and checks every output: each submitted id settles exactly once with an
ok result from an executor of its deployment, and the deployment's
counters pass the conservation, exactly-once and no-stuck oracles of
:mod:`repro.scenarios.oracles` (``durable-stages`` adds the
journal-consistency oracle and a restart over the journal).

A workload runs as *rounds*, each on a fresh deployment, so memory and
collector state do not grow with the length of a run.  One unmeasured
warm-up round comes first.  Each measured round records how much of its
time the hypervisor stole from the pinned CPU; end-to-end figures are
medians over a pass's quieter rounds (see ``run.quiet``), which keeps
bursts of host noise from moving them.  A pass returns a :class:`Pass`
of raw measurements; ``run.py`` turns passes into metrics.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import shutil
import threading
import time
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.live import LocalFalkon
from repro.live.journal import recover
from repro.scenarios.oracles import (
    OracleReport,
    check_conservation,
    check_exactly_once,
    check_journal_consistency,
    check_no_stuck,
)
from repro.types import TaskSpec

from probes import GcProbe, ThreadCpu, Tracer, host_steal_s

#: Seconds a drained deployment may take to settle its last task.
SETTLE_TIMEOUT = 30.0

#: Constructions timed before measuring, on top of one per measured
#: round; ``setup_s`` is the median of all of them.
SETUP_SAMPLES = 9

#: Why each workload exists, and the parameters it runs with.
WORKLOADS = {
    "bulk-sleep0": {
        "why": "closed-loop Fig. 3 dispatch test: per-task CPU (codec, dispatch, spans, "
               "settle) dominates; frames amortised over bundles, journal idle",
        "loop": "closed",
        "executors": 4,
        "pipeline_depth": 32,
        "bundle_size": 500,
        "tasks_per_round": 4000,
    },
    "open-trickle": {
        "why": "open-loop Poisson sleep-0 at depth 1: ~7 small frames per task, so "
               "per-frame wake-ups, syscalls, hand-offs and GC tails dominate",
        "loop": "open",
        "executors": 4,
        "pipeline_depth": 1,
        "bundle_size": 500,
        "base_rate": 300,
        "round_s": 2.0,
        "base_share": 0.7,
        "ladder": [600, 1000, 1400, 1800],
        "p99_limit_ms": 50.0,
    },
    "durable-stages": {
        "why": "closed-loop staged DAG with journal, heartbeat stats, event log and "
               "HTTP on, then a restart over the journal: durability, monitor, sinks",
        "loop": "closed",
        "executors": 4,
        "pipeline_depth": 8,
        "bundle_size": 100,
        "stages": 6,
        "width": 400,
        "runtime_median_s": 0.002,
        "runtime_sigma": 1.0,
        "runtime_cap_s": 0.04,
        "heartbeat_interval": 0.25,
    },
}


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of *values* (nan when empty)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


@dataclass
class Pass:
    """Raw measurements of one pass over a workload."""

    executors: int
    attempted: int = 0
    bad_ids: set = field(default_factory=set)
    violations: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    #: One dict per measured round: tasks, wall_s, cpu_s, p50_s, p90_s and
    #: steal_frac (the share of the round the hypervisor took, see
    #: probes.host_steal_s).
    rounds: list = field(default_factory=list)
    #: Per-task latency (s) over every measured round.
    latencies: list = field(default_factory=list)
    #: Peak RSS (MiB) when the measured rounds ended.
    peak_rss_mb: float = 0.0
    #: task id -> first settle time (perf_counter), measured rounds only.
    settled_at: dict = field(default_factory=dict)
    cpu: ThreadCpu = field(default_factory=ThreadCpu)
    #: Dispatcher and journal counters summed over measured rounds.
    counters: Counter = field(default_factory=Counter)
    queued_max: int = 0
    gen_lag: list = field(default_factory=list)
    scrape_s: list = field(default_factory=list)
    recovery_s: list = field(default_factory=list)
    recover_samples: list = field(default_factory=list)
    efficiency: list = field(default_factory=list)
    #: open-trickle: one row per offered rate (base first).
    ladder: list = field(default_factory=list)
    sustained_rate: Optional[float] = None

    @property
    def failed(self) -> int:
        return len(self.bad_ids) + len(self.violations)

    @property
    def tasks(self) -> int:
        return sum(r["tasks"] for r in self.rounds)


class Batch:
    """Futures of one deployment, with their reference times and settles."""

    def __init__(self) -> None:
        self.futures: dict = {}
        self.ref: dict = {}
        self.settles: list = []

    def _on_settle(self, future) -> None:
        self.settles.append((future.task_id, time.perf_counter()))

    def submit(self, client, specs, ref_times) -> None:
        for future, spec, ref in zip(client.submit(specs), specs, ref_times):
            self.ref[spec.task_id] = ref
            self.futures[spec.task_id] = future
            future.add_done_callback(self._on_settle)

    def outstanding(self) -> int:
        return len(self.futures) - len(self.settles)

    def wait(self, timeout: float = SETTLE_TIMEOUT) -> None:
        deadline = time.monotonic() + timeout
        for future in self.futures.values():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            try:
                future.result(remaining)
            except Exception:
                pass  # reported by Runner.verify()
        # Callbacks run after the futures settle; let the last ones land.
        while self.outstanding() > 0 and time.monotonic() < deadline:
            time.sleep(0.001)

    def first_settles(self) -> dict:
        out = {}
        for task_id, t in self.settles:
            out.setdefault(task_id, t)
        return out

    def latencies(self) -> list:
        settles = self.first_settles()
        return [settles[tid] - ref for tid, ref in self.ref.items() if tid in settles]


class Runner:
    """Runs one pass of a workload; see :func:`run_pass`."""

    def __init__(self, name: str, seed: int, work_dir: str,
                 tracer: Optional[Tracer] = None) -> None:
        self.name = name
        self.params = WORKLOADS[name]
        self.seed = seed
        self.rng = random.Random(f"{name}:{seed}")
        self.work_dir = work_dir
        self.tracer = tracer
        self.out = Pass(executors=self.params["executors"])
        self._seq = 0

    # -- deployments ----------------------------------------------------------
    def deploy(self, journal_dir: Optional[str] = None, timings: Optional[list] = None):
        """Construct this workload's deployment, timed into *timings*.

        Returns ``(falkon, journal_dir)``.  ``durable-stages`` journals
        into *journal_dir* (a fresh directory when ``None``); the other
        workloads run without a journal and return ``None``.  Timings go
        to ``setup_s`` unless another list is given.
        """
        p = self.params
        self._seq += 1
        kwargs = dict(
            executors=p["executors"],
            pipeline_depth=p["pipeline_depth"],
            bundle_size=p["bundle_size"],
            flight_dump_dir=os.path.join(self.work_dir, "flight"),
        )
        if self.name == "durable-stages":
            if journal_dir is None:
                journal_dir = os.path.join(self.work_dir, f"journal-{self._seq}")
            kwargs.update(
                journal_dir=journal_dir,
                heartbeat_interval=p["heartbeat_interval"],
                events_out=os.path.join(self.work_dir, f"events-{self._seq}.jsonl"),
                http_port=0,
            )
        t0 = time.perf_counter()
        falkon = LocalFalkon(**kwargs)
        (self.out.setup_s if timings is None else timings).append(time.perf_counter() - t0)
        return falkon, journal_dir

    def setup_only(self, count: int) -> None:
        for _ in range(count):
            falkon, journal_dir = self.deploy()
            falkon.close()
            if journal_dir is not None:
                shutil.rmtree(journal_dir, ignore_errors=True)

    def task_id(self, phase: int, index: int) -> str:
        return f"{self.name[:4]}-{self.seed}-{phase}-{index:05d}"

    # -- output checks --------------------------------------------------------
    def verify(self, falkon: LocalFalkon, batch: Batch, measured: bool) -> OracleReport:
        """Per-task output checks plus the conservation oracles."""
        executor_ids = {e.executor_id for e in falkon.executors}
        counts = Counter(task_id for task_id, _ in batch.settles)
        stuck = []
        for task_id, future in batch.futures.items():
            if not future.done():
                stuck.append(task_id)
                self.out.bad_ids.add(task_id)
                continue
            try:
                result = future.result(0)
            except Exception:
                self.out.bad_ids.add(task_id)
                continue
            if (not result.ok or result.task_id != task_id
                    or result.executor_id not in executor_ids
                    or counts[task_id] != 1):
                self.out.bad_ids.add(task_id)
        stats = falkon.dispatcher.stats()
        report = OracleReport()
        check_conservation(report, submitted=len(batch.futures), stats=stats,
                           expected_poison=0)
        check_exactly_once(report, batch.futures.keys(), counts)
        check_no_stuck(report, stuck)
        self.out.attempted += len(batch.futures)
        if measured:
            self.out.counters.update(
                retries=stats.retries, stale_results=stats.stale_results,
                submit_rejects=stats.submit_rejects)
            journal = falkon.dispatcher.journal
            if journal is not None:
                jstats = journal.stats()
                self.out.counters.update(journal_records=jstats["records"],
                                         journal_flushes=jstats["flushes"])
        return report

    def record_violations(self, report: OracleReport) -> None:
        # Exactly-once and no-stuck violations name tasks already in
        # bad_ids; every other violation counts once on its own.
        for violation in report.violations:
            if violation.oracle not in ("exactly-once-visible", "no-stuck-futures"):
                self.out.violations.append(str(violation))

    # -- bulk-sleep0 ----------------------------------------------------------
    def bulk(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        phase = 1
        while phase == 1 or time.perf_counter() < end:
            self._bulk_round(phase, measured=True)
            phase += 1

    def _bulk_round(self, phase: int, measured: bool) -> None:
        p = self.params
        n, bundle = p["tasks_per_round"], p["bundle_size"]
        specs = [TaskSpec.sleep(0.0, task_id=self.task_id(phase, i)) for i in range(n)]
        gc.collect()
        falkon, _ = self.deploy()
        try:
            batch = Batch()
            with _Window(self, falkon, measure=measured) as win:
                for j in range(0, n, bundle):
                    chunk = specs[j:j + bundle]
                    t_call = time.perf_counter()
                    batch.submit(falkon.client, chunk, [t_call] * len(chunk))
                batch.wait()
                win.done(batch)
            self.record_violations(self.verify(falkon, batch, measured=measured))
        finally:
            falkon.close()

    # -- open-trickle ---------------------------------------------------------
    def trickle(self, seconds: float, ladder: bool) -> None:
        """Rounds at the base rate, then (``ladder``) one phase per
        ladder rate until a rate misses the p99 limit or backs up."""
        p = self.params
        base_s = seconds * (p["base_share"] if ladder else 1.0)
        rounds = max(1, int(base_s // p["round_s"]))
        base = [self._open_phase(phase, p["base_rate"], p["round_s"], main=True)
                for phase in range(1, rounds + 1)]
        self.out.ladder.append({
            "rate": p["base_rate"],
            "tasks": sum(r["tasks"] for r in base),
            "p50_ms": median([r["p50_ms"] for r in base]),
            "p99_ms": median([r["p99_ms"] for r in base]),
            "backlog_growing": any(r["backlog_growing"] for r in base),
            "meets": all(r["meets"] for r in base),
        })
        if not ladder:
            return
        rung_s = seconds * (1.0 - p["base_share"]) / len(p["ladder"])
        for phase, rate in enumerate(p["ladder"], start=rounds + 1):
            if not self.out.ladder[-1]["meets"]:
                break
            self.out.ladder.append(self._open_phase(phase, rate, rung_s, main=False))
        sustained = 0.0
        for row in self.out.ladder:
            if not row["meets"]:
                break
            sustained = float(row["rate"])
        self.out.sustained_rate = sustained

    def _open_phase(self, phase: int, rate: float, seconds: float, main: bool) -> dict:
        """*seconds* of seeded Poisson arrivals at *rate* on a fresh
        deployment; each submit carries every task due since the last."""
        limit_s = self.params["p99_limit_ms"] / 1e3
        arrivals = []
        t = 0.0
        while True:
            t += self.rng.expovariate(rate)
            if t >= seconds:
                break
            arrivals.append(t)
        specs = [TaskSpec.sleep(0.0, task_id=self.task_id(phase, i))
                 for i in range(len(arrivals))]
        gc.collect()
        falkon, _ = self.deploy()
        backlog = []  # (seconds since start, outstanding tasks)
        lags = []
        try:
            batch = Batch()
            with _Window(self, falkon, measure=main) as win:
                start = time.perf_counter() + 0.01
                i, n = 0, len(specs)
                while i < n:
                    now = time.perf_counter()
                    due = start + arrivals[i]
                    if due > now:
                        time.sleep(due - now)
                        continue
                    j = i
                    while j < n and start + arrivals[j] <= now:
                        j += 1
                    dues = [start + a for a in arrivals[i:j]]
                    lags.extend(now - d for d in dues)
                    batch.submit(falkon.client, specs[i:j], dues)
                    backlog.append((now - start, batch.outstanding()))
                    i = j
                batch.wait()
                win.done(batch)
            self.record_violations(self.verify(falkon, batch, measured=main))
        finally:
            falkon.close()
        latencies = batch.latencies()
        p99 = quantile(latencies, 0.99)
        growing = _backlog_grows(backlog, seconds, rate, limit_s)
        if main:
            self.out.gen_lag.extend(lags)
        return {
            "rate": rate,
            "tasks": len(specs),
            "p50_ms": quantile(latencies, 0.5) * 1e3,
            "p99_ms": p99 * 1e3,
            "backlog_growing": growing,
            "meets": len(latencies) == len(specs) and p99 <= limit_s and not growing,
        }

    # -- durable-stages -------------------------------------------------------
    def stages(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        phase = 1
        while phase == 1 or time.perf_counter() < end:
            self._stages_round(phase, measured=True)
            phase += 1

    def _stages_round(self, phase: int, measured: bool) -> None:
        p = self.params
        mu = math.log(p["runtime_median_s"])
        specs = [[
            TaskSpec.sleep(
                round(min(p["runtime_cap_s"],
                          self.rng.lognormvariate(mu, p["runtime_sigma"])), 6),
                task_id=self.task_id(phase, s * p["width"] + i),
                stage=f"s{s}")
            for i in range(p["width"])
        ] for s in range(p["stages"])]
        nominal = sum(spec.duration for stage in specs for spec in stage)
        gc.collect()
        falkon, journal_dir = self.deploy()
        url = f"http://{falkon.http.host}:{falkon.http.port}/metrics"
        try:
            batch = Batch()
            with _Window(self, falkon, measure=measured) as win:
                t_start = time.perf_counter()
                for stage in specs:
                    t_call = time.perf_counter()
                    batch.submit(falkon.client, stage, [t_call] * len(stage))
                    self._scrape(url, measured)
                    batch.wait()
                win.done(batch)
            if measured:
                makespan = max(t for _, t in batch.settles) - t_start
                self.out.efficiency.append(nominal / (p["executors"] * makespan))
            report = self.verify(falkon, batch, measured=measured)
            dlq_ids = [e["task_id"] for e in falkon.dispatcher.dlq_list()]
            accepted = falkon.dispatcher.stats().accepted
        finally:
            falkon.close()
        check_journal_consistency(report, recover(journal_dir), dlq_ids=dlq_ids,
                                  accepted=accepted)
        self._restart(journal_dir, len(batch.futures), report, measured)
        self.record_violations(report)
        shutil.rmtree(journal_dir, ignore_errors=True)

    # -- warm-up --------------------------------------------------------------
    def warm_up(self) -> None:
        """One unmeasured round (phase 0), with every output checked."""
        if self.name == "bulk-sleep0":
            self._bulk_round(0, measured=False)
        elif self.name == "open-trickle":
            self._open_phase(0, self.params["base_rate"], self.params["round_s"], main=False)
        else:
            self._stages_round(0, measured=False)

    def _scrape(self, url: str, measured: bool) -> None:
        t0 = time.perf_counter()
        with urllib.request.urlopen(url, timeout=10.0) as response:
            body = response.read()
        if measured:
            self.out.scrape_s.append(time.perf_counter() - t0)
        if b"dispatcher_tasks_accepted" not in body:
            self.out.violations.append(f"/metrics scrape of {url} lacks tasks_accepted")

    def _restart(self, journal_dir: str, tasks: int, report: OracleReport,
                 measured: bool) -> None:
        """Restart over the journal, timed into ``recovery_s`` when
        *measured*: every task must come back terminal, none queued."""
        main = self.tracer.acc() if self.tracer is not None and measured else None
        mark = len(main.samples["journal.recover"]) if main is not None else 0
        falkon, _ = self.deploy(journal_dir, timings=self.out.recovery_s if measured else [])
        if main is not None:
            self.out.recover_samples.extend(main.samples["journal.recover"][mark:])
        try:
            stats = falkon.dispatcher.stats()
            if stats.recovered != tasks or stats.queued != 0:
                report.fail("journal-consistency",
                            f"restart recovered {stats.recovered} tasks "
                            f"({stats.queued} queued), want {tasks} (0 queued)")
        finally:
            falkon.close()


class _Window:
    """One measured round: thread CPU, wall time and latencies, plus the
    dispatcher queue sampler in traced passes."""

    def __init__(self, runner: Runner, falkon: LocalFalkon, measure: bool = True) -> None:
        self.runner = runner
        self.falkon = falkon
        self.measure = measure
        self._stop = threading.Event()
        self._sampler = None

    def __enter__(self) -> "_Window":
        out = self.runner.out
        if self.measure:
            if self.runner.tracer is not None:
                self._sampler = threading.Thread(
                    target=self._sample_queue, name="bench-sampler", daemon=True)
                self._sampler.start()
            self._cpu0 = out.cpu.process
            self._steal0 = host_steal_s()
            out.cpu.start()
        self.t0 = time.perf_counter()
        return self

    def _sample_queue(self) -> None:
        out = self.runner.out
        while not self._stop.wait(0.02):
            out.queued_max = max(out.queued_max, self.falkon.dispatcher.stats().queued)

    def done(self, batch: Batch) -> None:
        """Close the round once *batch* has drained (inside ``with``)."""
        if not self.measure:
            return
        out = self.runner.out
        out.cpu.stop()
        steal_s = host_steal_s() - self._steal0
        elapsed = time.perf_counter() - self.t0
        settles = batch.first_settles()
        latencies = batch.latencies()
        out.rounds.append({
            "tasks": len(batch.futures),
            "wall_s": max(settles.values(), default=time.perf_counter()) - self.t0,
            "cpu_s": out.cpu.process - self._cpu0,
            "p50_s": quantile(latencies, 0.5),
            "p90_s": quantile(latencies, 0.9),
            "steal_frac": steal_s / elapsed if elapsed > 0 else 0.0,
        })
        out.latencies.extend(latencies)
        out.settled_at.update(settles)
        out.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._sampler is not None:
            self._sampler.join(timeout=5.0)


def _backlog_grows(samples, seconds: float, rate: float, limit_s: float) -> bool:
    """Outstanding tasks over the last quarter exceed the first quarter's
    by more than the arrivals of one latency limit."""
    first = [n for t, n in samples if t < seconds / 4]
    last = [n for t, n in samples if t >= seconds * 3 / 4]
    if not first or not last:
        return False
    return sum(last) / len(last) - sum(first) / len(first) > rate * limit_s


def run_pass(name: str, seed: int, seconds: float, work_dir: str,
             tracer: Optional[Tracer] = None, gc_probe: Optional[GcProbe] = None,
             full: bool = True) -> Pass:
    """Set up :data:`SETUP_SAMPLES` times, run one warm-up round, then
    measure *name* for *seconds*.

    *tracer* and *gc_probe*, when given, are installed for the measured
    rounds only.  ``full`` runs the open-loop rate ladder after the base
    rate; a reduced pass (each half of a traced run) measures the base
    rate only.
    """
    runner = Runner(name, seed, work_dir, tracer)
    runner.setup_only(SETUP_SAMPLES)
    runner.warm_up()
    if tracer is not None:
        tracer.install()
    if gc_probe is not None:
        gc_probe.install()
    try:
        if name == "bulk-sleep0":
            runner.bulk(seconds)
        elif name == "open-trickle":
            runner.trickle(seconds, ladder=full)
        else:
            runner.stages(seconds)
    finally:
        if gc_probe is not None:
            gc_probe.remove()
        if tracer is not None:
            tracer.restore()
    return runner.out
