#!/usr/bin/env python3
"""Live-plane benchmark: three seeded workloads against LocalFalkon.

Run one workload (the form the benchmark contract in BENCHMARK.json
uses)::

    python3 livebench/run.py --workload bulk-sleep0 --seed 1 --seconds 35 --trace 0

or all three, each in its own process, with a side-by-side table::

    python3 livebench/run.py --workload all --seed 1 --seconds 35 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload twice for half the time each: once
untraced, as the reference for ``trace.overhead_frac``, and once with
the probes of ``probes.py`` installed, which gives the per-layer table.

Every run checks every output (see ``workloads.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
was correct; 2 means the program under test could not be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAMES = ("bulk-sleep0", "open-trickle", "durable-stages")

#: End-to-end metrics, reported by every workload from untraced runs.
END_TO_END = (
    ("tasks_per_s", "1/s"),
    ("cpu_us_per_task", "us"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: Per-layer metrics of the traced run (see README.md for the
#: end-to-end metric and workload each one should move).
PER_LAYER = (
    ("client.submit_us_per_task", "us"),
    ("client.return_ms_p50", "ms"),
    ("dispatcher.wait_ms_p50", "ms"),
    ("dispatcher.wait_ms_p99", "ms"),
    ("dispatcher.retries", "count"),
    ("dispatcher.stale_results", "count"),
    ("dispatcher.submit_rejects", "count"),
    ("dispatcher.queued_max", "count"),
    ("wire.encode_us_per_task", "us"),
    ("wire.decode_us_per_task", "us"),
    ("wire.bytes_per_task", "B"),
    ("protocol.frames_per_task", "count"),
    ("journal.append_us_per_task", "us"),
    ("journal.commit_wait_ms_p50", "ms"),
    ("journal.records_per_task", "count"),
    ("journal.records_per_flush", "count"),
    ("journal.recover_s", "s"),
    ("executor.overhead_us_p50", "us"),
    ("executor.busy_frac", "fraction"),
    ("obs.spans_us_per_task", "us"),
    ("obs.flight_us_per_task", "us"),
    ("obs.events_us_per_task", "us"),
    ("obs.http_scrape_ms", "ms"),
    ("gc.pause_ms_total", "ms"),
    ("gc.pause_ms_max", "ms"),
    ("gen.lag_ms_p99", "ms"),
    ("cpu.process_us_per_task", "us"),
    ("cpu.dispatcher_loop_us_per_task", "us"),
    ("cpu.monitor_us_per_task", "us"),
    ("cpu.ioloop_shared_us_per_task", "us"),
    ("cpu.executor_us_per_task", "us"),
    ("cpu.journal_flusher_us_per_task", "us"),
    ("cpu.obs_http_us_per_task", "us"),
    ("cpu.main_us_per_task", "us"),
    ("cpu.bench_us_per_task", "us"),
    ("cpu.residual_us_per_task", "us"),
    ("trace.overhead_frac", "fraction"),
)


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


#: Steal fractions up to this count as quiet whatever the other rounds
#: lost (two clock ticks in a 2 s round).
QUIET_STEAL = 0.01


def quiet(rounds) -> list:
    """The rounds that lost little time to the hypervisor: those whose
    steal fraction is at most :data:`QUIET_STEAL` or at most the median
    round's.  That is at least half of them, and all of them when the
    host stole next to nothing."""
    from workloads import median

    cut = max(QUIET_STEAL, median([r["steal_frac"] for r in rounds]))
    return [r for r in rounds if r["steal_frac"] <= cut]


def end_to_end(p) -> tuple[dict, list]:
    """Metrics of an untraced pass, and the table rows, with sample
    counts, that add the workload-specific figures.  Round figures are
    medians over the quiet rounds (see :func:`quiet`); p99 pools every
    task, so that at least ten samples lie beyond it."""
    from workloads import median, quantile

    rounds = quiet(p.rounds)
    kept_tasks = sum(r["tasks"] for r in rounds)
    metrics = {
        "tasks_per_s": median([r["tasks"] / r["wall_s"] for r in rounds]),
        "cpu_us_per_task": median([r["cpu_s"] / r["tasks"] * 1e6 for r in rounds]),
        "latency_p50_ms": median([r["p50_s"] for r in rounds]) * 1e3,
        "peak_rss_mb": p.peak_rss_mb,
        "setup_s": median(p.setup_s),
    }
    counts = {"latency_p50_ms": kept_tasks, "peak_rss_mb": 1, "setup_s": len(p.setup_s)}
    rows = [(name, metrics[name], unit, counts.get(name, len(rounds)))
            for name, unit in END_TO_END]
    rows.append(("latency_p90_ms", median([r["p90_s"] for r in rounds]) * 1e3, "ms",
                 kept_tasks))
    rows.append(("latency_p50_ms.all_rounds", median([r["p50_s"] for r in p.rounds]) * 1e3,
                 "ms", p.tasks))
    rows.append(("host.steal_frac", median([r["steal_frac"] for r in p.rounds]), "fraction",
                 len(p.rounds)))
    rows.append(("rounds_kept", len(rounds), "count", len(p.rounds)))
    rows.append(("latency_p99_ms", quantile(p.latencies, 0.99) * 1e3, "ms", p.tasks))
    rows.append(("tasks_per_round", p.tasks / max(len(p.rounds), 1), "count", len(p.rounds)))
    rows.append(("error_frac", p.failed / max(p.attempted, 1), "fraction", p.attempted))
    if p.sustained_rate is not None:
        rows.append(("sustained_rate", p.sustained_rate, "1/s", len(p.ladder)))
        rows.append(("gen.lag_ms_p99", quantile(p.gen_lag, 0.99) * 1e3, "ms", len(p.gen_lag)))
        for row in p.ladder:
            tag = f"ladder@{row['rate']:g}/s"
            rows.append((f"{tag}.p50_ms", row["p50_ms"], "ms", row["tasks"]))
            rows.append((f"{tag}.p99_ms", row["p99_ms"], "ms", row["tasks"]))
            rows.append((f"{tag}.backlog_growing", float(row["backlog_growing"]), "bool",
                         row["tasks"]))
    if p.efficiency:
        rows.append(("efficiency", median(p.efficiency), "fraction", len(p.efficiency)))
        rows.append(("recovery_s", median(p.recovery_s), "s", len(p.recovery_s)))
    return {k: _finite(v) for k, v in metrics.items()}, rows


def per_layer(traced, reference, tracer, gc_probe) -> dict:
    """Per-layer metrics of a traced pass (see PER_LAYER)."""
    from probes import ROLES
    from workloads import median, quantile

    tasks = max(traced.tasks, 1)

    def per_task_us(layer: str) -> float:
        return tracer.wall(layer) / tasks * 1e6

    returns, waits, overheads = [], [], []
    busy = 0.0
    for task_id, (start, end, nominal) in tracer.executed.items():
        busy += end - start
        overheads.append((end - start - nominal) * 1e6)
        settled = traced.settled_at.get(task_id)
        if settled is not None:
            returns.append((settled - end) * 1e3)
        submitted = tracer.submitted_at.get(task_id)
        if submitted is not None:
            waits.append((start - submitted) * 1e3)
    window_s = sum(r["wall_s"] for r in traced.rounds)
    flushes = traced.counters["journal_flushes"]
    roles = traced.cpu.roles
    process_us = traced.cpu.process / tasks * 1e6
    reference_us = reference.cpu.process / max(reference.tasks, 1) * 1e6
    metrics = {
        "client.submit_us_per_task":
            tracer.wall("client.submit") / max(tracer.units("client.submit"), 1) * 1e6,
        "client.return_ms_p50": quantile(returns, 0.5),
        "dispatcher.wait_ms_p50": quantile(waits, 0.5),
        "dispatcher.wait_ms_p99": quantile(waits, 0.99),
        "dispatcher.retries": traced.counters["retries"],
        "dispatcher.stale_results": traced.counters["stale_results"],
        "dispatcher.submit_rejects": traced.counters["submit_rejects"],
        "dispatcher.queued_max": traced.queued_max,
        "wire.encode_us_per_task": per_task_us("wire.encode"),
        "wire.decode_us_per_task": per_task_us("wire.decode"),
        "wire.bytes_per_task": tracer.units("protocol.bytes") / tasks,
        "protocol.frames_per_task": tracer.calls("protocol.frames") / tasks,
        "journal.append_us_per_task": per_task_us("journal.append"),
        "journal.commit_wait_ms_p50": quantile(tracer.samples("journal.commit"), 0.5) * 1e3,
        "journal.records_per_task": traced.counters["journal_records"] / tasks,
        "journal.records_per_flush":
            traced.counters["journal_records"] / flushes if flushes else 0.0,
        "journal.recover_s": median(traced.recover_samples),
        "executor.overhead_us_p50": quantile(overheads, 0.5),
        "executor.busy_frac": busy / (traced.executors * window_s) if window_s else 0.0,
        "obs.spans_us_per_task": per_task_us("obs.spans"),
        "obs.flight_us_per_task": per_task_us("obs.flight"),
        "obs.events_us_per_task": per_task_us("obs.events"),
        "obs.http_scrape_ms": median(traced.scrape_s) * 1e3,
        "gc.pause_ms_total": sum(gc_probe.pauses) * 1e3,
        "gc.pause_ms_max": max(gc_probe.pauses, default=0.0) * 1e3,
        "gen.lag_ms_p99": quantile(traced.gen_lag, 0.99) * 1e3,
        "cpu.process_us_per_task": process_us,
        "trace.overhead_frac": process_us / reference_us - 1.0 if reference_us else 0.0,
    }
    for role in ROLES:
        metrics[f"cpu.{role}_us_per_task"] = roles[role] / tasks * 1e6
    return {name: float(_finite(metrics[name])) for name, _ in PER_LAYER}


def print_rows(title: str, rows) -> None:
    print(f"== {title}")
    print(f"  {'metric':<34} {'value':>14} {'unit':<9} {'samples':>8}")
    for name, value, unit, count in rows:
        print(f"  {name:<34} {value:>14.4f} {unit:<9} {count:>8}")


def run_one(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro", "live")):
        print(f"livebench: the live plane is not at {src}/repro/live", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # One CPU for the whole process: the live plane is bound by the
    # interpreter lock, and on a shared VM cross-CPU wake-ups made the
    # open-loop figures swing by half from run to run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    from probes import GcProbe, Tracer
    from workloads import WORKLOADS, run_pass

    work_dir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    name, seed, seconds = args.workload, args.seed, float(args.seconds)
    params = {k: v for k, v in WORKLOADS[name].items() if k != "why"}
    print(f"livebench {name} seed={seed} seconds={seconds:g} trace={args.trace} "
          f"params={json.dumps(params, sort_keys=True)}")
    try:
        if not args.trace:
            passes = [run_pass(name, seed, seconds, work_dir)]
            metrics, rows = end_to_end(passes[0])
            print_rows(f"{name}: end-to-end (untraced)", rows)
            units = dict(END_TO_END)
        else:
            reference = run_pass(name, seed, seconds / 2, work_dir, full=False)
            tracer, gc_probe = Tracer(), GcProbe()
            traced = run_pass(name, seed, seconds / 2, work_dir, tracer=tracer,
                              gc_probe=gc_probe, full=False)
            passes = [reference, traced]
            metrics = per_layer(traced, reference, tracer, gc_probe)
            units = dict(PER_LAYER)
            print_rows(f"{name}: per layer (traced, {traced.tasks} tasks)",
                       [(k, v, units[k], traced.tasks) for k, v in metrics.items()])
            roles = sum(v for k, v in metrics.items()
                        if k.startswith("cpu.") and k != "cpu.process_us_per_task")
            print(f"  role threads + residual = {roles:.4f} us/task; "
                  f"process = {metrics['cpu.process_us_per_task']:.4f} us/task")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still works there
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for violation in p.violations[:10]:
            print(f"  VIOLATION {violation}")
        if p.bad_ids:
            print(f"  BAD TASKS {len(p.bad_ids)}: {sorted(p.bad_ids)[:5]}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, then one side-by-side table."""
    results, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        status = max(status, proc.returncode)
    keys = [name for name, _ in (PER_LAYER if args.trace else END_TO_END)]
    print(f"== all workloads ({'per layer, traced' if args.trace else 'end-to-end'})")
    print(f"  {'metric':<34}" + "".join(f" {n:>15}" for n in NAMES))
    for key in keys:
        cells = [results[n]["metrics"].get(key, {}).get("value") for n in NAMES]
        print(f"  {key:<34}" + "".join(
            f" {c:>15.4f}" if c is not None else f" {'-':>15}" for c in cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
