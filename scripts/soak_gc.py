"""Run ``repro scenarios soak`` with the cyclic collector's cost per wave.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/soak_gc.py --tasks 200000 --out /tmp/soak.json

Every argument is passed to ``python -m repro scenarios soak``.  A
``gc.callbacks`` hook times each collection, and each per-wave progress
line gets the wave's collector pause (seconds and share of the wave's
wall time), its full (generation-2) collections, and the number of
GC-tracked objects alive at the end of the wave.  The soak itself is
unchanged; the hook adds one timer read per collection.
"""

from __future__ import annotations

import gc
import sys
import time

import repro.cli as cli

_pause_s = [0.0, 0.0, 0.0]  # per generation, cumulative
_count = [0, 0, 0]
_started = [0.0]


def _on_gc(phase: str, info: dict) -> None:
    if phase == "start":
        _started[0] = time.perf_counter()
    else:
        generation = info["generation"]
        _pause_s[generation] += time.perf_counter() - _started[0]
        _count[generation] += 1


def main(argv: list[str]) -> int:
    last = {"t": time.perf_counter(), "pause": 0.0, "full": 0}

    def progress_print(*args, **kwargs) -> None:
        line = " ".join(str(a) for a in args)
        if line.startswith("wave "):
            now = time.perf_counter()
            pause = sum(_pause_s)
            wall = now - last["t"]
            wave_pause = pause - last["pause"]
            line += (f", gc {wave_pause:.2f} s of {wall:.2f} s "
                     f"({wave_pause / wall:.0%}), {_count[2] - last['full']} full, "
                     f"{len(gc.get_objects()):,} tracked")
            # Restart the clock after the count: the census is not the wave's.
            last.update(t=time.perf_counter(), pause=pause, full=_count[2])
        print(line, **kwargs)

    gc.callbacks.append(_on_gc)
    # The soak reports progress through the CLI module's ``print``.
    cli.print = progress_print
    try:
        return cli.main(["scenarios", "soak", *argv])
    finally:
        gc.callbacks.remove(_on_gc)
        del cli.print
        print(f"gc total: {sum(_pause_s):.2f} s pause; collections per generation "
              f"{_count}; seconds per generation "
              f"{[round(s, 2) for s in _pause_s]}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
