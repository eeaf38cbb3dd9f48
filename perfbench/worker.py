"""The workload process of the ppcount benchmark: one workload, one process,
one thread, one client in a closed loop (the next cell starts when the
previous one has finished).

Prints one JSON line.  With ``--setup-only`` it holds the set-up time
(importing ppcount and building the cell list); otherwise the end-to-end or
per-layer measurements, which ``perfbench/run.py`` turns into the
benchmark's result.  Needs ``src`` on
``PYTHONPATH``; ``run.py`` sets it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from statistics import median


def _measure(wl, cells, expected, seconds, trace):
    """Passes until the next one would overrun ``seconds`` (at least one;
    with ``trace`` at least one untraced and one traced pass)."""
    tally = wl.Tally()
    untraced, traced, wall = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        cell_s, scales, answers = wl.untraced_pass(cells, expected, tally)
        untraced.append((cell_s, scales))
        if trace:
            traced.append(wl.traced_pass(cells, expected, answers, tally))
        wall.append(time.perf_counter() - t0)
        if time.perf_counter() - start + median(wall) > seconds:
            break
    return tally, untraced, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import workload as wl  # imports ppcount: part of the set-up being timed

    cells = wl.build_cells(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        probe_s = median(wl.speed_probe() for _ in range(3))
        print(json.dumps({"setup_s": setup_s * wl.PROBE_REF_S / probe_s, "raw_setup_s": setup_s}))
        return 0

    import ppcount

    expected = [wl.reference(cell) for cell in cells]
    tally, untraced, traced = _measure(wl, cells, expected, args.seconds, args.trace)
    solve_s = [sum(t * k for t, k in zip(*p)) for p in untraced]
    if args.trace:
        metrics = wl.layer_metrics(traced, solve_s)
    else:
        cell_ms = wl.cell_latencies_ms(untraced)
        metrics = {
            "solve_s": (median(solve_s), "s"),
            "cell_p50_ms": (wl.percentile(cell_ms, 50), "ms"),
            "cell_p95_ms": (wl.percentile(cell_ms, 95), "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    print(json.dumps({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {
            "ppcount_version": ppcount.__version__,
            "cells": len(cells),
            "passes": len(untraced),
            "traced_passes": len(traced),
            "raw_pass_s": [sum(cell_s) for cell_s, _ in untraced],
            "pass_s": solve_s,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
