#!/usr/bin/env python3
"""The ppcount benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload matrix-elim --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; it imports ppcount from ``src``.
``--trace 0`` prints the end-to-end metrics of untraced passes through
``ppcount.cli.compute_count``; ``--trace 1`` prints the per-layer metrics
of a traced replay.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the seed, the run's environment and the pass count.

Times are in reference seconds: each is scaled by how fast a fixed speed
probe ran while it was measured (see ``workload.PROBE_REF_S``), so that the
machine's own changes of speed cancel.  Raw times are in the info line.
Set-up time is measured in fresh processes: one warm-up (which may compile
bytecode) is discarded, and the median of the rest is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("matrix-elim", "quotient-heavy", "q-volume", "verify-sweep")
SETUP_PROBES = 7
TIMEOUT_S = 170  # every run must end within 180 s


def git_commit(root):
    """The checkout's commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def worker(args, env, timeout):
    """Run perfbench/worker.py and return its JSON line; raises on failure."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, stdout=subprocess.PIPE, timeout=timeout, check=True, text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "ppcount" / "__init__.py").is_file():
        print(f"error: no ppcount sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    started = time.monotonic()
    try:
        probes = [
            worker(common + ["--setup-only"], env, TIMEOUT_S)
            for _ in range(0 if args.trace else SETUP_PROBES)
        ][1:]
        left = TIMEOUT_S - (time.monotonic() - started)
        out = worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, left
        )
    except (subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"error: workload process failed: {e}", file=sys.stderr)
        return 1

    metrics = out["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": median(p["setup_s"] for p in probes), "unit": "s"}
    info = dict(
        out["info"],
        workload=args.workload,
        seed=args.seed,
        raw_setup_s=[p["raw_setup_s"] for p in probes],
        python=sys.version.split()[0],
        nproc=nproc(),
        commit=git_commit(ROOT),
    )
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
