"""Whole-pipeline benchmark: ``campaign``, ``screen`` and ``service``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

One run measures one workload.  It records the host-speed probe's time
(``calibration_s``, so a slow host can be told apart from a slow
program), then takes set-up samples in fresh processes, then runs the
workload in a fresh process for ``--seconds`` of whole rounds and
checks its outputs.  Times are taken in pieces, each rescaled to the
reference host speed (see ``probe.py``).  All workload processes run with the BLAS and
OpenMP pools pinned to one thread.  The last line of standard output
is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``wall_s``, ``items_per_s``, ``peak_rss_mb``); with ``--trace 1`` they
are the per-layer ones derived from the traced rounds' spans.  The
run's full record (every round's time, the calibration, the result
digest, the check messages) goes to ``perfbench/out/``.  The exit code
is 1 when a check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import SETUP_PROBES, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-up samples per run: the workload process itself plus this many
#: processes that stop after set-up
EXTRA_SETUPS = 2
#: every run must end within this many seconds plus three times
#: ``--seconds`` (set-up samples, the rounds, the checks)
DEADLINE_S = 110.0
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def spawn(args: list[str], deadline: float) -> dict:
    """Run the workload module once in a fresh process; parse its JSON."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(HERE / "workloads.py"), *args]
    probe_before = probe(SETUP_PROBES)
    spawned_at = time.perf_counter()
    proc = subprocess.run(
        [*cmd, "--spawned-at", repr(spawned_at), "--probe-before", repr(probe_before)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("campaign", "screen", "service"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S + 3 * args.seconds
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program source under {ROOT / 'src'}")

    calibration_s = probe(5)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    work_root = HERE / "work" / f"{tag}-{os.getpid()}"
    try:
        samples = [
            spawn([*common, "--setup-only", "--work-dir", str(work_root / f"setup{k}")], deadline)
            for k in range(EXTRA_SETUPS)
        ]
        report = spawn(
            [*common, "--work-dir", str(work_root / "run"),
             "--trace-out", str(HERE / "out" / f"spans-{tag}.csv.gz")],
            deadline,
        )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    setups = [s["setup_s"] for s in samples] + [report["setup_s"]]
    busy_probes = sum(s["busy_probes"] for s in samples)
    if busy_probes:
        report["errors"].append(f"{busy_probes} set-up probes ran while another thread worked")

    wall_s = statistics.median(report["walls"])
    if args.trace:
        metrics = report["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "items_per_s": {"value": report["items"] / wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    record = dict(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        calibration_s=calibration_s, setup_samples_s=setups, **report,
    )
    record.pop("per_layer", None)
    out = HERE / "out" / f"run-{tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    for error in report["errors"]:
        print(f"CHECK FAILED: {error}")
    print(
        f"{args.workload} seed={args.seed}: {report['rounds']} rounds, "
        f"wall_s={wall_s:.4f}, calibration_s={calibration_s:.4f}, "
        f"digest={report['digest']}"
    )
    print(json.dumps({
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
