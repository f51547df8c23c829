"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {sweep,grid,serve,stream} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout (``src/repro`` beside this
directory).  Each workload runs in a fresh worker process
(``worker.py``).  Set-up is sampled three times per run, twice by
set-up-only workers and once by the worker that then measures, and
``setup_s`` is their median.

With ``--trace 0`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and the end-to-end metrics.
With ``--trace 1`` the run is split in two halves, an untraced worker
and a traced one, and the metrics are the per-layer ones plus
``overhead.<metric>``: the traced end-to-end value minus the untraced
one.  Lines before the last are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: scratch space for cache directories and daemon logs, removed per worker
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("sweep", "grid", "serve", "stream")
SETUP_SAMPLES = 3
#: a whole run, all its workers included, ends within 180 s
RUN_TIMEOUT_S = 170

#: (name, unit) of every end-to-end metric, as in BENCHMARK.json
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("throughput_per_s", "1/s"), ("p50_ms", "ms"))


def spawn(workload: str, seed: int, seconds: float, trace: int,
          probe: bool, deadline: float) -> dict:
    """Run one worker to its end; its JSON report.

    The worker leads its own process group, so a worker that overruns
    ``deadline`` is killed together with any daemon it started.
    """
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = os.path.join(WORK_ROOT, f"{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(work_dir)
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--work-dir", work_dir, "--t0", repr(time.time())]
    if probe:
        command.append("--probe")
    worker = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, start_new_session=True)
    try:
        stdout, _ = worker.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise RuntimeError(f"{workload} worker overran the run's deadline")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            os.rmdir(WORK_ROOT)
    lines = stdout.strip().splitlines()
    if worker.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited with "
                           f"{worker.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float,
            deadline: float) -> dict:
    """Set-up samples plus one measuring worker."""
    setups = [spawn(workload, seed, seconds, 0, True, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    report = spawn(workload, seed, seconds, 0, False, deadline)
    report["setup_s"] = statistics.median(setups + [report["setup_s"]])
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        half = args.seconds / 2
        plain = spawn(args.workload, args.seed, half, 0, False, deadline)
        traced = spawn(args.workload, args.seed, half, 1, False, deadline)
        reports = [plain, traced]
        units = dict(layers.PER_LAYER)
        metrics = {name: (value, units[name])
                   for name, value in traced["layers"].items()}
        for name, unit in END_TO_END:
            metrics[f"overhead.{name}"] = (traced[name] - plain[name], unit)
    else:
        reports = [measure(args.workload, args.seed, args.seconds,
                           deadline)]
        metrics = {name: (reports[0][name], unit)
                   for name, unit in END_TO_END}

    errors = [error for report in reports for error in report["errors"]]
    for report in reports:
        for note in report["notes"]:
            print(f"{args.workload}: {note}")
    for error in errors[:50]:
        print(f"CHECK FAILED: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    print(f"{args.workload}: {attempted} operations attempted, "
          f"{failed} failed")
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
