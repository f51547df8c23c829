"""One workload run in a fresh process: set up, measure, check, report.

``run.py`` starts this once per set-up sample; the last JSON line of its
standard output is the report.  ``--probe`` stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inprocess  # noqa: E402
import layers  # noqa: E402
import serving  # noqa: E402


def make_workload(args):
    if args.workload == "sweep":
        return inprocess.Sweep(args.seed, args.work_dir)
    if args.workload == "grid":
        return inprocess.Grid(args.seed, args.work_dir)
    daemon_workload = serving.Serve if args.workload == "serve" \
        else serving.Stream
    return daemon_workload(args.seed, args.work_dir, ROOT, bool(args.trace))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "grid", "serve", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="wall clock at which the parent spawned us")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    # a shell that starts us in the background leaves SIGINT ignored, and
    # the daemon would inherit that; it stops on SIGINT (KeyboardInterrupt)
    signal.signal(signal.SIGINT, signal.default_int_handler)

    in_process = args.workload in ("sweep", "grid")
    # the daemon workloads trace inside the daemon (launcher.py)
    recorder = layers.Recorder() if args.trace and in_process else None
    if recorder is not None:
        layers.install(recorder)
    workload = make_workload(args)
    try:
        workload.setup()
        setup_s = time.time() - args.t0
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if recorder is not None:
            recorder.start_run()
        report = workload.measure(args.seconds)
        if recorder is not None:
            recorder.enabled = False
        report["setup_s"] = setup_s
        report["peak_rss_mb"] = workload.peak_rss_mb()
        report["errors"] = workload.check()
    finally:
        workload.teardown()
    if recorder is not None:
        report["layers"] = layers.layer_metrics(recorder.dump(),
                                                workload.rounds)
    elif args.trace:
        report["layers"] = layers.layer_metrics(
            workload.layer_dump, workload.rounds, workload.client_seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
