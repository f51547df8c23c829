"""Boot a traced ``repro-serve`` daemon.

Installs ``layers.py``'s wrappers, then runs the stock
``repro.server.app.serve`` entry point with the remaining arguments.
SIGUSR1 ends the setup phase (the run phase starts, and ``--mark`` is
created to acknowledge it); on shutdown the recorder is written to
``--stats`` as JSON.

    PYTHONPATH=src python3 perfbench/launcher.py --stats S --mark M \\
        --port 0 --cache-dir DIR
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True)
    parser.add_argument("--mark", required=True)
    args, serve_args = parser.parse_known_args()

    from repro.server import app

    recorder = layers.Recorder()
    layers.install(recorder)

    def start_run(_signum, _frame) -> None:
        recorder.start_run()
        with open(args.mark, "w"):
            pass

    signal.signal(signal.SIGUSR1, start_run)
    try:
        return app.serve(serve_args)
    finally:
        with open(args.stats, "w") as stream:
            json.dump(recorder.dump(), stream)


if __name__ == "__main__":
    sys.exit(main())
