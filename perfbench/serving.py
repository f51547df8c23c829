"""The daemon workloads: cached ``/v1`` answers and ``/v1/stream`` ingestion.

Each run boots its own ``repro-serve`` daemon in a subprocess over a
fresh cache directory and drives it from this process with at most two
client threads, one connection each (the daemon closes every connection
after one response).  Request bodies are encoded before any clock
starts.  The untraced daemon is the stock ``python -m repro.server``;
the traced one is ``launcher.py``, which installs ``layers.py``'s
wrappers first.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time

import checks
import numpy as np

#: the daemon's default dataset length, named explicitly
SERVE_LENGTH = 2000
SERVE_BOUNDS = (0.05, 0.1)
#: compress cells whose decompressed series is constant, so R raises and
#: the daemon writes the bare token NaN into the response; these requests
#: fail the strict parse in every run
NAN_SIGNATURES = (("Weather", "PMC", 0.4),)
FORECAST_MODELS = ("Arima", "DLinear")
FORECAST_DATASETS = ("ETTm1", "Weather")
FORECAST_BOUND = 0.1
#: open-loop arrival rate, about a third of the closed-loop saturation
#: of this pool on two connections
OPEN_RATE_PER_S = 20.0

STREAM_METHODS = ("PMC", "SWING", "LFZIP")
STREAM_BOUND = 0.05
STREAM_CHUNK = 256
STREAM_PUSHES = 16
#: sessions per round: two per method, so both connections stay busy
STREAM_SESSIONS_PER_ROUND = 6
#: distinct tick series, cycled through by the sessions of a run
STREAM_SERIES = 12

HOST = "127.0.0.1"
CLIENT_THREADS = 2


def post(port: int, path: str, body: bytes) -> tuple[int, bytes]:
    """One POST on its own connection; returns (status, body)."""
    connection = http.client.HTTPConnection(HOST, port, timeout=120)
    try:
        connection.request("POST", path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def run_threads(target) -> None:
    """Run ``target`` on the client threads and wait for both."""
    threads = [threading.Thread(target=target, name=f"client-{i}")
               for i in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class Daemon:
    """One ``repro-serve`` subprocess over a fresh cache directory."""

    def __init__(self, root: str, work_dir: str, traced: bool) -> None:
        self.root = root
        self.work_dir = work_dir
        self.traced = traced
        self.stats_path = os.path.join(work_dir, "daemon-layers.json")
        self.mark_path = os.path.join(work_dir, "daemon-mark")
        self.process: subprocess.Popen | None = None
        self.port = 0
        self._log = None

    def start(self) -> None:
        options = ["--port", "0", "--length", str(SERVE_LENGTH),
                   "--cache-dir", os.path.join(self.work_dir, "daemon-cache")]
        if self.traced:
            command = [sys.executable, "-u",
                       os.path.join(os.path.dirname(__file__), "launcher.py"),
                       "--stats", self.stats_path, "--mark", self.mark_path]
        else:
            command = [sys.executable, "-u", "-m", "repro.server"]
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self._log = open(os.path.join(self.work_dir, "daemon.log"), "wb")
        self.process = subprocess.Popen(command + options, cwd=self.root,
                                        env=env, stdout=subprocess.PIPE,
                                        stderr=self._log)
        deadline = time.monotonic() + 120
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        max(0.0, remaining))
            line = self.process.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError("the daemon did not start (see "
                                   f"{self._log.name})")
            if b"listening on http://" in line:
                address = line.split(b"http://", 1)[1].split(b"/", 1)[0]
                self.port = int(address.rsplit(b":", 1)[1])
                return

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (VmHWM) in MiB."""
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the daemon's status")

    def start_run(self) -> None:
        """Tell the traced daemon that setup is over, and wait for it."""
        os.kill(self.process.pid, signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not os.path.exists(self.mark_path):
            if time.monotonic() > deadline:
                raise RuntimeError("the traced daemon did not mark its run")
            time.sleep(0.01)

    def stop(self) -> dict | None:
        """Stop the daemon and wait for it; the traced one's layer dump."""
        if self.process is None:
            return None
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        self.process = None
        if self.traced and os.path.exists(self.stats_path):
            with open(self.stats_path) as stream:
                return json.load(stream)
        return None


class _DaemonWorkload:
    def __init__(self, seed: int, work_dir: str, root: str,
                 traced: bool) -> None:
        self.rng = random.Random(seed)
        self.daemon = Daemon(root, work_dir, traced)
        self.traced = traced
        self.rounds = 0
        #: client-side seconds of every measured request (traced runs)
        self.client_seconds: list[float] = []
        self.layer_dump: dict | None = None
        self._peak = 0.0

    def peak_rss_mb(self) -> float:
        return self._peak

    def teardown(self) -> None:
        """Stop the daemon (idempotent), keeping a traced one's dump."""
        dump = self.daemon.stop()
        if dump is not None:
            self.layer_dump = dump


class Serve(_DaemonWorkload):
    """Cache-hit compress and forecast requests against a warm daemon."""

    def __init__(self, seed: int, work_dir: str, root: str,
                 traced: bool) -> None:
        super().__init__(seed, work_dir, root, traced)
        from repro.api.codec import encode
        from repro.api.requests import CompressRequest, ForecastRequest
        from repro.compression.registry import GRID_METHODS
        from repro.datasets.registry import DATASET_NAMES

        compress = [CompressRequest(name, method, bound, length=SERVE_LENGTH)
                    for name in DATASET_NAMES for method in GRID_METHODS
                    for bound in SERVE_BOUNDS]
        compress += [CompressRequest(name, method, bound, length=SERVE_LENGTH)
                     for name, method, bound in NAN_SIGNATURES]
        forecast = [ForecastRequest(model, name, length=SERVE_LENGTH)
                    for model in FORECAST_MODELS
                    for name in FORECAST_DATASETS]
        forecast += [ForecastRequest(model, name, method=method,
                                     error_bound=FORECAST_BOUND,
                                     length=SERVE_LENGTH)
                     for model in FORECAST_MODELS
                     for name in FORECAST_DATASETS
                     for method in GRID_METHODS]
        self.compress, self.forecast = compress, forecast
        self.requests = compress + forecast
        self.paths = (["/v1/compress"] * len(compress)
                      + ["/v1/forecast"] * len(forecast))
        self.bodies = [json.dumps(encode(request), sort_keys=True).encode()
                       for request in self.requests]
        #: (pool index, status, body) of every measured request
        self.answers: list[tuple[int, int, bytes]] = []

    def _send(self, index: int) -> tuple[int, bytes]:
        return post(self.daemon.port, self.paths[index], self.bodies[index])

    def _closed_loop(self, seconds: float | None) -> tuple[int, float]:
        """Whole shuffled rounds of the pool on two connections until
        ``seconds`` pass (one round when None); (rounds, elapsed)."""
        lock = threading.Lock()
        state = {"order": [], "pos": 0, "rounds": 0}
        start = time.perf_counter()

        def next_index() -> int | None:
            with lock:
                if state["pos"] == len(state["order"]):
                    elapsed = time.perf_counter() - start
                    if state["rounds"] and (seconds is None
                                            or elapsed >= seconds):
                        return None
                    state["order"] = list(range(len(self.requests)))
                    self.rng.shuffle(state["order"])
                    state["pos"] = 0
                    state["rounds"] += 1
                state["pos"] += 1
                return state["order"][state["pos"] - 1]

        def client() -> None:
            while (index := next_index()) is not None:
                sent = time.perf_counter()
                status, body = self._send(index)
                with lock:
                    self.answers.append((index, status, body))
                    self.client_seconds.append(time.perf_counter() - sent)

        run_threads(client)
        return state["rounds"], time.perf_counter() - start

    def _open_loop(self, seconds: float) -> tuple[list[float], list[float]]:
        """Poisson arrivals at OPEN_RATE_PER_S, whole rounds of the pool;
        (latency from scheduled arrival, lateness of the send)."""
        size = len(self.requests)
        rounds = max(1, round(OPEN_RATE_PER_S * seconds / size))
        schedule, due = [], 0.0
        for _ in range(rounds):
            order = list(range(size))
            self.rng.shuffle(order)
            for index in order:
                due += self.rng.expovariate(OPEN_RATE_PER_S)
                schedule.append((due, index))
        latency = [math.inf] * len(schedule)
        lateness = [0.0] * len(schedule)
        lock = threading.Lock()
        cursor = [0]
        origin = time.perf_counter() + 0.05

        def client() -> None:
            while True:
                with lock:
                    k = cursor[0]
                    cursor[0] += 1
                if k >= len(schedule):
                    return
                offset, index = schedule[k]
                delay = origin + offset - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                status, body = self._send(index)
                done = time.perf_counter()
                lateness[k] = sent - origin - offset
                if status == 200 and _strict_ok(body):
                    latency[k] = done - origin - offset
                with lock:
                    self.answers.append((index, status, body))
                    self.client_seconds.append(done - sent)

        run_threads(client)
        self.rounds += rounds
        return latency, lateness

    def setup(self) -> None:
        self.daemon.start()
        self._closed_loop(None)  # warm fill: every cell cached
        self.answers.clear()
        self.client_seconds.clear()
        if self.traced:
            self.daemon.start_run()

    def measure(self, seconds: float) -> dict:
        latency, lateness = self._open_loop(seconds / 2)
        rounds, elapsed = self._closed_loop(seconds / 2)
        self.rounds += rounds
        closed = self.answers[len(latency):]
        self._peak = self.daemon.peak_rss_mb()
        self.teardown()
        failed = sum(1 for _i, status, body in self.answers
                     if status != 200 or not _strict_ok(body))
        closed_ok = sum(1 for _i, status, body in closed
                        if status == 200 and _strict_ok(body))
        notes = [f"open loop: {len(latency)} requests at "
                 f"{OPEN_RATE_PER_S:g}/s, p50 "
                 f"{1e3 * checks.percentile(latency, 50):.2f} ms, generator "
                 f"late p50 {1e3 * checks.percentile(lateness, 50):.3f} ms "
                 f"max {1e3 * max(lateness):.2f} ms",
                 f"closed loop: {len(closed)} requests in {rounds} rounds "
                 f"over {elapsed:.2f} s on {CLIENT_THREADS} connections"]
        if checks.samples_beyond(len(latency), 99) >= 10:
            notes.append(f"open loop p99 "
                         f"{1e3 * checks.percentile(latency, 99):.2f} ms")
        return {"throughput_per_s": closed_ok / elapsed,
                "p50_ms": 1e3 * checks.percentile(latency, 50),
                "attempted": len(self.answers), "failed": failed,
                "notes": notes}

    def check(self) -> list[str]:
        from repro.api.codec import decode
        from repro.api.responses import CompressResponse, ForecastResponse
        from repro.api.service import ApiService
        from repro.core.config import EvaluationConfig

        service = ApiService(EvaluationConfig(
            dataset_length=SERVE_LENGTH, keep_going=True,
            cache_dir=os.path.join(self.daemon.work_dir, "reference-cache")))
        reference = (service.compress_batch(self.compress)
                     + service.forecast_batch(self.forecast))
        nan_cells = {(r.dataset, r.method, r.error_bound)
                     for r, answer in zip(self.compress, reference)
                     if any(math.isnan(v) for v in answer.te.values())}
        errors = []
        if nan_cells != set(NAN_SIGNATURES):
            errors.append(f"serve: NaN-R cells {sorted(nan_cells)} are not "
                          f"the expected {list(NAN_SIGNATURES)}")
        for index, status, body in self.answers:
            if status != 200:
                errors.append(f"serve {self.requests[index]}: HTTP {status}")
                continue
            if not _strict_ok(body):
                continue  # a NaN-R answer: counted as failed
            expect = (CompressResponse if index < len(self.compress)
                      else ForecastResponse)
            answer = decode(checks.strict_loads(body), expect=expect)
            if answer != reference[index]:
                errors.append(f"serve {self.requests[index]}: {answer} != "
                              f"in-process {reference[index]}")
        return errors


def _strict_ok(body: bytes) -> bool:
    try:
        checks.strict_loads(body)
    except ValueError:
        return False
    return True


def stream_ticks(rng: np.random.Generator, count: int) -> np.ndarray:
    """A sensor-like series: daily seasonality, AR(1) noise, 2 decimals."""
    t = np.arange(count)
    noise = np.empty(count)
    noise[0] = rng.normal()
    shocks = rng.normal(size=count)
    for i in range(1, count):
        noise[i] = 0.9 * noise[i - 1] + shocks[i]
    level = rng.uniform(5.0, 50.0)
    values = level + 0.2 * level * np.sin(2 * np.pi * t / 96) + noise
    return np.round(values, 2)


class Stream(_DaemonWorkload):
    """Closed-loop ``/v1/stream`` sessions over PMC, SWING and LFZIP."""

    def __init__(self, seed: int, work_dir: str, root: str,
                 traced: bool) -> None:
        super().__init__(seed, work_dir, root, traced)
        from repro.api.codec import encode
        from repro.api.requests import StreamOpenRequest, StreamPushRequest

        rng = np.random.default_rng(seed)
        ticks = STREAM_CHUNK * STREAM_PUSHES
        self.series = [stream_ticks(rng, ticks) for _ in range(STREAM_SERIES)]
        self.push_bodies = [
            [json.dumps(encode(StreamPushRequest(tuple(
                float(v) for v in values[i:i + STREAM_CHUNK])))).encode()
             for i in range(0, ticks, STREAM_CHUNK)]
            for values in self.series]
        self.open_bodies = {method: json.dumps(encode(StreamOpenRequest(
            method, STREAM_BOUND))).encode() for method in STREAM_METHODS}
        #: (method, series index, [body per push and close, None when
        #: the request failed])
        self.sessions: list[tuple[str, int, list[bytes | None]]] = []
        self.push_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def setup(self) -> None:
        self.daemon.start()
        if self.traced:
            self.daemon.start_run()

    def _post(self, path: str, body: bytes, created: bool = False
              ) -> tuple[bool, bytes, float]:
        """One timed request; (answered well, body, client seconds)."""
        sent = time.perf_counter()
        status, answer = post(self.daemon.port, path, body)
        seconds = time.perf_counter() - sent
        self.client_seconds.append(seconds)
        ok = status == (201 if created else 200) and _strict_ok(answer)
        return ok, answer, seconds

    def _session(self, slot: int) -> None:
        method = STREAM_METHODS[slot % len(STREAM_METHODS)]
        series = slot % STREAM_SERIES
        answers: list[bytes | None] = []
        ok, body, _ = self._post("/v1/stream", self.open_bodies[method],
                                 created=True)
        operations, failures = 1, int(not ok)
        if ok:
            session = json.loads(body)["session_id"]
            requests = [(f"/v1/stream/{session}/push", push)
                        for push in self.push_bodies[series]]
            requests.append((f"/v1/stream/{session}/close", b""))
            for path, request in requests:
                ok, body, seconds = self._post(path, request)
                if path.endswith("/push"):
                    self.push_seconds.append(seconds if ok else math.inf)
                answers.append(body if ok else None)
                operations, failures = operations + 1, failures + (not ok)
        with self._lock:
            self.sessions.append((method, series, answers))
            self.attempted += operations
            self.failed += failures

    def measure(self, seconds: float) -> dict:
        lock = threading.Lock()
        cursor = [0]
        start = time.perf_counter()

        def client() -> None:
            while True:
                with lock:
                    slot = cursor[0]
                    if (slot % STREAM_SESSIONS_PER_ROUND == 0 and slot
                            and time.perf_counter() - start >= seconds):
                        return
                    cursor[0] += 1
                self._session(slot)

        run_threads(client)
        elapsed = time.perf_counter() - start
        self._peak = self.daemon.peak_rss_mb()
        self.teardown()
        self.rounds = cursor[0] // STREAM_SESSIONS_PER_ROUND
        ticks = sum(STREAM_CHUNK for _m, _s, answers in self.sessions
                    for body in answers[:-1] if body is not None)
        notes = [f"{len(self.sessions)} sessions ({self.rounds} rounds), "
                 f"{len(self.push_seconds)} pushes of {STREAM_CHUNK} ticks "
                 f"in {elapsed:.2f} s on {CLIENT_THREADS} connections"]
        if checks.samples_beyond(len(self.push_seconds), 99) >= 10:
            notes.append(f"push p99 "
                         f"{1e3 * checks.percentile(self.push_seconds, 99):.2f}"
                         " ms")
        return {"throughput_per_s": ticks / elapsed,
                "p50_ms": 1e3 * checks.percentile(self.push_seconds, 50),
                "attempted": self.attempted, "failed": self.failed,
                "notes": notes}

    def check(self) -> list[str]:
        errors = []
        for method, series, answers in self.sessions:
            ticks = self.series[series]
            segments = []
            for body in answers:
                if body is None:
                    errors.append(f"stream {method}: a request failed")
                    continue
                segments += checks.strict_loads(body)["segments"]
            if sum(s["length"] for s in segments) != len(ticks):
                errors.append(f"stream {method}: segment lengths sum to "
                              f"{sum(s['length'] for s in segments)}, "
                              f"pushed {len(ticks)}")
                continue
            if method == "LFZIP":
                continue
            rebuilt = np.concatenate([checks.rebuild_segment(
                s["kind"], s["length"], s["params"]) for s in segments])
            bad = checks.definition4_violations(ticks, rebuilt, STREAM_BOUND)
            if bad.size:
                errors.append(f"stream {method}: Definition 4 fails at "
                              f"{bad.size} ticks, first index {bad[0]}")
        return errors
