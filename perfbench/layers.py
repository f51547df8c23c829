"""Per-layer tracing for the traced run, done entirely from outside.

:func:`install` wraps the public functions at each layer boundary of the
program — dataset loading, the codecs, TE metrics, the raw-size
denominator, the scheduler and its jobs, the disk cache, the API batch
calls, the micro-batcher, the HTTP handler, stream sessions, online
encoders and rolling forecasters — with timers that append to one
in-memory :class:`Recorder`.  Nothing in the program is edited; untraced
runs never import this module.

:func:`layer_metrics` turns a recorder dump into the named per-layer
metrics that ``BENCHMARK.json`` lists.  Sums and counts are per round
(one pass of the workload's operation set), so counts repeat exactly
from run to run; ``_ms`` figures are medians per call.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import Counter, defaultdict

GRID_CODECS = ("CAMEO", "LFZIP", "PMC", "SWING", "SZ")
TRACED_MODELS = ("Arima", "GBoost", "DLinear", "NBeats")
JOB_KINDS = ("compress", "train", "forecast")


class Recorder:
    """Durations and counts by name, split into a setup and a run phase."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.enabled = True
        self.setup: dict = {"times": {}, "counts": {}}
        self._times: dict[str, list[float]] = defaultdict(list)
        self._counts: Counter = Counter()
        #: submit-entry clock per in-flight request (queue-wait pairing)
        self.submitted: dict[int, float] = {}

    def time(self, name: str, seconds: float) -> None:
        if self.enabled:
            with self._lock:
                self._times[name].append(seconds)

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            with self._lock:
                self._counts[name] += amount

    def start_run(self) -> None:
        """Close the setup phase: what was recorded so far becomes setup."""
        with self._lock:
            self.setup = self._dump_locked()
            self._times = defaultdict(list)
            self._counts = Counter()

    def dump(self) -> dict:
        with self._lock:
            return {"setup": self.setup, "run": self._dump_locked()}

    def _dump_locked(self) -> dict:
        return {"times": {k: list(v) for k, v in self._times.items()},
                "counts": dict(self._counts)}


def _timed(recorder: Recorder, name: str, function, on_result=None):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = function(*args, **kwargs)
        recorder.time(name, time.perf_counter() - start)
        if on_result is not None:
            on_result(args, result)
        return result
    return wrapper


def _wrap(owner, attr: str, recorder: Recorder, name: str,
          on_result=None) -> None:
    setattr(owner, attr, _timed(recorder, name, getattr(owner, attr),
                                on_result))


def install(recorder: Recorder) -> None:
    """Wrap every traced layer boundary of the imported program."""
    import http.server

    from repro.api import service
    from repro.api.service import ApiService
    from repro.compression import streaming
    from repro.core.cache import DiskCache
    from repro.forecasting import rolling
    from repro.registry import compressor_info, model_info
    from repro.runtime import jobs
    from repro.runtime.scheduler import Scheduler
    from repro.server.batching import MicroBatcher
    from repro.server.sessions import SessionManager

    _wrap(jobs, "load", recorder, "datasets.load")
    for codec in GRID_CODECS:
        _wrap(compressor_info(codec).factory, "compress", recorder,
              f"compression.compress.{codec}")
    _wrap(service, "raw_gz_size", recorder, "compression.raw_gz")
    _wrap(service, "transformation_error", recorder, "metrics.te")
    for model in TRACED_MODELS:
        factory = model_info(model).factory
        _wrap(factory, "fit", recorder, f"forecasting.fit.{model}")
        _wrap(factory, "predict", recorder, "forecasting.predict")

    _wrap(Scheduler, "run", recorder, "runtime.run")
    for job_type in (jobs.CompressJob, jobs.TrainJob, jobs.ForecastJob):
        _wrap(job_type, "run", recorder, "runtime.job",
              lambda args, _r: recorder.count(f"runtime.jobs.{args[0].kind}"))

    _wrap(DiskCache, "put", recorder, "cache.put")
    _wrap(DiskCache, "get", recorder, "cache.get")
    _wrap(DiskCache, "contains", recorder, "cache.contains",
          lambda _a, hit: recorder.count("cache.hits" if hit
                                         else "cache.misses"))

    def batch_entry(name: str, function):
        @functools.wraps(function)
        def wrapper(self, requests):
            start = time.perf_counter()
            for request in requests:
                submitted = recorder.submitted.pop(id(request), None)
                if submitted is not None:
                    recorder.time("server.queue_wait", start - submitted)
            recorder.count("api.batches")
            recorder.count("api.batched_requests", len(requests))
            result = function(self, requests)
            recorder.time(name, time.perf_counter() - start)
            return result
        return wrapper

    ApiService.compress_batch = batch_entry("api.compress_batch",
                                            ApiService.compress_batch)
    ApiService.forecast_batch = batch_entry("api.forecast_batch",
                                            ApiService.forecast_batch)

    submit = MicroBatcher.submit

    @functools.wraps(submit)
    def traced_submit(self, request, timeout=None):
        start = time.perf_counter()
        recorder.submitted[id(request)] = start
        try:
            return submit(self, request, timeout)
        finally:
            recorder.submitted.pop(id(request), None)
            recorder.time("server.submit", time.perf_counter() - start)

    MicroBatcher.submit = traced_submit
    _wrap(http.server.BaseHTTPRequestHandler, "handle_one_request", recorder,
          "server.handle")

    def count_segments(_args, response):
        recorder.count("sessions.segments", len(response.segments))

    _wrap(SessionManager, "push", recorder, "sessions.push", count_segments)
    _wrap(SessionManager, "close", recorder, "sessions.close",
          count_segments)
    for encoder in streaming.STREAMING_ALGORITHMS.values():
        _wrap(encoder, "extend", recorder, "streaming.extend")
    for forecaster in rolling.STREAM_MODELS.values():
        _wrap(forecaster, "update", recorder, "rolling.update")


#: (name, unit) of every per-layer metric, in report order
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("datasets.load_s", "s"),
    ("compression.compress_s", "s"),
    *((f"compression.compress_s.{codec}", "s") for codec in GRID_CODECS),
    ("compression.compress_calls", "count"),
    ("compression.raw_gz_s", "s"),
    ("compression.raw_gz_calls", "count"),
    ("compression.raw_gz_ms", "ms"),
    ("metrics.te_s", "s"),
    ("forecasting.fit_s", "s"),
    *((f"forecasting.fit_s.{model}", "s") for model in TRACED_MODELS),
    ("forecasting.fit_calls", "count"),
    ("forecasting.predict_s", "s"),
    ("forecasting.predict_calls", "count"),
    ("runtime.run_s", "s"),
    ("runtime.overhead_s", "s"),
    *((f"runtime.jobs.{kind}", "count") for kind in JOB_KINDS),
    ("cache.put_s", "s"),
    ("cache.put_calls", "count"),
    ("cache.get_calls", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.put_ms", "ms"),
    ("api.compress_batch_ms", "ms"),
    ("api.forecast_batch_ms", "ms"),
    ("api.batch_size", "count"),
    ("server.submit_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.http_ms", "ms"),
    ("sessions.push_ms", "ms"),
    ("streaming.extend_ms", "ms"),
    ("rolling.update_ms", "ms"),
    ("sessions.segments", "count"),
)


def _median_ms(samples: list[float]) -> float:
    return 1e3 * statistics.median(samples) if samples else 0.0


def layer_metrics(dump: dict, rounds: int,
                  client_latencies_s: list[float] | None = None
                  ) -> dict[str, float]:
    """Per-layer metric values from a :meth:`Recorder.dump`.

    ``client_latencies_s`` are the client-side durations of the HTTP
    requests of the run phase; ``server.http_ms`` is their mean minus
    the mean server-side handling time.
    """
    times, counts = dump["run"]["times"], dump["run"]["counts"]
    setup_times = dump["setup"]["times"]
    rounds = max(1, rounds)

    def total(name: str) -> float:
        return sum(times.get(name, ())) / rounds

    def calls(name: str) -> float:
        return len(times.get(name, ())) / rounds

    per_codec = {codec: total(f"compression.compress.{codec}")
                 for codec in GRID_CODECS}
    per_model = {model: total(f"forecasting.fit.{model}")
                 for model in TRACED_MODELS}
    probes = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    handled = times.get("server.handle", ())
    http_ms = 0.0
    if client_latencies_s and handled:
        http_ms = 1e3 * (statistics.fmean(client_latencies_s)
                         - statistics.fmean(handled))
    values = {
        "datasets.load_s": (sum(setup_times.get("datasets.load", ()))
                            + sum(times.get("datasets.load", ()))),
        "compression.compress_s": sum(per_codec.values()),
        **{f"compression.compress_s.{c}": v for c, v in per_codec.items()},
        "compression.compress_calls": sum(
            calls(f"compression.compress.{c}") for c in GRID_CODECS),
        "compression.raw_gz_s": total("compression.raw_gz"),
        "compression.raw_gz_calls": calls("compression.raw_gz"),
        "compression.raw_gz_ms": _median_ms(times.get("compression.raw_gz",
                                                      [])),
        "metrics.te_s": total("metrics.te"),
        "forecasting.fit_s": sum(per_model.values()),
        **{f"forecasting.fit_s.{m}": v for m, v in per_model.items()},
        "forecasting.fit_calls": sum(calls(f"forecasting.fit.{m}")
                                     for m in TRACED_MODELS),
        "forecasting.predict_s": total("forecasting.predict"),
        "forecasting.predict_calls": calls("forecasting.predict"),
        "runtime.run_s": total("runtime.run"),
        "runtime.overhead_s": total("runtime.run") - total("runtime.job"),
        **{f"runtime.jobs.{kind}": counts.get(f"runtime.jobs.{kind}", 0)
           / rounds for kind in JOB_KINDS},
        "cache.put_s": total("cache.put"),
        "cache.put_calls": calls("cache.put"),
        "cache.get_calls": calls("cache.get"),
        "cache.hit_ratio": (counts.get("cache.hits", 0) / probes
                            if probes else 0.0),
        "cache.put_ms": _median_ms(times.get("cache.put", [])),
        "api.compress_batch_ms": _median_ms(times.get("api.compress_batch",
                                                      [])),
        "api.forecast_batch_ms": _median_ms(times.get("api.forecast_batch",
                                                      [])),
        "api.batch_size": (counts.get("api.batched_requests", 0)
                           / counts["api.batches"]
                           if counts.get("api.batches") else 0.0),
        "server.submit_ms": _median_ms(times.get("server.submit", [])),
        "server.queue_wait_ms": _median_ms(times.get("server.queue_wait",
                                                     [])),
        "server.http_ms": http_ms,
        "sessions.push_ms": _median_ms(times.get("sessions.push", [])),
        "streaming.extend_ms": _median_ms(times.get("streaming.extend", [])),
        "rolling.update_ms": _median_ms(times.get("rolling.update", [])),
        "sessions.segments": counts.get("sessions.segments", 0) / rounds,
    }
    if set(values) != {name for name, _ in PER_LAYER}:
        raise RuntimeError("per-layer metric table out of sync")
    return values
