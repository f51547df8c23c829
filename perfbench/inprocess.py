"""The in-process workloads: the Figure 2/3 sweep and the Algorithm 1 grid.

Both drive :class:`repro.api.service.ApiService` on the serial backend in
whole rounds.  Every round gets a fresh service over a fresh cache
directory, so each round is cold; the datasets are generated for the
new service before its round's clock starts.  A run repeats rounds until
its time is used up and reports the median round.
"""

from __future__ import annotations

import math
import os
import random
import resource
import shutil
import statistics
import time

import checks

#: the paper's Figure 2/3 sweep: full series of all six datasets
SWEEP_LENGTH = 4000
#: the grid's sub-grid: two datasets, one model per family
GRID_LENGTH = 1500
GRID_DATASETS = ("ETTm1", "Weather")
GRID_MODELS = ("Arima", "GBoost", "DLinear", "NBeats")
GRID_BOUNDS_PER_RUN = 4
#: 15 trees instead of 60: the default forest alone takes ~6 s per
#: dataset here, which would leave one grid round per run
GRID_MODEL_KWARGS = {"GBoost": {"n_estimators": 15}}


class _InProcess:
    """Shared round loop of the sweep and the grid."""

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self.rounds = 0
        self.round_seconds: list[float] = []
        self.service = None
        self._cache_dirs = 0
        self.first: list[str] | None = None
        self.same_every_round = True
        self.last = None

    def _fresh_service(self):
        from repro.api.service import ApiService
        from repro.core.config import EvaluationConfig

        if self.service is not None:
            shutil.rmtree(self.service.config.cache_dir, ignore_errors=True)
        self._cache_dirs += 1
        cache_dir = os.path.join(self.work_dir, f"cache-{self._cache_dirs}")
        self.service = ApiService(EvaluationConfig(
            cache_dir=cache_dir, backend="serial", **self.config))
        for name in self.datasets:
            self.service.dataset(name, self.length)

    def setup(self) -> None:
        self._fresh_service()

    def measure(self, seconds: float) -> dict:
        started = time.perf_counter()
        while self.rounds == 0 or time.perf_counter() - started < seconds:
            if self.rounds:
                self._fresh_service()
            begin = time.perf_counter()
            outputs = self.run_round()
            self.round_seconds.append(time.perf_counter() - begin)
            self._keep(outputs)
            self.rounds += 1
        median_s = statistics.median(self.round_seconds)
        return {"throughput_per_s": self.cells / median_s,
                "p50_ms": 1e3 * median_s,
                "attempted": self.rounds * self.cells, "failed": 0,
                "notes": [f"{self.rounds} rounds of {self.cells} cells, "
                          f"round seconds "
                          + " ".join(f"{s:.3f}" for s in self.round_seconds)]}

    @staticmethod
    def peak_rss_mb() -> float:
        """This process's peak resident set (VmHWM) in MiB."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _keep(self, outputs) -> None:
        self.last = outputs
        texts = [repr(output) for output in outputs]
        if self.first is None:
            self.first = texts
        self.same_every_round = self.same_every_round and texts == self.first

    def teardown(self) -> None:
        if self.service is not None:
            shutil.rmtree(self.service.config.cache_dir, ignore_errors=True)
            self.service = None


class Sweep(_InProcess):
    """Every grid codec at the 13 paper bounds on all six full series."""

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(work_dir)
        from repro.api.requests import CompressRequest
        from repro.compression.registry import (GRID_METHODS,
                                                PAPER_ERROR_BOUNDS)
        from repro.datasets.registry import DATASET_NAMES

        self.datasets = DATASET_NAMES
        self.length = SWEEP_LENGTH
        self.config = {"dataset_length": self.length}
        self.requests = [CompressRequest(name, method, bound,
                                         length=self.length)
                         for name in DATASET_NAMES for method in GRID_METHODS
                         for bound in PAPER_ERROR_BOUNDS]
        random.Random(seed).shuffle(self.requests)
        self.cells = len(self.requests)

    def run_round(self):
        return self.service.compress_batch(self.requests)

    def check(self) -> list[str]:
        from repro.api.responses import CompressResponse
        from repro.registry import make_compressor

        errors = []
        if not self.same_every_round:
            errors.append("sweep: a cold round answered differently")
        for request, response in zip(self.requests, self.last):
            cell = f"{request.dataset}/{request.method}/{request.error_bound}"
            if not isinstance(response, CompressResponse):
                errors.append(f"sweep {cell}: {response!r}")
                continue
            result = self.service.transform(request)
            x = result.original.values
            x_hat = result.decompressed.values
            bad = checks.definition4_violations(x, x_hat,
                                                request.error_bound)
            if bad.size:
                errors.append(f"sweep {cell}: Definition 4 fails at "
                              f"{bad.size} points, first index {bad[0]}")
            decoded = make_compressor(request.method).decompress(
                result.compressed)
            if not (decoded.values.tobytes() == x_hat.tobytes()):
                errors.append(f"sweep {cell}: decompress(payload) differs")
            if response.compressed_size != len(result.compressed):
                errors.append(f"sweep {cell}: compressed_size "
                              f"{response.compressed_size} != payload "
                              f"{len(result.compressed)}")
            own = checks.nrmse(x, x_hat)
            if not checks.close(own, response.te["NRMSE"]):
                errors.append(f"sweep {cell}: NRMSE {response.te['NRMSE']}"
                              f" != {own}")
        return errors


class Grid(_InProcess):
    """A cold Algorithm 1 sub-grid through ``ApiService.grid``."""

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(work_dir)
        from repro.api.requests import GridRequest
        from repro.compression.registry import (GRID_METHODS,
                                                PAPER_ERROR_BOUNDS)

        rng = random.Random(seed)
        bounds = tuple(sorted(rng.sample(PAPER_ERROR_BOUNDS,
                                         GRID_BOUNDS_PER_RUN)))
        self.datasets = GRID_DATASETS
        self.length = GRID_LENGTH
        self.config = {"dataset_length": self.length,
                       "model_kwargs": GRID_MODEL_KWARGS}
        self.request = GridRequest(datasets=GRID_DATASETS, models=GRID_MODELS,
                                   methods=GRID_METHODS, error_bounds=bounds,
                                   seeds=1, length=self.length)
        self.cells = len(GRID_DATASETS) * len(GRID_MODELS) * (
            1 + len(GRID_METHODS) * len(bounds))

    def run_round(self):
        records, _manifest = self.service.grid(self.request)
        return records

    def check(self) -> list[str]:
        errors = []
        if not self.same_every_round:
            errors.append("grid: a cold round returned different records")
        planned = self.service.grid_requests(self.request)
        got = [(r.dataset, r.model, r.method, r.error_bound, r.seed)
               for r in self.last]
        want = [(c.dataset, c.model, c.method, c.error_bound, c.seed)
                for c in planned]
        if got != want or len(got) != self.cells:
            errors.append(f"grid: {len(got)} records do not match the "
                          f"{len(want)} planned cells in order")
        config = self.service.config
        targets = {name: checks.cut_test_targets(
            self.service.dataset(name, self.length).target_series.values,
            config.input_length, config.horizon, config.eval_stride)
            for name in GRID_DATASETS}
        for record in self.last:
            if not checks.error_metrics_agree(record.metrics,
                                              targets[record.dataset]):
                errors.append(f"grid {record.dataset}/{record.model}/"
                              f"{record.method}/{record.error_bound}: "
                              f"RMSE/NRMSE/RSE disagree {record.metrics}")
            if any(math.isnan(v) for v in record.metrics.values()):
                errors.append(f"grid {record.dataset}/{record.model}: NaN "
                              f"metric {record.metrics}")
        rerun = [repr(r) for r in self.run_round()]
        if rerun != [repr(r) for r in self.last]:
            errors.append("grid: the warm rerun returned different records")
        return errors
