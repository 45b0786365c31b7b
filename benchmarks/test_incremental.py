"""Incremental matching — warm-started KM and the utility-prediction cache.

The fig8-style hot path re-solves one assignment per batch, and
consecutive batches are near-duplicates: availability drifts slowly and
the Eq. 15 refinement perturbs a few rows.  This bench drives the
repeated-solve regime those batches form:

* **warm-started KM** — one :class:`repro.matching.incremental.
  IncrementalKMSolver` through a stream of related instances (tail-row
  deltas, identical repeats, full redraws) vs a cold
  ``solve_assignment`` per step.  The end-to-end stream speedup carries
  a hard floor (>= 2x full mode, "not slower" in CI smoke); every step
  is separately asserted bit-identical to the cold solver before any
  timing happens.  An interior-delta stream (changed rows in the middle
  of the matrix, where prefix resumption helps least) is recorded
  alongside, ungated, for transparency.
* **utility-prediction cache** — ``CachedUtilityModel`` vs the bare GBDT
  on overlapping request batches (the appealed-request re-query
  pattern), with bit-identical outputs asserted and the hit-path
  speedup floored.
* **seeded compare runs** — LACB and LACB-Opt with
  ``incremental=True, utility_cache=True`` under the fast kernels vs
  ``REPRO_REFERENCE_KERNELS``-equivalent reference kernels: results must
  be bit-identical, which is the whole contract of the knobs.

Emits ``BENCH_incremental.json`` (tracked by ``repro-lacb baseline``).

Run modes::

    PYTHONPATH=src python -m pytest benchmarks/test_incremental.py --benchmark-only
    REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/test_incremental.py --benchmark-only
"""

import json
import os
import time

import numpy as np

from benchmarks.common import result_path
from repro import perf
from repro.boosting import CachedUtilityModel, UtilityModel
from repro.core.config import AssignmentConfig, BanditConfig, LACBConfig
from repro.engine import MatcherSpec, PlatformSpec, RunSpec
from repro.engine.executor import execute_spec
from repro.matching import IncrementalKMSolver, solve_assignment
from repro.simulation import SyntheticConfig, generate_city

#: CI smoke mode: small instances, floors relaxed to "fast is not slower".
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"

REPEATS = 3 if SMOKE else 5
#: Batch instance shape: |R| requests x |B| candidate brokers.
SOLVE_SHAPE = (12, 80) if SMOKE else (32, 600)
#: Steps in the repeated-solve stream.
NUM_STEPS = 60 if SMOKE else 400
#: Rows changed per tail-delta step (the value-refinement regime).
MAX_DELTA_ROWS = 4

WARM_FLOOR = 1.0 if SMOKE else 2.0
CACHE_FLOOR = 1.0 if SMOKE else 1.2

#: Utility-cache instance.
CACHE_CITY = SyntheticConfig(
    num_brokers=40 if SMOKE else 150,
    num_requests=400 if SMOKE else 1500,
    num_days=2,
    imbalance=0.05,
    seed=13,
)
CACHE_HISTORY = 300 if SMOKE else 1000
CACHE_BATCH = 24 if SMOKE else 48
CACHE_QUERIES = 12 if SMOKE else 30
#: Fraction of each query batch re-drawn from the previous batch
#: (appealed requests re-entering the next batch).
CACHE_OVERLAP = 0.75

#: Seeded engine runs replayed under both kernel modes; must be bit-identical.
COMPARE_CONFIG = SyntheticConfig(
    num_brokers=20 if SMOKE else 40,
    num_requests=150 if SMOKE else 400,
    num_days=1 if SMOKE else 3,
    imbalance=0.05,
    seed=42,
)

RESULT_PATH = result_path("BENCH_incremental.json", SMOKE)


def _best_of(repeats, fn):
    """Min-of-repeats wall clock — robust to scheduler noise."""
    times = []
    for _ in range(repeats):
        tick = time.perf_counter()
        fn()
        times.append(time.perf_counter() - tick)
    return min(times), times


def _solve_stream(rng, tail_deltas: bool) -> list[np.ndarray]:
    """The repeated-solve instance stream.

    ~84% of steps redraw 1-``MAX_DELTA_ROWS`` rows (trailing rows when
    ``tail_deltas`` — the batch regime prefix resumption targets —
    uniformly placed otherwise), ~8% repeat the previous instance
    unchanged (pure cache hits), ~8% redraw the whole matrix (forced cold
    fallbacks), so the stream exercises hit, warm and cold modes in
    realistic proportion.
    """
    n_rows, n_cols = SOLVE_SHAPE
    current = rng.uniform(0.0, 10.0, size=SOLVE_SHAPE)
    stream = [current]
    for _ in range(NUM_STEPS - 1):
        draw = rng.random()
        if draw < 0.08:
            current = current.copy()
        elif draw < 0.16:
            current = rng.uniform(0.0, 10.0, size=SOLVE_SHAPE)
        else:
            k = int(rng.integers(1, MAX_DELTA_ROWS + 1))
            current = current.copy()
            if tail_deltas:
                current[n_rows - k:] = rng.uniform(0.0, 10.0, size=(k, n_cols))
            else:
                rows = rng.choice(n_rows, size=k, replace=False)
                current[rows] = rng.uniform(0.0, 10.0, size=(k, n_cols))
        stream.append(current)
    return stream


def _time_stream(stream) -> tuple[float, list, float, list, dict]:
    """Best-of warm vs cold wall clock over one instance stream."""

    def warm_pass():
        solver = IncrementalKMSolver()
        for weights in stream:
            solver.solve(weights)
        return solver

    def cold_pass():
        for weights in stream:
            solve_assignment(weights, maximize=True, backend="repro")

    cold_best, cold_times = _best_of(REPEATS, cold_pass)
    warm_best, warm_times = _best_of(REPEATS, warm_pass)
    stats = warm_pass().stats
    return warm_best, warm_times, cold_best, cold_times, stats


def _compare_run(name: str):
    spec = RunSpec(
        platform=PlatformSpec.synthetic(COMPARE_CONFIG),
        matcher=MatcherSpec(
            name,
            seed=7,
            lacb_config=LACBConfig(
                bandit=BanditConfig(),
                assignment=AssignmentConfig(
                    use_cbs=(name == "LACB-Opt"),
                    incremental=True,
                    utility_cache=True,
                ),
            ),
        ),
    )
    return execute_spec(spec)


def test_incremental_matching(benchmark):
    rng = np.random.default_rng(29)

    # ------------------------------------------------------------------
    # Correctness before timing: every step of the tail-delta stream is
    # bit-identical to the cold reference.
    # ------------------------------------------------------------------
    tail_stream = _solve_stream(rng, tail_deltas=True)
    solver = IncrementalKMSolver()
    for step, weights in enumerate(tail_stream):
        warm = solver.solve(weights)
        cold = solve_assignment(weights, maximize=True, backend="repro")
        assert warm.pairs == cold.pairs, f"pair divergence at step {step}"
        assert warm.total_weight == cold.total_weight, f"total divergence at step {step}"
    assert solver.stats["warm"] > 0 and solver.stats["hit"] > 0

    # ------------------------------------------------------------------
    # The gated repeated-solve benchmark (tail deltas), plus the
    # interior-delta stream recorded for transparency.
    # ------------------------------------------------------------------
    warm_best, warm_times, cold_best, cold_times, warm_stats = _time_stream(tail_stream)
    warm_speedup = cold_best / warm_best

    interior_stream = _solve_stream(rng, tail_deltas=False)
    (
        interior_best,
        interior_times,
        interior_cold_best,
        interior_cold_times,
        interior_stats,
    ) = _time_stream(interior_stream)
    interior_speedup = interior_cold_best / interior_best

    # ------------------------------------------------------------------
    # Utility-prediction cache: bit-identical rows, hit-path speedup on
    # overlapping request batches.
    # ------------------------------------------------------------------
    platform = generate_city(CACHE_CITY)
    history_rng = np.random.default_rng(5)
    history_requests = history_rng.integers(
        0, CACHE_CITY.num_requests, size=CACHE_HISTORY
    )
    history_brokers = history_rng.integers(0, CACHE_CITY.num_brokers, size=CACHE_HISTORY)
    history_outcomes = history_rng.uniform(0.0, 1.0, size=CACHE_HISTORY)
    model = UtilityModel(num_rounds=10 if SMOKE else 30, rng=np.random.default_rng(3))
    model.fit_from_history(
        platform.population, platform.stream, history_requests, history_brokers,
        history_outcomes,
    )

    query_rng = np.random.default_rng(17)
    batches = [query_rng.integers(0, CACHE_CITY.num_requests, size=CACHE_BATCH)]
    carried = int(CACHE_BATCH * CACHE_OVERLAP)
    for _ in range(CACHE_QUERIES - 1):
        fresh = query_rng.integers(0, CACHE_CITY.num_requests, size=CACHE_BATCH - carried)
        batches.append(np.concatenate([batches[-1][:carried], fresh]))

    cached_model = CachedUtilityModel(model)
    for batch in batches:
        expected = model.predict_matrix(platform.population, platform.stream, batch)
        got = cached_model.predict_matrix(platform.population, platform.stream, batch)
        np.testing.assert_array_equal(got, expected)
    assert cached_model.cache.stats["hits"] > 0

    def uncached_pass():
        for batch in batches:
            model.predict_matrix(platform.population, platform.stream, batch)

    def cached_pass():
        fresh = CachedUtilityModel(model)
        for batch in batches:
            fresh.predict_matrix(platform.population, platform.stream, batch)

    uncached_best, uncached_times = _best_of(REPEATS, uncached_pass)
    cached_best, cached_times = _best_of(REPEATS, cached_pass)
    cache_speedup = uncached_best / cached_best

    # ------------------------------------------------------------------
    # Seeded compare runs: knobs on + fast kernels vs reference kernels.
    # ------------------------------------------------------------------
    compare = {}
    for name in ("LACB", "LACB-Opt"):
        with perf.use_fast_kernels(True):
            fast_run = _compare_run(name)
        with perf.use_fast_kernels(False):
            reference_run = _compare_run(name)
        assert fast_run.total_realized_utility == reference_run.total_realized_utility
        assert fast_run.total_predicted_utility == reference_run.total_predicted_utility
        assert fast_run.num_assigned == reference_run.num_assigned
        np.testing.assert_array_equal(fast_run.daily_utility, reference_run.daily_utility)
        np.testing.assert_array_equal(
            fast_run.broker_utility, reference_run.broker_utility
        )
        compare[name] = {
            "bit_identical": True,
            "total_realized_utility": fast_run.total_realized_utility,
        }

    # One recorded pass for the pytest-benchmark tables: the warm stream,
    # the quantity whose regression this bench exists to catch.
    def warm_pass():
        solver = IncrementalKMSolver()
        for weights in tail_stream:
            solver.solve(weights)

    benchmark.pedantic(warm_pass, rounds=1, iterations=1)

    payload = {
        "bench": "incremental",
        "smoke": SMOKE,
        "repeats": REPEATS,
        "warm": {
            "shape": list(SOLVE_SHAPE),
            "steps": NUM_STEPS,
            "max_delta_rows": MAX_DELTA_ROWS,
            "cold_seconds": cold_times,
            "warm_seconds": warm_times,
            "cold_best": cold_best,
            "warm_best": warm_best,
            "speedup": warm_speedup,
            "floor": WARM_FLOOR,
            "solver_stats": warm_stats,
        },
        "interior": {
            "cold_seconds": interior_cold_times,
            "warm_seconds": interior_times,
            "cold_best": interior_cold_best,
            "warm_best": interior_best,
            "speedup": interior_speedup,
            "solver_stats": interior_stats,
        },
        "cache": {
            "num_brokers": CACHE_CITY.num_brokers,
            "batch": CACHE_BATCH,
            "queries": CACHE_QUERIES,
            "overlap": CACHE_OVERLAP,
            "uncached_seconds": uncached_times,
            "cached_seconds": cached_times,
            "uncached_best": uncached_best,
            "cached_best": cached_best,
            "speedup": cache_speedup,
            "floor": CACHE_FLOOR,
            "rows_identical": True,
        },
        "compare_runs": {
            "num_brokers": COMPARE_CONFIG.num_brokers,
            "num_requests": COMPARE_CONFIG.num_requests,
            "num_days": COMPARE_CONFIG.num_days,
            **compare,
        },
    }
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)

    print()
    print(
        f"warm KM (tail deltas):    {cold_best:.3f}s -> {warm_best:.3f}s "
        f"({warm_speedup:.1f}x, floor {WARM_FLOOR:.1f}x, shape {SOLVE_SHAPE}, "
        f"{NUM_STEPS} steps, modes {warm_stats['hit']}h/{warm_stats['warm']}w/"
        f"{warm_stats['cold']}c)"
    )
    print(
        f"warm KM (interior):       {interior_cold_best:.3f}s -> {interior_best:.3f}s "
        f"({interior_speedup:.1f}x, recorded only)"
    )
    print(
        f"utility cache:            {uncached_best:.3f}s -> {cached_best:.3f}s "
        f"({cache_speedup:.1f}x, floor {CACHE_FLOOR:.1f}x, "
        f"{CACHE_QUERIES} batches x {CACHE_BATCH} requests, "
        f"{CACHE_OVERLAP:.0%} overlap)"
    )
    print("compare runs:             bit-identical fast vs reference (LACB, LACB-Opt)")

    assert warm_speedup >= WARM_FLOOR, (
        f"warm-started KM stream is only {warm_speedup:.2f}x the cold stream "
        f"(floor {WARM_FLOOR:.1f}x)"
    )
    assert cache_speedup >= CACHE_FLOOR, (
        f"utility-prediction cache is only {cache_speedup:.2f}x the uncached "
        f"model (floor {CACHE_FLOOR:.1f}x)"
    )
