#!/usr/bin/env python3
"""Whole-run benchmark of the LACB reproduction, measured from outside.

Run from the repository root::

    python3 perfbench/run.py --workload paper-lacb-opt --seed 1 --seconds 25 --trace 0

Each invocation builds one workload's city and matcher through the public
API (``generate_city``, ``make_matcher``) and drives ``DayLoopEngine`` or
``ServingEngine`` over the whole horizon, at least the workload's
``repeats`` times and again while the repeats fit in ``--seconds``.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
the seed once untraced and once with every layer's entry points wrapped,
and reports the per-layer metrics.
After the timed section it checks every window's or micro-batch's
assignment, and that ``total_utility`` repeats exactly.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (operations, i.e. windows or micro-batches) and ``metrics``.

Workloads, seeds and the layer each workload stresses live in
``perfbench/workloads.json``; metric definitions in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space for hook output and span files (never committed).
OUT = ROOT / ".perfbench_out"
#: Builds timed per invocation; setup_s is their median.
SETUP_SAMPLES = 9
#: Seed offsets separating the matcher's and the arrival draw's streams
#: from the city's.
MATCHER_SEED_OFFSET = 1000
ARRIVAL_SEED_OFFSET = 2000

END_TO_END_UNITS = {
    "setup_s": "s",
    "requests_per_s": "req/s",
    "window_p50_ms": "ms",
    "window_p99_ms": "ms",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "max_rps": "req/s",
    "total_utility": "utility",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

PER_LAYER_UNITS = {
    "setup.city_s": "s",
    "setup.matcher_s": "s",
    "bandit.predict_s": "s",
    "bandit.predict_us_per_broker": "us",
    "bandit.update_s": "s",
    "bandit.update_calls": "count",
    "bandit.train_s": "s",
    "bandit.train_steps": "count",
    "cbs.select_s": "s",
    "cbs.calls": "count",
    "cbs.kept_ratio": "ratio",
    "km.solve_s": "s",
    "km.calls": "count",
    "km.cells": "count",
    "km.solve_p99_ms": "ms",
    "td.update_s": "s",
    "td.update_calls": "count",
    "td.refine_s": "s",
    "env.utilities_s": "s",
    "env.utilities_calls": "count",
    "env.submit_s": "s",
    "env.day_s": "s",
    "env.appeals": "count",
    "vfga.self_s": "s",
    "matcher.begin_day_s": "s",
    "matcher.assign_s": "s",
    "matcher.end_day_s": "s",
    "hooks.s": "s",
    "hooks.checkpoint_s": "s",
    "hooks.telemetry_bytes": "bytes",
    "hooks.checkpoint_bytes": "bytes",
    "serve.microbatches": "count",
    "serve.batch_size_mean": "requests",
    "serve.close_wait_p99_ms": "ms",
    "serve.busy_share": "ratio",
    "serve.backlog_max": "requests",
    "coverage": "ratio",
    "trace_overhead": "ratio",
}


@dataclass
class Op:
    """One window (batch mode) or micro-batch (serve mode) on the request path.

    Attributes:
        window: index into :attr:`Recorder.windows`.
        start / end: start of the op's first platform span and end of its
            ``env.submit`` span (``perf_counter``).
        ids: request ids handed to the matcher.
        check: ``(day, batch, requests, brokers, utilities, predicted)`` of
            the submitted assignment, ``predicted`` holding the predicted
            matrix entry of each pair (NaN where the pair is out of range).
    """

    window: int
    start: float
    end: float
    ids: object
    check: tuple

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Repeat:
    """What one run of the workload left behind."""

    wall: float
    assigned: int
    total_utility: float
    windows: list
    ops: list
    report: object = None
    schedule: object = None
    hook_bytes: dict = field(default_factory=dict)
    #: The run's :class:`layers.Tracer`; only the traced run's is kept.
    tracer: object = None
    #: Serve mode: ``(Timeline, misplaced op indices)``, built on first use.
    timeline: tuple | None = None


class Recorder:
    """Times each op on the request path and captures its assignment.

    Wraps three platform methods with :meth:`layers.Tracer.wrap`, in every
    run.  In batch mode an op starts with the ``env.batch_requests`` span;
    in serve mode with each micro-batch's ``env.utilities`` span.  Both end
    with the ``env.submit`` span.  The bookkeeping runs after each span
    closes, so no ``env`` span includes it.
    """

    def __init__(self, tracer, platform, serve: bool) -> None:
        self.serve = serve
        self.windows: list = []
        self.ops: list[Op] = []
        self._start = 0.0
        self._pending = None
        tracer.wrap(platform, "batch_requests", "env.batch_requests", after=self._on_batch)
        tracer.wrap(platform, "predicted_utilities", "env.utilities", after=self._on_predict)
        tracer.wrap(platform, "submit_assignment", "env.submit", after=self._on_submit)

    def _on_batch(self, args, ids, span) -> None:
        day, batch = args
        self.windows.append((day, batch, ids))
        if not self.serve:
            self._start = span[1]

    def _on_predict(self, args, utilities, span) -> None:
        if self.serve:
            self._start = span[1]
        self._pending = (args[0], utilities)

    def _on_submit(self, args, _result, span) -> None:
        import numpy as np

        (assignment,) = args
        ids, utilities = self._pending
        self._pending = None
        pairs = assignment.pairs
        requests = np.array([pair.request_id for pair in pairs], dtype=int)
        brokers = np.array([pair.broker_id for pair in pairs], dtype=int)
        values = np.array([pair.utility for pair in pairs], dtype=float)
        row_of = {request: row for row, request in enumerate(ids.tolist())}
        rows = np.array([row_of.get(request, -1) for request in requests.tolist()], dtype=int)
        valid = (rows >= 0) & (brokers >= 0) & (brokers < utilities.shape[1])
        predicted = np.full(len(pairs), np.nan)
        predicted[valid] = utilities[rows[valid], brokers[valid]]
        self.ops.append(
            Op(len(self.windows) - 1, self._start, span[2], ids,
               (assignment.day, assignment.batch, requests, brokers, values, predicted))
        )


def op_ok(op: Op, windows: list, num_brokers: int) -> bool:
    """Output check of one op's assignment (see README.md)."""
    import numpy as np

    day, batch, requests, brokers, values, predicted = op.check
    window_day, window_batch, window_ids = windows[op.window]
    return bool(
        (day, batch) == (window_day, window_batch)
        and np.unique(requests).size == requests.size
        and np.unique(brokers).size == brokers.size
        and np.all((brokers >= 0) & (brokers < num_brokers))
        and np.all(np.isin(requests, op.ids))
        and np.all(np.isin(op.ids, window_ids))
        and np.array_equal(values, predicted)
    )


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


class Bench:
    """One workload at one seed."""

    def __init__(self, name: str, spec: dict, seed: int) -> None:
        from repro import SyntheticConfig

        self.name = name
        self.spec = spec
        self.seed = seed
        self.serve = spec["mode"] == "serve"
        #: Repeats of the seed per invocation, at least.  Op times are the
        #: per-op median over exactly this many repeats, so that the
        #: statistic does not depend on how many further repeats fit in
        #: ``--seconds``.
        self.repeats = spec["repeats"]
        self.config = SyntheticConfig(
            num_brokers=spec["brokers"],
            num_requests=spec["requests_per_day"] * spec["days"],
            num_days=spec["days"],
            imbalance=spec["imbalance"],
            appeal_rate=spec["appeal_rate"],
            seed=seed,
        )
        self.city_seconds: list[float] = []
        self.matcher_seconds: list[float] = []

    # ------------------------------------------------------------------
    def build(self):
        """Timed setup: ``generate_city`` then ``make_matcher``."""
        from repro import generate_city, make_matcher

        tick = time.perf_counter()
        platform = generate_city(self.config)
        middle = time.perf_counter()
        matcher = make_matcher(
            self.spec["algorithm"], platform, seed=self.seed + MATCHER_SEED_OFFSET
        )
        done = time.perf_counter()
        self.city_seconds.append(middle - tick)
        self.matcher_seconds.append(done - middle)
        return platform, matcher

    @property
    def setup_seconds(self) -> list[float]:
        return [city + matcher for city, matcher in zip(self.city_seconds, self.matcher_seconds)]

    def policy(self):
        from repro.serving.microbatch import MicroBatchPolicy

        return MicroBatchPolicy(
            max_wait=self.spec["window_seconds"] * self.spec["max_wait_windows"],
            max_size=self.spec["max_size"],
        )

    def schedule(self, platform):
        from repro.serving.arrivals import derive_arrivals

        return derive_arrivals(
            platform.stream,
            window_seconds=self.spec["window_seconds"],
            profile=self.spec["profile"],
            seed=self.seed + ARRIVAL_SEED_OFFSET,
        )

    # ------------------------------------------------------------------
    def run(self, tag: str, trace: bool = False) -> Repeat:
        """One full run of the workload on a fresh build.

        Every run records its ops through a :class:`layers.Tracer`; with
        ``trace`` the tracer also wraps every layer's entry points.
        """
        from layers import Tracer, trace_layers
        from repro import DayLoopEngine, MetricsCollector
        from repro.obs import telemetry as obs

        platform, matcher = self.build()
        tracer = Tracer()
        recorder = Recorder(tracer, platform, self.serve)
        collector = MetricsCollector()
        hooks = [collector]
        run_dir = OUT / f"{self.name}-s{self.seed}-p{os.getpid()}-{tag}"
        telemetry = None
        if self.spec["hooks"]:
            from repro.obs.hook import TelemetryHook
            from repro.obs.stream import TelemetryStreamWriter, stream_dir_for
            from repro.state import CheckpointHook, CheckpointStore

            shutil.rmtree(run_dir, ignore_errors=True)
            telemetry = obs.Telemetry()
            telemetry.stream_dir = stream_dir_for(str(run_dir / "telemetry"))
            telemetry.stream = TelemetryStreamWriter(telemetry.stream_dir, segment="main")
            hooks += [
                TelemetryHook(telemetry),
                CheckpointHook(
                    CheckpointStore(str(run_dir / "checkpoints")),
                    run_id=f"{self.name}-s{self.seed}",
                    components={"collector": collector},
                ),
            ]
        policy = self.policy() if self.serve else None
        if trace:
            from types import SimpleNamespace

            if self.serve:
                policy = SimpleNamespace(split=policy.split)
            trace_layers(tracer, platform, matcher, hooks, policy_owner=policy)

        report = schedule = None
        tick = time.perf_counter()
        try:
            with tracer.span("run"):
                if telemetry is not None:
                    obs.enable(telemetry)
                try:
                    if self.serve:
                        from repro.serving.engine import ServingEngine

                        with tracer.span("serve.arrivals"):
                            schedule = self.schedule(platform)
                        engine = ServingEngine(policy, schedule=schedule)
                        report = engine.run(platform, matcher, hooks)
                    else:
                        DayLoopEngine().run(platform, matcher, hooks)
                finally:
                    if telemetry is not None:
                        obs.disable()
                        with tracer.span("hooks.export"):
                            telemetry.export(str(run_dir / "telemetry"))
            wall = time.perf_counter() - tick
        finally:
            tracer.unwrap()

        hook_bytes = {}
        if telemetry is not None:
            hook_bytes = {
                "telemetry": dir_bytes(run_dir / "telemetry"),
                "checkpoint": dir_bytes(run_dir / "checkpoints"),
            }
            shutil.rmtree(run_dir, ignore_errors=True)
        result = collector.result
        return Repeat(
            wall=wall,
            assigned=result.num_assigned,
            total_utility=result.total_realized_utility,
            windows=recorder.windows,
            ops=recorder.ops,
            report=report,
            schedule=schedule,
            hook_bytes=hook_bytes,
            tracer=tracer if trace else None,
        )

    # ------------------------------------------------------------------
    def timeline(self, repeat: Repeat):
        """Serve mode: each micro-batch's close and arrival times, re-derived
        with the policy's ``split``; also returns the ops whose composition
        disagrees with that split."""
        import numpy as np

        from replay import Timeline

        if repeat.timeline is not None:
            return repeat.timeline
        schedule, policy = repeat.schedule, self.policy()
        by_window: dict[int, list] = {}
        for index, op in enumerate(repeat.ops):
            by_window.setdefault(op.window, []).append(index)
        close, arrival, op_of_request, assigned, bad = [], [], [], [], set()
        for window, (day, batch, ids) in enumerate(repeat.windows):
            indices = by_window.get(window, [])
            if ids.size == 0:
                continue
            times = schedule.arrivals_for(day, batch, ids)
            order = np.argsort(times, kind="stable")
            ids, times = ids[order], times[order]
            micro = policy.split(times, schedule.window_end(day, batch))
            if len(micro) != len(indices):
                bad.update(indices)
            for batch_, index in zip(micro, indices):
                op = repeat.ops[index]
                if not np.array_equal(op.ids, ids[batch_.start : batch_.stop]):
                    bad.add(index)
                close.append(batch_.close_time)
                arrival.append(times[batch_.start : batch_.stop])
                op_of_request.append(np.full(batch_.size, len(close) - 1))
                assigned.append(np.isin(op.ids, op.check[2]))
        stream = repeat.report.context.platform.stream
        windows = stream.num_days * stream.batches_per_day
        timeline = Timeline(
            close=np.asarray(close),
            arrival=np.concatenate(arrival),
            op_of_request=np.concatenate(op_of_request),
            assigned=np.concatenate(assigned),
            reference_rate=stream.num_requests / (windows * schedule.window_seconds),
        )
        repeat.timeline = (timeline, bad)
        return repeat.timeline

    def request_path(self, repeat: Repeat, seconds) -> dict:
        """Latency-side figures of one repeat's ops, timed by ``seconds``
        (see README.md)."""
        import numpy as np

        from replay import nearest_rank

        sizes = np.array([len(op.ids) for op in repeat.ops])
        figures = {
            "window_p50_ms": 1e3 * nearest_rank(seconds, 0.50),
            "window_p99_ms": 1e3 * nearest_rank(seconds, 0.99),
            "microbatches": len(repeat.ops),
            "batch_size_mean": float(sizes.mean()),
        }
        if self.serve:
            timeline, _bad = self.timeline(repeat)
            at_rate = timeline.at_rate(seconds, self.spec["rate_rps"])
            figures.update(
                latency_p50_ms=1e3 * at_rate["latency_p50"],
                latency_p99_ms=1e3 * at_rate["latency_p99"],
                max_rps=timeline.max_rate(seconds, self.spec["limit_ms"] / 1e3),
                close_wait_p99_ms=1e3 * at_rate["close_wait_p99"],
                busy_share=at_rate["busy_share"],
                backlog_max=at_rate["backlog_max"],
            )
        else:
            # Closed loop: every request of a window waits for that
            # window's assignment, and windows run back to back.
            per_request = np.repeat(seconds, sizes)
            figures.update(
                latency_p50_ms=1e3 * nearest_rank(per_request, 0.50),
                latency_p99_ms=1e3 * nearest_rank(per_request, 0.99),
                max_rps=float(sizes.sum() / seconds.sum()),
                close_wait_p99_ms=0.0,
                busy_share=float(seconds.sum() / repeat.wall),
                backlog_max=int(sizes.max()),
            )
        return figures

    # ------------------------------------------------------------------
    def check(self, repeat: Repeat) -> tuple[int, int, list[str]]:
        """Output checks of one repeat; returns ``(attempted, failed, problems)``."""
        import numpy as np

        problems: list[str] = []
        bad = {
            index
            for index, op in enumerate(repeat.ops)
            if not op_ok(op, repeat.windows, self.config.num_brokers)
        }
        if self.serve:
            timeline, misplaced = self.timeline(repeat)
            bad |= misplaced
            report = repeat.report
            replayed = timeline.latencies(report.service_seconds)
            if not (
                report.micro_batches == len(repeat.ops)
                and np.array_equal(replayed, report.latencies)
            ):
                problems.append("queue replay does not reproduce ServingReport.latencies")
        if bad:
            problems.append(f"{len(bad)} ops failed the output check")
        return len(repeat.ops), len(bad), problems


def median(values) -> float:
    return float(statistics.median(values))


def op_seconds(repeat: Repeat):
    import numpy as np

    return np.array([op.seconds for op in repeat.ops])


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Repeat the run within ``seconds``; the end-to-end metrics.

    The seed runs at least ``bench.repeats`` times, and again while the
    mean repeat so far would still end within ``seconds``.  Every repeat
    does the same ops (checked), so each op's time is its median over the
    first ``bench.repeats`` repeats: host stalls of a few hundred
    milliseconds then set no tail unless they hit the same op in half of
    them.  A minimum would follow the host's brief fast stretches instead,
    which come and go from run to run.  ``requests_per_s`` is the median
    over all repeats.  The extra setup samples are split before and after
    the repeats, so that setup_s sees more than one stretch of the
    machine's speed.
    """
    import numpy as np

    extra = max(SETUP_SAMPLES - bench.repeats, 0)
    for _ in range(extra // 2):
        bench.build()
    attempted = failed = 0
    problems: list[str] = []
    rates, totals = [], []
    first, samples = None, []
    tick = time.perf_counter()
    while len(rates) < bench.repeats or (
        (time.perf_counter() - tick) * (len(rates) + 1) / len(rates) <= seconds
    ):
        # Each repeat after the first is checked, reduced to its op times
        # and dropped at once, so peak memory does not depend on how many
        # repeats fit.  The wrappers on the platform form reference
        # cycles, hence the explicit collect.
        repeat = bench.run(f"r{len(rates)}")
        ops, bad, found = bench.check(repeat)
        attempted, failed, problems = attempted + ops, failed + bad, problems + found
        rates.append(repeat.assigned / repeat.wall)
        totals.append(repeat.total_utility)
        if first is None:
            first = repeat
            samples.append(op_seconds(repeat))
        elif len(repeat.ops) != len(first.ops) or not all(
            np.array_equal(op.ids, reference.ids) for op, reference in zip(repeat.ops, first.ops)
        ):
            problems.append(f"repeat {len(rates) - 1} ran other ops than repeat 0")
        elif len(rates) <= bench.repeats:
            samples.append(op_seconds(repeat))
        del repeat
        gc.collect()
    for _ in range(extra - extra // 2):
        bench.build()
    if len(set(totals)) != 1:
        problems.append(f"total_utility differs across repeats: {sorted(set(totals))}")
    print(f"samples: {len(rates)} repeat(s) of {len(first.ops)} ops and "
          f"{sum(len(op.ids) for op in first.ops)} request events; "
          f"setup_s over {len(bench.setup_seconds)} builds")
    path = bench.request_path(first, np.median(samples, axis=0))
    metrics = {
        "setup_s": median(bench.setup_seconds),
        "requests_per_s": median(rates),
        "total_utility": totals[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - failed / attempted,
    }
    for name in ("window_p50_ms", "window_p99_ms", "latency_p50_ms", "latency_p99_ms", "max_rps"):
        metrics[name] = path[name]
    return metrics, attempted, failed, problems


def per_layer(bench: Bench) -> tuple[dict, int, int, list[str], Path]:
    """One untraced and one traced run of the seed; per-layer metrics."""
    import numpy as np

    from layers import self_times
    from replay import nearest_rank

    for _ in range(max(SETUP_SAMPLES - 2, 0)):
        bench.build()
    plain = bench.run("plain")
    traced = bench.run("traced", trace=True)
    tracer = traced.tracer
    attempted = failed = 0
    problems: list[str] = []
    for repeat in (plain, traced):
        ops, bad, found = bench.check(repeat)
        attempted, failed, problems = attempted + ops, failed + bad, problems + found
    if plain.total_utility != traced.total_utility:
        problems.append(
            f"total_utility differs: untraced {plain.total_utility}, traced {traced.total_utility}"
        )

    spans = tracer.spans
    names = np.array([record[0] for record in spans])
    duration = np.array([end - start for _name, start, end, _parent in spans])
    own = self_times(spans)
    parents = np.array([record[3] for record in spans])

    def total(name: str) -> float:
        return float(duration[names == name].sum())

    def calls(name: str) -> int:
        return int(np.count_nonzero(names == name))

    def spent(prefix: str) -> float:
        return float(duration[np.char.startswith(names, prefix)].sum())

    def self_of(prefix: str) -> float:
        return float(own[np.char.startswith(names, prefix)].sum())

    counts = tracer.counts
    predict_s = total("bandit.predict")
    offered = counts["cbs.offered"]
    root = int(np.flatnonzero(names == "run")[0])
    km = duration[names == "km.solve"]
    path = bench.request_path(plain, op_seconds(plain))
    appeals = sum(ids.size for _day, _batch, ids in plain.windows) - bench.config.num_requests
    metrics = {
        "setup.city_s": median(bench.city_seconds),
        "setup.matcher_s": median(bench.matcher_seconds),
        "bandit.predict_s": predict_s,
        "bandit.predict_us_per_broker": 1e6 * predict_s / max(counts["bandit.brokers"], 1),
        "bandit.update_s": total("bandit.update"),
        "bandit.update_calls": calls("bandit.update"),
        "bandit.train_s": total("bandit.train"),
        "bandit.train_steps": calls("bandit.train"),
        "cbs.select_s": total("cbs.select"),
        "cbs.calls": calls("cbs.select"),
        "cbs.kept_ratio": counts["cbs.kept"] / offered if offered else 0.0,
        "km.solve_s": total("km.solve"),
        "km.calls": calls("km.solve"),
        "km.cells": int(counts["km.cells"]),
        "km.solve_p99_ms": 1e3 * nearest_rank(km, 0.99) if km.size else 0.0,
        "td.update_s": total("td.update"),
        "td.update_calls": calls("td.update"),
        "td.refine_s": total("td.refine"),
        "env.utilities_s": total("env.utilities"),
        "env.utilities_calls": calls("env.utilities"),
        "env.submit_s": total("env.submit"),
        "env.day_s": total("env.start_day") + total("env.finish_day"),
        "env.appeals": int(appeals),
        "vfga.self_s": self_of("vfga."),
        "matcher.begin_day_s": self_of("matcher.begin_day"),
        "matcher.assign_s": self_of("matcher.assign_batch"),
        "matcher.end_day_s": self_of("matcher.end_day"),
        "hooks.s": spent("hooks."),
        "hooks.checkpoint_s": spent("hooks.CheckpointHook."),
        "hooks.telemetry_bytes": traced.hook_bytes.get("telemetry", 0),
        "hooks.checkpoint_bytes": traced.hook_bytes.get("checkpoint", 0),
        "serve.microbatches": path["microbatches"],
        "serve.batch_size_mean": path["batch_size_mean"],
        "serve.close_wait_p99_ms": path["close_wait_p99_ms"],
        "serve.busy_share": path["busy_share"],
        "serve.backlog_max": path["backlog_max"],
        "coverage": float(duration[parents == root].sum() / duration[root]),
        "trace_overhead": traced.wall / plain.wall,
    }
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{bench.name}-s{bench.seed}.jsonl"
    tracer.write(str(spans_path))
    layer_self: dict[str, float] = {}
    for name, seconds in zip(names.tolist(), own.tolist()):
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    print(f"{bench.name} seed={bench.seed}: self time by layer "
          f"(traced wall {traced.wall:.3f} s, untraced {plain.wall:.3f} s)")
    for layer, seconds in sorted(layer_self.items(), key=lambda item: -item[1]):
        print(f"  {layer:8s} {seconds:9.3f} s  {seconds / traced.wall:6.1%}")
    return metrics, attempted, failed, problems, spans_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    catalog = json.loads((HERE / "workloads.json").read_text())
    parser.add_argument("--workload", required=True, choices=sorted(catalog["workloads"]))
    parser.add_argument("--seed", type=int, default=catalog["default_seed"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    bench = Bench(args.workload, catalog["workloads"][args.workload], args.seed)
    try:
        if args.trace:
            metrics, attempted, failed, problems, spans_path = per_layer(bench)
            units = PER_LAYER_UNITS
        else:
            metrics, attempted, failed, problems = end_to_end(bench, args.seconds)
            units = END_TO_END_UNITS
    except Exception:  # a raising run is a failed operation, never dropped
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    print(f"{args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds:g}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"  failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    if args.trace:
        print(f"  spans written to {spans_path.relative_to(ROOT)}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
