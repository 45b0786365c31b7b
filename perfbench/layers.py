"""Span tracing from outside the program, and per-layer metrics from spans.

The traced run wraps the public entry points of each layer with
:meth:`Tracer.wrap`: instance attributes for objects the benchmark builds
(platform, matcher, estimator, network, value function, hooks) and the
module-level names ``repro.core.vfga`` and ``repro.algorithms.km_batch``
resolve at call time (``select_candidate_brokers``, ``solve_assignment``).
Nothing under ``src/`` is edited; :meth:`Tracer.unwrap` restores every
patched attribute.  Untraced runs wrap only the three platform methods
that time and capture each op (``run.Recorder``).

Spans are kept in memory as ``(name, start, end, parent)`` tuples and
written out once the run ends, each with the id of the platform window it
ran in (-1 at day boundaries).  A span's layer is its name up to the
first dot; its self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

#: Lifecycle callbacks of ``repro.engine.hooks.RunHook``.
HOOK_EVENTS = ("on_run_start", "on_day_start", "on_batch_assigned", "on_day_end", "on_run_end")


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block; yields its index in :attr:`spans`."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, owner, attribute: str, name: str, after=None) -> None:
        """Replace ``owner.attribute`` with a traced call.

        Args:
            owner: an instance or module.
            attribute: the callable's attribute name.
            name: span name (``layer.operation``).
            after: optional ``after(args, result, span)`` called once the
                span has closed, so its work is outside the span.
        """
        inner = getattr(owner, attribute)

        def traced(*args, **kwargs):
            with self.span(name) as index:
                result = inner(*args, **kwargs)
            if after is not None:
                after(args, result, self.spans[index])
            return result

        self._patched.append((owner, attribute, owner.__dict__.get(attribute)))
        setattr(owner, attribute, traced)

    def unwrap(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        """Write spans as JSON lines ``[name, start, end, parent, window]``.

        The window id counts ``env.batch_requests`` calls: spans from one
        call until the next day boundary share it.
        """
        window, current = -1, -1
        with open(path, "w") as handle:
            for name, start, end, parent in self.spans:
                if name == "env.batch_requests":
                    window += 1
                    current = window
                elif name in ("env.start_day", "env.finish_day"):
                    current = -1
                handle.write(json.dumps([name, start, end, parent, current]) + "\n")


def trace_layers(tracer: Tracer, platform, matcher, hooks, policy_owner=None) -> None:
    """Wrap the layer entry points of one built run.

    The platform's ``batch_requests``, ``predicted_utilities`` and
    ``submit_assignment`` are left out: every run already wraps them
    (``env.batch_requests``, ``env.utilities``, ``env.submit``) to record
    its ops, in ``run.Recorder``.
    """
    import repro.algorithms.km_batch as km_batch
    import repro.core.vfga as vfga

    for attribute, name in (("start_day", "env.start_day"), ("finish_day", "env.finish_day")):
        tracer.wrap(platform, attribute, name)
    for attribute in ("begin_day", "assign_batch", "end_day"):
        tracer.wrap(matcher, attribute, f"matcher.{attribute}")
    assigner = matcher.assigner
    for attribute in ("begin_day", "assign_batch", "end_day"):
        tracer.wrap(assigner, attribute, f"vfga.{attribute}")
    counts = tracer.counts

    def brokers(args, result, _span):
        counts["bandit.brokers"] += len(result)

    def columns(args, result, _span):
        counts["cbs.offered"] += args[0].shape[1]
        counts["cbs.kept"] += len(result)

    def cells(args, result, _span):
        counts["km.cells"] += args[0].shape[0] * args[0].shape[1]

    estimator = matcher.estimator
    tracer.wrap(estimator, "estimate_batch", "bandit.predict", after=brokers)
    tracer.wrap(estimator, "update", "bandit.update")
    network = getattr(estimator, "base", estimator).network
    tracer.wrap(network, "train_step", "bandit.train")
    value_function = assigner.value_function
    tracer.wrap(value_function, "td_update", "td.update")
    tracer.wrap(value_function, "refinement_batch", "td.refine")
    tracer.wrap(value_function, "expire_day_end", "td.expire")
    tracer.wrap(vfga, "select_candidate_brokers", "cbs.select", after=columns)
    for module in (vfga, km_batch):
        tracer.wrap(module, "solve_assignment", "km.solve", after=cells)
    for hook in hooks:
        for event in HOOK_EVENTS:
            tracer.wrap(hook, event, f"hooks.{type(hook).__name__}.{event}")
    if policy_owner is not None:
        tracer.wrap(policy_owner, "split", "serve.split")


def self_times(spans: list) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    own = np.array([end - start for _name, start, end, _parent in spans])
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
