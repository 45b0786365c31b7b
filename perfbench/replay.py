"""Open-loop queue replay of a serving run's measured request-path seconds.

``ServingReport.latencies`` charges a micro-batch only its ``assign_batch``
seconds.  The benchmark charges each micro-batch everything on its request
path instead (``predicted_utilities`` + ``assign_batch`` +
``submit_assignment``) and replays those seconds through a single-server
FIFO queue on the virtual arrival timeline.

Offered rate is changed by scaling the timeline: arrival and close times
are multiplied by ``reference_rate / rate`` while service seconds stay as
measured.  Micro-batch composition does not depend on the rate because
``max_wait`` is a fixed share of the window, so one run's composition
serves every rate.  Day-boundary work (``begin_day``/``end_day``) happens
overnight and is never charged here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serving.microbatch import LoadLevelingQueue


def nearest_rank(values: np.ndarray, q: float) -> float:
    """The ``q`` quantile by nearest rank; ``inf`` entries sort last."""
    ordered = np.sort(np.asarray(values, dtype=float))
    index = max(int(np.ceil(q * ordered.size)) - 1, 0)
    return float(ordered[index])


@dataclass
class Timeline:
    """Micro-batches of one serving run on the reference timeline.

    Attributes:
        close: ``(ops,)`` virtual close time of each micro-batch, in
            service order.
        arrival: ``(requests,)`` virtual arrival time of each request
            event, grouped by micro-batch in service order.
        op_of_request: ``(requests,)`` index of each request's micro-batch.
        assigned: ``(requests,)`` whether the request was matched.
        reference_rate: scheduled requests per virtual second.
    """

    close: np.ndarray
    arrival: np.ndarray
    op_of_request: np.ndarray
    assigned: np.ndarray
    reference_rate: float

    def completions(self, service: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Completion time of each micro-batch in the engine's single-server
        FIFO, ``LoadLevelingQueue``; at ``scale=1`` the engine's own service
        seconds reproduce its latencies bit for bit.
        """
        queue = LoadLevelingQueue()
        return np.array([
            queue.admit(ready, seconds)[1]
            for ready, seconds in zip((self.close * scale).tolist(), np.asarray(service).tolist())
        ])

    def latencies(self, service: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Per-request seconds from arrival until the micro-batch completes."""
        return self.completions(service, scale)[self.op_of_request] - self.arrival * scale

    def at_rate(self, service: np.ndarray, rate: float) -> dict:
        """Latency, wait and load figures at one offered rate (req/s).

        Unassigned requests count as missing every latency limit.
        """
        scale = self.reference_rate / rate
        done = self.completions(service, scale)
        latency = done[self.op_of_request] - self.arrival * scale
        latency[~self.assigned] = np.inf
        close = self.close * scale
        sizes = np.bincount(self.op_of_request, minlength=close.size)
        queued = np.concatenate([[0], np.cumsum(sizes)])
        # Completions are non-decreasing, so the micro-batches still in the
        # system when batch i closes form a suffix of 0..i-1.
        index = np.arange(close.size)
        first_open = np.minimum(np.searchsorted(done, close, side="right"), index)
        backlog = queued[index] - queued[first_open]
        return {
            "latency_p50": nearest_rank(latency, 0.50),
            "latency_p99": nearest_rank(latency, 0.99),
            "close_wait_p99": nearest_rank(close[self.op_of_request] - self.arrival * scale, 0.99),
            "busy_share": float(np.sum(service) / done[-1]),
            "backlog_max": int(backlog.max()),
        }

    def max_rate(self, service: np.ndarray, limit: float) -> float:
        """Highest offered rate whose p99 latency stays within ``limit`` s.

        Scans down from twice the server's capacity in 3% steps until the
        limit is met, then bisects between the last failing and the first
        passing rate.  Returns 0.0 when no rate down to 1% of capacity
        meets the limit.
        """

        def meets(rate: float) -> bool:
            return self.at_rate(service, rate)["latency_p99"] <= limit

        capacity = self.arrival.size / float(np.sum(service))
        high = 2.0 * capacity
        low = high
        while not meets(low):
            high = low
            low *= 0.97
            if low < 0.01 * capacity:
                return 0.0
        if low == high:
            return low
        for _ in range(30):
            middle = 0.5 * (low + high)
            if meets(middle):
                low = middle
            else:
                high = middle
        return low
