"""Capacity-estimator protocol shared by all bandit policies."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class CapacityEstimator(ABC):
    """Online estimator of broker daily workload capacities.

    The estimator interacts with the platform exactly as in Fig. 5: at the
    start of each day it *estimates* a capacity per broker from the working
    status context, and at the end of the day it is *updated* with the
    observed trial triple ``(x, w, s)``.

    Implementations may be generic (one model for all brokers, the paper's
    Alg. 1) or personalized (per-broker fine-tuned heads, Sec. V-D) — the
    ``broker_id`` argument lets personalized estimators route accordingly.
    """

    @abstractmethod
    def estimate(self, context: np.ndarray, broker_id: int | None = None) -> float:
        """Choose a workload capacity for one broker (``B.estimate(x)``)."""

    @abstractmethod
    def update(
        self,
        context: np.ndarray,
        workload: float,
        reward: float,
        broker_id: int | None = None,
        capacity: float | None = None,
    ) -> None:
        """Feed back one observed trial triple.

        Args:
            context: the working status ``x`` the decision was made under.
            workload: the realized workload ``w``.
            reward: the observed reward ``s``.
            broker_id: identity for personalized estimators.
            capacity: the capacity ``c`` that was chosen for the day (lets
                implementations train on the chosen arm, Alg. 1 line 16).
        """

    def estimate_batch(self, contexts: np.ndarray, broker_ids: np.ndarray | None = None) -> np.ndarray:
        """Vectorized convenience: one capacity per context row.

        Estimates run in row order, so a stateful estimator sees the same
        sequence of calls as a per-broker loop.  ``broker_ids`` defaults to
        the row indices and must have one entry per context row.
        """
        contexts, broker_ids = batch_arguments(contexts, broker_ids)
        return np.array(
            [
                self.estimate(context, int(broker_id))
                for context, broker_id in zip(contexts, broker_ids)
            ]
        )


def batch_arguments(
    contexts: np.ndarray, broker_ids: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Validated ``(contexts, broker_ids)`` of an :meth:`~CapacityEstimator.estimate_batch` call.

    Raises:
        ValueError: when ``broker_ids`` does not have one entry per context
            row (silently truncating would drop brokers from the day).
    """
    contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
    if broker_ids is None:
        return contexts, np.arange(contexts.shape[0])
    broker_ids = np.asarray(broker_ids)
    if broker_ids.shape != (contexts.shape[0],):
        raise ValueError(
            f"broker_ids has shape {broker_ids.shape}, expected one id per "
            f"context row ({contexts.shape[0]},)"
        )
    return contexts, broker_ids


class FixedCapacityEstimator(CapacityEstimator):
    """Degenerate estimator returning one preset capacity for everybody.

    This is the capacity model of the CTop-K baseline (Sec. VII-A): a single
    empirically chosen city-level capacity (45 / 55 / 40 for Cities A/B/C).
    """

    def __init__(self, capacity: float) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = float(capacity)

    def estimate(self, context: np.ndarray, broker_id: int | None = None) -> float:
        """Return the preset capacity regardless of context."""
        return self.capacity

    def update(
        self,
        context: np.ndarray,
        workload: float,
        reward: float,
        broker_id: int | None = None,
        capacity: float | None = None,
    ) -> None:
        """Fixed capacities ignore feedback."""

    def snapshot(self) -> dict:
        """Stateless: the snapshot records only the configured capacity."""
        from repro.state.protocol import versioned

        return versioned("bandits.fixed", {"capacity": self.capacity})

    def restore(self, state) -> None:
        """Validate the envelope; a fixed estimator has nothing to restore."""
        from repro.state.protocol import expect

        expect(state, "bandits.fixed")
