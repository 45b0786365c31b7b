"""Learned matching-utility model (Def. 2's "learned ... using XGBoost").

The platform's deployed utility function scores (request, broker) pairs.
This module learns that function from *historical assignment outcomes*:
pairs that were served in the past together with their realized
per-request conversion, exactly the supervision an operating platform
accumulates.  The learned model can then replace the oracle-with-noise
predictor inside :class:`repro.simulation.platform.RealEstatePlatform`
(see ``examples/learned_utility.py``).
"""

from __future__ import annotations

import numpy as np

from repro.boosting.gbdt import GradientBoostedTrees
from repro.simulation.brokers import BrokerPopulation
from repro.simulation.requests import RequestStream
from repro.state.protocol import expect, versioned


def pair_features(
    population: BrokerPopulation,
    stream: RequestStream,
    request_indices: np.ndarray,
    broker_indices: np.ndarray,
) -> np.ndarray:
    """Feature rows for (request, broker) pairs.

    Combines the interaction terms the platform can compute (district
    preference fit, house-type fit — read from the population's
    normalized :attr:`~repro.simulation.brokers.BrokerPopulation.fit_tables`
    — and price/area gaps) with broker-side and request-side covariates.

    Args:
        population: the broker pool.
        stream: the request stream.
        request_indices / broker_indices: equal-length index arrays; row
            ``i`` describes the pair ``(request_indices[i],
            broker_indices[i])``.

    Returns:
        A ``(n, 8)`` feature matrix.
    """
    request_indices = np.asarray(request_indices, dtype=int)
    broker_indices = np.asarray(broker_indices, dtype=int)
    if request_indices.shape != broker_indices.shape:
        raise ValueError("request and broker index arrays must have equal length")
    tables = population.fit_tables
    district_fit = tables.district_fit[broker_indices, stream.district[request_indices]]
    type_fit = tables.type_fit[broker_indices, stream.house_type[request_indices]]
    price_gap = np.abs(stream.price[request_indices] - population.price_pref[broker_indices])
    area_gap = np.abs(stream.area[request_indices] - population.area_pref[broker_indices])
    return np.column_stack(
        [
            district_fit,
            type_fit,
            price_gap,
            area_gap,
            population.response_rate[broker_indices],
            stream.urgency[request_indices],
            stream.price[request_indices],
            stream.value_multiplier[request_indices],
        ]
    )


class UtilityModel:
    """GBDT regressor from pair features to conversion propensity.

    Args:
        num_rounds / learning_rate / max_depth: boosting hyper-parameters.
        rng: subsampling randomness.
    """

    def __init__(
        self,
        num_rounds: int = 60,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        rng: np.random.Generator | None = None,
    ) -> None:
        self._gbdt = GradientBoostedTrees(
            num_rounds=num_rounds,
            learning_rate=learning_rate,
            max_depth=max_depth,
            subsample=0.8 if rng is not None else 1.0,
            rng=rng,
        )
        self._fitted = False

    def fit_from_history(
        self,
        population: BrokerPopulation,
        stream: RequestStream,
        request_indices: np.ndarray,
        broker_indices: np.ndarray,
        outcomes: np.ndarray,
    ) -> "UtilityModel":
        """Fit on historical served pairs and their realized conversions."""
        features = pair_features(population, stream, request_indices, broker_indices)
        self._gbdt.fit(features, np.asarray(outcomes, dtype=float))
        self._fitted = True
        return self

    def predict_matrix(
        self,
        population: BrokerPopulation,
        stream: RequestStream,
        request_indices: np.ndarray,
    ) -> np.ndarray:
        """Utility matrix ``u_{r,b}`` for a batch of requests.

        Returns:
            ``(n_requests, |B|)`` clipped to ``[1e-6, 1]``.
        """
        if not self._fitted:
            raise RuntimeError("predict_matrix() called before fit_from_history()")
        request_indices = np.asarray(request_indices, dtype=int)
        n = request_indices.size
        num_brokers = len(population)
        grid_requests = np.repeat(request_indices, num_brokers)
        grid_brokers = np.tile(np.arange(num_brokers), n)
        features = pair_features(population, stream, grid_requests, grid_brokers)
        predictions = self._gbdt.predict(features).reshape(n, num_brokers)
        return np.clip(predictions, 1e-6, 1.0)

    def snapshot(self) -> dict:
        """Deep snapshot of the fitted ensemble."""
        return versioned(
            "boosting.utility_model",
            {"gbdt": self._gbdt.snapshot(), "fitted": bool(self._fitted)},
        )

    def restore(self, state) -> None:
        """Reinstall a fitted ensemble from a :meth:`snapshot`."""
        payload = expect(state, "boosting.utility_model")
        self._gbdt.restore(payload["gbdt"])
        self._fitted = bool(payload["fitted"])
