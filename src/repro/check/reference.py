"""Reference environment: the utility formulas evaluated term by term.

:mod:`repro.simulation.utility` tabulates the static broker side of the
preference fit once per population and scores only the submitted pairs at
submit time.  This module keeps the direct formulas as the oracle the
differential suite compares against bit for bit
(:func:`repro.check.differential.assert_environment_matches_reference`):
the whole weighted sum rebuilt from the raw preference rows on every call,
and a platform whose ``submit_assignment`` builds the full ``(n, |B|)``
affinity matrix and reads the assigned entries from it.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import Assignment
from repro.simulation.platform import RealEstatePlatform
from repro.simulation.utility import (
    MATCH_FLOOR,
    MATCH_WEIGHTS,
    PREDICTION_NOISE_SCALE,
)


def reference_match_score(population, stream, request_indices) -> np.ndarray:
    """``(n, |B|)`` preference fit, every term rebuilt from the raw rows."""
    request_indices = np.asarray(request_indices, dtype=int)
    n = request_indices.size
    district = stream.district[request_indices]
    house_type = stream.house_type[request_indices]
    price = stream.price[request_indices]
    area = stream.area[request_indices]

    district_fit = population.district_pref[:, district].T
    district_fit = district_fit / np.maximum(
        population.district_pref.max(axis=1)[None, :], 1e-12
    )
    type_fit = population.type_pref[:, house_type].T
    type_fit = type_fit / np.maximum(population.type_pref.max(axis=1)[None, :], 1e-12)
    price_fit = 1.0 - np.abs(price[:, None] - population.price_pref[None, :])
    area_fit = 1.0 - np.abs(area[:, None] - population.area_pref[None, :])
    response_fit = np.broadcast_to(population.response_rate[None, :], (n, len(population)))

    return (
        MATCH_WEIGHTS["district"] * district_fit
        + MATCH_WEIGHTS["type"] * type_fit
        + MATCH_WEIGHTS["price"] * price_fit
        + MATCH_WEIGHTS["area"] * area_fit
        + MATCH_WEIGHTS["response"] * response_fit
    )


def reference_affinity(population, stream, request_indices) -> np.ndarray:
    """``(n, |B|)`` ground-truth affinity from :func:`reference_match_score`."""
    request_indices = np.asarray(request_indices, dtype=int)
    fit = reference_match_score(population, stream, request_indices)
    affinity = population.base_quality[None, :] * (
        MATCH_FLOOR + (1.0 - MATCH_FLOOR) * fit
    )
    return affinity * stream.value_multiplier[request_indices][:, None]


def reference_predicted_utility(population, stream, request_indices) -> np.ndarray:
    """``(n, |B|)`` deployed-model utilities from :func:`reference_affinity`."""
    request_indices = np.asarray(request_indices, dtype=int)
    affinity = reference_affinity(population, stream, request_indices)
    noise = stream.noise_embedding[request_indices] @ population.noise_embedding.T
    return np.clip(affinity * (1.0 + PREDICTION_NOISE_SCALE * noise), 1e-6, 1.0)


class ReferencePlatform(RealEstatePlatform):
    """A platform whose per-batch environment calls use the reference formulas."""

    def predicted_utilities(self, request_indices: np.ndarray) -> np.ndarray:
        request_indices = np.asarray(request_indices, dtype=int)
        utilities = reference_predicted_utility(self.population, self.stream, request_indices)
        for row, request_id in enumerate(request_indices):
            blocked = self._blocked_pairs.get(int(request_id))
            if blocked:
                utilities[row, list(blocked)] = 0.0
        return utilities

    def submit_assignment(self, assignment: Assignment) -> None:
        self._require_open(assignment.day)
        if not 0 <= assignment.batch < self.batches_per_day:
            raise IndexError(f"batch {assignment.batch} out of range")
        if not assignment.pairs:
            return
        request_ids = np.array([pair.request_id for pair in assignment.pairs], dtype=int)
        broker_ids = np.array([pair.broker_id for pair in assignment.pairs], dtype=int)
        affinity = reference_affinity(self.population, self.stream, request_ids)
        pair_affinity = affinity[np.arange(len(request_ids)), broker_ids]
        if self.appeal_rate > 0.0:
            row_best = affinity.max(axis=1)
            appeal_prob = self.appeal_rate * (1.0 - pair_affinity / row_best)
            appealed = self._rng.random(len(request_ids)) < appeal_prob
        else:
            appealed = np.zeros(len(request_ids), dtype=bool)
        served = ~appealed
        np.add.at(self._today_workload, broker_ids[served], 1)
        np.add.at(self._today_affinity, broker_ids[served], pair_affinity[served])
        next_batch = assignment.batch + 1
        for request_id, broker_id in zip(request_ids[appealed], broker_ids[appealed]):
            self._blocked_pairs.setdefault(int(request_id), set()).add(int(broker_id))
            if next_batch < self.batches_per_day:
                self._requeued.setdefault(next_batch, []).append(int(request_id))
