"""Request-broker matching utility.

The paper treats the matching utility ``u_{r,b}`` as an input "learned from
historical assignments using models such as XGBoost" (Def. 2), and its
simulator "takes the same utility function deployed" to score
request-broker pairs.  This module provides both halves:

- :func:`ground_truth_affinity` — the latent conversion propensity of a
  pair, combining the broker's base quality with district / house-type /
  price / area preference fit and responsiveness.  Realized outcomes are
  this affinity degraded by the broker's workload-response curve.
  :func:`pair_affinity` is the same quantity for given (request, broker)
  pairs only, without the ``(n, |B|)`` matrix.
- :func:`predicted_utility` — the *deployed model's* estimate: the affinity
  disturbed by deterministic low-rank model noise.  Algorithms only ever
  see this prediction.  (``repro.boosting.UtilityModel`` offers the
  alternative of actually learning the predictor from historical outcomes
  with gradient-boosted trees.)

The broker side of the preference fit is static, so it is tabulated once
per population (:class:`BrokerFitTables`, reached as
``population.fit_tables``): each request's district and house type select
one precomputed row of ``0.35 * district_fit + 0.15 * type_fit``, and only
the price and area gaps are computed per batch.  The table entry is the
first two terms of the left-to-right weighted sum, and every later term is
added in the original order with the original operations, so scores,
affinities and predictions are bit-identical to evaluating the whole sum
per batch (``repro.check.reference`` keeps that formula as the oracle).
The tables do not involve ``base_quality``, which learning-by-doing
changes, so they never need rebuilding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.simulation.brokers import BrokerPopulation
    from repro.simulation.requests import RequestStream

#: Relative weights of the preference-fit components.
MATCH_WEIGHTS = {
    "district": 0.35,
    "type": 0.15,
    "price": 0.25,
    "area": 0.15,
    "response": 0.10,
}

#: Floor of the quality multiplier: even a poorly fitting pair converts at
#: a fraction of the broker's base quality.  A high floor means broker
#: quality dominates preference fit in the rankings — which is what makes
#: the same few stars appear in almost every request's top-k and produces
#: the demand concentration of Sec. II-B.
MATCH_FLOOR = 0.45

#: Scale of the deployed model's deterministic prediction noise.
PREDICTION_NOISE_SCALE = 0.08

#: Floor of a preference row's maximum when normalizing it (an all-zero
#: row then scores 0 everywhere instead of dividing by zero).
PREFERENCE_MAX_FLOOR = 1e-12


@dataclass(frozen=True)
class BrokerFitTables:
    """Broker-side preference-fit terms, built once per population.

    Attributes:
        district_fit: ``(|B|, D)`` district preference rows divided by their
            row maximum, so a broker's favourite district scores 1.
        type_fit: ``(|B|, T)`` house-type rows normalized the same way.
        categorical: ``(D, T, |B|)`` — ``0.35 * district_fit[b, d] + 0.15 *
            type_fit[b, t]``; row ``[d, t]`` is the first two terms of the
            match score of a request in district ``d`` of type ``t``.
        response: ``(|B|,)`` — ``0.10 * response_rate``, the last term.
    """

    district_fit: np.ndarray
    type_fit: np.ndarray
    categorical: np.ndarray
    response: np.ndarray

    @classmethod
    def build(cls, population: BrokerPopulation) -> BrokerFitTables:
        """Tabulate a population's static preference fit."""
        district_fit = population.district_pref / np.maximum(
            population.district_pref.max(axis=1)[:, None], PREFERENCE_MAX_FLOOR
        )
        type_fit = population.type_pref / np.maximum(
            population.type_pref.max(axis=1)[:, None], PREFERENCE_MAX_FLOOR
        )
        categorical = (
            MATCH_WEIGHTS["district"] * district_fit.T[:, None, :]
            + MATCH_WEIGHTS["type"] * type_fit.T[None, :, :]
        )
        return cls(
            district_fit=district_fit,
            type_fit=type_fit,
            # The broadcast sum inherits the transposes' strides; a request
            # gathers one contiguous |B| row only after this copy.
            categorical=np.ascontiguousarray(categorical),
            response=MATCH_WEIGHTS["response"] * population.response_rate,
        )


def match_score(
    population: BrokerPopulation,
    stream: RequestStream,
    request_indices: np.ndarray,
) -> np.ndarray:
    """Preference-fit score in [0, 1] for every (request, broker) pair.

    Returns:
        ``(n_requests, |B|)`` matrix.
    """
    request_indices = np.asarray(request_indices, dtype=int)
    tables = population.fit_tables
    score = tables.categorical[
        stream.district[request_indices], stream.house_type[request_indices]
    ]
    gap = np.empty_like(score)
    for weight, wanted, preferred in (
        (MATCH_WEIGHTS["price"], stream.price[request_indices], population.price_pref),
        (MATCH_WEIGHTS["area"], stream.area[request_indices], population.area_pref),
    ):
        np.subtract(wanted[:, None], preferred[None, :], out=gap)
        np.abs(gap, out=gap)
        np.subtract(1.0, gap, out=gap)
        gap *= weight
        score += gap
    score += tables.response
    return score


def ground_truth_affinity(
    population: BrokerPopulation,
    stream: RequestStream,
    request_indices: np.ndarray,
) -> np.ndarray:
    """Latent conversion propensity of every (request, broker) pair.

    ``affinity = value_mult_r * base_quality_b * (floor + (1 - floor) *
    match_score)`` — a broker's best-case sign-up probability on that
    request (scaled by the request's intra-day value multiplier), before
    any workload degradation.
    """
    request_indices = np.asarray(request_indices, dtype=int)
    affinity = match_score(population, stream, request_indices)
    affinity *= 1.0 - MATCH_FLOOR
    affinity += MATCH_FLOOR
    affinity *= population.base_quality
    affinity *= stream.value_multiplier[request_indices][:, None]
    return affinity


def pair_affinity(
    population: BrokerPopulation,
    stream: RequestStream,
    request_ids: np.ndarray,
    broker_ids: np.ndarray,
) -> np.ndarray:
    """:func:`ground_truth_affinity` of the pairs ``(request_ids[i], broker_ids[i])``.

    Bit-identical to gathering those entries from the full matrix.
    """
    request_ids = np.asarray(request_ids, dtype=int)
    broker_ids = np.asarray(broker_ids, dtype=int)
    tables = population.fit_tables
    fit = tables.categorical[
        stream.district[request_ids], stream.house_type[request_ids], broker_ids
    ]
    fit += MATCH_WEIGHTS["price"] * (
        1.0 - np.abs(stream.price[request_ids] - population.price_pref[broker_ids])
    )
    fit += MATCH_WEIGHTS["area"] * (
        1.0 - np.abs(stream.area[request_ids] - population.area_pref[broker_ids])
    )
    fit += tables.response[broker_ids]
    affinity = population.base_quality[broker_ids] * (
        MATCH_FLOOR + (1.0 - MATCH_FLOOR) * fit
    )
    return affinity * stream.value_multiplier[request_ids]


def predicted_utility(
    population: BrokerPopulation,
    stream: RequestStream,
    request_indices: np.ndarray,
) -> np.ndarray:
    """The deployed utility model's estimate ``u_{r,b}``.

    Deterministic given the generated city: the noise is the inner product
    of fixed per-request and per-broker embeddings, so every algorithm sees
    the exact same utility inputs (a fairness requirement when comparing
    matchers on identical instances).
    """
    request_indices = np.asarray(request_indices, dtype=int)
    utility = ground_truth_affinity(population, stream, request_indices)
    noise = stream.noise_embedding[request_indices] @ population.noise_embedding.T
    noise *= PREDICTION_NOISE_SCALE
    noise += 1.0
    utility *= noise
    np.maximum(utility, 1e-6, out=utility)
    np.minimum(utility, 1.0, out=utility)
    return utility
