"""Personalized capacity estimation (Sec. V-D): corrections and exploration."""

import numpy as np
import pytest

from repro.bandits import NNUCBBandit, PersonalizedCapacityEstimator
from repro.bandits.personalization import EXPLORE_QUANTILES
from repro.core.config import BanditConfig


def _estimator(rng, **kwargs):
    base = NNUCBBandit(
        3,
        BanditConfig(
            candidate_capacities=np.arange(5.0, 45.0, 5.0),
            hidden_sizes=(16, 8),
            min_arm_pulls=1,
            epsilon=0.0,
        ),
        rng,
    )
    return PersonalizedCapacityEstimator(base, **kwargs)


def test_mode_validation(rng):
    with pytest.raises(ValueError):
        _estimator(rng, mode="other")
    with pytest.raises(ValueError):
        _estimator(rng, kernel_width=0.0)


def test_falls_back_to_base_without_broker_id(rng):
    estimator = _estimator(rng)
    capacity = estimator.estimate(rng.normal(size=3), broker_id=None)
    assert capacity in estimator.capacities


def test_structured_exploration_spreads_arms(rng):
    estimator = _estimator(rng)
    context = rng.normal(size=3)
    pulls = [estimator.estimate(context, broker_id=1) for _ in range(len(EXPLORE_QUANTILES))]
    # The first estimates visit distinct grid positions (mid/high/low/top).
    assert len(set(pulls)) == len(EXPLORE_QUANTILES)


def test_residual_correction_zero_without_history(rng):
    estimator = _estimator(rng)
    correction = estimator._residual_correction(99)
    np.testing.assert_array_equal(correction, np.zeros(estimator.capacities.size))


def test_residual_correction_bends_toward_own_data(rng):
    estimator = _estimator(rng, min_triples=3)
    context = rng.normal(size=3)
    # Broker consistently outperforms the generic model around capacity 25.
    for _ in range(6):
        estimator.update(context, workload=25, reward=0.9, broker_id=5, capacity=25.0)
        estimator.update(context, workload=5, reward=0.01, broker_id=5, capacity=5.0)
    correction = estimator._residual_correction(5)
    index_25 = int(np.nonzero(estimator.capacities == 25.0)[0][0])
    index_5 = int(np.nonzero(estimator.capacities == 5.0)[0][0])
    assert correction[index_25] > correction[index_5]


def test_personalized_estimate_prefers_own_peak(rng):
    estimator = _estimator(rng, min_triples=3)
    context = rng.normal(size=3)
    for _ in range(8):
        estimator.update(context, 25, 0.9, broker_id=7, capacity=25.0)
        estimator.update(context, 40, 0.05, broker_id=7, capacity=40.0)
        estimator.update(context, 5, 0.05, broker_id=7, capacity=5.0)
    # Skip structured exploration by exhausting it first.
    for _ in range(len(EXPLORE_QUANTILES)):
        estimator.estimate(context, broker_id=7)
    picks = [estimator.estimate(context, broker_id=7) for _ in range(5)]
    assert np.median(picks) == pytest.approx(25.0, abs=5.0)


def test_history_window_capped(rng):
    estimator = _estimator(rng, max_history=10)
    context = rng.normal(size=3)
    for _ in range(25):
        estimator.update(context, 10, 0.2, broker_id=3, capacity=10.0)
    assert len(estimator._history[3]) == 10


def test_num_personalized_counts_ready_brokers(rng):
    estimator = _estimator(rng, min_triples=3)
    context = rng.normal(size=3)
    estimator.update(context, 10, 0.2, broker_id=1, capacity=10.0)
    assert estimator.num_personalized() == 0
    for _ in range(3):
        estimator.update(context, 10, 0.2, broker_id=2, capacity=10.0)
    assert estimator.num_personalized() == 1


def test_linear_mode_fits_heads(rng):
    estimator = _estimator(rng, mode="linear", min_triples=2)
    context = rng.normal(size=3)
    for _ in range(4):
        estimator.update(context, 10, 0.3, broker_id=4, capacity=10.0)
    assert 4 in estimator._linear_heads
    scores = estimator.personalized_scores(context, 4)
    assert scores.shape == estimator.capacities.shape


def test_estimate_batch_routes_by_broker_id(rng):
    """Batched estimation follows the given ids, not the row positions."""
    estimator = _estimator(np.random.default_rng(1), min_triples=2, personal_explore=1)
    ids = np.array([20, 10])
    for _ in range(4):
        contexts = rng.normal(size=(2, 3))
        capacities = estimator.estimate_batch(contexts, ids)
        for context, broker_id, capacity in zip(contexts, ids, capacities):
            estimator.update(
                context, capacity, float(rng.random()), broker_id=int(broker_id), capacity=capacity
            )
    assert set(estimator._pull_count) == {10, 20}
    assert estimator.num_personalized() == 2

    twin = _estimator(np.random.default_rng(0), min_triples=2, personal_explore=1)
    twin.restore(estimator.snapshot())
    contexts = rng.normal(size=(3, 3))
    order = np.array([30, 10, 20])
    batched = estimator.estimate_batch(contexts, order)
    looped = [twin.estimate(context, int(b)) for context, b in zip(contexts, order)]
    assert list(batched) == looped
    assert estimator._pull_count == twin._pull_count == {10: 1, 20: 1, 30: 1}
    np.testing.assert_array_equal(estimator.base._d_diag, twin.base._d_diag)
