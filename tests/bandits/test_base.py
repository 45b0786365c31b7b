"""Capacity-estimator base utilities and the fixed estimator."""

import numpy as np
import pytest

from repro.bandits import FixedCapacityEstimator, NNUCBBandit
from repro.core.config import BanditConfig


def test_fixed_estimator_validation():
    with pytest.raises(ValueError):
        FixedCapacityEstimator(0.0)


def test_fixed_estimator_constant(rng):
    estimator = FixedCapacityEstimator(45.0)
    assert estimator.estimate(rng.normal(size=3)) == 45.0
    estimator.update(rng.normal(size=3), 10, 0.2)  # feedback is a no-op
    assert estimator.estimate(rng.normal(size=3), broker_id=7) == 45.0


def test_estimate_batch_shape(rng):
    bandit = NNUCBBandit(
        3,
        BanditConfig(
            candidate_capacities=np.array([10.0, 20.0]),
            hidden_sizes=(8,),
            min_arm_pulls=0,
            epsilon=0.0,
        ),
        rng,
    )
    contexts = rng.normal(size=(5, 3))
    capacities = bandit.estimate_batch(contexts)
    assert capacities.shape == (5,)
    assert all(c in bandit.capacities for c in capacities)


def test_estimate_batch_passes_broker_ids(rng):
    calls = []

    class Spy(FixedCapacityEstimator):
        def estimate(self, context, broker_id=None):
            calls.append(broker_id)
            return super().estimate(context, broker_id)

    spy = Spy(10.0)
    spy.estimate_batch(rng.normal(size=(3, 2)), broker_ids=np.array([5, 6, 7]))
    assert calls == [5, 6, 7]


@pytest.mark.parametrize("bandit_kind", ["fixed", "nnucb"])
def test_estimate_batch_rejects_mismatched_broker_ids(rng, bandit_kind):
    """4 contexts with 2 ids used to be truncated silently to 2 capacities."""
    if bandit_kind == "fixed":
        estimator = FixedCapacityEstimator(10.0)
    else:
        estimator = NNUCBBandit(3, BanditConfig(hidden_sizes=(4,)), rng)
    with pytest.raises(ValueError, match="broker_ids"):
        estimator.estimate_batch(rng.normal(size=(4, 3)), broker_ids=np.array([0, 1]))
