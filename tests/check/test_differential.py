"""Differential property suites: backends, padding, CBS, top-k selection.

These are the acceptance-criteria suites: the ``repro`` backend is
cross-validated against the SciPy oracle (and ``auction`` / min-cost-flow
where applicable) on >= 200 randomized rectangular instances per run,
including ties, exact zeros, negatives and degenerate 0-row/0-col shapes.
"""

import numpy as np
import pytest

from repro.check import differential, property as prop
from repro.check.property import run_property

NUM_CASES = 200


def test_backends_agree_on_randomized_instances():
    count = run_property(
        differential.assert_backends_agree,
        prop.random_utilities,
        num_cases=NUM_CASES,
        seed=101,
        shrink=prop.shrink_matrix,
        name="backends_agree",
    )
    assert count == NUM_CASES


def test_pad_square_agrees_on_randomized_instances():
    count = run_property(
        differential.assert_pad_square_agrees,
        lambda rng: prop.random_utilities(rng, allow_negative=False),
        num_cases=NUM_CASES,
        seed=102,
        shrink=prop.shrink_matrix,
        name="pad_square_agrees",
    )
    assert count == NUM_CASES


def test_cbs_preservation_on_randomized_instances():
    count = run_property(
        differential.assert_cbs_preserves,
        lambda rng: prop.random_utilities(rng, allow_negative=False),
        num_cases=NUM_CASES,
        seed=103,
        shrink=prop.shrink_matrix,
        name="cbs_preserves",
    )
    assert count == NUM_CASES


def test_topk_matches_bruteforce_on_randomized_rows():
    count = run_property(
        lambda case: differential.assert_topk_matches_bruteforce(*case),
        lambda rng: (prop.random_utility_row(rng), int(rng.integers(0, 12))),
        num_cases=NUM_CASES,
        seed=104,
        name="topk_bruteforce",
    )
    assert count == NUM_CASES


# ----------------------------------------------------------------------
# Deterministic edge cases the random suites may not pin down
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "weights",
    [
        np.zeros((3, 3)),
        np.zeros((0, 5)),
        np.zeros((4, 0)),
        np.ones((2, 6)),
        np.array([[0.0, 2.0], [2.0, 0.0]]),
        np.array([[5.0]]),
    ],
)
def test_backends_agree_on_edge_cases(weights):
    differential.assert_backends_agree(weights)


def test_backends_agree_with_negative_entries():
    differential.assert_backends_agree(np.array([[-1.0, 2.0], [3.0, -4.0]]))


def test_assert_backends_agree_catches_disagreement(monkeypatch):
    # Sanity: the assertion actually fires when a backend is wrong.
    # (importlib, because the package re-exports a same-named function
    # that shadows the module on attribute access)
    import importlib

    hungarian = importlib.import_module("repro.matching.hungarian")
    real = hungarian._solve_assignment

    def broken(weights, maximize, backend, pad_square):
        result = real(weights, maximize, backend, pad_square)
        if backend == "repro" and result.pairs:
            result.pairs.pop()
            result.total_weight -= 1.0
        return result

    monkeypatch.setattr(hungarian, "_solve_assignment", broken)
    with pytest.raises(AssertionError):
        differential.assert_backends_agree(np.array([[4.0, 1.0], [1.0, 3.0]]))


def test_topk_detects_wrong_selection(monkeypatch):
    from repro.core import selection

    monkeypatch.setattr(
        selection,
        "candidate_broker_selection",
        lambda utilities, k, rng: np.arange(min(k, utilities.size)),
    )
    # differential imported the symbol directly; patch it there too.
    monkeypatch.setattr(
        differential,
        "candidate_broker_selection",
        lambda utilities, k, rng: np.arange(min(max(k, 0), utilities.size)),
    )
    with pytest.raises(AssertionError):
        differential.assert_topk_matches_bruteforce(np.array([0.0, 5.0, 1.0]), 1)


def test_fast_topk_matches_quickselect_on_randomized_instances():
    count = run_property(
        lambda case: differential.assert_fast_topk_matches_quickselect(*case),
        prop.random_topk_case,
        num_cases=NUM_CASES,
        seed=105,
        name="fast_topk_matches_quickselect",
    )
    assert count == NUM_CASES


def test_batched_scoring_matches_on_randomized_networks():
    count = run_property(
        differential.assert_batched_scoring_matches,
        prop.random_mlp_case,
        num_cases=NUM_CASES,
        seed=106,
        name="batched_scoring_matches",
    )
    assert count == NUM_CASES


def test_fast_topk_assert_catches_wrong_tie_rule(monkeypatch):
    """Sanity: the oracle fires if the fast kernel breaks ties differently."""
    from repro.core import selection

    def highest_index_ties(utilities, k):
        # Same boundary rule but ties resolved to the *highest* index.
        mask = selection.topk_selection_mask(utilities[:, ::-1], k)[:, ::-1]
        return mask

    monkeypatch.setattr(differential, "topk_selection_mask", highest_index_ties)
    with pytest.raises(AssertionError):
        differential.assert_fast_topk_matches_quickselect(
            np.array([[1.0, 1.0, 1.0, 2.0]]), 2
        )


def test_batched_scoring_assert_catches_broken_batch_path(monkeypatch):
    from repro.nn import MLP

    real = MLP.param_gradients

    def broken(self, x):
        return real(self, x) * 1.01

    monkeypatch.setattr(MLP, "param_gradients", broken)
    case = ((4, 8, 1), np.random.default_rng(0).normal(size=(3, 4)), 7)
    with pytest.raises(AssertionError):
        differential.assert_batched_scoring_matches(case)


def test_batched_estimation_matches_on_randomized_estimators():
    count = run_property(
        differential.assert_batched_estimation_matches,
        prop.random_estimation_case,
        num_cases=NUM_CASES,
        seed=107,
        name="batched_estimation_matches",
    )
    assert count == NUM_CASES


def _estimation_case(**overrides):
    case = {
        "kind": "personalized",
        "context_dim": 3,
        "arms": 5,
        "hidden": (6, 4),
        "epsilon": 0.2,
        "min_arm_pulls": 1,
        "min_triples": 2,
        "personal_explore": 2,
        "warm_days": 6,
        "broker_ids": np.array([9, 2, 11, 4, 0, 13, 6]),
        "chunk": 3,
        "seed": 11,
    }
    case.update(overrides)
    return case


@pytest.mark.parametrize(
    "overrides",
    [
        {"kind": "nnucb", "warm_days": 0},  # cold-start coverage phase
        {"kind": "nnucb", "epsilon": 0.6},
        {"warm_days": 1},  # personal-explore
        {},  # residual personalization past min_triples
        {"chunk": 1},
        {"kind": "full"},
        {"kind": "linear"},
        {"kind": "thompson"},
    ],
)
def test_batched_estimation_matches_each_regime(overrides):
    differential.assert_batched_estimation_matches(_estimation_case(**overrides))


def test_batched_estimation_assert_catches_covariance_drift(monkeypatch):
    from repro.bandits.neural_ucb import FrozenArmScores

    real = FrozenArmScores.update_covariance

    def drifting(self, index, arm):
        real(self, index, arm)
        self.bandit._d_diag[0] += 1e-12

    monkeypatch.setattr(FrozenArmScores, "update_covariance", drifting)
    with pytest.raises(AssertionError, match="d_diag"):
        differential.assert_batched_estimation_matches(
            _estimation_case(kind="nnucb", epsilon=0.0, min_arm_pulls=0)
        )


def test_batched_estimation_assert_catches_bonus_outside_tolerance(monkeypatch):
    from repro.bandits.neural_ucb import FrozenArmScores

    real = FrozenArmScores.bonuses

    def inflated(self, index):
        return real(self, index) * (1.0 + 1e-9)

    monkeypatch.setattr(FrozenArmScores, "bonuses", inflated)
    with pytest.raises(AssertionError, match="bonus"):
        differential.assert_batched_estimation_matches(
            _estimation_case(kind="nnucb", epsilon=0.0, min_arm_pulls=0)
        )


def test_environment_matches_reference_on_randomized_cities():
    count = run_property(
        differential.assert_environment_matches_reference,
        prop.random_environment_case,
        num_cases=60,
        seed=109,
        name="environment_matches_reference",
    )
    assert count == 60


def _environment_case(**overrides):
    case = {
        "brokers": 12,
        "districts": 4,
        "days": 3,
        "requests": 90,
        "imbalance": 0.2,
        "appeal_rate": 0.9,
        "skill_growth": 0.05,
        "zero_district_rows": [3],
        "zero_type_rows": [3, 7],
        "seed": 5,
    }
    case.update(overrides)
    return case


@pytest.mark.parametrize(
    "overrides",
    [
        {},  # appeals re-queue requests; skill growth across finish_day
        {"appeal_rate": 0.0, "skill_growth": 0.0},
        {"imbalance": 0.01},  # single-request batches
        {"districts": 1, "brokers": 1, "zero_type_rows": [0], "zero_district_rows": [0]},
    ],
)
def test_environment_matches_reference_each_regime(overrides):
    differential.assert_environment_matches_reference(_environment_case(**overrides))


def test_environment_assert_catches_appeal_drift(monkeypatch):
    """The default case appeals and re-queues: a row maximum taken over a
    perturbed matrix changes which requests appeal."""
    import repro.simulation.platform as platform_module

    real = platform_module.ground_truth_affinity

    def shrunk(*args):
        return real(*args) * 0.9

    monkeypatch.setattr(platform_module, "ground_truth_affinity", shrunk)
    with pytest.raises(AssertionError, match="_today_|_blocked_pairs|_requeued|RNG"):
        differential.assert_environment_matches_reference(_environment_case())


def test_environment_assert_catches_reassociated_sum(monkeypatch):
    from repro.simulation.utility import MATCH_WEIGHTS, BrokerFitTables

    real = BrokerFitTables.build.__func__

    def folded(cls, population):
        # Adds the response term into the table: same terms, other order.
        tables = real(cls, population)
        return cls(
            tables.district_fit,
            tables.type_fit,
            tables.categorical + MATCH_WEIGHTS["response"] * population.response_rate,
            np.zeros_like(tables.response),
        )

    monkeypatch.setattr(BrokerFitTables, "build", classmethod(folded))
    with pytest.raises(AssertionError, match="match_score"):
        differential.assert_environment_matches_reference(_environment_case())


def test_environment_assert_catches_submit_drift(monkeypatch):
    import repro.simulation.platform as platform_module

    real = platform_module.pair_affinity

    def drifting(*args):
        return real(*args) * (1.0 + 1e-15)

    monkeypatch.setattr(platform_module, "pair_affinity", drifting)
    with pytest.raises(AssertionError, match="_today_affinity"):
        differential.assert_environment_matches_reference(
            _environment_case(appeal_rate=0.0)
        )
