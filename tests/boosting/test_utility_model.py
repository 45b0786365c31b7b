"""Learned utility model: features, fit on history, matrix prediction."""

import numpy as np
import pytest

from repro.boosting import UtilityModel, pair_features
from repro.simulation.utility import ground_truth_affinity


def _history(platform, rng, num_pairs=800):
    """Sample served pairs with realized conversion outcomes."""
    stream = platform.stream
    population = platform.population
    requests = rng.integers(0, len(stream), size=num_pairs)
    brokers = rng.integers(0, len(population), size=num_pairs)
    affinity = ground_truth_affinity(population, stream, requests)
    outcomes = affinity[np.arange(num_pairs), brokers]
    outcomes = np.clip(outcomes + rng.normal(0, 0.02, size=num_pairs), 0, 1)
    return requests, brokers, outcomes


def test_pair_features_shape(tiny_platform, rng):
    requests = rng.integers(0, len(tiny_platform.stream), size=10)
    brokers = rng.integers(0, tiny_platform.num_brokers, size=10)
    features = pair_features(tiny_platform.population, tiny_platform.stream, requests, brokers)
    assert features.shape == (10, 8)
    assert np.all(np.isfinite(features))


def test_pair_features_length_mismatch(tiny_platform):
    with pytest.raises(ValueError):
        pair_features(tiny_platform.population, tiny_platform.stream, [0, 1], [0])


def test_predict_before_fit(tiny_platform):
    with pytest.raises(RuntimeError):
        UtilityModel().predict_matrix(tiny_platform.population, tiny_platform.stream, [0])


def test_learned_utilities_correlate_with_ground_truth(tiny_platform, rng):
    requests, brokers, outcomes = _history(tiny_platform, rng)
    model = UtilityModel(num_rounds=40, rng=rng).fit_from_history(
        tiny_platform.population, tiny_platform.stream, requests, brokers, outcomes
    )
    probe = np.arange(20)
    predicted = model.predict_matrix(tiny_platform.population, tiny_platform.stream, probe)
    truth = ground_truth_affinity(tiny_platform.population, tiny_platform.stream, probe)
    assert predicted.shape == truth.shape
    correlation = np.corrcoef(predicted.ravel(), truth.ravel())[0, 1]
    assert correlation > 0.7


def test_predictions_clipped_to_unit_interval(tiny_platform, rng):
    requests, brokers, outcomes = _history(tiny_platform, rng, num_pairs=300)
    model = UtilityModel(num_rounds=10).fit_from_history(
        tiny_platform.population, tiny_platform.stream, requests, brokers, outcomes
    )
    matrix = model.predict_matrix(tiny_platform.population, tiny_platform.stream, np.arange(5))
    assert matrix.min() >= 1e-6
    assert matrix.max() <= 1.0


def _row_max_features(population, stream, requests, brokers):
    """District and house-type fit as the feature builder first derived them:
    row maxima re-taken from the raw preference rows on every call."""
    district_fit = population.district_pref[brokers, stream.district[requests]]
    district_fit = district_fit / np.maximum(population.district_pref[brokers].max(axis=1), 1e-12)
    type_fit = population.type_pref[brokers, stream.house_type[requests]]
    type_fit = type_fit / np.maximum(population.type_pref[brokers].max(axis=1), 1e-12)
    return district_fit, type_fit


def test_pair_features_bitwise_equal_row_max_builder(tiny_platform, rng):
    population, stream = tiny_platform.population, tiny_platform.stream
    requests = rng.integers(0, len(stream), size=300)
    brokers = rng.integers(0, len(population), size=300)
    features = pair_features(population, stream, requests, brokers)
    district_fit, type_fit = _row_max_features(population, stream, requests, brokers)
    np.testing.assert_array_equal(features[:, 0], district_fit)
    np.testing.assert_array_equal(features[:, 1], type_fit)


def test_pair_features_zero_preference_row_scores_zero(tiny_config):
    from repro.simulation import generate_city

    platform = generate_city(tiny_config)
    population, stream = platform.population, platform.stream
    population.district_pref[2] = 0.0  # before the fit tables are first built
    requests = np.arange(20)
    brokers = np.full(20, 2)
    features = pair_features(population, stream, requests, brokers)
    district_fit, _ = _row_max_features(population, stream, requests, brokers)
    np.testing.assert_array_equal(features[:, 0], district_fit)
    assert not features[:, 0].any()
