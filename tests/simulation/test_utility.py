"""Ground-truth affinity and the deployed utility predictor."""

import numpy as np
import pytest

from repro.simulation.utility import (
    ground_truth_affinity,
    match_score,
    pair_affinity,
    predicted_utility,
)


def test_match_score_in_unit_interval(tiny_platform):
    scores = match_score(tiny_platform.population, tiny_platform.stream, np.arange(20))
    assert scores.shape == (20, tiny_platform.num_brokers)
    assert scores.min() >= 0.0
    assert scores.max() <= 1.0 + 1e-9


def test_affinity_bounded_by_quality(tiny_platform):
    affinity = ground_truth_affinity(tiny_platform.population, tiny_platform.stream, np.arange(20))
    quality = tiny_platform.population.base_quality[None, :]
    multiplier = tiny_platform.stream.value_multiplier[np.arange(20)][:, None]
    assert np.all(affinity <= quality * multiplier + 1e-12)
    assert np.all(affinity > 0)


def test_prediction_close_to_affinity(tiny_platform):
    indices = np.arange(30)
    affinity = ground_truth_affinity(tiny_platform.population, tiny_platform.stream, indices)
    predicted = predicted_utility(tiny_platform.population, tiny_platform.stream, indices)
    relative_error = np.abs(predicted - affinity) / affinity
    assert np.median(relative_error) < 0.15
    correlation = np.corrcoef(predicted.ravel(), affinity.ravel())[0, 1]
    assert correlation > 0.9


def test_prediction_deterministic(tiny_platform):
    indices = np.arange(10)
    a = predicted_utility(tiny_platform.population, tiny_platform.stream, indices)
    b = predicted_utility(tiny_platform.population, tiny_platform.stream, indices)
    np.testing.assert_array_equal(a, b)


def test_prediction_clipped(tiny_platform):
    predicted = predicted_utility(tiny_platform.population, tiny_platform.stream, np.arange(50))
    assert predicted.min() >= 1e-6
    assert predicted.max() <= 1.0


def test_better_district_fit_higher_affinity(tiny_platform):
    """A broker scores highest on requests from its favourite district."""
    population = tiny_platform.population
    stream = tiny_platform.stream
    broker = 0
    favourite = int(np.argmax(population.district_pref[broker]))
    indices = np.arange(len(stream))
    affinity = ground_truth_affinity(population, stream, indices)[:, broker]
    # Compare raw (value-multiplier-free) affinity across district groups.
    raw = affinity / stream.value_multiplier[indices]
    in_favourite = raw[stream.district[indices] == favourite]
    elsewhere = raw[stream.district[indices] != favourite]
    if in_favourite.size and elsewhere.size:
        assert in_favourite.mean() > elsewhere.mean()


def test_fit_tables_built_once_and_static(tiny_config):
    from repro.simulation import generate_city

    platform = generate_city(tiny_config)
    tables = platform.population.fit_tables
    assert platform.population.fit_tables is tables
    assert tables.categorical.shape == (
        tiny_config.num_districts,
        platform.population.type_pref.shape[1],
        platform.num_brokers,
    )
    # Learning by doing changes base_quality, which the tables never read.
    platform.population.base_quality *= 1.1
    fresh = type(tables).build(platform.population)
    for name in ("district_fit", "type_fit", "categorical", "response"):
        np.testing.assert_array_equal(getattr(tables, name), getattr(fresh, name))


def test_pair_affinity_is_the_matrix_gather(tiny_platform, rng):
    requests = rng.integers(0, len(tiny_platform.stream), size=40)
    brokers = rng.integers(0, tiny_platform.num_brokers, size=40)
    full = ground_truth_affinity(tiny_platform.population, tiny_platform.stream, requests)
    pairs = pair_affinity(tiny_platform.population, tiny_platform.stream, requests, brokers)
    np.testing.assert_array_equal(pairs, full[np.arange(40), brokers])


@pytest.mark.parametrize("size", [0, 1, 7])
def test_environment_formulas_bitwise_equal_reference(tiny_platform, size):
    from repro.check.reference import (
        reference_affinity,
        reference_match_score,
        reference_predicted_utility,
    )

    population, stream = tiny_platform.population, tiny_platform.stream
    indices = np.arange(size) * 3
    for shipped, reference in (
        (match_score, reference_match_score),
        (ground_truth_affinity, reference_affinity),
        (predicted_utility, reference_predicted_utility),
    ):
        np.testing.assert_array_equal(
            shipped(population, stream, indices), reference(population, stream, indices)
        )
        assert shipped(population, stream, indices).shape == (size, tiny_platform.num_brokers)
