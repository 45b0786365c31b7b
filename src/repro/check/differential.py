"""Differential oracles: independent implementations must agree.

Each ``assert_*`` function cross-validates two or more routes to the same
answer on one concrete instance and raises ``AssertionError`` with a
replayable description on disagreement.  They are the check functions the
:mod:`repro.check.property` harness drives over randomized instances, and
they are equally usable on a single hand-built instance in a regression
test.

The agreements checked:

* ``repro`` vs ``scipy`` (vs ``auction`` / min-cost-flow where their
  preconditions hold): equal optimal totals, structurally valid matchings.
  Totals — not pair sets — are compared: optima are frequently non-unique
  (ties), and the solvers legitimately differ on zero-weight pairs (the
  auction backend drops them; the Hungarian backend reports them).
* ``pad_square=True`` vs the rectangular solve: Sec. VI-B's dummy-vertex
  squaring is a pure running-time experiment and must not change results.
* CBS pruning vs the unpruned instance (Theorem 2): equal optimal totals.
* the warm-started incremental KM solver vs a fresh cold solve, over a
  whole perturbation sequence: *bit-identical* pairs and totals at every
  step (not merely equal optima — the incremental path promises the exact
  reference result), with every step additionally cross-validated across
  all four backends.
* ``candidate_broker_selection`` vs brute-force ``np.sort`` top-k.
* the ``argpartition`` fast kernel vs the quickselect reference: exactly
  equal per-row ``Top_k`` sets and batch unions (see
  :func:`repro.core.selection.topk_selection_mask`).
* batched MLP scoring (``param_gradients`` + vectorized exploration
  bonus) vs the per-sample reference path, to floating-point round-off.
* day-batched capacity estimation (``estimate_batch`` on one stacked pass
  of the frozen network) vs the per-broker ``estimate`` loop: equal
  capacities, bit-identical covariance / pull counts / RNG state, and
  equal audit notes with the bonus inside :data:`BATCHED_BONUS_RTOL`.
* the tabulated environment layer (:mod:`repro.simulation.utility` fit
  tables, pair-only scoring at submit) vs the term-by-term formulas of
  :mod:`repro.check.reference`, over whole multi-day platform runs: bit
  for bit.
"""

from __future__ import annotations

import numpy as np

from repro.core.selection import (
    candidate_broker_selection,
    select_candidate_brokers,
    topk_selection_mask,
)
from repro.matching.hungarian import solve_assignment
from repro.matching.validation import assert_valid_matching

#: Base absolute tolerance when comparing exact solvers.
EXACT_ATOL = 1e-8

#: The auction backend's advertised relative optimality tolerance.
AUCTION_RTOL = 1e-9


def _scale(weights: np.ndarray) -> float:
    return float(np.max(np.abs(weights))) if weights.size else 1.0


def assert_backends_agree(weights: np.ndarray) -> None:
    """All applicable matching backends agree on the optimal total weight.

    ``repro`` and ``scipy`` always run; ``auction`` and the min-cost-flow
    reduction additionally run when the instance is non-negative (their
    documented scope).  Every result is structurally validated against the
    weight matrix.
    """
    weights = np.asarray(weights, dtype=float)
    atol = EXACT_ATOL * max(1.0, _scale(weights))

    reference = solve_assignment(weights, maximize=True, backend="scipy")
    assert_valid_matching(reference, weights, atol=atol)
    totals = {"scipy": reference.total_weight}

    repro = solve_assignment(weights, maximize=True, backend="repro")
    assert_valid_matching(repro, weights, atol=atol)
    totals["repro"] = repro.total_weight

    non_negative = weights.size == 0 or float(weights.min()) >= 0.0
    if non_negative:
        auction = solve_assignment(weights, maximize=True, backend="auction")
        assert_valid_matching(auction, weights, atol=atol)
        totals["auction"] = auction.total_weight
        from repro.matching.flow import min_cost_flow_assignment

        flow = min_cost_flow_assignment(weights)
        assert_valid_matching(flow, weights, atol=atol)
        totals["flow"] = flow.total_weight

    reference_total = totals["scipy"]
    auction_atol = atol + AUCTION_RTOL * _scale(weights) * max(weights.shape[0], 1)
    for backend, total in totals.items():
        tolerance = auction_atol if backend == "auction" else atol
        if abs(total - reference_total) > tolerance:
            raise AssertionError(
                f"backend {backend!r} total {total!r} != scipy total "
                f"{reference_total!r} on shape {weights.shape}:\n{weights!r}"
            )


def assert_incremental_matches_cold(sequence) -> None:
    """Warm-started solves equal cold solves, bitwise, along a sequence.

    Drives one :class:`repro.matching.incremental.IncrementalKMSolver`
    through the matrices in order — so hits, prefix resumptions and cold
    fallbacks all occur — and demands the *exact* cold-reference result at
    every step: identical pair lists (same tie resolution) and bitwise
    equal totals.  Equal-value-but-different matchings are a failure here;
    the incremental solver's contract is bit-identity, which is what keeps
    seeded runs reproducible across kernel modes.  Each step's instance is
    also pushed through :func:`assert_backends_agree`, cross-validating
    the shared optimum across all four backends.
    """
    from repro.matching.incremental import IncrementalKMSolver

    solver = IncrementalKMSolver()
    for step, weights in enumerate(sequence):
        weights = np.asarray(weights, dtype=float)
        warm = solver.solve(weights, maximize=True)
        cold = solve_assignment(weights, maximize=True, backend="repro")
        if warm.pairs != cold.pairs:
            raise AssertionError(
                f"incremental solve diverged from cold solve at step {step} "
                f"(shape {weights.shape}, stats {solver.stats}): warm pairs "
                f"{warm.pairs!r} != cold pairs {cold.pairs!r}\n{weights!r}"
            )
        if warm.total_weight != cold.total_weight:
            raise AssertionError(
                f"incremental total is not bit-identical at step {step} "
                f"(shape {weights.shape}, stats {solver.stats}): "
                f"{warm.total_weight!r} != {cold.total_weight!r}\n{weights!r}"
            )
        atol = EXACT_ATOL * max(1.0, _scale(weights))
        assert_valid_matching(warm, weights, atol=atol)
        assert_backends_agree(weights)


def assert_pad_square_agrees(weights: np.ndarray, backend: str = "repro") -> None:
    """Sec. VI-B square padding returns the same total as the rectangular solve."""
    weights = np.asarray(weights, dtype=float)
    atol = EXACT_ATOL * max(1.0, _scale(weights))
    rectangular = solve_assignment(weights, maximize=True, backend=backend)
    squared = solve_assignment(
        weights, maximize=True, backend=backend, pad_square=True
    )
    assert_valid_matching(squared, weights, atol=atol)
    if abs(rectangular.total_weight - squared.total_weight) > atol:
        raise AssertionError(
            f"pad_square changed the optimal total on shape {weights.shape}: "
            f"rectangular {rectangular.total_weight!r} vs "
            f"square {squared.total_weight!r}\n{weights!r}"
        )


def assert_cbs_preserves(weights: np.ndarray, k: int | None = None, seed: int = 0) -> None:
    """Theorem 2: pruning columns to the CBS candidate union keeps the optimum.

    Args:
        weights: ``(n_rows, n_cols)`` utility matrix.
        k: per-row candidate size (defaults to ``n_rows``, Corollary 1).
        seed: CBS pivot randomness (pruning is randomized; the theorem must
            hold for every pivot sequence).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape[0] == 0 or weights.shape[1] == 0:
        return
    k = weights.shape[0] if k is None else k
    columns = select_candidate_brokers(weights, k, np.random.default_rng(seed))
    full = solve_assignment(weights, maximize=True, backend="scipy")
    pruned = solve_assignment(weights[:, columns], maximize=True, backend="scipy")
    atol = EXACT_ATOL * max(1.0, _scale(weights))
    if pruned.total_weight < full.total_weight - atol:
        raise AssertionError(
            f"CBS pruning lost weight on shape {weights.shape}: kept "
            f"{columns.size}/{weights.shape[1]} columns, optimum dropped "
            f"{full.total_weight!r} -> {pruned.total_weight!r}\n{weights!r}"
        )


def assert_topk_matches_bruteforce(row: np.ndarray, k: int, seed: int = 0) -> None:
    """``candidate_broker_selection`` returns exactly a top-``k`` value multiset."""
    row = np.asarray(row, dtype=float)
    selected = candidate_broker_selection(row, k, np.random.default_rng(seed))
    expected_size = min(max(k, 0), row.size)
    if selected.size != expected_size:
        raise AssertionError(
            f"top-{k} of {row.size} values returned {selected.size} indices: "
            f"{selected!r} on {row!r}"
        )
    if np.unique(selected).size != selected.size:
        raise AssertionError(f"duplicate indices in top-{k} selection: {selected!r}")
    got = np.sort(row[selected])[::-1]
    brute = np.sort(row)[::-1][:expected_size]
    if not np.array_equal(got, brute):
        raise AssertionError(
            f"top-{k} values {got!r} differ from brute force {brute!r} on {row!r}"
        )


def assert_fast_topk_matches_quickselect(
    weights: np.ndarray, k: int, seed: int = 0
) -> None:
    """The ``argpartition`` kernel returns quickselect's sets *exactly*.

    Per row, the fast mask must equal the quickselect index set (not just
    a valid ``Top_k``: engine bit-identity across kernel modes rests on
    the sets being the same), and the two
    :func:`~repro.core.selection.select_candidate_brokers` kernels must
    return the identical batch union.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim == 1:
        weights = weights[None, :]
    mask = topk_selection_mask(weights, k)
    rng = np.random.default_rng(seed)
    for index, row in enumerate(weights):
        fast = np.flatnonzero(mask[index])
        reference = np.sort(candidate_broker_selection(row, k, rng))
        if not np.array_equal(fast, reference):
            raise AssertionError(
                f"fast top-{k} set {fast!r} != quickselect set {reference!r} "
                f"on row {index} of shape {weights.shape}:\n{row!r}"
            )
    fast_union = select_candidate_brokers(weights, k, rng, method="argpartition")
    reference_union = select_candidate_brokers(weights, k, rng, method="quickselect")
    if not np.array_equal(fast_union, reference_union):
        raise AssertionError(
            f"fast union {fast_union!r} != quickselect union {reference_union!r} "
            f"for k={k} on shape {weights.shape}:\n{weights!r}"
        )


#: Relative tolerance for batched-vs-per-sample MLP agreement.  Batched
#: GEMMs may associate reductions differently than their per-row
#: counterparts, so agreement is to round-off, not to the bit.
BATCHED_MLP_RTOL = 1e-9
BATCHED_MLP_ATOL = 1e-12


def assert_batched_scoring_matches(case: tuple) -> None:
    """Batched MLP gradients/bonuses/scores match the per-sample path.

    Args:
        case: ``(layer_sizes, inputs, net_seed)`` — an MLP architecture
            (scalar output), a ``(batch, input_dim)`` design matrix, and
            the network-initialization seed.
    """
    from repro.nn import MLP

    layer_sizes, inputs, net_seed = case
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    network = MLP(layer_sizes, np.random.default_rng(net_seed))
    batched = network.param_gradients(inputs)
    reference = np.stack([network.param_gradient(row) for row in inputs])
    if batched.shape != reference.shape:
        raise AssertionError(
            f"batched gradient shape {batched.shape} != per-sample shape "
            f"{reference.shape} for layers {layer_sizes}"
        )
    if not np.allclose(batched, reference, rtol=BATCHED_MLP_RTOL, atol=BATCHED_MLP_ATOL):
        worst = float(np.max(np.abs(batched - reference)))
        raise AssertionError(
            f"batched param_gradients deviates from per-sample path by "
            f"{worst!r} on layers {layer_sizes}, batch {inputs.shape}"
        )
    # The diagonal-covariance bonus must agree too (it is the quantity the
    # UCB scores actually consume).
    diag = np.abs(np.random.default_rng(net_seed + 1).normal(size=network.num_params)) + 0.5
    batched_bonus = np.sqrt(np.maximum((batched**2 / diag).sum(axis=1), 0.0))
    reference_bonus = np.array(
        [np.sqrt(max(float(np.sum(row**2 / diag)), 0.0)) for row in reference]
    )
    if not np.allclose(
        batched_bonus, reference_bonus, rtol=BATCHED_MLP_RTOL, atol=BATCHED_MLP_ATOL
    ):
        raise AssertionError(
            f"batched exploration bonus deviates from per-sample path on "
            f"layers {layer_sizes}: {batched_bonus!r} vs {reference_bonus!r}"
        )


#: Relative tolerance of the day-batched exploration bonus against the
#: per-broker one.  The batched bonus sums ``(delta^2 . D^-1 a^2)`` layer
#: by layer from the arms-stacked pass instead of reducing each arm's
#: squared gradient vector, so it differs in the last bits (measured
#: <= 4.7e-16 relative at the paper's network); everything else the
#: day-batched path produces — capacities, means, ``D``, pulls, RNG — is
#: compared bit for bit.
BATCHED_BONUS_RTOL = 1e-12


class _NoteRecorder:
    """Audit-session stand-in collecting ``note_capacity`` calls verbatim."""

    def __init__(self) -> None:
        self.notes: list[tuple] = []

    def note_capacity(self, broker_id, capacity, rule, mean=None, bonus=None) -> None:
        self.notes.append((broker_id, capacity, rule, mean, bonus))


def _estimation_estimator(case: dict):
    """A fresh estimator for an estimation case (same seed, same state)."""
    from repro.bandits import (
        NeuralThompsonBandit,
        NNUCBBandit,
        PersonalizedCapacityEstimator,
    )
    from repro.core.config import BanditConfig

    kind = case["kind"]
    config = BanditConfig(
        candidate_capacities=np.arange(1, case["arms"] + 1) * 4.0,
        hidden_sizes=case["hidden"],
        alpha=0.5,
        batch_size=4,
        train_epochs=1,
        covariance="full" if kind == "full" else "diagonal",
        min_arm_pulls=case["min_arm_pulls"],
        epsilon=case["epsilon"],
        replay_sample=32,
        minibatch=8,
    )
    rng = np.random.default_rng(case["seed"])
    policy = NeuralThompsonBandit if kind == "thompson" else NNUCBBandit
    base = policy(case["context_dim"], config, rng)
    base.estimate_chunk = case["chunk"]
    if kind in ("personalized", "linear"):
        return PersonalizedCapacityEstimator(
            base,
            min_triples=case["min_triples"],
            mode="linear" if kind == "linear" else "residual",
            personal_explore=case["personal_explore"],
        )
    return base


def _estimation_state(estimator) -> dict:
    """The state ``estimate`` mutates, for bit-exact comparison."""
    from repro.state.protocol import rng_state

    base = getattr(estimator, "base", estimator)
    return {
        "d_diag": base._d_diag,
        "d_inv": base._d_inv,
        "arm_pulls": base._arm_pulls,
        "pull_count": getattr(estimator, "_pull_count", None),
        "rng": rng_state(base._rng),
    }


def assert_batched_estimation_matches(case: dict) -> None:
    """Day-batched ``estimate_batch`` reproduces the per-broker ``estimate`` loop.

    Warms an estimator up for ``case["warm_days"]`` days of estimates and
    feedback, snapshots it, and from that one snapshot estimates a day
    twice — batched, and broker by broker in row order — each under an
    audit recorder.  Capacities, ``D``, arm pulls, personal pull counts
    and the RNG state must match bit for bit; audit notes must name the
    same broker, capacity and rule with a bitwise-equal mean and a bonus
    within :data:`BATCHED_BONUS_RTOL`.

    Args:
        case: a :func:`repro.check.property.random_estimation_case` dict.
    """
    from repro.obs import telemetry as obs_telemetry

    data = np.random.default_rng(case["seed"] + 1)
    ids = np.asarray(case["broker_ids"], dtype=int)
    arms = np.arange(1, case["arms"] + 1) * 4.0
    warm = _estimation_estimator(case)
    for _ in range(case["warm_days"]):
        contexts = data.normal(size=(ids.size, case["context_dim"]))
        chosen = warm.estimate_batch(contexts, ids)
        for context, broker_id, capacity in zip(contexts, ids, chosen):
            workload = float(data.integers(0, int(arms.max()) + 1))
            warm.update(context, workload, float(data.random()), int(broker_id), capacity)
    snapshot = warm.snapshot()
    contexts = data.normal(size=(ids.size, case["context_dim"]))

    runs = []
    for batched in (True, False):
        estimator = _estimation_estimator(case)
        estimator.restore(snapshot)
        recorder = _NoteRecorder()
        telemetry = obs_telemetry.Telemetry()
        telemetry.audit_session = recorder
        with obs_telemetry.use(telemetry):
            if batched:
                capacities = estimator.estimate_batch(contexts, ids)
            else:
                capacities = np.array(
                    [estimator.estimate(c, int(b)) for c, b in zip(contexts, ids)]
                )
        runs.append((capacities, _estimation_state(estimator), recorder.notes))
    (batch_caps, batch_state, batch_notes), (loop_caps, loop_state, loop_notes) = runs

    where = f"{case['kind']} case (seed {case['seed']}, {case['warm_days']} warm days)"
    if not np.array_equal(batch_caps, loop_caps):
        raise AssertionError(
            f"batched capacities {batch_caps!r} != per-broker {loop_caps!r} in {where}"
        )
    for key in ("d_diag", "d_inv", "arm_pulls"):
        a, b = batch_state[key], loop_state[key]
        if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
            raise AssertionError(f"batched {key} is not bitwise the per-broker one in {where}")
    for key in ("pull_count", "rng"):
        if batch_state[key] != loop_state[key]:
            raise AssertionError(f"batched {key} differs from the per-broker one in {where}")
    if len(batch_notes) != len(loop_notes):
        raise AssertionError(
            f"{len(batch_notes)} batched audit notes != {len(loop_notes)} per-broker in {where}"
        )
    for batch_note, loop_note in zip(batch_notes, loop_notes):
        if batch_note[:4] != loop_note[:4]:
            raise AssertionError(
                f"batched audit note {batch_note!r} != per-broker {loop_note!r} in {where}"
            )
        a, b = batch_note[4], loop_note[4]
        if (a is None) != (b is None) or (
            a is not None and abs(a - b) > BATCHED_BONUS_RTOL * abs(b)
        ):
            raise AssertionError(
                f"batched bonus {a!r} vs per-broker {b!r} exceeds rtol "
                f"{BATCHED_BONUS_RTOL} in {where}"
            )


def _assert_same(where: str, what: str, new, reference) -> None:
    """Bitwise equality of two arrays: shape, dtype and every byte."""
    new, reference = np.asarray(new), np.asarray(reference)
    if (new.shape, new.dtype) != (reference.shape, reference.dtype) or (
        new.tobytes() != reference.tobytes()
    ):
        raise AssertionError(f"{what} is not bitwise the reference one {where}")


def _assert_same_platform_state(where: str, platform, reference) -> None:
    from repro.state.protocol import rng_state

    for name in ("_today_affinity", "_today_workload"):
        _assert_same(where, name, getattr(platform, name), getattr(reference, name))
    _assert_same(
        where, "base_quality", platform.population.base_quality, reference.population.base_quality
    )
    if rng_state(platform._rng) != rng_state(reference._rng):
        raise AssertionError(f"outcome RNG state differs from the reference {where}")
    for name in ("_blocked_pairs", "_requeued"):
        if getattr(platform, name) != getattr(reference, name):
            raise AssertionError(
                f"{name} {getattr(platform, name)!r} != reference "
                f"{getattr(reference, name)!r} {where}"
            )


def assert_environment_matches_reference(case: dict) -> None:
    """The tabulated environment layer equals the term-by-term formulas, bit for bit.

    Builds the case's city twice — the shipped :class:`RealEstatePlatform`
    and :class:`repro.check.reference.ReferencePlatform` on a deep copy of
    the same population, with the same preference rows zeroed in both —
    and drives both through every day with the same random assignments
    (unassigned requests, blocked pairs and appeal re-queues included).
    Per batch it compares the request ids, ``match_score``,
    ``ground_truth_affinity``, ``pair_affinity`` on random (request,
    broker) pairs, ``predicted_utilities`` with the blocked pairs zeroed,
    and after each submit ``_today_affinity``, ``_today_workload``,
    ``base_quality``, the outcome RNG state, ``_blocked_pairs`` and
    ``_requeued``; per day the contexts and every ``DayOutcome`` field.

    Args:
        case: a :func:`repro.check.property.random_environment_case` dict.
    """
    import copy

    from repro.check.reference import (
        ReferencePlatform,
        reference_affinity,
        reference_match_score,
    )
    from repro.core.types import AssignedPair, Assignment
    from repro.simulation.datasets import SyntheticConfig, generate_city
    from repro.simulation.utility import ground_truth_affinity, match_score, pair_affinity

    config = SyntheticConfig(
        num_brokers=case["brokers"],
        num_requests=case["requests"],
        num_days=case["days"],
        imbalance=case["imbalance"],
        num_districts=case["districts"],
        appeal_rate=case["appeal_rate"],
        skill_growth=case["skill_growth"],
        seed=case["seed"],
    )
    platform = generate_city(config)
    population, stream = platform.population, platform.stream
    population.district_pref[case["zero_district_rows"]] = 0.0
    population.type_pref[case["zero_type_rows"]] = 0.0
    reference = ReferencePlatform(
        copy.deepcopy(population),
        stream,
        appeal_rate=platform.appeal_rate,
        signup_noise=platform.signup_noise,
        skill_growth=platform.skill_growth,
    )
    reference.restore(platform.snapshot())
    twin = reference.population

    policy = np.random.default_rng(case["seed"] + 1)
    num_brokers = platform.num_brokers
    for day in range(platform.num_days):
        where = f"on day {day} of {case!r}"
        _assert_same(where, "contexts", platform.start_day(day), reference.start_day(day))
        for batch in range(platform.batches_per_day):
            where = f"in batch {batch} of day {day} of {case!r}"
            ids = platform.batch_requests(day, batch)
            _assert_same(where, "batch request ids", ids, reference.batch_requests(day, batch))
            _assert_same(
                where,
                "match_score",
                match_score(population, stream, ids),
                reference_match_score(twin, stream, ids),
            )
            affinity = reference_affinity(twin, stream, ids)
            _assert_same(
                where, "ground_truth_affinity", ground_truth_affinity(population, stream, ids), affinity
            )
            rows = policy.integers(0, ids.size, size=ids.size) if ids.size else ids
            columns = policy.integers(0, num_brokers, size=rows.size)
            _assert_same(
                where,
                "pair_affinity",
                pair_affinity(population, stream, ids[rows], columns),
                affinity[rows, columns],
            )
            utilities = platform.predicted_utilities(ids)
            _assert_same(where, "predicted_utilities", utilities, reference.predicted_utilities(ids))
            matched = min(ids.size, num_brokers, int(policy.integers(0, ids.size + 1)))
            requests = policy.permutation(ids.size)[:matched]
            brokers = policy.permutation(num_brokers)[:matched]
            assignment = Assignment(
                day,
                batch,
                [
                    AssignedPair(int(ids[row]), int(broker), float(utilities[row, broker]))
                    for row, broker in zip(requests, brokers)
                ],
            )
            platform.submit_assignment(assignment)
            reference.submit_assignment(assignment)
            _assert_same_platform_state(where, platform, reference)
        outcome, expected = platform.finish_day(), reference.finish_day()
        where = f"at the close of day {day} of {case!r}"
        if outcome.day != expected.day:
            raise AssertionError(f"DayOutcome.day {outcome.day} != {expected.day} {where}")
        for name in ("workloads", "signup_rates", "realized_utility"):
            _assert_same(where, f"DayOutcome.{name}", getattr(outcome, name), getattr(expected, name))
        _assert_same_platform_state(where, platform, reference)
