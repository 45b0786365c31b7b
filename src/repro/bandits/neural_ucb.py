"""NN-enhanced UCB — the paper's capacity-estimation policy (Alg. 1).

The linear reward model of LinUCB is replaced by an MLP ``S_theta(x, c)``
(Eq. 4) and the exploration bonus uses the network's parameter gradient
(Eq. 5):

    UCB_{x,c} = S_theta(x, c) + alpha * sqrt(g_theta(x, c)^T D^{-1} g_theta(x, c))

``D`` starts at ``lambda I`` and accumulates gradient outer products of the
chosen arms (Alg. 1 line 12).  Because ``D`` is ``d x d`` for a ``d``-
parameter network, two regimes are supported:

- ``"full"`` — exact ``D`` with Sherman-Morrison updates of its inverse;
  only practical for small reward models (tests, ablations);
- ``"diagonal"`` — the standard NeuralUCB-style diagonal approximation,
  the default for realistic network sizes.

Observed trial triples ``(x, w, s)`` accumulate in a buffer of
``batchSize`` (preset 16, Sec. VII-A) and flushing the buffer minimizes the
regularized squared loss of Eq. 6.
"""

from __future__ import annotations

import numpy as np

from repro import perf
from repro.bandits.base import CapacityEstimator, batch_arguments
from repro.core.config import BanditConfig
from repro.core.types import TrialTriple, triples_from_state, triples_to_state
from repro.nn import MLP, Adam
from repro.obs import audit as obs_audit
from repro.obs import telemetry as obs
from repro.state.protocol import (
    StateError,
    expect,
    rng_state,
    set_rng_state,
    versioned,
)


class NNUCBBandit(CapacityEstimator):
    """Contextual bandit ``B_{theta,D}`` with an MLP reward model.

    Args:
        context_dim: dimension of the working-status context ``x``.
        config: bandit hyper-parameters (Alg. 1 inputs).
        rng: randomness source for Gaussian parameter initialization.
    """

    def __init__(
        self,
        context_dim: int,
        config: BanditConfig,
        rng: np.random.Generator,
    ) -> None:
        if context_dim <= 0:
            raise ValueError(f"context_dim must be positive, got {context_dim}")
        self.config = config
        self.capacities = np.asarray(config.candidate_capacities, dtype=float)
        self._cap_norm = float(self.capacities.max())
        layer_sizes = [context_dim + 1 + self.capacities.size, *config.hidden_sizes, 1]
        self.network = MLP(layer_sizes, rng)
        self.optimizer = Adam(config.learning_rate)
        self._rng = rng
        self._arm_pulls = np.zeros(self.capacities.size, dtype=int)
        dim = self.network.num_params
        if config.covariance == "full":
            self._d_inv: np.ndarray | None = np.eye(dim) / config.lam
            self._d_diag: np.ndarray | None = None
        else:
            self._d_inv = None
            self._d_diag = np.full(dim, config.lam)
        self._buffer: list[TrialTriple] = []
        self._replay: list[TrialTriple] = []
        self.num_updates = 0
        self.num_train_steps = 0
        # Context-independent tail of every grid arm's feature row
        # ``[x; c/|C|max; onehot]`` — scoring rebuilds only the context part.
        self._arm_row_tail = self.feature_rows(
            np.empty((self.capacities.size, 0)), self.capacities
        )
        # Decision provenance: while an audit session is active, scoring
        # stashes its (means, bonuses) split here so the chosen arm's
        # components can be recorded without recomputing anything.
        self.last_score_parts: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Scoring (Eq. 5)
    # ------------------------------------------------------------------
    def _features(self, context: np.ndarray, capacity: float) -> np.ndarray:
        """Joint input ``[x; c]`` of one trial (see :meth:`feature_rows`)."""
        return self.feature_rows(np.asarray(context, dtype=float)[None, :], [capacity])[0]

    def feature_rows(self, contexts: np.ndarray, arms) -> np.ndarray:
        """Joint inputs ``[x; c/|C|max; onehot]``, one row per ``(context, arm)`` pair.

        The scalar alone gets smoothed away during training — it is one
        feature among dozens and the reward's dependence on it is a small
        bump, so the fit degenerates to a monotone trend and the argmax
        pins to an endpoint.  A one-hot of the nearest grid arm gives every
        arm its own first-layer weights, making per-arm reward levels
        trivially expressible while the scalar keeps the ordinal structure.

        Args:
            contexts: ``(n, context_dim)`` working-status rows.
            arms: ``n`` capacity values (grid arms or realized workloads).
        """
        contexts = np.asarray(contexts, dtype=float)
        arms = np.asarray(arms, dtype=float)
        nearest = np.argmin(np.abs(self.capacities[None, :] - arms[:, None]), axis=1)
        onehot = np.zeros((arms.size, self.capacities.size))
        onehot[np.arange(arms.size), nearest] = 1.0
        return np.concatenate(
            [contexts, (arms / self._cap_norm)[:, None], onehot], axis=1
        )

    def history_rows(self, triples) -> np.ndarray:
        """Feature rows of observed trials, each at its recorded arm input."""
        return self.feature_rows(
            np.stack([t.context for t in triples]),
            [float(t.workload) for t in triples],
        )

    def arm_feature_rows(self, context: np.ndarray) -> np.ndarray:
        """``(|C|, input_dim)`` feature rows of every grid arm for a context.

        Bitwise-identical to stacking :meth:`_features` per arm (pure
        copies), but the capacity-scalar / one-hot tail is precomputed at
        construction instead of being rebuilt on every scoring call.
        """
        context = np.asarray(context, dtype=float)
        return np.concatenate(
            [
                np.broadcast_to(context, (self.capacities.size, context.size)),
                self._arm_row_tail,
            ],
            axis=1,
        )

    def predicted_rewards(self, context: np.ndarray) -> np.ndarray:
        """``S_theta(x, c)`` for every candidate capacity, in one batch."""
        return self.network.predict(self.arm_feature_rows(context))

    def exploration_bonus(self, gradient: np.ndarray) -> float:
        """``sqrt(g^T D^{-1} g)`` under the configured covariance regime."""
        if self._d_inv is not None:
            value = float(gradient @ self._d_inv @ gradient)
        else:
            value = float(np.sum(gradient**2 / self._d_diag))
        return float(np.sqrt(max(value, 0.0)))

    def exploration_bonuses(self, gradients: np.ndarray) -> np.ndarray:
        """Batched :meth:`exploration_bonus` over ``(n, d)`` gradient rows.

        The diagonal regime reduces each row with the same pairwise
        summation as the per-sample path, so given identical gradient rows
        the bonuses are bit-identical; the ``"full"`` regime loops the
        (small-model-only) quadratic form per row.
        """
        gradients = np.atleast_2d(np.asarray(gradients, dtype=float))
        if self._d_inv is not None:
            values = np.array(
                [float(row @ self._d_inv @ row) for row in gradients]
            )
        else:
            values = (gradients**2 / self._d_diag).sum(axis=1)
        return np.sqrt(np.maximum(values, 0.0))

    def arm_bonuses(self, rows: np.ndarray) -> np.ndarray:
        """Exploration bonus of each ``(input_dim,)`` row of ``rows``.

        The fast kernel computes every row's parameter gradient in one
        batched pass (:meth:`repro.nn.MLP.param_gradients`); the reference
        kernel is the original per-row loop, kept as the differential
        oracle (:mod:`repro.perf`).
        """
        if perf.fast_kernels_enabled():
            return self.exploration_bonuses(self.network.param_gradients(rows))
        return np.array(
            [self.exploration_bonus(self.network.param_gradient(row)) for row in rows]
        )

    def ucb_scores(self, context: np.ndarray) -> np.ndarray:
        """Upper confidence bound of every candidate capacity (Eq. 5)."""
        means = self.predicted_rewards(context)
        bonuses = self.arm_bonuses(self.arm_feature_rows(context))
        if obs_audit.current() is not None:
            self.last_score_parts = (means, bonuses)
        return means + self.config.alpha * bonuses

    # ------------------------------------------------------------------
    # Alg. 1: explore, update covariance, learn from feedback
    # ------------------------------------------------------------------
    def select_arm(self, context: np.ndarray) -> int:
        """Arm index with maximum UCB, with three practical safeguards.

        1. *Coverage*: while some arm has fewer than ``min_arm_pulls``
           global pulls, the least-pulled arm is chosen — without it the
           untrained network's near-constant scores make ``argmax``
           systematically return one arbitrary capacity and the reward
           model never sees the rest of the grid.
        2. *Epsilon exploration*: capacity choices gate which workloads can
           be observed, so a small exploration floor keeps data flowing.
        3. *Conservative indifference*: among arms whose score is within
           ``tie_tolerance`` of the maximum, the smallest capacity wins.
           A demand-limited broker's reward is flat in its own capacity, so
           its argmax is noise — yet granting it a huge capacity lets the
           matcher overload it the day demand shifts.  Brokers with a real
           learned peak are unaffected (their peak clears the tolerance).
        """
        return self._pick(self.ucb_scores, context)

    def _pick(self, score_fn, context: np.ndarray) -> int:
        return self._pick_explain(score_fn, context)[0]

    def _pick_explain(self, score_fn, context: np.ndarray) -> tuple[int, str]:
        """:meth:`_pick` plus the rule that fired (for decision audits).

        Returns ``(arm_index, rule)`` with rule one of ``"coverage"``
        (least-pulled arm under the global pull floor), ``"epsilon"``
        (exploration draw), or ``"ucb"`` (score argmax with the
        conservative tie-break).  Consumes exactly the same randomness as
        before the split — audited runs stay bit-identical.
        """
        self.last_score_parts = None
        if self._arm_pulls.min() < self.config.min_arm_pulls:
            return int(np.argmin(self._arm_pulls)), "coverage"
        if self.config.epsilon > 0 and self._rng.random() < self.config.epsilon:
            return int(self._rng.integers(self.capacities.size)), "epsilon"
        scores = score_fn(context)
        spread = float(scores.max() - scores.min())
        threshold = scores.max() - self.config.tie_tolerance * max(spread, 1e-12)
        qualified = np.nonzero(scores >= threshold)[0]
        # Smallest capacity *value* among the near-max arms — not the lowest
        # index, which is only the same thing when the grid is sorted
        # ascending (BanditConfig accepts arbitrary arm orderings).
        return int(qualified[np.argmin(self.capacities[qualified])]), "ucb"

    def _note_choice(
        self, broker_id: int | None, chosen: int, capacity: float, rule: str
    ) -> None:
        """Record a capacity choice into the active audit session (if any).

        The mean/bonus split is whatever the scoring path stashed in
        ``last_score_parts`` — absent for coverage/epsilon picks, which
        never scored.  Always clears the stash so a later un-scored pick
        cannot report a stale split.
        """
        parts, self.last_score_parts = self.last_score_parts, None
        session = obs_audit.current()
        if session is None or broker_id is None:
            return
        mean = bonus = None
        if parts is not None:
            means, bonuses = parts
            mean, bonus = float(means[chosen]), float(bonuses[chosen])
        session.note_capacity(broker_id, capacity, rule, mean=mean, bonus=bonus)

    def estimate(self, context: np.ndarray, broker_id: int | None = None) -> float:
        """Choose the capacity with maximum UCB; update ``D`` (line 12)."""
        chosen, rule = self._pick_explain(self.ucb_scores, context)
        capacity = float(self.capacities[chosen])
        self._note_choice(broker_id, chosen, capacity, rule)
        self._arm_pulls[chosen] += 1
        gradient = self.network.param_gradient(self._features(context, capacity))
        self._update_covariance(gradient)
        return capacity

    # ------------------------------------------------------------------
    # Day-batched estimation (Alg. 2 lines 1-2)
    # ------------------------------------------------------------------
    #: Brokers per stacked pass in :meth:`estimate_batch`.  Bounds the
    #: pass's memory however many brokers a day holds: about 3 MB at the
    #: paper's 82-64-16-1 network (256 brokers would take 24 MB), and the
    #: per-broker loop, not the pass, sets the speed at any chunk size.
    estimate_chunk = 32

    def day_batched(self) -> bool:
        """Whether :meth:`estimate_batch` scores a day in stacked passes.

        Needs the fast kernels, the diagonal covariance (whose bonus splits
        per layer) and the UCB scoring rule itself — a subclass that
        re-scores (Thompson's noise draws) keeps the per-broker loop.
        """
        return (
            perf.fast_kernels_enabled()
            and self._d_diag is not None
            and type(self).ucb_scores is NNUCBBandit.ucb_scores
        )

    def estimate_batch(
        self, contexts: np.ndarray, broker_ids: np.ndarray | None = None
    ) -> np.ndarray:
        """One capacity per context row, identical to the per-broker loop.

        The network is frozen until ``end_day``, so every broker's arm
        means and gradient factors come from one stacked pass per chunk of
        :attr:`estimate_chunk` brokers (:class:`FrozenArmScores`).  What
        stays sequential — the coverage / epsilon rules and their RNG
        draws, the argmax, the audit note and the ``D`` update that the
        next broker's bonus depends on — runs per broker on those rows.
        Capacities, ``D``, the pull counts and the RNG stream are
        bit-identical to :meth:`estimate` in a loop; the bonuses agree to
        round-off (:data:`repro.check.differential.BATCHED_BONUS_RTOL`).
        """
        contexts, broker_ids = batch_arguments(contexts, broker_ids)
        if not self.day_batched():
            return super().estimate_batch(contexts, broker_ids)
        return self.estimate_frozen(contexts, broker_ids, self._estimate_row)

    def estimate_frozen(self, contexts: np.ndarray, broker_ids: np.ndarray, estimate_row) -> np.ndarray:
        """Run ``estimate_row(scores, i, broker_id)`` per broker over chunked stacked passes."""
        capacities = np.empty(contexts.shape[0])
        for start in range(0, contexts.shape[0], self.estimate_chunk):
            scores = FrozenArmScores(self, contexts[start : start + self.estimate_chunk])
            for offset in range(scores.size):
                capacities[start + offset] = estimate_row(
                    scores, offset, int(broker_ids[start + offset])
                )
        return capacities

    def _estimate_row(self, scores: "FrozenArmScores", index: int, broker_id: int) -> float:
        """:meth:`estimate` for row ``index`` of a stacked pass."""
        chosen, rule = self._pick_explain(lambda _context: scores.ucb_scores(index), None)
        return self._commit_row(scores, index, broker_id, chosen, rule)

    def _commit_row(
        self, scores: "FrozenArmScores", index: int, broker_id: int, chosen: int, rule: str
    ) -> float:
        """Audit note, pull count and ``D`` update of one batched choice."""
        capacity = float(self.capacities[chosen])
        self._note_choice(broker_id, chosen, capacity, rule)
        self._arm_pulls[chosen] += 1
        scores.update_covariance(index, chosen)
        return capacity

    def _update_covariance(self, gradient: np.ndarray) -> None:
        """``D <- D + g g^T`` (diagonal: ``D <- D + g*g``)."""
        if self._d_inv is not None:
            d_inv_g = self._d_inv @ gradient
            denom = 1.0 + float(gradient @ d_inv_g)
            self._d_inv -= np.outer(d_inv_g, d_inv_g) / denom
        else:
            self._d_diag += gradient**2

    def update(
        self,
        context: np.ndarray,
        workload: float,
        reward: float,
        broker_id: int | None = None,
        capacity: float | None = None,
    ) -> None:
        """Buffer the trial; train when the buffer reaches batchSize.

        The stored arm input is the chosen capacity when ``train_on`` is
        ``"capacity"`` and a capacity was supplied (Alg. 1 line 16),
        otherwise the realized workload (Eq. 6 variant).  Both paths bucket
        by *rounding*: truncating the workload path would split what is one
        arm bucket (e.g. workloads 4.9 and 5.0) across two
        :meth:`_stratified_sample` strata.
        """
        if self.config.train_on == "capacity" and capacity is not None:
            arm_input = int(round(capacity))
        else:
            arm_input = int(round(workload))
        self._buffer.append(
            TrialTriple(np.asarray(context, dtype=float), arm_input, float(reward))
        )
        self.num_updates += 1
        obs.add("bandit.updates")
        if len(self._buffer) >= self.config.batch_size:
            self._train_on_buffer()

    def _train_on_buffer(self) -> None:
        """Minimize the regularized loss of Eq. 6 over buffered history.

        The fresh buffer is folded into a capped replay of past trials and
        the network trains on a random sample of that history — retraining
        only on the 16 newest samples would forget everything earlier.
        """
        steps_before = self.num_train_steps
        with obs.span("bandit.train"):
            self._train_on_buffer_inner()
        obs.add("bandit.train_steps", self.num_train_steps - steps_before)

    def _train_on_buffer_inner(self) -> None:
        self._replay.extend(self._buffer)
        self._buffer.clear()
        if len(self._replay) > self.config.replay_size:
            del self._replay[: len(self._replay) - self.config.replay_size]

        picked = self._stratified_sample()
        sample_size = picked.size
        rows = self.history_rows([self._replay[i] for i in picked])
        targets = np.array([self._replay[i].reward for i in picked])
        batch = self.config.minibatch
        for _ in range(self.config.train_epochs):
            order = self._rng.permutation(sample_size)
            for start in range(0, sample_size, batch):
                chunk = order[start : start + batch]
                self.network.train_step(
                    rows[chunk], targets[chunk], self.optimizer, lam=self.config.lam
                )
                self.num_train_steps += 1

    def _stratified_sample(self) -> np.ndarray:
        """Replay indices balanced across arm values.

        The selection policy concentrates pulls on whatever region it
        currently prefers, so the raw replay is heavily imbalanced (one arm
        can hold >80% of the samples) and a uniform sample would fit that
        arm's mean everywhere.  Sampling an (approximately) equal number of
        rows per distinct arm value keeps the whole reward curve in view.
        """
        arms = np.array([triple.workload for triple in self._replay])
        unique = np.unique(arms)
        per_arm = max(1, self.config.replay_sample // unique.size)
        chunks = []
        for arm in unique:
            indices = np.nonzero(arms == arm)[0]
            if indices.size > per_arm:
                indices = self._rng.choice(indices, size=per_arm, replace=False)
            chunks.append(indices)
        return np.concatenate(chunks)

    def flush(self) -> None:
        """Force-train on a partially filled buffer (end-of-run cleanup)."""
        if self._buffer:
            self._train_on_buffer()

    # ------------------------------------------------------------------
    # Durable state (repro.state contract)
    # ------------------------------------------------------------------
    #: Snapshot kind; subclasses with identical state override it so a
    #: snapshot can never be restored into a different policy by accident.
    STATE_KIND = "bandits.nnucb"

    def snapshot(self) -> dict:
        """Deep snapshot: model, optimizer, covariance, history, RNG."""
        return versioned(
            self.STATE_KIND,
            {
                "network": self.network.snapshot(),
                "optimizer": self.optimizer.snapshot(),
                "rng": rng_state(self._rng),
                "arm_pulls": self._arm_pulls.copy(),
                "d_inv": None if self._d_inv is None else self._d_inv.copy(),
                "d_diag": None if self._d_diag is None else self._d_diag.copy(),
                "buffer": triples_to_state(self._buffer),
                "replay": triples_to_state(self._replay),
                "num_updates": int(self.num_updates),
                "num_train_steps": int(self.num_train_steps),
            },
        )

    def restore(self, state) -> None:
        """Reinstall a :meth:`snapshot`; the RNG is restored *in place*.

        In-place RNG restoration preserves stream sharing: the algorithm
        registry hands one generator to both the bandit and the assigner,
        and a resumed run must interleave their draws exactly as the
        uninterrupted run would.
        """
        payload = expect(state, self.STATE_KIND)
        arm_pulls = np.asarray(payload["arm_pulls"], dtype=int)
        if arm_pulls.shape != self._arm_pulls.shape:
            raise StateError(
                f"bandit snapshot has {arm_pulls.size} arms, "
                f"this bandit has {self._arm_pulls.size}"
            )
        self.network.restore(payload["network"])
        self.optimizer.restore(payload["optimizer"])
        set_rng_state(self._rng, payload["rng"])
        self._arm_pulls = arm_pulls.copy()
        d_inv, d_diag = payload["d_inv"], payload["d_diag"]
        if (d_inv is None) != (self._d_inv is None):
            raise StateError(
                "bandit snapshot covariance regime does not match the config "
                f"({'full' if d_inv is not None else 'diagonal'} vs "
                f"{self.config.covariance!r})"
            )
        self._d_inv = None if d_inv is None else np.array(d_inv, dtype=float)
        self._d_diag = None if d_diag is None else np.array(d_diag, dtype=float)
        self._buffer = triples_from_state(payload["buffer"])
        self._replay = triples_from_state(payload["replay"])
        self.num_updates = int(payload["num_updates"])
        self.num_train_steps = int(payload["num_train_steps"])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def theorem1_parameters(self) -> tuple[int, int, float]:
        """``(L, |C|, xi)`` feeding the Theorem 1 regret bound."""
        return self.network.depth, int(self.capacities.size), self.network.max_singular_value()


class FrozenArmScores:
    """Every arm of a chunk of brokers, scored by one pass of the frozen network.

    Holds the stacked means and per-row gradient factors of
    :meth:`repro.nn.MLP.stacked_pass` over the brokers' ``(|C|,
    input_dim)`` arm rows.  The exploration bonus reads the bandit's
    *current* diagonal ``D`` at call time, layer by layer,

        bonus^2 = sum_l (delta_l^2) . (D_l^-1 a_{l-1}^2) + delta_l^2 . D_{b,l}^-1

    so the ``(|C|, d)`` gradient matrix is never built (the bonus agrees
    with the per-broker one to round-off); and :meth:`update_covariance`
    adds the chosen row's squared gradient — bitwise the
    ``param_gradient`` entries — into ``D``.
    """

    def __init__(self, bandit: NNUCBBandit, contexts: np.ndarray) -> None:
        self.bandit = bandit
        self.size, arms = contexts.shape[0], bandit.capacities.size
        rows = np.concatenate(
            [
                np.broadcast_to(contexts[:, None, :], (self.size, arms, contexts.shape[1])),
                np.broadcast_to(bandit._arm_row_tail, (self.size, *bandit._arm_row_tail.shape)),
            ],
            axis=2,
        )
        self.means, self._inputs, self._deltas = bandit.network.stacked_pass(rows)
        self._inputs_sq = [a * a for a in self._inputs]
        self._deltas_sq = [d * d for d in self._deltas]
        self._arms = arms
        self._auditing = obs_audit.current() is not None
        # Per-layer (weight, bias) views into D and into a scratch D^-1,
        # in grad_vector order; D is never replaced while a day is scored.
        d_diag = bandit._d_diag
        self._inverse = np.empty_like(d_diag)
        self._d_views, self._inverse_views, self._outer = [], [], []
        offset = 0
        for layer in bandit.network.layers:
            w_end = offset + layer.weight.size
            b_end = w_end + layer.bias.size
            shape = layer.weight.shape
            self._d_views.append((d_diag[offset:w_end].reshape(shape), d_diag[w_end:b_end]))
            self._inverse_views.append(
                (self._inverse[offset:w_end].reshape(shape), self._inverse[w_end:b_end])
            )
            self._outer.append(np.empty(shape))
            offset = b_end

    def bonuses(self, index: int) -> np.ndarray:
        """``sqrt(g^T D^-1 g)`` of every arm of broker ``index`` under the current ``D``."""
        rows = slice(index * self._arms, (index + 1) * self._arms)
        np.divide(1.0, self.bandit._d_diag, out=self._inverse)
        total = np.zeros(self._arms)
        for (weights, bias), a_sq, d_sq in zip(self._inverse_views, self._inputs_sq, self._deltas_sq):
            d_sq = d_sq[rows]
            total += ((d_sq @ weights) * a_sq[rows]).sum(axis=1)
            total += d_sq @ bias
        return np.sqrt(np.maximum(total, 0.0))

    def ucb_scores(self, index: int, correction: np.ndarray | None = None) -> np.ndarray:
        """:meth:`NNUCBBandit.ucb_scores` of broker ``index`` (means plus ``correction``)."""
        means = self.means[index]
        if correction is not None:
            means = means + correction
        bonuses = self.bonuses(index)
        if self._auditing:
            self.bandit.last_score_parts = (means, bonuses)
        return means + self.bandit.config.alpha * bonuses

    def update_covariance(self, index: int, arm: int) -> None:
        """``D <- D + g*g`` with ``g`` the gradient of broker ``index``'s arm ``arm``.

        Entry for entry the arithmetic of squaring the
        :meth:`~repro.nn.MLP.param_gradient` vector: each weight entry is
        the single product ``delta_o * a_j``, each bias entry ``delta_o``.
        """
        row = index * self._arms + arm
        for (weights, bias), outer, inputs, deltas, deltas_sq in zip(
            self._d_views, self._outer, self._inputs, self._deltas, self._deltas_sq
        ):
            np.multiply(deltas[row][:, None], inputs[row], out=outer)
            np.multiply(outer, outer, out=outer)
            weights += outer
            bias += deltas_sq[row]
