"""The ``repro check`` self-diagnostic.

Runs the whole correctness layer against a small simulated city:

1. **Invariant phase** — for each requested algorithm, drive a full day
   loop with checks active in *collect* mode, so the engine-attached
   :class:`~repro.check.hook.CheckHook` exercises batch feasibility,
   capacity feasibility and day accounting, and the assigner's sampled
   solver-oracle spot checks (KM optimality, CBS preservation) run at an
   aggressive sampling rate.
2. **Property phase** — the differential suites of
   :mod:`repro.check.differential` over randomized instances: backend
   agreement, square-padding agreement, CBS preservation, warm-started
   incremental KM vs cold solves over perturbation sequences, top-k
   selection vs brute force, batched MLP scoring, and day-batched
   capacity estimation vs the per-broker loop.

Everything found comes back in one :class:`SelfCheckReport`; the CLI
renders it and exits nonzero when any violation survived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.check import differential, property as prop, runtime
from repro.check.runtime import CheckState, Violation
from repro.obs import telemetry as obs

#: Algorithms exercised by default: the KM-exactness claim (KM), the full
#: LACB stack (value function + capacity bandit), and the CBS-accelerated
#: variant whose pruning Theorem 2 guarantees lossless.
DEFAULT_ALGORITHMS = ("KM", "LACB", "LACB-Opt")


@dataclass
class SelfCheckReport:
    """Everything the self-diagnostic found.

    Attributes:
        violations: all invariant/property violations, in discovery order.
        invariants_checked: structural invariant evaluations performed.
        solver_checks: sampled solver-oracle spot checks performed.
        property_cases: randomized property cases run (across all suites).
        algorithms: algorithm names the invariant phase drove.
    """

    violations: list[Violation] = field(default_factory=list)
    invariants_checked: int = 0
    solver_checks: int = 0
    property_cases: int = 0
    resume_cases: int = 0
    algorithms: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        """Whether the diagnostic found nothing wrong."""
        return not self.violations

    def to_dict(self) -> dict:
        """Plain-data form for the JSON violation report artifact."""
        return {
            "ok": self.ok,
            "invariants_checked": self.invariants_checked,
            "solver_checks": self.solver_checks,
            "property_cases": self.property_cases,
            "resume_cases": self.resume_cases,
            "algorithms": list(self.algorithms),
            "violations": [violation.to_dict() for violation in self.violations],
        }


def run_self_check(
    num_brokers: int = 25,
    num_requests: int = 250,
    num_days: int = 3,
    seed: int = 7,
    instance_seed: int = 1,
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS,
    property_cases: int = 200,
    property_seed: int = 0,
    solver_sample_every: int = 4,
) -> SelfCheckReport:
    """Run the full diagnostic; see the module docstring for the phases.

    Args:
        num_brokers / num_requests / num_days: size of the simulated city.
        seed: matcher-private randomness seed.
        instance_seed: city instance seed.
        algorithms: algorithm names for the invariant phase.
        property_cases: randomized cases per differential property.
        property_seed: base seed of the property harness.
        solver_sample_every: solver-oracle sampling rate during the
            invariant phase (1 = check every solve).
    """
    from repro.algorithms import make_matcher
    from repro.engine.loop import DayLoopEngine
    from repro.simulation.datasets import SyntheticConfig, generate_city

    report = SelfCheckReport(algorithms=tuple(algorithms))
    state = CheckState(mode="collect", solver_sample_every=solver_sample_every)
    config = SyntheticConfig(
        num_brokers=num_brokers,
        num_requests=num_requests,
        num_days=num_days,
        seed=instance_seed,
    )
    with runtime.use(state):
        platform = generate_city(config)
        engine = DayLoopEngine()
        for name in algorithms:
            with obs.span("check.selfcheck_run", algorithm=name):
                matcher = make_matcher(name, platform, seed=seed)
                engine.run(platform, matcher)
    report.violations.extend(state.violations)
    report.invariants_checked = state.invariants_checked
    report.solver_checks = state.solver_checks

    report.property_cases = _run_property_phase(
        report.violations, num_cases=property_cases, seed=property_seed
    )
    obs.set_gauge("check.selfcheck_violations", len(report.violations))
    return report


def _run_property_phase(
    violations: list[Violation], num_cases: int, seed: int
) -> int:
    """Drive every differential suite; convert failures into violations."""
    suites = [
        (
            "property.backends_agree",
            differential.assert_backends_agree,
            prop.random_utilities,
            prop.shrink_matrix,
        ),
        (
            "property.pad_square_agrees",
            differential.assert_pad_square_agrees,
            lambda rng: prop.random_utilities(rng, allow_negative=False),
            prop.shrink_matrix,
        ),
        (
            "property.cbs_preserves",
            differential.assert_cbs_preserves,
            lambda rng: prop.random_utilities(rng, allow_negative=False),
            prop.shrink_matrix,
        ),
        (
            "property.incremental_matches_cold",
            differential.assert_incremental_matches_cold,
            prop.random_perturbation_sequence,
            prop.shrink_sequence,
        ),
        (
            "property.topk_bruteforce",
            lambda case: differential.assert_topk_matches_bruteforce(*case),
            lambda rng: (prop.random_utility_row(rng), int(rng.integers(0, 12))),
            None,
        ),
        (
            "property.fast_topk_matches_quickselect",
            lambda case: differential.assert_fast_topk_matches_quickselect(*case),
            prop.random_topk_case,
            None,
        ),
        (
            "property.batched_scoring_matches",
            differential.assert_batched_scoring_matches,
            prop.random_mlp_case,
            None,
        ),
        (
            "property.batched_estimation_matches",
            differential.assert_batched_estimation_matches,
            prop.random_estimation_case,
            None,
        ),
    ]
    cases_run = 0
    for invariant, check, generate, shrink in suites:
        with obs.span(invariant):
            try:
                cases_run += prop.run_property(
                    check,
                    generate,
                    num_cases=num_cases,
                    seed=seed,
                    shrink=shrink,
                    name=invariant,
                )
            except prop.PropertyFailure as failure:
                obs.add("check.violations", invariant=invariant)
                violations.append(Violation(invariant, str(failure)))
                cases_run += failure.index + 1
    return cases_run
