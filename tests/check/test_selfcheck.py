"""repro.check.selfcheck: the diagnostic runs clean and reports faithfully."""

import numpy as np

from repro.check import runtime
from repro.check.runtime import Violation
from repro.check.selfcheck import SelfCheckReport, run_self_check


def test_self_check_runs_clean_on_small_city():
    report = run_self_check(
        num_brokers=20,
        num_requests=150,
        num_days=2,
        algorithms=("KM", "LACB-Opt"),
        property_cases=25,
    )
    assert report.ok
    assert report.violations == []
    assert report.invariants_checked > 0
    assert report.solver_checks > 0
    # 8 property suites x 25 cases each.
    assert report.property_cases == 200
    assert report.algorithms == ("KM", "LACB-Opt")


def test_self_check_leaves_global_state_untouched():
    runtime.disable()
    run_self_check(
        num_brokers=15,
        num_requests=60,
        num_days=1,
        algorithms=("KM",),
        property_cases=5,
    )
    assert runtime.current() is None


def test_self_check_surfaces_property_failures(monkeypatch):
    from repro.check import differential, selfcheck

    def broken(weights):
        raise AssertionError("synthetic disagreement")

    monkeypatch.setattr(differential, "assert_backends_agree", broken)
    report = run_self_check(
        num_brokers=15,
        num_requests=60,
        num_days=1,
        algorithms=("KM",),
        property_cases=5,
    )
    assert not report.ok
    assert any(
        v.invariant == "property.backends_agree" for v in report.violations
    )


def test_report_to_dict_is_json_ready():
    import json

    report = SelfCheckReport(
        violations=[Violation("a.b", "msg", algorithm="KM", day=1, batch=0)],
        invariants_checked=10,
        solver_checks=2,
        property_cases=40,
        algorithms=("KM",),
    )
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is False
    assert payload["violations"][0]["invariant"] == "a.b"
    assert payload["invariants_checked"] == 10
