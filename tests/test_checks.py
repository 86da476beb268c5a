from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import mutants
from abst import checks, dynamic
from abst.checks import (
    cold_surge_trace,
    depth_bound_ok,
    fault_injection_selftest,
    grid_m,
    run_verify,
    theorem_grid,
)
from abst.dynamic import SMOOTHING_LAPLACE
from abst.workload import DEFAULT_SEED


def test_depth_bound_exact_boundary():
    # for p = 1/8 the bound is depth < 6: depth 5 passes, 6 fails exactly
    assert depth_bound_ok(5, Fraction(1, 8))
    assert not depth_bound_ok(6, Fraction(1, 8))
    assert depth_bound_ok(2, Fraction(1, 16))
    assert depth_bound_ok(1, Fraction(1))
    assert not depth_bound_ok(3, Fraction(1))


def test_grid_m_values():
    assert grid_m(5, 2) == 20
    assert grid_m(16, 8) == 768
    assert grid_m(64, 32) == 20480


def test_theorem_grid_shape():
    cells = theorem_grid()
    assert len(cells) == 27
    assert (5, 2, "uniform") in cells and (64, 32, "zipf:1.5") in cells


def test_fault_injection_selftest_catches_corruption():
    assert fault_injection_selftest() == []


def test_run_verify_quick_all_pass():
    results = run_verify("quick", seed=3)
    assert set(results) == {
        "code-properties", "tree-properties", "matching-properties",
        "baseline-properties", "dynamic-properties", "fault-injection",
        "trigger-locality",
    }
    assert all(not v for v in results.values()), results


def skip_a_cold_surge_rebuild(monkeypatch):
    trace = cold_surge_trace(8, DEFAULT_SEED + 5)  # the quick scale's trace
    mutants.skip_first_rebuild(monkeypatch, 8, trace, SMOOTHING_LAPLACE)


@pytest.mark.parametrize(
    "inject",
    [mutants.quarter_trigger, mutants.zero_pseudo_count, skip_a_cold_surge_rebuild],
    ids=["quarter-trigger", "zero-pseudo-count", "skipped-rebuild"],
)
def test_trigger_locality_suite_fails_on_a_faulty_drift_test(monkeypatch, inject):
    inject(monkeypatch)
    violations = run_verify("quick")["trigger-locality"]
    assert violations
    assert all("tree probability fell below half frequency" in v for v in violations), violations


def test_trigger_locality_suite_round_trips_each_rebuilt_tree(monkeypatch):
    monkeypatch.setattr(checks, "matchings_to_bst", lambda pair: None)
    violations = run_verify("quick")["trigger-locality"]
    assert len(violations) == 6
    assert all("matchings round trip changed the tree rebuilt at t=" in v for v in violations)


def test_run_suites_flag_a_run_with_no_sink_that_differs(monkeypatch):
    # a fault in the bulk path alone, which no ledger sees: each prefix
    # served in bulk costs one more than its keys' depths
    serve_prefix = dynamic._serve_safe_prefix

    def overcharged(state, block):
        served = serve_prefix(state, block)
        state.search_cost += served > 0
        return served

    monkeypatch.setattr(dynamic, "_serve_safe_prefix", overcharged)
    results = run_verify("quick")
    for suite in ("dynamic-properties", "trigger-locality"):
        assert results[suite], suite
        assert all("the run with no sink reports" in v for v in results[suite]), results[suite]


@given(
    t=st.integers(1, 10**6),
    w=st.integers(0, 10**6),
    n=st.integers(1, 10**4),
)
def test_smoothed_frequency_dominates_half_raw(t, w, n):
    # (w+1)/(t+n) >= w/(2t) whenever t >= n and w <= t
    if w > t or t < n:
        return
    assert 2 * t * (w + 1) >= w * (t + n)
