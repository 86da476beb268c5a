"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from abst.baselines import WeightVector, brute_force_static_cost, optimal_static_cost
from abst.checks import (
    ENTROPY_TOL,
    RunLedger,
    _cell_trace,
    _ledger_run,
    check_report_bounds,
    depth_bound_ok,
    grid_m,
    random_distribution,
    suite_code_properties,
    suite_matching_properties,
    suite_tree_properties,
    theorem_grid,
)
from abst.dynamic import SMOOTHING_LAPLACE, SMOOTHING_NONE, init, run, step
from abst.sfe import average_code_length, build_sfe_code, entropy
from abst.trees import depth_map, format_tree, sfe_to_bst
from abst.workload import generate, parse_workload

SEED = 20260810
SUITE_CASES = 500
GRID_SEED = 99


def run_cell(n, alpha, workload, smoothing, seed):
    """Generate one grid cell's trace and run it through `checks._ledger_run`;
    returns the report and the ledger."""
    return _ledger_run(n, alpha, _cell_trace(n, alpha, workload, seed), smoothing)


def _conclude(name: str, violations: list[str]) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"[{status}] {name}")
    assert not violations, f"{name}: first violations: {violations[:8]}"


@pytest.fixture(scope="module")
def distribution_suite():
    rng = random.Random(SEED)
    return [random_distribution(rng, 2, 128) for _ in range(SUITE_CASES)]


@pytest.fixture(scope="module")
def grid_reports():
    """Every guarantee-grid cell, run in both smoothing modes with the
    per-step drift guard enabled, with the ledger each run fed."""
    reports = {}
    ledgers = {}
    timings = {}
    started = time.perf_counter()
    for n, alpha, workload in theorem_grid():
        for smoothing in (SMOOTHING_LAPLACE, SMOOTHING_NONE):
            cell_start = time.perf_counter()
            cell = (n, alpha, workload, smoothing)
            reports[cell], ledgers[cell] = run_cell(n, alpha, workload, smoothing, seed=GRID_SEED)
            timings[cell] = time.perf_counter() - cell_start
    return reports, ledgers, timings, time.perf_counter() - started


def test_c1_code_length_sandwich(distribution_suite):
    started = time.perf_counter()
    violations = []
    for i, dist in enumerate(distribution_suite):
        length = average_code_length(build_sfe_code(dist))
        h = entropy(dist)
        if not (float(length) >= h + 1 - ENTROPY_TOL and float(length) < h + 2 + ENTROPY_TOL):
            violations.append(
                f"case {i}: n={dist.n} H={h} L={length} outside [H+1, H+2)"
            )
    elapsed = time.perf_counter() - started
    print(f"criterion 1 ran {len(distribution_suite)} distributions in {elapsed:.2f}s")
    assert elapsed < 15
    _conclude("criterion 1: code length sandwich", violations)


def test_c2_depth_bound(distribution_suite):
    violations = []
    for i, dist in enumerate(distribution_suite):
        depths = depth_map(sfe_to_bst(dist))
        for key, p in enumerate(dist.probs, start=1):
            if not depth_bound_ok(depths[key], p):
                violations.append(
                    f"case {i}: key {key} at depth {depths[key]} with p={p}"
                )
    _conclude("criterion 2: per-key depth bound", violations)


def test_c3_worked_example_goldens():
    violations = []
    dist_a = (Fraction(1, 10), Fraction(2, 10), Fraction(4, 10), Fraction(2, 10), Fraction(1, 10))
    table = build_sfe_code(dist_a)
    lengths = [e.length for e in table.entries]
    if lengths != [5, 4, 3, 4, 5]:
        violations.append(f"code lengths {lengths}")
    tree = sfe_to_bst(dist_a)
    if format_tree(tree) != "(3 (2 (1 . .) .) (4 . (5 . .)))":
        violations.append(f"tree {format_tree(tree)}")

    state = init(5, 2, SMOOTHING_NONE)
    records = [step(state, k) for k in (3, 2, 3, 4, 3, 2, 4, 3, 5, 1, 1, 1)]
    if records[10].rebuilt:
        violations.append("rebuild fired at t=11")
    if not records[11].rebuilt:
        violations.append("no rebuild at t=12")
    if records[11].depth_pre != 3 or records[11].depth != 2:
        violations.append(
            f"key 1 depth went {records[11].depth_pre} -> {records[11].depth}, want 3 -> 2"
        )
    _conclude("criterion 3: worked example goldens", violations)


def test_c4_static_optimum_oracle_equivalence():
    started = time.perf_counter()
    violations = []
    rng = random.Random(SEED + 4)
    for case in range(200):
        n = rng.randint(1, 8)
        weights = WeightVector(
            tuple(rng.randint(0, 30) for _ in range(n - 1)) + (rng.randint(1, 30),)
        )
        dp = optimal_static_cost(weights)[0]
        oracle = brute_force_static_cost(weights)
        if dp != oracle:
            violations.append(f"case {case}: DP={dp} oracle={oracle} w={weights.weights}")
    if optimal_static_cost(WeightVector((1, 2, 4, 2, 1)))[0] != 18:
        violations.append("example weights did not give 18")
    elapsed = time.perf_counter() - started
    print(f"criterion 4 ran 200 weight vectors in {elapsed:.2f}s")
    assert elapsed < 20
    _conclude("criterion 4: static optimum equals oracle", violations)


def test_c5_total_cost_guarantee_grid(grid_reports):
    reports, _, timings, total_elapsed = grid_reports
    violations = []
    for (n, alpha, workload, smoothing), report in reports.items():
        label = f"n={n} alpha={alpha} {workload} {smoothing}"
        assert report.m == grid_m(n, alpha)
        if not report.theorem_applicable:
            violations.append(f"{label}: guarantee regime not flagged applicable")
        tol = ENTROPY_TOL * max(1.0, report.m)
        if float(report.total) > report.theorem_bound + tol:
            violations.append(
                f"{label}: total {float(report.total)} > {report.theorem_bound:.3f}"
            )
    worst = max(timings.values())
    print(
        f"criterion 5 grid: {len(reports)} runs in {total_elapsed:.2f}s "
        f"(slowest cell {worst:.2f}s)"
    )
    assert worst < 5
    assert total_elapsed < 180
    _conclude("criterion 5: total cost within m*(8+H)", violations)


def test_c6_accounting_invariants_grid(grid_reports):
    reports, ledgers, _, _ = grid_reports
    violations = []
    for (n, alpha, workload, smoothing), report in reports.items():
        label = f"n={n} alpha={alpha} {workload} {smoothing}"
        ledger = ledgers[(n, alpha, workload, smoothing)]
        # (a) count doubling at every rebuild
        for rec in ledger.rebuilds:
            if not 2 * rec.count_at_prev < rec.count_now:
                violations.append(f"{label}: no doubling at t={rec.t}")
        # (b) per-key frequency-log bound, raw-frequency runs
        if smoothing == SMOOTHING_NONE:
            for key, w in enumerate(report.weights, start=1):
                if w == 0:
                    continue
                bound = w * math.log2(report.m / w) + 2 * w
                if ledger.qlog[key - 1] > bound + ENTROPY_TOL * report.m:
                    violations.append(f"{label}: key {key} exceeds frequency-log bound")
        # (c) adjustment cost cap
        cap = 2 * n * alpha * math.log2(alpha) + report.m
        if float(report.adjust_cost) > cap + ENTROPY_TOL * report.m:
            violations.append(f"{label}: adjust {float(report.adjust_cost)} > {cap:.3f}")
        # (d) drift guard held after every step: run_cell's RunLedger tests it
        # and raises on the first violation, so reaching here means it held
    _conclude("criterion 6: accounting invariants on the grid", violations)


def test_c7_structural_properties():
    started = time.perf_counter()
    violations = (
        suite_code_properties(SUITE_CASES, 128, SEED + 7)
        + suite_tree_properties(SUITE_CASES, 128, SEED + 8)
        + suite_matching_properties(SUITE_CASES, 128, SEED + 9)
    )
    elapsed = time.perf_counter() - started
    print(f"criterion 7 ran 3x{SUITE_CASES} structural cases in {elapsed:.2f}s")
    assert elapsed < 30
    _conclude("criterion 7: structural properties", violations)


def test_c8_static_optimality_ratio_trend():
    violations = []
    n, alpha = 16, 8
    print("criterion 8 trend (n=16, alpha=8, zipf:1.0):")
    print(f"{'m':>8} {'total':>10} {'stat':>10} {'rho':>8}")
    base = grid_m(n, alpha)
    for m in (base, 2 * base, 4 * base, 8 * base):
        trace = generate(parse_workload("zipf:1.0", n=n, m=m, seed=GRID_SEED))
        state = init(n, alpha)
        ledger = RunLedger(state)
        report = run(state, trace, on_step=ledger)
        stat, _ = optimal_static_cost(WeightVector(report.weights))
        rho = float(report.total) / stat
        print(f"{m:>8} {float(report.total):>10.0f} {stat:>10} {rho:>8.3f}")
        if report.total != report.search_cost + report.adjust_cost:
            violations.append(f"m={m}: inconsistent totals")
        if check_report_bounds(report, ledger):
            violations.append(f"m={m}: {check_report_bounds(report, ledger)}")
        if rho <= 0:
            violations.append(f"m={m}: nonpositive ratio")
    _conclude("criterion 8: ratio trend reported", violations)
