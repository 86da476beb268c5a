import contextlib
import copy
import gc
import math
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import cycle, islice

import pytest
from hypothesis import given, settings, strategies as st

import mutants
import trie_oracle
from abst import checks, dynamic, trees
from abst.checks import (
    RebuildRecord,
    RunLedger,
    check_report_bounds,
    grid_m,
    guarded_invariant_holds,
)
from abst.dynamic import (
    SMOOTHING_LAPLACE,
    SMOOTHING_NONE,
    StepRecord,
    init,
    run,
    step,
    theorem_threshold,
)
from abst.errors import BoundViolationError, InvalidRequestError
from abst.trees import format_tree, tree_for_probs, tree_from_depths
from abst.workload import generate, parse_workload

TREE_B = "(3 (1 . (2 . .)) (4 . (5 . .)))"

# raw-frequency trace whose warm-up ends with a rebuild at t=10 on the
# frequencies (1,2,4,2,1)/10, followed by two more requests for key 1
WORKED_TRACE = [3, 2, 3, 4, 3, 2, 4, 3, 5, 1, 1, 1]


def test_empirical_q_raw():
    # the observed frequency of key k is weights[k-1] / total
    assert dynamic._observed_weights([3, 2, 4, 2, 1], 12, 0) == ((3, 2, 4, 2, 1), 12)
    assert dynamic._observed_weights([2, 2, 4, 2, 1], 11, 0) == ((2, 2, 4, 2, 1), 11)


def test_empirical_q_laplace_prior():
    assert dynamic._observed_weights([0] * 5, 0, 1) == ((1,) * 5, 5)
    assert dynamic._observed_weights([3, 0], 3, 1) == ((4, 1), 5)


def test_empirical_q_unknown_mode():
    assert dynamic._delta(SMOOTHING_LAPLACE) == 1 and dynamic._delta(SMOOTHING_NONE) == 0
    with pytest.raises(ValueError):
        dynamic._delta("windowed")


def test_init_state():
    state = init(5, 2)
    assert state.tree_weights == (1,) * 5 and state.tree_total == 5
    assert state.depths == [2, 3, 1, 2, 3]
    assert state.tree.root == 3
    assert list(state.tree.keys) == [1, 2, 3, 4, 5]
    assert state.search_cost == 0 and state.rebuilds == 0
    assert state.floors == [0] * 5
    single = init(1, 2)
    assert single.tree.root == 1


def test_init_rejects_bad_arguments():
    with pytest.raises(ValueError):
        init(0, 2)
    with pytest.raises(ValueError):
        init(5, 0)
    with pytest.raises(ValueError):
        init(5, 2, smoothing="sliding")


def test_init_warns_below_alpha_two():
    with pytest.warns(RuntimeWarning):
        state = init(5, 1)
    report = run(state, [1, 2, 3])
    assert report.theorem_applicable is False


def test_worked_trace_rebuild_schedule():
    state = init(5, 2, SMOOTHING_NONE)
    records = [step(state, key) for key in WORKED_TRACE[:11]]
    # the tenth request freezes the frequencies (1,2,4,2,1)/10
    assert records[9].rebuilt
    # eleventh request: tree probability 1/10 is not below (2/11)/2
    assert records[10].rebuilt is False
    assert state.tree_weights == (1, 2, 4, 2, 1) and state.tree_total == 10
    assert state.counts[0] == 2 and state.t == 11
    # twelfth request: 1/10 < (3/12)/2 fires a rebuild
    records.append(step(state, WORKED_TRACE[11]))
    assert records[11].rebuilt
    assert state.counts[0] == 3 and state.t == 12
    assert [r.t for r in records if r.rebuilt] == [1, 2, 4, 9, 10, 12]
    assert state.tree_weights == (3, 2, 4, 2, 1) and state.tree_total == 12
    assert format_tree(state.tree) == TREE_B
    # key 1 moved from depth 3 to depth 2 and was served post-rebuild
    assert records[11].depth_pre == 3
    assert records[11].depth == 2


def test_step_served_at_root_without_rebuild():
    state = init(5, 2, SMOOTHING_NONE)
    for key in WORKED_TRACE:
        step(state, key)
    rec = step(state, 3)  # p=1/3 vs q/2=(5/13)/2: no rebuild, root hit
    assert rec.rebuilt is False
    assert rec.depth == 1
    assert state.search_cost >= 13


def test_step_rejects_out_of_range_keys():
    state = init(5, 2)
    with pytest.raises(InvalidRequestError):
        step(state, 0)
    with pytest.raises(InvalidRequestError):
        step(state, 6)


def test_first_request_rebuild_with_unseen_keys():
    # raw mode fires immediately at t=1; unseen keys are still in the tree
    state = init(5, 2, SMOOTHING_NONE)
    rec = step(state, 3)
    assert rec.rebuilt
    assert list(state.tree.keys) == [1, 2, 3, 4, 5]
    assert state.tree.root == 3
    assert guarded_invariant_holds(state)


def test_laplace_does_not_fire_at_t1():
    state = init(5, 2, SMOOTHING_LAPLACE)
    assert step(state, 3).rebuilt is False


def test_tree_for_probs_rejects_bad_vector():
    with pytest.raises(Exception):
        tree_for_probs((Fraction(1, 2), Fraction(1, 3)))  # sums below 1


def test_guarded_invariant_random_runs():
    rng = random.Random(7)
    for smoothing in (SMOOTHING_LAPLACE, SMOOTHING_NONE):
        state = init(8, 2, smoothing)
        for _ in range(300):
            step(state, rng.randint(1, 8))
            assert guarded_invariant_holds(state)


def test_guard_scans_every_key_after_a_rebuild(monkeypatch):
    # A faulty rebuild gives key 2 a quarter of its observed weight. Only
    # key 1 is requested, so only a scan of every key after the rebuild (at
    # t=3) sees key 2 drift; a guard that tests the requested key alone
    # lets the run finish.
    observed = dynamic._observed_weights

    def faulty(counts, t, delta):
        weights, total = observed(counts, t, delta)
        scaled = tuple(w if k == 1 else 4 * w for k, w in enumerate(weights))
        return scaled, 4 * total - 3 * weights[1]

    monkeypatch.setattr(dynamic, "_observed_weights", faulty)
    assert run(init(4, 2), [1] * 20).rebuilds == 1
    state = init(4, 2)
    with pytest.raises(BoundViolationError, match="after t=3"):
        run(state, [1] * 20, on_step=RunLedger(state))
    assert state.rebuilds == 1
    # the same guard on records fed one `step` at a time
    state = init(4, 2)
    ledger = RunLedger(state)
    with pytest.raises(BoundViolationError, match="after t=3"):
        for key in [1] * 20:
            ledger(step(state, key))
    assert state.rebuilds == 1


@pytest.mark.parametrize("smoothing, scans", [(SMOOTHING_LAPLACE, 1), (SMOOTHING_NONE, 0)])
def test_guard_skips_the_scan_after_an_exact_rebuild(monkeypatch, smoothing, scans):
    # every rebuild sets the tree to the observed weights, so only the
    # ledger's first step, on the balanced start tree, needs a scan; in raw
    # mode that step rebuilds too
    holds, full = checks.guarded_invariant_holds, []

    def counting(state, keys=None):
        full.append(keys is None)
        return holds(state, keys)

    monkeypatch.setattr(checks, "guarded_invariant_holds", counting)
    state = init(16, 2, smoothing)
    run(state, generate(parse_workload("zipf:1.0", n=16, m=600, seed=2)), on_step=RunLedger(state))
    assert state.rebuilds > 5
    assert len(full) == 600 and sum(full) == scans


def test_guard_scans_every_key_on_a_ledgers_first_step():
    state = init(4, 2, SMOOTHING_NONE)
    run(state, [1, 2, 3, 4], on_step=RunLedger(state))
    # a state edited by hand: key 1 drifted, while the next request, for
    # key 4, does not drift and does not rebuild
    state.tree_weights, state.tree_total = (1, 33, 33, 33), 100
    assert not guarded_invariant_holds(state)
    assert guarded_invariant_holds(state, (2, 3, 4))
    rebuilds = state.rebuilds
    with pytest.raises(BoundViolationError, match="after t=5"):
        run(state, [4], on_step=RunLedger(state))
    assert state.rebuilds == rebuilds


def ledger_run(n: int, trace, smoothing: str) -> None:
    """Run `trace` at alpha 2 with a `RunLedger` as its sink and the matchings
    round trip at each rebuild, as `verify`'s trigger-locality suite does."""
    checks._ledger_run(n, 2, trace, smoothing, round_trip=True)


@pytest.mark.parametrize("smoothing", [SMOOTHING_LAPLACE, SMOOTHING_NONE])
def test_trigger_locality_flags_a_run_that_rebuilds_late(monkeypatch, smoothing):
    # the ledger keeps the true drift test, so the first key left drifted
    # raises after its step
    mutants.quarter_trigger(monkeypatch)
    trace = generate(parse_workload("zipf:1.0", n=8, m=200, seed=5))
    t = {SMOOTHING_LAPLACE: 9, SMOOTHING_NONE: 30}[smoothing]
    with pytest.raises(BoundViolationError, match=f"after t={t}$"):
        ledger_run(8, trace, smoothing)


def test_trigger_locality_flags_a_run_with_the_wrong_pseudo_count(monkeypatch):
    mutants.zero_pseudo_count(monkeypatch)
    trace = generate(parse_workload("zipf:1.0", n=8, m=200, seed=5))
    with pytest.raises(BoundViolationError, match="after t=1$"):
        ledger_run(8, trace, SMOOTHING_LAPLACE)


@pytest.mark.parametrize("n, workload, seed, smoothing", [
    (8, "zipf:1.0", 5, SMOOTHING_LAPLACE),
    (5, "uniform", 2, SMOOTHING_LAPLACE),
    (5, "uniform", 2, SMOOTHING_NONE),
    (32, "zipf:1.5", 3, SMOOTHING_LAPLACE),
    (12, "zipf:1.5", 7, SMOOTHING_LAPLACE),
])
def test_trigger_locality_flags_a_run_that_skips_one_rebuild(
    monkeypatch, n, workload, seed, smoothing
):
    # In these runs no other key is drifted when a request arrives: the
    # skipped key's own next request rebuilds, or its drift clears first.
    # Only the test of the requested key after its step sees the fault.
    trace = generate(parse_workload(workload, n=n, m=300, seed=seed))
    ledger_run(n, trace, smoothing)
    first = mutants.skip_first_rebuild(monkeypatch, n, trace, smoothing)
    records = []
    run(init(n, 2, smoothing), trace, on_step=records.append)
    assert not records[first.t - 1].rebuilt
    with pytest.raises(BoundViolationError, match=f"after t={first.t}$"):
        ledger_run(n, trace, smoothing)


def test_trigger_only_fires_for_requested_key():
    trace = generate(parse_workload("zipf:1.0", n=8, m=200, seed=5))
    for smoothing in (SMOOTHING_LAPLACE, SMOOTHING_NONE):
        ledger_run(8, trace, smoothing)


def test_rebuild_count_doubling():
    trace = generate(parse_workload("zipf:1.5", n=16, m=600, seed=9))
    for smoothing in (SMOOTHING_LAPLACE, SMOOTHING_NONE):
        state = init(16, 2, smoothing)
        ledger = RunLedger(state)
        report = run(state, trace, on_step=ledger)
        assert len(ledger.rebuilds) == report.rebuilds
        for rec in ledger.rebuilds:
            assert 2 * rec.count_at_prev < rec.count_now


def test_per_key_frequency_log_bound_raw_mode():
    trace = generate(parse_workload("uniform", n=12, m=500, seed=11))
    state = init(12, 4, SMOOTHING_NONE)
    ledger = RunLedger(state)
    report = run(state, trace, on_step=ledger)
    m = report.m
    for key, w in enumerate(report.weights, start=1):
        if w:
            assert ledger.qlog[key - 1] <= w * math.log2(m / w) + 2 * w + 1e-6


def test_laplace_dominates_half_raw_after_warmup():
    trace = generate(parse_workload("zipf:1.0", n=10, m=400, seed=3))
    records = []
    report = run(init(10, 2, SMOOTHING_LAPLACE), trace, on_step=records.append)
    assert len(records) == report.m == 400
    for rec in records:
        if rec.t >= report.n:
            assert 2 * rec.t * (rec.count + 1) >= rec.count * (rec.t + report.n)


def test_run_report_consistency():
    trace = generate(parse_workload("zipf:1.0", n=16, m=grid_m(16, 8), seed=2))
    state = init(16, 8)
    ledger = RunLedger(state)
    report = run(state, trace, on_step=ledger)
    assert report.total == report.search_cost + report.adjust_cost
    assert report.adjust_cost == report.alpha * report.rebuilds
    assert sum(report.weights) == report.m
    assert report.theorem_applicable
    assert check_report_bounds(report, ledger) == []


def test_report_bounds_flag_a_ledger_that_missed_steps():
    # the per-key checks must not pass on a ledger that has nothing to check
    trace = generate(parse_workload("zipf:1.0", n=16, m=grid_m(16, 8), seed=2))
    half = len(trace) // 2
    state = init(16, 8)
    never, second, full = (RunLedger(state) for _ in range(3))
    first = run(state, trace[:half], on_step=full)
    assert first.rebuilds > 0

    def both(rec):
        full(rec)
        second(rec)

    report = run(state, trace[half:], on_step=both)
    assert check_report_bounds(report, full) == []
    assert check_report_bounds(report, never) == [
        f"ledger saw 0 requests and 0 rebuilds of the report's {report.m} and {report.rebuilds}"
    ]
    assert check_report_bounds(report, second) == [
        f"ledger saw {len(trace) - half} requests and {report.rebuilds - first.rebuilds} "
        f"rebuilds of the report's {report.m} and {report.rebuilds}"
    ]


@pytest.mark.parametrize("smoothing", [SMOOTHING_LAPLACE, SMOOTHING_NONE])
@pytest.mark.parametrize("with_sink", [False, True])
@pytest.mark.parametrize("n, workload, m", [(32, "zipf:1.0", 6000), (128, "uniform", 3000)])
def test_alpha_never_changes_what_a_run_serves(smoothing, with_sink, n, workload, m):
    # `cli.cmd_compare` serves each workload once for all its alphas on this premise
    trace = generate(parse_workload(workload, n=n, m=m, seed=11))
    served = []
    for alpha in (1, 2, 8, 32):
        with pytest.warns(RuntimeWarning) if alpha < 2 else contextlib.nullcontext():
            state = init(n, alpha, smoothing)
        records = []
        report = run(state, trace, on_step=records.append if with_sink else None)
        assert report.alpha == alpha and report.adjust_cost == alpha * report.rebuilds
        served.append((records, state.counts, state.t, state.rebuilds, state.search_cost,
                       state.tree_weights, state.tree_total, report.weights))
    assert served[0][3] > 0
    assert all(other == served[0] for other in served[1:])


def test_report_prices_a_served_state_at_its_alpha():
    trace = generate(parse_workload("zipf:1.5", n=64, m=4000, seed=2))
    state = init(64, 2, SMOOTHING_NONE)
    dynamic.serve(state, trace[:1000])
    dynamic.serve(state, iter(trace[1000:]))
    state.alpha = Fraction(32)
    assert dynamic.report(state) == run(init(64, 32, SMOOTHING_NONE), trace)


def test_run_rejects_empty_trace():
    with pytest.raises(ValueError):
        run(init(3, 2), [])
    with pytest.raises(ValueError):
        run(init(3, 2), iter([]))


def serve_oracle(state, key: int) -> StepRecord:
    """One request served as the step core did before `run` and `step`
    shared a hoisted loop: every field read from and written to the state,
    and the rebuild by the node-building `trie_oracle.coded_tree`. Test
    oracle."""
    if not 1 <= key <= state.n:
        raise InvalidRequestError(f"key {key} outside 1..{state.n}")
    state.counts[key - 1] += 1
    state.t += 1
    t = state.t
    w = state.counts[key - 1]
    delta = 1 if state.smoothing == SMOOTHING_LAPLACE else 0
    total = t + delta * state.n
    fired = 2 * state.tree_weights[key - 1] * total < state.tree_total * (w + delta)
    depth_pre = state.depths[key - 1]
    if fired:
        weights = tuple(count + delta for count in state.counts)
        _, depth_by_key = trie_oracle.coded_tree(weights, total, range(1, state.n + 1))
        state.known_depths = [depth_by_key[k] for k in range(1, state.n + 1)]
        state.tree_weights, state.tree_total = weights, total
        state.rebuilds += 1
    depth = state.depths[key - 1]
    state.search_cost += depth
    return StepRecord(t=t, key=key, count=w, depth=depth, depth_pre=depth_pre, rebuilt=fired)


@pytest.mark.parametrize("smoothing", [SMOOTHING_LAPLACE, SMOOTHING_NONE])
@pytest.mark.parametrize("n, workload, m", [
    (1, "uniform", 30),
    (5, "zipf:1.5", 300),
    (16, "uniform", 800),
    (64, "zipf:1.0", 2000),
    (300, "zipf:1.0", 1500),
])
def test_streamed_records_match_step_oracle(smoothing, n, workload, m):
    trace = generate(parse_workload(workload, n=n, m=m, seed=n))
    oracle_state = init(n, 4, smoothing)
    oracle = [serve_oracle(oracle_state, key) for key in trace]
    streamed = []
    state = init(n, 4, smoothing)
    ledger = RunLedger(state)

    def sink(rec):
        streamed.append(rec)
        ledger(rec)

    report = run(state, iter(trace), on_step=sink)
    assert streamed == oracle
    assert state == oracle_state and state.depths == oracle_state.depths
    stepped_state = init(n, 4, smoothing)
    assert [step(stepped_state, key) for key in trace] == oracle
    assert stepped_state == oracle_state and stepped_state.depths == oracle_state.depths
    assert report.search_cost == sum(rec.depth for rec in oracle)
    assert report.rebuilds == sum(rec.rebuilt for rec in oracle) == len(ledger.rebuilds)
    if report.rebuilds:
        keys = range(1, n + 1)
        assert state.tree == trie_oracle.coded_tree(state.tree_weights, state.tree_total, keys)[0]


def rebuilds_from_records(trace, records) -> list[RebuildRecord]:
    """The rebuild log of a run, from its step records and its trace: the
    firing key's count at the previous rebuild is counted in the trace."""
    rebuilds, prev_t = [], 0
    for rec in records:
        if rec.rebuilt:
            at_prev = trace[:prev_t].count(rec.key)
            rebuilds.append(RebuildRecord(rec.t, rec.key, rec.count, at_prev, prev_t))
            prev_t = rec.t
    return rebuilds


@pytest.mark.parametrize("smoothing", [SMOOTHING_LAPLACE, SMOOTHING_NONE])
@pytest.mark.parametrize("n, workload, m", [
    (1, "uniform", 30),
    (5, "zipf:1.5", 300),
    (64, "zipf:1.0", 2000),
    (300, "zipf:1.0", 1500),
])
def test_ledger_matches_oracles_across_chunked_runs_and_steps(smoothing, n, workload, m):
    trace = generate(parse_workload(workload, n=n, m=m, seed=n))
    # each key's frequency-log sum from the trace alone: t and its running count
    counts, sums = [0] * n, [0.0] * n
    for t, key in enumerate(trace, start=1):
        counts[key - 1] += 1
        sums[key - 1] += math.log2(t / counts[key - 1])
    oracle_state = init(n, 4, smoothing)
    oracle = [serve_oracle(oracle_state, key) for key in trace]
    state = init(n, 4, smoothing)
    ledger = RunLedger(state)
    for start in range(0, m, 97):
        block = trace[start:start + 97]
        for key in block[:3]:
            ledger(step(state, key))
        report = run(state, block[3:], on_step=ledger)
    assert report.m == m
    assert [q.hex() for q in ledger.qlog] == [q.hex() for q in sums]
    assert ledger.counts == counts
    assert ledger.rebuilds == rebuilds_from_records(trace, oracle)
    assert len(ledger.rebuilds) == report.rebuilds
    assert check_report_bounds(report, ledger) == []


@pytest.mark.parametrize("smoothing, counts", [
    (SMOOTHING_LAPLACE, [2, 4, 0]),
    (SMOOTHING_NONE, [3, 6, 0]),
])
def test_drift_gate_fires_exactly_at_the_cached_floor(smoothing, counts):
    # Key 1 has tree probability 2/10 and is requested twice, at observed
    # totals 10 and 11, where its drift floor is the same. Its observed
    # weight lands one below the floor, which is cached, then on it, which
    # must fire through the cached compare.
    delta = dynamic._delta(smoothing)
    floor = dynamic._drift_floor(2, 10, 10)
    assert dynamic._drift_floor(2, 10, 11) == floor == counts[0] + 2 + delta

    def state_at_counts():
        state = init(3, 2, smoothing)
        state.tree_weights, state.tree_total = (2, 3, 5), 10
        state.counts, state.t = list(counts), sum(counts)
        return state

    state = state_at_counts()
    below = step(state, 1)
    assert not below.rebuilt and below.count + delta == floor - 1
    assert state.floors[0] == floor
    at = step(state, 1)
    assert at.rebuilt and at.count + delta == floor
    oracle_state = state_at_counts()
    assert [serve_oracle(oracle_state, 1) for _ in range(2)] == [below, at]
    assert state == oracle_state and state.depths == oracle_state.depths


@pytest.mark.parametrize("smoothing", [SMOOTHING_LAPLACE, SMOOTHING_NONE])
def test_cached_floors_match_the_oracle_across_chunked_runs_and_steps(monkeypatch, smoothing):
    # few rebuilds over many requests, so most requests pass the cached
    # floor and many recompute it without firing; the floors must carry
    # over between `run` and `step` calls on one state
    trace = generate(parse_workload("zipf:1.0", n=64, m=6000, seed=64))
    oracle_state = init(64, 8, smoothing)
    oracle = [serve_oracle(oracle_state, key) for key in trace]
    computed = []
    true_floor = dynamic._drift_floor
    monkeypatch.setattr(
        dynamic, "_drift_floor", lambda *args: computed.append(args) or true_floor(*args)
    )
    state = init(64, 8, smoothing)
    records = []
    for start in range(0, len(trace), 250):
        block = trace[start:start + 250]
        run(state, block[:-3], on_step=records.append)
        records += [step(state, key) for key in block[-3:]]
    assert records == oracle
    assert state == oracle_state and state.depths == oracle_state.depths
    assert len(computed) - state.rebuilds > 500
    assert len(computed) < len(trace) // 4


@pytest.mark.parametrize("smoothing", [SMOOTHING_LAPLACE, SMOOTHING_NONE])
def test_floors_are_reset_at_each_rebuild(smoothing):
    # Key 1's request at t=62 caches its floor under the uniform tree, about
    # half the total. Key 2's surge then rebuilds with key 1 at a small
    # weight, so key 1's own surge must fire far below the cached floor.
    trace = [1] + [2, 3, 4] * 20 + [1] + [2] * 80 + [1] * 40
    oracle_state = init(4, 2, smoothing)
    oracle = [serve_oracle(oracle_state, key) for key in trace]
    state = init(4, 2, smoothing)
    records = []
    run(state, trace, on_step=records.append)
    assert records == oracle
    assert state == oracle_state and state.depths == oracle_state.depths
    delta = dynamic._delta(smoothing)
    cached = dynamic._drift_floor(1, 4, 62 + 4 * delta)
    surge = next(rec for rec in records if rec.rebuilt and rec.key == 1 and rec.t > 62)
    assert surge.count + delta < cached
    ledger_run(4, trace, smoothing)


def test_run_writes_its_counters_back_before_errors_and_sinks():
    state = init(5, 2, SMOOTHING_NONE)
    served = []

    def sink(rec):
        served.append(rec)
        assert state.t == rec.t
        assert state.search_cost == sum(r.depth for r in served)

    with pytest.raises(InvalidRequestError):
        run(state, [3, 2, 3, 9, 1], on_step=sink)
    assert len(served) == 3
    assert state.t == 3 and sum(state.counts) == 3
    assert state.search_cost == sum(rec.depth for rec in served)
    assert run(state, [1]).m == 4


# A run with no sink serves its trace in blocks, and `dynamic._BLOCK_MIN`
# requests or more go to each. Short traces reach the bulk path's outcomes
# (blocks served whole, prefixes, backed-off stretches, window ends) only
# with small blocks, so the oracle tests run both at the module's sizes and
# at these.
SMALL_BLOCKS = [None, (4, 16)]


def set_block_sizes(monkeypatch, block_min: int, block_max: int) -> None:
    """Serve in blocks of `block_min` to `block_max` requests, and read a
    trace that is not a list in windows that hold as many blocks at the cap
    as the module's do."""
    monkeypatch.setattr(dynamic, "_WINDOW", dynamic._WINDOW // dynamic._BLOCK_MAX * block_max)
    monkeypatch.setattr(dynamic, "_BLOCK_MIN", block_min)
    monkeypatch.setattr(dynamic, "_BLOCK_MAX", block_max)


def copy_for_oracle(state):
    """A copy of `state` that shares nothing serving writes in place with
    it. Those fields are pickled in one go, which keeps `known_depths` the
    list that `coded`'s walks fill, as in `state`."""
    copied = copy.copy(state)
    fields = (state.counts, state.floors, state.known_depths, state.coded)
    copied.counts, copied.floors, copied.known_depths, copied.coded = pickle.loads(
        pickle.dumps(fields)
    )
    return copied


def step_safe_prefix(state, block: list[int]):
    """The prefix of `block` that `dynamic._serve_safe_prefix` must serve in
    bulk, found by the exact loop one request at a time on copies of
    `state`: up to the block's first rebuild, or the whole block if it has
    none. Returns its length and the copy that served it. Raises where the
    exact loop does. Test oracle."""
    records = []
    dynamic._serve_each(copy_for_oracle(state), block, records.append)
    stop = next((p for p, rec in enumerate(records) if rec.rebuilt), len(block))
    stepped = copy_for_oracle(state)
    dynamic._serve_each(stepped, block[:stop], None)
    return stop, stepped


def bulk_fields(state):
    return (state.counts, state.t, state.search_cost, state.rebuilds, state.known_depths,
            [bool(floor) for floor in state.floors])


def assert_floors_sound(state) -> None:
    """Each cached floor lies above its key's observed weight and at most at
    the key's drift floor at the current total, so it still bounds that
    floor from below at every later total; and its key's depth is known."""
    delta = dynamic._delta(state.smoothing)
    total = state.t + delta * state.n
    for i, floor in enumerate(state.floors):
        if floor:
            true_floor = dynamic._drift_floor(state.tree_weights[i], state.tree_total, total)
            assert state.counts[i] + delta < floor <= true_floor, (i + 1, floor, true_floor)
            assert state.known_depths[i]


def check_bulk_prefixes(monkeypatch) -> list[int]:
    """Wrap `dynamic._serve_safe_prefix` so that each prefix it serves, and
    the state after it, is checked against `step_safe_prefix` on a copy of
    the state; the cached floors, which the two compute at other totals,
    must be sound and cached for the same keys. Returns the list of prefix
    lengths served."""
    served = []
    serve_prefix = dynamic._serve_safe_prefix

    def checked(state, block):
        try:
            stop, stepped = step_safe_prefix(state, block)
        except InvalidRequestError:  # the bulk path must raise it too
            return serve_prefix(state, block)
        served.append(serve_prefix(state, block))
        assert served[-1] == stop
        assert bulk_fields(state) == bulk_fields(stepped)
        assert_floors_sound(state)
        return stop

    monkeypatch.setattr(dynamic, "_serve_safe_prefix", checked)
    return served


@pytest.fixture
def bulk_served(monkeypatch, request):
    """Set the block sizes to `request.param` (None keeps the module's) and
    return the list of prefix lengths `_serve_safe_prefix` serves, each
    checked by `check_bulk_prefixes`."""
    if request.param is not None:
        set_block_sizes(monkeypatch, *request.param)
    return check_bulk_prefixes(monkeypatch)


def assert_bulk_runs_match_the_oracle(n: int, trace, smoothing: str, alpha=4) -> None:
    """Runs with no sink, over the whole trace, in chunks of odd sizes and
    from a generator, all end in `serve_oracle`'s state."""
    oracle_state = init(n, alpha, smoothing)
    oracle = [serve_oracle(oracle_state, key) for key in trace]
    runs = [[trace]] + [[trace[i:i + k] for i in range(0, len(trace), k)] for k in (7, 97, 301)]
    runs.append([(key for key in trace)])
    for chunks in runs:
        state = init(n, alpha, smoothing)
        for chunk in chunks:
            report = run(state, chunk)
        assert state == oracle_state and state.depths == oracle_state.depths
        assert report.m == len(trace) and report.search_cost == sum(rec.depth for rec in oracle)
        assert report.rebuilds == sum(rec.rebuilt for rec in oracle)


@pytest.mark.parametrize("bulk_served", SMALL_BLOCKS, indirect=True)
@pytest.mark.parametrize("smoothing", [SMOOTHING_LAPLACE, SMOOTHING_NONE])
@pytest.mark.parametrize("n, workload, m", [
    (1, "uniform", 30),
    (5, "zipf:1.5", 300),
    (16, "uniform", 800),
    (64, "zipf:1.0", 2000),
    (300, "zipf:1.0", 1500),
    (8, "uniform", 30000),
])
def test_bulk_runs_match_the_step_oracle(bulk_served, smoothing, n, workload, m):
    trace = generate(parse_workload(workload, n=n, m=m, seed=n))
    assert_bulk_runs_match_the_oracle(n, trace, smoothing)
    if n == 64:  # few rebuilds: the bulk path serves much of the five runs' 5 m requests
        assert sum(bulk_served) > 2 * m
    if m == 30000:  # long enough for whole blocks at the cap
        assert dynamic._BLOCK_MAX in bulk_served


@pytest.mark.parametrize("bulk_served", SMALL_BLOCKS, indirect=True)
@pytest.mark.parametrize("smoothing", [SMOOTHING_LAPLACE, SMOOTHING_NONE])
def test_bulk_runs_match_the_oracle_on_surges(bulk_served, smoothing):
    assert_bulk_runs_match_the_oracle(8, checks.cold_surge_trace(8, 5), smoothing, alpha=2)
    floors_reset = [1] + [2, 3, 4] * 20 + [1] + [2] * 80 + [1] * 40
    assert_bulk_runs_match_the_oracle(4, floors_reset, smoothing, alpha=2)
    assert bulk_served


def relabelled_zipf_trace(n: int, phases: int, m: int, seed: int) -> list[int]:
    """`phases` runs of `m` requests of one `zipf:1.5` law, each under a
    fresh random relabelling of the keys: the keys hot in one phase are
    cold in the next, so many keys come near their drift floors."""
    rng = random.Random(seed)
    trace = []
    for phase in range(phases):
        labels = rng.sample(range(1, n + 1), n)
        law = parse_workload("zipf:1.5", n=n, m=m, seed=seed + phase)
        trace += [labels[key - 1] for key in generate(law)]
    return trace


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 24),
    seed=st.integers(0, 10**6),
    phases=st.integers(2, 8),
    m=st.integers(10, 300),
    surge=st.booleans(),
    smoothing=st.sampled_from([SMOOTHING_LAPLACE, SMOOTHING_NONE]),
)
def test_bulk_runs_of_near_floor_traces_end_in_the_oracle_state(
    n, seed, phases, m, surge, smoothing
):
    # whole, in random list chunks and from a generator, at both block
    # sizes, with each bulk prefix checked by the step oracle
    trace = checks.cold_surge_trace(n, seed) if surge else relabelled_zipf_trace(
        n, phases, m, seed
    )
    oracle_state = init(n, 2, smoothing)
    for key in trace:
        serve_oracle(oracle_state, key)
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(1, len(trace)), min(6, len(trace) - 1)))
    chunked = [trace[a:b] for a, b in zip([0, *cuts], [*cuts, len(trace)])]
    for sizes in SMALL_BLOCKS:
        with pytest.MonkeyPatch.context() as patch:
            if sizes is not None:
                set_block_sizes(patch, *sizes)
            check_bulk_prefixes(patch)
            for chunks in ([trace], chunked, [(key for key in trace)]):
                state = init(n, 2, smoothing)
                for chunk in chunks:
                    run(state, chunk)
                assert state == oracle_state and state.depths == oracle_state.depths
                assert_floors_sound(state)


def test_the_step_oracle_catches_late_floor_admission(monkeypatch):
    # the mutant judges keys at the block's last total, so a key that drifts
    # inside a block is served on in bulk; the run still rebuilds, late
    trace = relabelled_zipf_trace(16, 4, 3000, seed=3)
    oracle_state = init(16, 2)
    for key in trace:
        serve_oracle(oracle_state, key)
    mutants.late_floor_admission(monkeypatch)
    mutated = init(16, 2)
    run(mutated, trace)
    assert mutated.rebuilds and mutated != oracle_state
    check_bulk_prefixes(monkeypatch)
    with pytest.raises(AssertionError):
        run(init(16, 2), trace)


# Laplace counts on hand-set tree weights of total 100; raw mode takes each
# count plus one, which gives the same observed weights and totals. Key 1
# (and key 2 in the (1, 1, 98) case, keys 2 and 3 in the last one) has tree
# weight 1, so its drift floor is 3 at every observed total from 101 to 149:
# the block below starts at 101, and the request that takes the key's
# observed weight to 3 rebuilds.
@pytest.mark.parametrize("bulk_served", [(8, 8)], indirect=True)
@pytest.mark.parametrize("smoothing", [SMOOTHING_LAPLACE, SMOOTHING_NONE])
@pytest.mark.parametrize("tree_weights, counts, block, stop", [
    ((1, 49, 50), (1, 48, 48), [1, 3, 3, 3, 3, 3, 3, 3], 0),  # key 1 at its first request
    ((1, 49, 50), (0, 48, 49), [1, 3, 3, 1, 3, 3, 3, 3], 3),  # key 1 mid-block
    ((1, 49, 50), (0, 48, 49), [1, 3, 3, 3, 3, 3, 3, 1], 7),  # key 1 last in the block
    ((1, 1, 98), (0, 1, 96), [1, 3, 3, 2, 3, 3, 1, 3], 3),    # key 2, before key 1 at 6
    ((1, 49, 50), (0, 48, 49), [2, 3, 3, 1, 2, 3, 1, 3], 6),  # keys 2 and 3 served, then taken back
    ((1, 1, 1, 97), (0, 0, 0, 96), [1, 2, 3, 3, 2, 1, 4, 4], 3),  # keys 1, 2, 3 each shrink it
])
def test_bulk_prefix_ends_where_a_key_reaches_its_floor(
    bulk_served, smoothing, tree_weights, counts, block, stop
):
    delta = dynamic._delta(smoothing)

    def hand_made_state():
        state = init(len(tree_weights), 2, smoothing)
        state.tree_weights, state.tree_total = tree_weights, 100
        raw = [c + 1 - delta for c in counts]
        state.counts, state.t = raw, sum(raw)
        return state

    state, oracle_state, exact_state = hand_made_state(), hand_made_state(), hand_made_state()
    start = state.t
    trace = block + [3] * 8
    oracle = [serve_oracle(oracle_state, key) for key in trace]
    assert next(rec.t for rec in oracle if rec.rebuilt) == start + stop + 1
    run(state, trace)
    assert bulk_served[0] == stop
    assert state == oracle_state and state.depths == oracle_state.depths
    run(exact_state, trace, on_step=lambda rec: None)
    assert state.floors == exact_state.floors  # `==` on states skips the floors


@pytest.mark.parametrize("bulk_served", SMALL_BLOCKS, indirect=True)
@pytest.mark.parametrize("bad_at", [3, 300])
def test_bulk_run_writes_its_counters_back_before_errors(bulk_served, bad_at):
    # a bad key in the first block, and one past the first blocks: the run
    # with no sink raises the same error and leaves the same state as a run
    # that serves one request at a time
    trace = generate(parse_workload("zipf:1.0", n=5, m=400, seed=2))
    trace[bad_at] = 9
    errors, states = [], []
    for on_step in (lambda rec: None, None):
        state = init(5, 2, SMOOTHING_NONE)
        with pytest.raises(InvalidRequestError) as caught:
            run(state, trace, on_step=on_step)
        errors.append(str(caught.value))
        states.append(state)
    assert errors == ["key 9 outside 1..5"] * 2
    sink_run, bulk_run = states
    assert bulk_run.t == bad_at and bulk_run == sink_run
    assert bulk_run.depths == sink_run.depths
    assert run(bulk_run, [1]).m == bad_at + 1


@pytest.mark.parametrize("bad_key", [1.5, 2.0, "3", None])
@pytest.mark.parametrize("how", ["sink", "no sink", "step"])
def test_a_key_that_is_not_an_integer_is_a_typed_error(bad_key, how):
    # the bad key's block holds no equal integer key, so the bulk path
    # cannot count it as one
    state = init(3, 2)
    run(state, [1, 2, 3] * 50)
    with pytest.raises(InvalidRequestError) as caught:
        if how == "step":
            step(state, 1)
            step(state, bad_key)
        else:
            run(state, [1, bad_key], on_step=(lambda rec: None) if how == "sink" else None)
    assert str(caught.value) == f"key {bad_key!r} is not an integer"
    assert state.t == 151 and state.counts == [51, 50, 50]
    assert run(state, [2]).m == 152


def test_a_sinks_own_type_error_escapes_as_is():
    def sink(rec):
        raise TypeError("raised by the sink")

    state = init(3, 2)
    with pytest.raises(TypeError, match="raised by the sink"):
        run(state, [1, 2], on_step=sink)
    assert state.t == 1

def test_run_builds_no_tree(monkeypatch):
    # a rebuild recomputes the depth vector only; the parent pass that makes
    # a tree of it runs once per `state.tree` read and never inside `run`
    trace = generate(parse_workload("zipf:1.5", n=256, m=4000, seed=3))
    state = init(256, 4, SMOOTHING_NONE)
    passes = []
    links = trees._links
    monkeypatch.setattr(trees, "_links", lambda depths: passes.append(depths) or links(depths))
    report = run(state, trace)
    assert report.rebuilds > 10
    assert passes == []
    tree = state.tree
    assert passes == [state.depths]
    assert state.tree == tree
    assert len(passes) == 2
    assert tree == tree_from_depths(range(1, 257), state.depths)


def test_run_memory_does_not_grow_with_trace_length():
    def peak_bytes(m):
        trace = generate(parse_workload("zipf:1.0", n=16, m=m, seed=1))
        state = init(16, 8)
        gc.collect()
        tracemalloc.start()
        try:
            run(state, trace)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # past the first blocks, which double up to the cap within 16,128 requests
    short, long = peak_bytes(160_000), peak_bytes(640_000)
    # an O(m) log would add at least a pointer per request: 3.8 MB here
    assert long - short < 8192, (short, long)


def test_generator_fed_run_memory_does_not_grow_with_trace_length():
    base = generate(parse_workload("zipf:1.0", n=64, m=4096, seed=1))

    def peak_bytes(m):
        state = init(64, 8)
        gc.collect()
        tracemalloc.start()
        try:
            run(state, (key for key in islice(cycle(base), m)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak_bytes(100_000), peak_bytes(1_000_000)
    # a window holds 8 bytes a request, and so does a block; holding the
    # trace would take 8 MB here
    assert long < 32 * dynamic._WINDOW, long
    assert long - short < 8192, (short, long)


def test_single_key_universe():
    report = run(init(1, 2), [1] * 40)
    assert report.search_cost == 40
    assert report.rebuilds == 0
    assert report.total >= 40
    assert report.entropy_empirical == pytest.approx(0.0, abs=1e-12)


def test_theorem_applicability_flag():
    threshold = theorem_threshold(5, Fraction(2))
    assert threshold == pytest.approx(20.0)
    short = run(init(5, 2), generate(parse_workload("uniform", n=5, m=19, seed=1)))
    assert short.theorem_applicable is False
    exact = run(init(5, 2), generate(parse_workload("uniform", n=5, m=20, seed=1)))
    assert exact.theorem_applicable is True


def test_report_dict_schema():
    report = run(init(5, 2), generate(parse_workload("uniform", n=5, m=25, seed=4)))
    data = report.to_dict()
    assert set(data) == {
        "n", "m", "alpha", "smoothing", "search_cost", "adjust_cost", "rebuilds",
        "total", "entropy_empirical", "theorem_bound", "theorem_applicable",
    }
    assert data["alpha"] == 2
    report.stat_cost = 10
    report.rho = 1.5
    assert "stat_cost" in report.to_dict() and "rho" in report.to_dict()


@pytest.mark.parametrize("smoothing", [SMOOTHING_LAPLACE, SMOOTHING_NONE])
def test_report_entropy_read_on_demand_equals_the_eager_formula(smoothing):
    trace = generate(parse_workload("zipf:1.0", n=64, m=6000, seed=99))
    report = run(init(64, 4, smoothing), trace)
    counts = [0] * 64
    for key in trace:
        counts[key - 1] += 1
    m = sum(counts)
    h = 0.0
    for w in counts:  # as `run` once computed it, adding left to right
        if w > 0:
            h += (w / m) * math.log2(m / w)
    data = report.to_dict()
    assert data["entropy_empirical"].hex() == h.hex()
    assert data["theorem_bound"].hex() == (m * (8.0 + h)).hex()
    assert report.theorem_bound == report.m * (8.0 + report.entropy_empirical)


def test_chunked_run_computes_the_entropy_only_when_read(monkeypatch):
    calls = []
    entropy = dynamic.entropy_of_weights
    monkeypatch.setattr(dynamic, "entropy_of_weights", lambda w: calls.append(w) or entropy(w))
    trace = generate(parse_workload("zipf:1.5", n=128, m=8000, seed=7))
    state = init(128, 8)
    for a in range(0, len(trace), 1000):
        report = run(state, trace[a:a + 1000])
    assert calls == []
    bound = report.theorem_bound
    data = report.to_dict()
    assert len(calls) == 1 and calls[0] == report.weights
    assert data["theorem_bound"] == bound == report.m * (8.0 + report.entropy_empirical)
    assert len(calls) == 1  # read three times, computed once


def test_fractional_alpha_accounting():
    state = init(5, Fraction(5, 2), SMOOTHING_NONE)
    report = run(state, WORKED_TRACE)
    assert report.adjust_cost == Fraction(5, 2) * report.rebuilds
    assert report.total == report.search_cost + report.adjust_cost


@pytest.mark.parametrize("smoothing", [SMOOTHING_LAPLACE, SMOOTHING_NONE])
def test_depth_pre_of_a_key_whose_depth_no_request_computed(smoothing):
    # A key of positive tree weight never drifts at its first request after
    # a rebuild, so no run reaches this: counts edited by hand make a key
    # drift whose depth in the current tree no walk has computed yet. Its
    # depth_pre must still be that depth, read before the swap.
    trace = generate(parse_workload("zipf:1.0", n=64, m=3000, seed=8))
    records = []
    run(init(64, 4, smoothing), trace, on_step=records.append)
    trace = trace[:[rec.t for rec in records if rec.rebuilt][-1]]  # ends with a rebuild
    state, oracle_state = init(64, 4, smoothing), init(64, 4, smoothing)
    run(state, trace)
    for key in trace:
        serve_oracle(oracle_state, key)
    cold = state.known_depths.index(0) + 1
    old_depth = trees.coded_depths(state.tree_weights, state.tree_total)[cold - 1]
    for s in (state, oracle_state):
        counts = list(s.counts)
        counts[cold - 1] += len(trace)
        s.counts, s.t = counts, 2 * len(trace)
    rec = step(state, cold)
    assert rec.rebuilt and rec.depth_pre == old_depth
    assert rec == serve_oracle(oracle_state, cold)
    assert state == oracle_state and state.depths == oracle_state.depths


def test_raw_mode_depth_pre_of_an_unseen_key_on_a_grafted_chain():
    # the first request rebuilds over key 1 alone and grafts 2..6 as a right
    # chain; unseen key 5 then fires at once, from depth 5 on that chain
    state, oracle_state = init(6, 2, SMOOTHING_NONE), init(6, 2, SMOOTHING_NONE)
    records = [step(state, 1), step(state, 5)]
    assert records == [serve_oracle(oracle_state, key) for key in (1, 5)]
    assert records[1].rebuilt and records[1].depth_pre == 5
    assert state.depths == oracle_state.depths


def test_chunked_runs_and_steps_across_the_switch_to_on_demand_depths():
    # raw mode computes each depth at its first request after a rebuild,
    # both while some key is unseen (its tree weight is zero) and once all
    # are seen
    n = 24
    trace = generate(parse_workload("uniform", n=n, m=1200, seed=3))
    oracle_state = init(n, 2, SMOOTHING_NONE)
    oracle = [serve_oracle(oracle_state, key) for key in trace]
    state = init(n, 2, SMOOTHING_NONE)
    records, phases = [], set()
    for start in range(0, len(trace), 40):
        block = trace[start:start + 40]
        records += [step(state, key) for key in block[:2]]
        run(state, block[2:], on_step=records.append)
        phases.add((0 in state.tree_weights, 0 in state.known_depths))
    assert records == oracle
    assert state == oracle_state and state.depths == oracle_state.depths
    assert {(True, True), (False, True)} <= phases


def test_raw_rebuilds_with_unseen_keys_take_no_full_walk(monkeypatch):
    # each unseen key's first request rebuilds over a tree with zero
    # weights, and every depth the run reads comes from walks to single keys
    n = 300
    trace = generate(parse_workload("uniform", n=n, m=1500, seed=4))
    oracle_state = init(n, 2, SMOOTHING_NONE)
    oracle = [serve_oracle(oracle_state, key) for key in trace]

    def full_walk(self):
        raise AssertionError("a rebuild computed every depth")

    monkeypatch.setattr(trees.LazyCodedDepths, "fill", full_walk)
    state = init(n, 2, SMOOTHING_NONE)
    records = []
    run(state, trace, on_step=records.append)
    assert records == oracle
    assert state.rebuilds > 250 and 0 in state.tree_weights
    monkeypatch.undo()
    assert state == oracle_state and state.depths == oracle_state.depths


def test_a_run_with_no_sink_takes_no_walk_for_the_dropped_trees_depth(monkeypatch):
    # in raw mode an unseen key's first request always rebuilds, and only
    # its step record reads the key's depth in the tree being dropped
    trace = generate(parse_workload("zipf:1.0", n=128, m=20000, seed=99))
    split = trees._split
    splits = []
    monkeypatch.setattr(trees, "_split", lambda *args: splits.append(None) or split(*args))
    reports, calls = [], []
    for on_step in (lambda rec: None, None):
        splits.clear()
        reports.append(run(init(128, 2, SMOOTHING_NONE), trace, on_step=on_step))
        calls.append(len(splits))
    with_sink, without = calls
    assert reports[0] == reports[1]
    assert without < with_sink, calls


def test_ledger_flags_tree_weights_swapped_without_a_rebuild(monkeypatch):
    # a simulator whose records never flag a rebuild: the guard tests only
    # the requested key, which the new tree serves correctly, so only the
    # ledger's check that the tree weights stayed put sees the swap
    trace = generate(parse_workload("zipf:1.0", n=8, m=300, seed=5))
    clean = []
    run(init(8, 2), trace, on_step=clean.append)
    first = next(rec for rec in clean if rec.rebuilt)
    assert first.t > 1
    record = dynamic.StepRecord
    monkeypatch.setattr(dynamic, "StepRecord", lambda *fields: record(*fields[:5], False))
    state = init(8, 2)
    with pytest.raises(BoundViolationError, match=f"without a rebuild at t={first.t}$"):
        run(state, trace, on_step=RunLedger(state))
    assert state.rebuilds == 1
