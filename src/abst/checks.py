"""Randomized property suites behind `verify` and the acceptance harness.

Every suite takes an explicit seed, returns a list of violation strings
(empty means pass), and uses exact arithmetic wherever the quantity under
test is rational; floats only enter through entropy terms, compared at 1e-9.
The drift-invariant guard and the cost-accounting checks read a run through
its step stream (`RunLedger`), so the simulator's serve loop holds no checks;
`_suite_runs` is how a suite checks a run.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Iterable, Sequence

from .baselines import (
    WeightVector,
    balanced_static_cost,
    brute_force_static_cost,
    optimal_static_cost,
    tree_cost,
)
from .dynamic import (
    SMOOTHING_LAPLACE,
    SMOOTHING_NONE,
    SimulationReport,
    SimulationState,
    StepRecord,
    _delta,
    _drift_floor,
    _observed_weights,
    init,
    run,
    theorem_threshold,
)
from .errors import BoundViolationError
from .matching import bst_to_matchings, matchings_to_bst, route
from .sfe import (
    CodeTable,
    ProbabilityDistribution,
    average_code_length,
    build_sfe_code,
    entropy,
    is_prefix_free,
)
from .trees import coded_depths, depth_map, sfe_to_bst, tree_from_depths
from .workload import DEFAULT_SEED, generate, parse_workload

ENTROPY_TOL = 1e-9

THEOREM_GRID_N = (5, 16, 64)
THEOREM_GRID_ALPHA = (2, 8, 32)
THEOREM_GRID_WORKLOADS = ("uniform", "zipf:1.0", "zipf:1.5")


def random_distribution(
    rng: random.Random, n_lo: int = 2, n_hi: int = 128
) -> ProbabilityDistribution:
    """Random exact distribution from integer weights.

    Occasionally forces a power-of-two total so some probabilities land
    exactly on dyadic boundaries, where ceiling logs are most fragile.
    """
    n = rng.randint(n_lo, n_hi)
    if rng.random() < 0.2:
        weights = [2 ** rng.randrange(0, 4) for _ in range(n - 1)]
        total = 1 << (sum(weights)).bit_length()
        weights.append(total - sum(weights))
    else:
        weights = [rng.randint(1, 1000) for _ in range(n)]
        total = sum(weights)
    return ProbabilityDistribution(tuple(Fraction(w, total) for w in weights))


def depth_bound_ok(depth: int, p: Fraction) -> bool:
    """Exact test of depth < log2(1/p) + 3 via integer comparison."""
    e = depth - 3
    num, den = p.numerator, p.denominator
    if e >= 0:
        return (num << e) < den
    return num < (den << -e)


def _ceil_log2_oracle(p: Fraction) -> int:
    # independent route: compare 1/p against successive powers of two
    k = 0
    inv = Fraction(p.denominator, p.numerator)
    while inv > 2**k:
        k += 1
    return k


def suite_code_properties(cases: int, n_hi: int, seed: int) -> list[str]:
    """Prefix-freeness, entropy sandwich, length formula, codeword order,
    determinism."""
    rng = random.Random(seed)
    violations: list[str] = []
    for case in range(cases):
        dist = random_distribution(rng, 2, n_hi)
        table = build_sfe_code(dist)
        words = table.codewords()
        if not is_prefix_free(words):
            violations.append(f"case {case}: codewords not prefix-free")
        if any(a >= b for a, b in zip(words, words[1:])):
            violations.append(f"case {case}: codewords not strictly increasing")
        for entry in table.entries:
            if entry.length - 1 != _ceil_log2_oracle(entry.p):
                violations.append(
                    f"case {case}: length {entry.length} disagrees with oracle for p={entry.p}"
                )
                break
        length = average_code_length(table)
        h = entropy(dist)
        if not (float(length) >= h + 1 - ENTROPY_TOL):
            violations.append(
                f"case {case}: L={float(length)} below H+1={h + 1} for n={dist.n}"
            )
        if not (float(length) < h + 2 + ENTROPY_TOL):
            violations.append(
                f"case {case}: L={float(length)} reaches H+2={h + 2} for n={dist.n}"
            )
        if build_sfe_code(dist) != table:
            violations.append(f"case {case}: rebuild is not bit-identical")
    return violations


def suite_tree_properties(cases: int, n_hi: int, seed: int) -> list[str]:
    """Depth bound, never deeper than the code trie leaf, symmetric order,
    determinism of the coded tree."""
    rng = random.Random(seed)
    violations: list[str] = []
    for case in range(cases):
        dist = random_distribution(rng, 2, n_hi)
        table = build_sfe_code(dist)
        tree = sfe_to_bst(dist)
        depths = depth_map(tree)
        if list(tree.keys) != list(range(1, dist.n + 1)):
            violations.append(f"case {case}: output violates symmetric order")
        for entry in table.entries:
            key, p = entry.key, entry.p
            if not depth_bound_ok(depths[key], p):
                violations.append(
                    f"case {case}: depth {depths[key]} >= log2(1/p)+3 for key {key}, p={p}"
                )
            # a trie leaf sits one below its codeword's last bit
            if depths[key] > entry.length + 1:
                violations.append(
                    f"case {case}: key {key} deeper than in the trie "
                    f"({depths[key]} > {entry.length + 1})"
                )
        if sfe_to_bst(dist) != tree:
            violations.append(f"case {case}: conversion not deterministic")
    return violations


def suite_matching_properties(cases: int, n_hi: int, seed: int) -> list[str]:
    """Round-trip identity and route length equals depth."""
    rng = random.Random(seed)
    violations: list[str] = []
    for case in range(cases):
        dist = random_distribution(rng, 2, n_hi)
        tree = sfe_to_bst(dist)
        pair = bst_to_matchings(tree)
        try:
            back = matchings_to_bst(pair)
        except Exception as exc:
            violations.append(f"case {case}: round trip raised {exc}")
            continue
        if back != tree:
            violations.append(f"case {case}: round trip changed the tree")
        depths = depth_map(tree)
        for key in range(1, dist.n + 1):
            if len(route(pair, key)) != depths[key]:
                violations.append(
                    f"case {case}: route length != depth for key {key}"
                )
                break
    return violations


def suite_baseline_properties(cases: int, n_hi: int, seed: int) -> list[str]:
    """DP equals brute force; certificate and baseline orderings hold."""
    rng = random.Random(seed)
    violations: list[str] = []
    for case in range(cases):
        n = rng.randint(1, n_hi)
        weights = WeightVector(
            tuple(rng.randint(0, 20) for _ in range(n - 1)) + (rng.randint(1, 20),)
        )
        cost, tree = optimal_static_cost(weights)
        oracle = brute_force_static_cost(weights)
        if cost != oracle:
            violations.append(
                f"case {case}: DP={cost} != brute force={oracle} for w={weights.weights}"
            )
        if tree_cost(tree, weights) != cost:
            violations.append(f"case {case}: argmin tree does not evaluate to its cost")
        if list(tree.keys) != list(range(1, n + 1)):
            violations.append(f"case {case}: argmin tree violates symmetric order")
        if cost > balanced_static_cost(weights):
            violations.append(f"case {case}: optimal exceeds the balanced tree")
        coded = tree_from_depths(range(1, n + 1), coded_depths(weights.weights, weights.total))
        if cost > tree_cost(coded, weights):
            violations.append(f"case {case}: optimal exceeds the coded tree")
    return violations


def grid_m(n: int, alpha: int) -> int:
    """Trace length for a guarantee-regime cell: ceil(2 n alpha log2 alpha),
    at least 20."""
    return max(20, math.ceil(theorem_threshold(n, Fraction(alpha))))


@dataclasses.dataclass
class RebuildRecord:
    """A tree swap: who fired it, their count now and at the previous swap."""

    t: int
    key: int
    count_now: int
    count_at_prev: int
    prev_t: int


def guarded_invariant_holds(state: SimulationState, keys: Iterable[int] | None = None) -> bool:
    """The tree probability of each of `keys` (default: every key) is at
    least half its current frequency."""
    counts, delta = state.counts, _delta(state.smoothing)
    total = state.t + delta * state.n
    tree_weights, tree_total = state.tree_weights, state.tree_total
    if keys is None:
        keys = range(1, state.n + 1)
    return all(
        counts[k - 1] + delta < _drift_floor(tree_weights[k - 1], tree_total, total) for k in keys
    )


class RunLedger:
    """The `on_step` sink of every `run` and `step` call on `state`. It keeps
    what `check_report_bounds` reads: each key's count and sum of log2(t / w)
    (`counts`, `qlog`, indexed by key - 1), a `RebuildRecord` per rebuild
    (`rebuilds`) and the `check_served_depth` findings (`deep`). It raises
    `BoundViolationError` at the first step after which the drift invariant
    fails, testing every key on its first step and after a rebuild, and the
    requested key otherwise: between rebuilds a request only lowers the other
    keys' frequencies, so a key undrifted after a step stays so until its own
    request or a rebuild, and the ledger sees any violation that a test of
    every key at every step would see, no later. The scan skips a tree whose
    weights and total are the observed ones: every key has W/S = x/T there, so
    none drifts. That rule trusts `rec.rebuilt`, so the ledger also raises if
    the tree weights are no longer the tuple it saw at the previous step and
    the record flags no rebuild: the simulator replaces that tuple only when
    it rebuilds. A state edited between steps needs a fresh ledger."""

    def __init__(self, state: SimulationState):
        self.state = state
        self.counts = [0] * state.n
        self.qlog = [0.0] * state.n
        self.rebuilds: list[RebuildRecord] = []
        self.deep: list[str] = []
        self._counts_at_rebuild = [0] * state.n
        self._scan = True  # the guard tests every key on the first step
        self._tree_weights = state.tree_weights

    def __call__(self, rec: StepRecord) -> None:
        i = rec.key - 1
        self.counts[i] += 1
        if rec.rebuilt:
            prev_t = self.rebuilds[-1].t if self.rebuilds else 0
            at_prev = self._counts_at_rebuild[i]
            self.rebuilds.append(RebuildRecord(rec.t, rec.key, rec.count, at_prev, prev_t))
            self._counts_at_rebuild = list(self.counts)
        self.qlog[i] += math.log2(rec.t / rec.count)
        state = self.state
        if not (rec.rebuilt or self._scan or state.tree_weights is self._tree_weights):
            raise BoundViolationError(f"tree weights changed without a rebuild at t={rec.t}")
        self._tree_weights = state.tree_weights
        self.deep += check_served_depth(rec, state.n, state.smoothing)
        keys: tuple[int, ...] | None = (rec.key,)
        if self._scan or rec.rebuilt:
            observed = _observed_weights(state.counts, state.t, _delta(state.smoothing))
            keys = () if (state.tree_weights, state.tree_total) == observed else None
        if not guarded_invariant_holds(state, keys):
            raise BoundViolationError(f"tree probability fell below half frequency after t={rec.t}")
        self._scan = False


def _ledger_run(
    n: int, alpha: int, trace: Sequence[int], smoothing: str, round_trip: bool = False
) -> tuple[SimulationReport, RunLedger]:
    """Run `trace` from a fresh state with a `RunLedger` as its sink, which
    guards the drift invariant at each step; with `round_trip`, each rebuilt
    tree must also come back unchanged from its matchings. Returns the
    report and the ledger."""
    state = init(n, alpha, smoothing)
    ledger = RunLedger(state)

    def round_tripped(rec: StepRecord) -> None:
        ledger(rec)
        if rec.rebuilt and matchings_to_bst(bst_to_matchings(state.tree)) != state.tree:
            raise BoundViolationError(f"matchings round trip changed the tree rebuilt at t={rec.t}")

    return run(state, trace, on_step=round_tripped if round_trip else ledger), ledger


def _cell_trace(n: int, alpha: int, workload: str, seed: int) -> list[int]:
    return generate(parse_workload(workload, n=n, m=grid_m(n, alpha), seed=seed))


def check_report_bounds(report: SimulationReport, ledger: RunLedger) -> list[str]:
    """Cost-accounting invariants on a finished run whose steps all fed `ledger`.

    Checks, in order: that the ledger saw every request and rebuild, count
    doubling between consecutive rebuilds, the per-key and aggregate
    frequency-log bounds, the adjustment-cost cap, the total-cost guarantee
    when applicable, internal consistency of the report's totals, and the
    ledger's served-depth findings.
    """
    v: list[str] = []
    m = report.m
    tol = ENTROPY_TOL * max(1.0, m)
    seen = sum(ledger.counts)
    if seen < m or len(ledger.rebuilds) < report.rebuilds:
        v.append(f"ledger saw {seen} requests and {len(ledger.rebuilds)} rebuilds "
                 f"of the report's {m} and {report.rebuilds}")
    for rec in ledger.rebuilds:
        if not 2 * rec.count_at_prev < rec.count_now:
            v.append(
                f"rebuild at t={rec.t}: count {rec.count_now} did not double "
                f"from {rec.count_at_prev}"
            )
    qlogs = [(key, w, q) for key, (w, q) in enumerate(zip(report.weights, ledger.qlog), 1) if w]
    for key, w, qlog in qlogs:
        limit = w * math.log2(m / w) + 2 * w
        if qlog > limit + tol:
            v.append(f"key {key}: frequency-log sum {qlog:.6f} > {limit:.6f}")
    total_qlog = reduce(add, [q for _, _, q in qlogs], 0.0)  # as `entropy_of_weights` adds
    agg_limit = m * report.entropy_empirical + 2 * m
    if total_qlog > agg_limit + tol:
        v.append(f"aggregate frequency-log sum {total_qlog:.6f} > {agg_limit:.6f}")
    adjust_limit = theorem_threshold(report.n, report.alpha) + m
    if report.alpha >= 2 and float(report.adjust_cost) > adjust_limit + tol:
        v.append(f"adjust cost {float(report.adjust_cost)} > {adjust_limit:.6f}")
    if report.theorem_applicable and float(report.total) > report.theorem_bound + tol:
        v.append(
            f"total {float(report.total)} > bound {report.theorem_bound:.6f} "
            f"(n={report.n}, alpha={report.alpha}, m={m})"
        )
    if report.total != report.search_cost + report.adjust_cost:
        v.append("total != search + adjust")
    if report.adjust_cost != report.alpha * report.rebuilds:
        v.append("adjust != alpha * rebuilds")
    return v + ledger.deep


def check_served_depth(rec: StepRecord, n: int, smoothing: str) -> list[str]:
    """A served key is less than log2(1/q) + 4 deep, exactly.

    q = (w+d)/(t+dn) is the key's observed frequency after the step. The
    drift invariant keeps its tree probability p at q/2 or more, and a key is
    less than log2(1/p) + 3 deep in a coded tree (at most its codeword length
    plus one) and in the balanced start tree (p = 1/n). So
    (w+d) 2^depth < (t+dn) 2^4. Takes one step's record, so that `RunLedger`
    can apply it to every step of a run without keeping the steps.
    """
    delta = _delta(smoothing)
    if (rec.count + delta) << rec.depth < (rec.t + delta * n) << 4:
        return []
    return [f"t={rec.t}: key {rec.key} served at depth {rec.depth}, not below log2(1/q) + 4"]


def cold_surge_trace(n: int, seed: int) -> list[int]:
    """A trace on which a stale drift floor skips a rebuild (n >= 3): a key
    rests while 4n rounds of the others leave its tree weight high, so its
    second request caches a high drift floor; another key's surge then
    rebuilds, cutting the rested key's tree weight, and its own surge must
    rebuild long before it reaches that floor."""
    rng = random.Random(seed)
    hot, *rest = rng.sample(range(1, n + 1), n)
    rounds = [key for _ in range(4 * n) for key in rng.sample(rest, n - 1)]
    return [hot, *rounds, hot] + [rest[0]] * (16 * n) + [hot] * (8 * n)


def _suite_runs(
    runs: Iterable[tuple[str, int, int, Sequence[int]]], round_trip: bool = False
) -> list[str]:
    """Run each labelled (n, alpha, trace) in both smoothing modes through
    `_ledger_run`, then apply every cost-accounting check. A run that raises,
    as one does at the first step after which the drift invariant fails,
    gives one violation. The trace is then run once more with no sink, which
    serves in bulk wherever no request can drift: a report or counts that
    differ from the ledger run's give one violation."""
    violations: list[str] = []
    for label, n, alpha, trace in runs:
        for smoothing in (SMOOTHING_LAPLACE, SMOOTHING_NONE):
            where = f"{label} {smoothing}"
            try:
                report, ledger = _ledger_run(n, alpha, trace, smoothing, round_trip)
                bulk = run(init(n, alpha, smoothing), trace)
            except Exception as exc:
                violations.append(f"{where}: run failed: {exc}")
                continue
            violations += [f"{where}: {msg}" for msg in check_report_bounds(report, ledger)]
            if (bulk.to_dict(), bulk.weights) != (report.to_dict(), report.weights):
                violations.append(f"{where}: the run with no sink reports {bulk.to_dict()} "
                                  f"and counts {list(bulk.weights)}, the ledger run "
                                  f"{report.to_dict()} and {list(report.weights)}")
    return violations


def fault_injection_selftest() -> list[str]:
    """The prefix-freeness check must flag a deliberately corrupted table."""
    table = build_sfe_code(
        ProbabilityDistribution(
            (Fraction(1, 10), Fraction(2, 10), Fraction(4, 10), Fraction(2, 10), Fraction(1, 10))
        )
    )
    bad_word = table.entries[0].codeword[:-1]  # a prefix of key 1's codeword
    corrupted = CodeTable(
        tuple(
            dataclasses.replace(e, codeword=bad_word) if e.key == 3 else e
            for e in table.entries
        )
    )
    if is_prefix_free(corrupted.codewords()):
        return ["corrupted codeword set passed the prefix-freeness check"]
    return []


def theorem_grid() -> list[tuple[int, int, str]]:
    return [
        (n, a, w)
        for n in THEOREM_GRID_N
        for a in THEOREM_GRID_ALPHA
        for w in THEOREM_GRID_WORKLOADS
    ]


def run_verify(scale: str, seed: int = DEFAULT_SEED) -> dict[str, list[str]]:
    """All suites at the chosen scale; maps suite name to its violations."""
    if scale == "quick":
        code_cases, struct_hi = 80, 48
        baseline_cases, baseline_hi = 40, 6
        cells = [(5, 2, "uniform"), (5, 2, "zipf:1.0"), (16, 8, "zipf:1.0")]
        local = [(5, 2, "uniform", 60), (8, 2, "zipf:1.0", 80)]
    elif scale == "full":
        code_cases, struct_hi = 500, 128
        baseline_cases, baseline_hi = 200, 8
        cells = theorem_grid()
        local = [(5, 2, "uniform", 200), (16, 4, "zipf:1.0", 400)]
    else:
        raise ValueError(f"unknown scale {scale!r}, use quick or full")
    grid = ((f"n={n} alpha={a} {w}", n, a, _cell_trace(n, a, w, seed + 4)) for n, a, w in cells)
    locality = [
        (f"n={n} alpha={a} {w} m={m}", n, a, generate(parse_workload(w, n=n, m=m, seed=seed + 5)))
        for n, a, w, m in local
    ]
    locality.append(("n=8 alpha=2 cold-surge", 8, 2, cold_surge_trace(8, seed + 5)))
    return {
        "code-properties": suite_code_properties(code_cases, struct_hi, seed),
        "tree-properties": suite_tree_properties(code_cases, struct_hi, seed + 1),
        "matching-properties": suite_matching_properties(code_cases, struct_hi, seed + 2),
        "baseline-properties": suite_baseline_properties(baseline_cases, baseline_hi, seed + 3),
        "dynamic-properties": _suite_runs(grid),
        "fault-injection": fault_injection_selftest(),
        "trigger-locality": _suite_runs(locality, round_trip=True),
    }
