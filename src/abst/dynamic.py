"""The online arithmetic BST: rebuild when a key's tree probability drifts
below half its observed frequency.

Costs follow the matching model: serving a request costs the served key's
depth, every tree swap costs a flat `alpha`. Observed frequencies and the
tree's distribution are both integer weights over one total, so the drift
test is an exact integer cross-multiplication.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import BoundViolationError, InvalidRequestError
from .sfe import ProbabilityDistribution, common_weights, entropy_of_weights
from .trees import SearchTree, build_balanced, coded_tree, depth_map

SMOOTHING_LAPLACE = "laplace"
SMOOTHING_NONE = "none"
SMOOTHING_MODES = (SMOOTHING_LAPLACE, SMOOTHING_NONE)


@dataclass
class CounterState:
    """Per-key request counts; invariant: counts sum to t."""

    counts: list[int]
    t: int = 0

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")
        if sum(self.counts) != self.t:
            raise ValueError(f"counts sum to {sum(self.counts)}, t is {self.t}")

    @property
    def n(self) -> int:
        return len(self.counts)

    @classmethod
    def zeros(cls, n: int) -> "CounterState":
        return cls(counts=[0] * n, t=0)


def _observed(counters: CounterState, smoothing: str) -> tuple[Callable[[int], int], int]:
    """Observed weight as a function of a key's count, and the observed total:
    (w + d, t + d n), where add-one smoothing has d = 1 and raw counts d = 0."""
    if smoothing == SMOOTHING_LAPLACE:
        delta = 1
    elif smoothing == SMOOTHING_NONE:
        delta = 0
    else:
        raise ValueError(f"unknown smoothing mode {smoothing!r}")
    return delta.__add__, counters.t + delta * len(counters.counts)


def _observed_weights(counters: CounterState, smoothing: str) -> tuple[tuple[int, ...], int]:
    """Observed weights of keys 1..n and their total."""
    observe, total = _observed(counters, smoothing)
    return tuple(map(observe, counters.counts)), total


def empirical_q(counters: CounterState, key: int, smoothing: str) -> Fraction:
    """Observed frequency of `key`: w/t raw, (w+1)/(t+n) add-one smoothed."""
    observe, total = _observed(counters, smoothing)
    if total < 1:
        raise ValueError("raw frequency is undefined before the first request")
    return Fraction(observe(counters.counts[key - 1]), total)


@dataclass
class StepRecord:
    """One served request; `depth_pre` is the key's depth in the tree that
    was current before any rebuild, so either cost accounting can be
    recomputed from the log."""

    t: int
    key: int
    count: int
    depth: int
    depth_pre: int
    rebuilt: bool


@dataclass
class RebuildRecord:
    """A tree swap: who fired it, their count now and at the previous swap."""

    t: int
    key: int
    count_now: int
    count_at_prev: int
    prev_t: int


@dataclass
class SimulationReport:
    n: int
    m: int
    alpha: Fraction
    smoothing: str
    search_cost: int
    adjust_cost: Fraction
    rebuilds: int
    total: Fraction
    entropy_empirical: float
    theorem_bound: float
    theorem_applicable: bool
    weights: tuple[int, ...]
    stat_cost: int | None = None
    rho: float | None = None
    rebuild_log: list[RebuildRecord] = field(default_factory=list, repr=False)
    qlog_by_key: dict[int, float] = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "m": self.m,
            "alpha": _as_number(self.alpha),
            "smoothing": self.smoothing,
            "search_cost": self.search_cost,
            "adjust_cost": _as_number(self.adjust_cost),
            "rebuilds": self.rebuilds,
            "total": _as_number(self.total),
            "entropy_empirical": self.entropy_empirical,
            "theorem_bound": self.theorem_bound,
            "theorem_applicable": self.theorem_applicable,
        }
        if self.stat_cost is not None:
            out["stat_cost"] = self.stat_cost
            out["rho"] = self.rho
        return out


def _as_number(x: Fraction | int) -> int | float:
    frac = Fraction(x)
    return int(frac) if frac.denominator == 1 else float(frac)


@dataclass
class SimulationState:
    """Mutable state of one run; confine to a single execution context."""

    n: int
    alpha: Fraction
    smoothing: str
    counters: CounterState
    tree: SearchTree
    tree_weights: tuple[int, ...]  # the tree's distribution: weight / tree_total
    tree_total: int
    depth_by_key: dict[int, int]
    search_cost: int = 0
    rebuilds: int = 0
    last_rebuild_t: int = 0
    counts_at_last_rebuild: list[int] = field(default_factory=list)
    rebuild_log: list[RebuildRecord] = field(default_factory=list)
    qlog_by_key: dict[int, float] = field(default_factory=dict)

    @property
    def adjust_cost(self) -> Fraction:
        return self.alpha * self.rebuilds


def init(n: int, alpha, smoothing: str = SMOOTHING_LAPLACE) -> SimulationState:
    """Fresh state: balanced tree, uniform tree distribution, zero counts.

    alpha below 2 is accepted with a warning; the cost-bound guarantee does
    not apply there and reports flag themselves not applicable.
    """
    if n < 1:
        raise ValueError("need at least one key")
    if smoothing not in SMOOTHING_MODES:
        raise ValueError(f"unknown smoothing mode {smoothing!r}")
    alpha = Fraction(alpha)
    _alpha_float(alpha)
    if alpha < 2:
        warnings.warn(
            "alpha < 2: accepted, but the total-cost guarantee is off",
            RuntimeWarning,
            stacklevel=2,
        )
    tree = build_balanced(n)
    return SimulationState(
        n=n,
        alpha=alpha,
        smoothing=smoothing,
        counters=CounterState.zeros(n),
        tree=tree,
        tree_weights=(1,) * n,
        tree_total=n,
        depth_by_key=depth_map(tree),
        counts_at_last_rebuild=[0] * n,
    )


def tree_for_probs(probs: Sequence[Fraction]) -> SearchTree:
    """Biased tree for a probability vector that may contain zeros.

    The nonzero probabilities must form a distribution. Zero-probability keys
    (possible in raw-frequency mode before every key has been seen) are
    grafted as leaves, see `coded_tree`.
    """
    probs = [Fraction(p) for p in probs]
    ProbabilityDistribution(tuple(p for p in probs if p))
    weights, total = common_weights(probs)
    return coded_tree(weights, total, range(1, len(probs) + 1))[0]


def _drifted(state: SimulationState, key: int, w: int, total: int) -> bool:
    """True iff the tree gives `key` less than half its observed frequency
    w/total: 2 W_k total < S w for tree weight W_k over tree total S."""
    return 2 * state.tree_weights[key - 1] * total < state.tree_total * w


def _serve(state: SimulationState, key: int) -> tuple[bool, int, int]:
    """Serve one request: count it, rebuild if the key drifted, then search.
    Returns (rebuilt, depth_pre, depth).

    Order matters: counters update first, the drift test compares the tree
    probability against half the updated frequency, and the request is served
    on the post-rebuild tree.
    """
    if not 1 <= key <= state.n:
        raise InvalidRequestError(f"key {key} outside 1..{state.n}")
    c = state.counters
    c.counts[key - 1] += 1
    c.t += 1
    t = c.t
    w = c.counts[key - 1]
    observe, total = _observed(c, state.smoothing)
    fired = _drifted(state, key, observe(w), total)
    depth_pre = state.depth_by_key[key]
    if fired:
        state.rebuild_log.append(
            RebuildRecord(
                t=t,
                key=key,
                count_now=w,
                count_at_prev=state.counts_at_last_rebuild[key - 1],
                prev_t=state.last_rebuild_t,
            )
        )
        weights, total = _observed_weights(c, state.smoothing)
        state.tree, state.depth_by_key = coded_tree(weights, total, range(1, state.n + 1))
        state.tree_weights, state.tree_total = weights, total
        state.rebuilds += 1
        state.counts_at_last_rebuild = list(c.counts)
        state.last_rebuild_t = t
    depth = state.depth_by_key[key]
    state.search_cost += depth
    state.qlog_by_key[key] = state.qlog_by_key.get(key, 0.0) + math.log2(t / w)
    return fired, depth_pre, depth


def _record(state: SimulationState, key: int, served: tuple[bool, int, int]) -> StepRecord:
    """The record of the request `_serve` just served for `key`."""
    rebuilt, depth_pre, depth = served
    c = state.counters
    return StepRecord(
        t=c.t, key=key, count=c.counts[key - 1], depth=depth, depth_pre=depth_pre,
        rebuilt=rebuilt,
    )


def step(state: SimulationState, key: int) -> StepRecord:
    """Serve one request (see `_serve`) and return its record."""
    return _record(state, key, _serve(state, key))


def guarded_invariant_holds(state: SimulationState) -> bool:
    """Every key's tree probability is at least half its current frequency."""
    weights, total = _observed_weights(state.counters, state.smoothing)
    return not any(
        _drifted(state, key, w, total) for key, w in enumerate(weights, start=1)
    )


def _alpha_float(alpha: Fraction) -> float:
    """alpha as a positive float, in which the cost guarantee and its checks
    are evaluated; ValueError naming alpha if there is none."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    try:
        a = float(alpha)
    except OverflowError:
        a = math.inf
    if not 0 < a < math.inf:
        size = "large" if a else "small"
        shown = format((Decimal(alpha.numerator) / alpha.denominator).normalize(), ".6g")
        raise ValueError(f"alpha {shown} is too {size} for a float")
    return a


def theorem_threshold(n: int, alpha: Fraction) -> float:
    """Minimum trace length for the total-cost guarantee: 2 n alpha log2(alpha)."""
    a = _alpha_float(alpha)
    return 2.0 * n * a * math.log2(a)


def run(
    state: SimulationState,
    trace: Iterable[int],
    check_guarded: bool = False,
    on_step: Callable[[StepRecord], object] | None = None,
) -> SimulationReport:
    """Serve a whole trace and summarize costs.

    The run keeps O(n) state whatever the trace length: no per-step log. A
    caller that wants each step's record passes `on_step`, which receives
    the `StepRecord` of every request as it is served.

    With `check_guarded`, the drift invariant is re-verified after every step
    and a violation raises immediately rather than surfacing in the report.
    """
    c = state.counters
    t_start = c.t
    for key in trace:
        served = _serve(state, key)
        if on_step is not None:
            on_step(_record(state, key, served))
        if check_guarded and not guarded_invariant_holds(state):
            raise BoundViolationError(
                f"tree probability fell below half frequency after t={c.t}"
            )
    if c.t == t_start:
        raise ValueError("empty trace")
    m = c.t
    h = entropy_of_weights(c.counts)
    applicable = state.alpha >= 2 and m + 1e-9 >= theorem_threshold(state.n, state.alpha)
    return SimulationReport(
        n=state.n,
        m=m,
        alpha=state.alpha,
        smoothing=state.smoothing,
        search_cost=state.search_cost,
        adjust_cost=state.adjust_cost,
        rebuilds=state.rebuilds,
        total=state.search_cost + state.adjust_cost,
        entropy_empirical=h,
        theorem_bound=m * (8.0 + h),
        theorem_applicable=applicable,
        weights=tuple(c.counts),
        rebuild_log=state.rebuild_log,
        qlog_by_key=state.qlog_by_key,
    )
