"""The online arithmetic BST: rebuild when a key's tree probability drifts
below half its observed frequency.

Serving a request costs the served key's depth and every tree swap a flat
`alpha`, which only `report` reads. Where each mechanism lives: the exact
drift test, and why a key's floor can be cached, at `_drift_floor`; the
exact loop, one request at a time, at `_serve_each`; for a run with no
sink, the lists its trace is read in at `_windows`, its blocks and the
exact loop's share at `serve`, and which requests of a block are served in
bulk at `_serve_safe_prefix`; the current tree's depths, computed when a
request first reads them, at `trees.LazyCodedDepths`. The drift-invariant
guard and the cost checks read the `StepRecord` stream through
`checks.RunLedger`.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import index
from typing import Callable, Iterable, Sequence

from .errors import InvalidRequestError
from .sfe import entropy_of_weights
from .trees import LazyCodedDepths, SearchTree, build_balanced, tree_from_depths

SMOOTHING_LAPLACE = "laplace"
SMOOTHING_NONE = "none"
SMOOTHING_MODES = (SMOOTHING_LAPLACE, SMOOTHING_NONE)

# Requests per block of a run without a sink (`serve`). Below the minimum,
# counting a block costs more than serving it one request at a time. A trace
# that is not a list is read in lists of `_WINDOW` requests (`_windows`), so
# a run's peak memory does not grow with m.
_BLOCK_MIN = 256
_BLOCK_MAX = 8192
_WINDOW = 2 * _BLOCK_MAX


def _delta(smoothing: str) -> int:
    """The pseudo-count d of the observed weight w + d over the observed
    total t + d n: 1 for add-one smoothing, 0 for raw counts."""
    if smoothing == SMOOTHING_LAPLACE:
        return 1
    if smoothing == SMOOTHING_NONE:
        return 0
    raise ValueError(f"unknown smoothing mode {smoothing!r}")


def _observed_weights(counts: Sequence[int], t: int, delta: int) -> tuple[tuple[int, ...], int]:
    """Observed weights of keys 1..n and their total."""
    weights = tuple([c + delta for c in counts]) if delta else tuple(counts)
    return weights, t + delta * len(counts)


def _drift_floor(tree_weight: int, tree_total: int, total: int) -> int:
    """The smallest observed weight w at which a key of tree probability
    tree_weight/tree_total has drifted, i.e. is below half its observed
    frequency w/total: 2 W_k total < S w holds iff w >= floor(2 W_k total / S) + 1.

    Exact integer arithmetic, as observed and tree weights are integers over
    their totals. Between rebuilds W_k and S are fixed and the total only
    grows, so a key's floor never falls: a request below the floor last
    computed for its key (`state.floors`) needs no other test.
    """
    return 2 * tree_weight * total // tree_total + 1


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
class SimulationReport:
    """A run's costs and counts. The entropy of the observed frequencies
    (`weights`, the request counts) and the theorem's bound are computed
    when first read, so a run that never reports them pays no O(n) pass."""

    n: int
    m: int
    alpha: Fraction
    smoothing: str
    search_cost: int
    adjust_cost: Fraction
    rebuilds: int
    total: Fraction
    theorem_applicable: bool
    weights: tuple[int, ...]
    stat_cost: int | None = None
    rho: float | None = None

    @cached_property
    def entropy_empirical(self) -> float:
        return entropy_of_weights(self.weights)

    @property
    def theorem_bound(self) -> float:
        return self.m * (8.0 + self.entropy_empirical)

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
    counts: list[int]  # requests per key: key k has counts[k - 1]
    tree_weights: tuple[int, ...]  # the tree's distribution: weight / tree_total
    tree_total: int
    # depth of key k in the current tree is known_depths[k - 1] (coded.depths),
    # or 0 until coded.depth(k - 1) computes it, as it has once floors[k - 1]
    # is set; coded is None for a tree whose depths are all known
    known_depths: list[int] = field(compare=False, repr=False)
    search_cost: int = 0
    t: int = 0  # requests served, the sum of counts
    rebuilds: int = 0
    # key k cannot drift while its observed weight is below floors[k - 1], a
    # drift floor of the current tree at some earlier total; 0 means unknown
    floors: list[int] = field(default_factory=list, compare=False, repr=False)
    coded: LazyCodedDepths | None = field(default=None, compare=False, repr=False)

    @property
    def depths(self) -> list[int]:
        """Depth of key k in the current tree is depths[k - 1]; a read
        computes every depth no request has, by `trees.LazyCodedDepths.fill`."""
        if 0 in self.known_depths:
            self.coded.fill()
        return self.known_depths

    @property
    def tree(self) -> SearchTree:
        """The current tree, built from `depths` at each read."""
        return tree_from_depths(range(1, self.n + 1), self.depths)


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
    return SimulationState(
        n=n,
        alpha=alpha,
        smoothing=smoothing,
        counts=[0] * n,
        tree_weights=(1,) * n,
        tree_total=n,
        known_depths=list(build_balanced(n).depths),
        floors=[0] * n,
    )


def serve(
    state: SimulationState,
    trace: Iterable[int],
    on_step: Callable[[StepRecord], object] | None = None,
) -> None:
    """Serve each request of `trace`: count it, rebuild if the key drifted,
    and search. The one step core of `run` and `step`; `report` prices
    what it served.

    A run with a sink takes every request through the exact loop,
    `_serve_each`, which hands each request's record to `on_step`. A run
    without one cuts the trace into blocks, slices of the lists `_windows`
    gives. `_serve_safe_prefix` serves each block in bulk up to its first
    request that drifts, which the exact loop then serves and rebuilds at,
    so each rebuild happens where it would one request at a time; bulk
    serving resumes at the next request. A block starts at `_BLOCK_MIN`
    requests and doubles after each block served whole, up to `_BLOCK_MAX`;
    after a stop the next block starts at `_BLOCK_MIN` again. After a stop
    that follows a stop, the exact loop also serves the next `_BLOCK_MIN`
    requests, twice as many after each further stop in a row, up to
    `_BLOCK_MAX`: where rebuilds come every few requests, as in raw mode
    while keys are unseen, counting blocks only costs time.
    """
    if on_step is not None:
        _serve_each(state, trace, on_step)
        return
    size, skip = _BLOCK_MIN, 0
    for window in _windows(trace):
        at = 0
        while at < len(window):
            block = window[at:at + size]
            served = _serve_safe_prefix(state, block)
            at += served
            if served == len(block):
                size, skip = min(2 * size, _BLOCK_MAX), 0
            else:  # the request at `at` drifts
                _serve_each(state, window[at:at + 1 + skip], None)
                at += 1 + skip
                size, skip = _BLOCK_MIN, min(2 * skip or _BLOCK_MIN, _BLOCK_MAX)
        del window  # before the next one is read


def _windows(trace: Iterable[int]) -> Iterable[list[int]]:
    """`trace` as lists to cut blocks from: a list as it is, any other
    iterable in lists of `_WINDOW` requests, each read when the one before
    is done with."""
    if isinstance(trace, list):
        return (trace,)
    requests = iter(trace)
    return iter(lambda: list(islice(requests, _WINDOW)), [])


def _serve_safe_prefix(state: SimulationState, block: list[int]) -> int:
    """Serve in bulk the prefix of `block` before its first request that
    drifts, the whole block if none does, and return its length.

    The request at position p of the block is served at observed total
    T0 + p, T0 being the total at its first request. A key whose observed
    weight after all its requests in the prefix stays below its cached
    floor, or below its floor at T0, cannot drift there: the total only
    grows, so its floor does too. Any other key is followed through its own
    requests (`block.index`): each that reaches the floor last computed is
    tested against the floor at its own total, and drifts if it reaches
    that one too; if not, that floor is the next to reach. A key that does
    not drift caches the last floor computed, taken at a total within the
    prefix and so a lower bound of its floor at every later total, and gets
    its depth computed if no walk has.

    One pass over the prefix's count tests each key with its count and adds
    its count and search cost at once. At the first key that drifts, the
    pass takes back the counts it added and resets those keys' floors to
    unknown, as they may have been taken at totals past the drift. The next
    pass runs over the prefix that ends before the drifting request; each
    pass is shorter, so the passes end. Every depth a pass computes belongs
    to the current tree, which stays until the exact loop rebuilds, and to
    a key that occurs before the drifting request.

    A block with a key outside 1..n, or with one that `operator.index`
    rejects, goes to the exact loop whole, which raises at that key as it
    would one request at a time. (The count merges equal keys: an integral
    float after an equal integer key in its block is served as that key.)
    """
    counts = state.counts
    delta = _delta(state.smoothing)
    floors, depths, coded = state.floors, state.known_depths, state.coded
    tree_weights, tree_total = state.tree_weights, state.tree_total
    total = state.t + 1 + delta * state.n
    try:
        tally = Counter(block)
        bad = min(map(index, tally)) < 1 or max(tally) > state.n
    except TypeError:  # a key that is not an integer
        bad = True
    if bad:
        _serve_each(state, block, None)  # raises at the bad key
        return len(block)
    stop = len(block)
    while True:
        cost = 0
        for key, c in tally.items():
            i = key - 1
            w = counts[i] + c
            if w + delta >= floors[i]:
                floor = _drift_floor(tree_weights[i], tree_total, total)
                if w + delta >= floor:  # test each request that reaches the floor at its own total
                    at = -1
                    for weight in range(w - c + 1 + delta, w + 1 + delta):
                        at = block.index(key, at + 1)
                        if weight >= floor:
                            floor = _drift_floor(tree_weights[i], tree_total, total + at)
                            if weight >= floor:
                                break
                    if weight >= floor:
                        break  # the key drifts at its request at `at`
                floors[i] = floor
                if not depths[i]:
                    coded.depth(i)
            counts[i] = w
            cost += c * depths[i]
        else:
            state.t += stop
            state.search_cost += cost
            return stop
        # take back the keys served before `key`, whose floors may lie past
        # its drift at `at`, and end the next prefix there
        for k, served in tally.items():
            if k == key:
                break
            counts[k - 1] -= served
            floors[k - 1] = 0
        stop = at
        tally = Counter(block[:stop])


def _serve_each(
    state: SimulationState,
    trace: Iterable[int],
    on_step: Callable[[StepRecord], object] | None,
) -> None:
    """Serve the requests of `trace` one at a time, handing each request's
    record to `on_step` if one is given.

    Order matters: the key's count and `t` update first, the drift test
    compares the updated observed weight against the key's cached floor and
    then, if it reaches it, against the floor at the updated total, and the
    request is served on the post-rebuild tree. A key's cached floor is 0
    until its first request after a rebuild, so that request always takes
    the drift test, which computes the key's depth if no walk has; a request
    below its key's cached floor finds the depth known. A key outside 1..n,
    or one that is not an integer, raises `InvalidRequestError` naming it,
    with the state as it was after the previous request. The state's hot
    fields live in locals; `t` and the search cost are written back to the
    state before any exception leaves and before `on_step` receives a step's
    record.
    """
    n = state.n
    counts = state.counts
    delta = _delta(state.smoothing)
    depths, coded = state.known_depths, state.coded
    tree_weights, tree_total = state.tree_weights, state.tree_total
    floors = state.floors
    pseudo_total = delta * n
    per_step = on_step is not None
    t, search = state.t, state.search_cost
    try:
        for key in trace:
            try:  # free on Python 3.11+, and it cannot catch a sink's TypeError
                if not 1 <= key <= n:
                    raise InvalidRequestError(f"key {key} outside 1..{n}")
                i = key - 1
                w = counts[i] + 1
            except TypeError:
                raise InvalidRequestError(f"key {key!r} is not an integer") from None
            counts[i] = w
            t += 1
            rebuilt = False
            if w + delta >= floors[i]:
                floor = _drift_floor(tree_weights[i], tree_total, t + pseudo_total)
                if w + delta < floor:
                    floors[i] = floor
                else:
                    rebuilt = True
                    if per_step:  # only a record reads the old tree's depth
                        depth_pre = depths[i] or coded.depth(i)
                    tree_weights, tree_total = _observed_weights(counts, t, delta)
                    coded = state.coded = LazyCodedDepths(tree_weights, tree_total)
                    depths = state.known_depths = coded.depths
                    state.tree_weights, state.tree_total = tree_weights, tree_total
                    floors = state.floors = [0] * n
                    state.rebuilds += 1
                if not depths[i]:
                    coded.depth(i)
            depth = depths[i]
            search += depth
            if per_step:
                state.t, state.search_cost = t, search
                on_step(StepRecord(t, key, w, depth, depth_pre if rebuilt else depth, rebuilt))
    finally:
        state.t, state.search_cost = t, search


def step(state: SimulationState, key: int) -> StepRecord:
    """Serve one request (see `serve`) and return its record."""
    records: list[StepRecord] = []
    serve(state, (key,), records.append)
    return records[0]


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
    on_step: Callable[[StepRecord], object] | None = None,
) -> SimulationReport:
    """Serve a whole trace and summarize costs.

    The run keeps O(n) state whatever the trace length: no per-step log. A
    caller that wants each step's record, such as a `checks.RunLedger`,
    passes `on_step`, which receives each request's `StepRecord` as served.
    Without one, requests that cannot drift are served in bulk (see
    `serve`), to the same state and report.
    """
    t_start = state.t
    serve(state, trace, on_step)
    if state.t == t_start:
        raise ValueError("empty trace")
    return report(state)


def report(state: SimulationState) -> SimulationReport:
    """The costs and counts of all `state` has served, priced at
    `state.alpha`: serving never reads alpha, only this does."""
    m = state.t
    applicable = state.alpha >= 2 and m + 1e-9 >= theorem_threshold(state.n, state.alpha)
    adjust = state.alpha * state.rebuilds
    return SimulationReport(
        n=state.n,
        m=m,
        alpha=state.alpha,
        smoothing=state.smoothing,
        search_cost=state.search_cost,
        adjust_cost=adjust,
        rebuilds=state.rebuilds,
        total=state.search_cost + adjust,
        theorem_applicable=applicable,
        weights=tuple(state.counts),
    )
