"""Exact hindsight-optimal static BST cost, with a brute-force oracle."""

from __future__ import annotations

from itertools import accumulate, compress
from operator import index
from typing import Iterator

from .trees import SearchTree, build_balanced, build_from_roots, depth_map, graft_zero_weights

BRUTE_FORCE_MAX_N = 12


class WeightVector:
    """Nonnegative integer per-key access counts with positive total;
    immutable, and equal to another of the same `weights`."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[int, ...]):
        for i, w in enumerate(weights, 1):
            if not hasattr(type(w), "__index__"):  # what `operator.index` takes
                raise ValueError(f"weight {i} = {w!r} is not an integer")
        weights = tuple(map(index, weights))
        if not weights:
            raise ValueError("empty weight vector")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if sum(weights) < 1:
            raise ValueError("total weight must be at least 1")
        object.__setattr__(self, "weights", weights)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: the weight vector is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return WeightVector, (self.weights,)

    def __eq__(self, other):
        return self.weights == other.weights if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.weights,))

    def __repr__(self) -> str:
        return f"WeightVector(weights={self.weights!r})"

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> int:
        return sum(self.weights)


def tree_cost(tree: SearchTree, weights: WeightVector) -> int:
    """Sum of weight * depth over all keys."""
    depths = depth_map(tree)
    return sum(w * depths[k + 1] for k, w in enumerate(weights.weights))


def optimal_static_cost(weights: WeightVector,
                        with_tree: bool = True) -> tuple[int, SearchTree | None]:
    """Minimum total depth-weighted cost over all BSTs on 1..n, with an
    argmin, or with None in its place if `with_tree` is false. The CLI
    prints only the cost and passes False; `verify` and the tests read the
    tree.

    Interval dynamic program over the k keys of positive weight, by rank:
    the cost of the best subtree on ranks i..j is the interval's weight
    (every key pays one visit to the subtree root) plus the best split. Only
    successful searches carry weight, so there are no gap terms. Root ties
    break toward the smaller key.

    The n - k keys of zero weight are then grafted by the coded tree's rule
    (`trees.graft_zero_weights`): each run of them hangs as a chain one
    below the deeper of its two ranked neighbours. The cost is the optimum
    over all n keys: a zero-weight key hung as a leaf costs nothing, and
    taking one out of any tree (splicing it out, or putting its predecessor
    in its place) makes no other key deeper. The tree is the one the DP over
    all n keys would pick, as the tests check against that DP.

    The root scan of ranks i..j is limited to root(i, j-1)..root(i+1, j),
    which makes the whole table O(k^2). Knuth (1971, "Optimum binary search
    trees", Acta Informatica 1) proved that bound, and Yao (1980, "Efficient
    dynamic programming using quadrangle inequalities") showed that it holds
    for the smallest optimal root, the one the tie rule picks. Most cells
    have one candidate and the mean is about two, so the scan prices `lo`,
    then `lo + 1`, and loops only beyond that, building no `range`.

    Rows are filled i from k down to 1, j rising, so both bounds of a cell
    are known: root(i, j-1) is the root just found, carried in `lo`, and
    root(i+1, j) comes from the row below. The table is triangular. Root r
    of ranks i..j costs `left[r] + cols[j][r]`: `left[r]` is the cost of
    ranks i..r-1, kept for the row being filled, and `cols[j][r]` that of
    ranks r+1..j, with column j filled bottom-up. `row[j - i]` is the root
    of ranks i..j, and only the row below is kept. The tree is read back
    from the costs: the root of ranks i..j is the smallest r whose split
    prices the cell, `cols[r-1][i-1] + cols[j][r]` plus the interval's
    weight, which is the root the tie rule picks.
    """
    n = weights.n
    w = list(filter(None, weights.weights))
    k = len(w)
    prefix = [0, *accumulate(w)]
    left = [0] * (k + 2)  # left[i] = 0 is the empty interval
    cols = [[0] * (j + 1) for j in range(k + 1)]  # cols[j][j] = 0 likewise
    row = []  # the roots of row k + 1, which has no cells
    for i in range(k, 0, -1):
        left[i + 1] = cols[i][i - 1] = w[i - 1]
        lo = i
        row_below, row = row, [i]
        below = prefix[i - 1]
        # cell (i, j) for j rising, and j1 = j + 1
        for j1, hi, col_j, prefix_j in zip(range(i + 2, k + 2), row_below,
                                           cols[i + 1:], prefix[i + 1:]):
            best = left[lo] + col_j[lo]
            if hi > lo:
                r = lo + 1
                c = left[r] + col_j[r]
                if c < best:
                    best, lo = c, r
                while r < hi:
                    r += 1
                    c = left[r] + col_j[r]
                    if c < best:
                        best, lo = c, r
            left[j1] = col_j[i - 1] = best + prefix_j - below
            row.append(lo)

    if not with_tree:
        return cols[k][0], None

    def root_of(i: int, j: int) -> int:
        split = cols[j][i - 1] - prefix[j] + prefix[i - 1]
        return next(r for r in range(i, j + 1) if cols[r - 1][i - 1] + cols[j][r] == split)

    tree = build_from_roots(k, root_of)
    if k < n:
        depths = [0] * n
        graft_zero_weights(depths, list(compress(range(n), weights.weights)), tree.depths)
        tree = SearchTree(tuple(range(1, n + 1)), tuple(depths))
    return cols[k][0], tree


def _all_shapes(lo: int, hi: int) -> Iterator:
    if lo > hi:
        yield None
        return
    for r in range(lo, hi + 1):
        for left in _all_shapes(lo, r - 1):
            for right in _all_shapes(r + 1, hi):
                yield (r, left, right)


def brute_force_static_cost(weights: WeightVector) -> int:
    """Exact minimum by enumerating every BST shape. Oracle use only."""
    if weights.n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"refusing n={weights.n}: shape count grows as the Catalan numbers"
        )
    w = weights.weights
    best = None
    for shape in _all_shapes(1, weights.n):
        total = 0
        stack = [(shape, 1)]
        while stack:
            item, depth = stack.pop()
            if item is None:
                continue
            r, left, right = item
            total += w[r - 1] * depth
            stack.append((left, depth + 1))
            stack.append((right, depth + 1))
        if best is None or total < best:
            best = total
    return best


def balanced_static_cost(weights: WeightVector) -> int:
    """Cost of serving the weights on the median-balanced tree."""
    return tree_cost(build_balanced(weights.n), weights)
