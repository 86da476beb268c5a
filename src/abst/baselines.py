"""Exact hindsight-optimal static BST cost, with a brute-force oracle."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress, islice
from typing import Iterator

from .trees import SearchTree, build_balanced, build_from_roots, depth_map, graft_zero_weights

BRUTE_FORCE_MAX_N = 12


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative per-key access counts with positive total."""

    weights: tuple[int, ...]

    def __post_init__(self):
        weights = tuple(int(w) for w in self.weights)
        if not weights:
            raise ValueError("empty weight vector")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if sum(weights) < 1:
            raise ValueError("total weight must be at least 1")
        object.__setattr__(self, "weights", weights)

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


def optimal_static_cost(weights: WeightVector) -> tuple[int, SearchTree]:
    """Minimum total depth-weighted cost over all BSTs on 1..n, with an argmin.

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
    for the smallest optimal root, the one the tie rule picks.

    Rows are filled i from k down to 1, j rising, so both bounds of a cell
    are known: root(i, j-1) is the root just found, carried in `lo`, and
    root(i+1, j) comes from the row below. The tables are triangular. Root r
    of ranks i..j costs `left[r] + cols[j][r]`: `left[r]` is the cost of
    ranks i..r-1, kept for the row being filled, and `cols[j][r]` that of
    ranks r+1..j, with column j filled bottom-up. `roots[i][j - i]` is the
    root of ranks i..j.
    """
    n = weights.n
    w = list(filter(None, weights.weights))
    k = len(w)
    prefix = [0, *accumulate(w)]
    left = [0] * (k + 2)  # left[i] = 0 is the empty interval
    cols = [[0] * (j + 1) for j in range(k + 1)]  # cols[j][j] = 0 likewise
    roots = [[] for _ in range(k + 2)]
    for i in range(k, 0, -1):
        left[i + 1] = cols[i][i - 1] = w[i - 1]
        lo = i
        roots_i = roots[i] = [i]
        below = prefix[i - 1]
        # cell (i, j) for j rising, and j1 = j + 1
        for j1, hi, col_j, prefix_j in zip(range(i + 2, k + 2), roots[i + 1],
                                           islice(cols, i + 1, None), islice(prefix, i + 1, None)):
            best = left[lo] + col_j[lo]
            if hi > lo:  # most cells have one candidate root
                for r in range(lo + 1, hi + 1):
                    c = left[r] + col_j[r]
                    if c < best:
                        best, lo = c, r
            left[j1] = col_j[i - 1] = best + prefix_j - below
            roots_i.append(lo)

    tree = build_from_roots(k, lambda i, j: roots[i][j - i])
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
