import random
import sys
from bisect import bisect_left
from itertools import accumulate, islice

import pytest

from abst.baselines import (
    WeightVector,
    balanced_static_cost,
    brute_force_static_cost,
    optimal_static_cost,
    tree_cost,
)
from abst.trees import SearchTree, build_from_roots, depth_map, format_tree
from abst.workload import generate, parse_workload
from trie_oracle import LinkedTree, Node


def cubic_optimal_static_cost(weights: WeightVector) -> tuple[int, SearchTree]:
    """The O(n^3) interval DP that scans every root of every interval, as
    `optimal_static_cost` was before Knuth's root bounds. Test oracle."""
    n = weights.n
    w = weights.weights
    prefix = [0] * (n + 1)
    for i, wi in enumerate(w):
        prefix[i + 1] = prefix[i] + wi
    cost = [[0] * (n + 2) for _ in range(n + 2)]
    root = [[0] * (n + 2) for _ in range(n + 2)]
    for i in range(1, n + 1):
        cost[i][i] = w[i - 1]
        root[i][i] = i
    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            best, best_r = None, None
            for r in range(i, j + 1):
                c = cost[i][r - 1] + cost[r + 1][j]
                if best is None or c < best:
                    best, best_r = c, r
            cost[i][j] = best + prefix[j] - prefix[i - 1]
            root[i][j] = best_r
    tree = LinkedTree(None)
    stack = [(1, n, None, False)]
    while stack:
        i, j, parent, is_left = stack.pop()
        if i > j:
            continue
        node = Node(root[i][j])
        if parent is None:
            tree.root = node
        elif is_left:
            parent.left = node
        else:
            parent.right = node
        stack.append((i, node.key - 1, node, True))
        stack.append((node.key + 1, j, node, False))
    return cost[1][n], tree.search_tree()


def square_knuth_optimal_static_cost(weights: WeightVector) -> tuple[int, SearchTree]:
    """Knuth's O(n^2) DP filled by interval length over two (n+2)^2 tables,
    as `optimal_static_cost` was before it filled triangular tables row by
    row. Test oracle."""
    n = weights.n
    w = weights.weights
    prefix = [0] * (n + 1)
    for i, wi in enumerate(w):
        prefix[i + 1] = prefix[i] + wi

    # cost[i][j] for 1 <= i <= j <= n; empty intervals cost 0
    cost = [[0] * (n + 2) for _ in range(n + 2)]
    root = [[0] * (n + 2) for _ in range(n + 2)]
    for i in range(1, n + 1):
        cost[i][i] = w[i - 1]
        root[i][i] = i
    for length in range(2, n + 1):
        for i in range(1, n - length + 2):
            j = i + length - 1
            cost_i, root_i = cost[i], root[i]
            lo, hi = root_i[j - 1], root[i + 1][j]
            best, best_r = cost_i[lo - 1] + cost[lo + 1][j], lo
            for r in range(lo + 1, hi + 1):
                c = cost_i[r - 1] + cost[r + 1][j]
                if c < best:
                    best, best_r = c, r
            cost_i[j] = best + prefix[j] - prefix[i - 1]
            root_i[j] = best_r

    return cost[1][n], build_from_roots(n, lambda i, j: root[i][j])


def all_keys_optimal_static_cost(weights: WeightVector) -> tuple[int, SearchTree]:
    """Knuth's O(n^2) DP run over all n keys, zero weights included, as
    `optimal_static_cost` was before it ran over the keys of positive weight
    only and grafted the rest. Test oracle.

    Rows are filled i from n down to 1, j rising, so both bounds of a cell
    are known: root(i, j-1) is the root just found, carried in `lo`, and
    root(i+1, j) comes from the row below. The tables are triangular. Root r
    of keys i..j costs `left[r] + cols[j][r]`: `left[r]` is the cost of keys
    i..r-1, kept for the row being filled, and `cols[j][r]` that of keys
    r+1..j, with column j filled bottom-up. `roots[i][j - i]` is the root
    of keys i..j.
    """
    n = weights.n
    w = weights.weights
    prefix = [0, *accumulate(w)]
    left = [0] * (n + 2)  # left[i] = 0 is the empty interval
    cols = [[0] * (j + 1) for j in range(n + 1)]  # cols[j][j] = 0 likewise
    roots = [[] for _ in range(n + 2)]
    for i in range(n, 0, -1):
        left[i + 1] = cols[i][i - 1] = w[i - 1]
        lo = i
        roots_i = roots[i] = [i]
        below = prefix[i - 1]
        # cell (i, j) for j rising, and j1 = j + 1
        for j1, hi, col_j, prefix_j in zip(range(i + 2, n + 2), roots[i + 1],
                                           islice(cols, i + 1, None), islice(prefix, i + 1, None)):
            best = left[lo] + col_j[lo]
            if hi > lo:  # most cells have one candidate root
                for r in range(lo + 1, hi + 1):
                    c = left[r] + col_j[r]
                    if c < best:
                        best, lo = c, r
            left[j1] = col_j[i - 1] = best + prefix_j - below
            roots_i.append(lo)

    return cols[n][0], build_from_roots(n, lambda i, j: roots[i][j - i])


def assert_matches_oracles(weights: WeightVector) -> None:
    """The DP's cost and tree equal every oracle's."""
    cost, tree = optimal_static_cost(weights)
    for oracle in (cubic_optimal_static_cost, square_knuth_optimal_static_cost,
                   all_keys_optimal_static_cost):
        want_cost, want_tree = oracle(weights)
        assert cost == want_cost, oracle.__name__
        assert format_tree(tree) == format_tree(want_tree), oracle.__name__


def test_weight_vector_validation():
    WeightVector((0, 0, 9))
    with pytest.raises(ValueError):
        WeightVector(())
    with pytest.raises(ValueError):
        WeightVector((1, -1))
    with pytest.raises(ValueError):
        WeightVector((0, 0, 0))


@pytest.mark.parametrize("weights, bad", [
    ((2.5, 1), "weight 1 = 2.5"),
    ((1, "3"), "weight 2 = '3'"),
    ((1, 2, 2.0), "weight 3 = 2.0"),
])
def test_weight_vector_rejects_what_is_no_integer(weights, bad):
    with pytest.raises(ValueError, match=f"^{bad} is not an integer$"):
        WeightVector(weights)


def test_optimal_single_key():
    cost, tree = optimal_static_cost(WeightVector((5,)))
    assert cost == 5
    assert format_tree(tree) == "(1 . .)"


def test_optimal_three_uniform():
    cost, tree = optimal_static_cost(WeightVector((1, 1, 1)))
    assert cost == 5
    assert tree.root == 2


def test_optimal_example_weights():
    cost, tree = optimal_static_cost(WeightVector((1, 2, 4, 2, 1)))
    assert cost == 18
    assert format_tree(tree) == "(3 (2 (1 . .) .) (4 . (5 . .)))"


def test_brute_force_values():
    assert brute_force_static_cost(WeightVector((1, 1, 1))) == 5
    assert brute_force_static_cost(WeightVector((1, 3))) == 5
    assert brute_force_static_cost(WeightVector((7,))) == 7
    assert brute_force_static_cost(WeightVector((1, 2, 4, 2, 1))) == 18


def test_brute_force_refuses_large_n():
    with pytest.raises(ValueError):
        brute_force_static_cost(WeightVector((1,) * 13))


def test_dp_matches_brute_force_random():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 7)
        weights = WeightVector(
            tuple(rng.randint(0, 9) for _ in range(n - 1)) + (rng.randint(1, 9),)
        )
        cost, tree = optimal_static_cost(weights)
        assert cost == brute_force_static_cost(weights)
        assert tree_cost(tree, weights) == cost
        assert list(tree.keys) == list(range(1, n + 1))


def test_knuth_dp_matches_cubic_dp_random():
    # few distinct weights and many zeros make many tied roots
    rng = random.Random(1971)
    for case in range(1200):
        n = rng.randint(1, 64 if case % 4 == 0 else 20)
        palette = rng.choice([(0, 1), (0, 0, 1, 2), (0, 1, 1, 3), (1, 2, 4, 8), (0, 5, 50, 500)])
        weights = [rng.choice(palette) for _ in range(n)]
        if not any(weights):
            weights[rng.randrange(n)] = 1
        assert_matches_oracles(WeightVector(tuple(weights)))


@pytest.mark.parametrize("workload", ["uniform", "zipf:1.0", "zipf:1.5"])
def test_knuth_dp_matches_oracles_on_generated_counts(workload):
    # raw counts, as `compare --smoothing none` passes them; traces of m <= n
    # leave many keys at zero
    for n, ms in ((128, (16, 128, 2560)), (300, (300,))):
        for m in ms:
            counts = [0] * n
            for key in generate(parse_workload(workload, n=n, m=m, seed=n + m)):
                counts[key - 1] += 1
            assert_matches_oracles(WeightVector(tuple(counts)))


def assert_zero_weight_keys_grafted(weights: WeightVector, tree: SearchTree) -> None:
    """Each zero-weight key is one deeper than the deeper of its coded (positive
    weight) neighbours, plus its offset in its run of zero-weight keys."""
    w, depths = weights.weights, tree.depths
    coded = [i for i, x in enumerate(w) if x]
    for i, x in enumerate(w):
        if not x:
            r = bisect_left(coded, i)
            before = coded[r - 1] if r else -1
            neighbours = [depths[c] for c in (before, *coded[r:r + 1]) if c >= 0]
            assert depths[i] == max(neighbours) + i - before, (w, i)


def sparse_weight_vectors(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """Weight vectors of length n with runs of zero weight at both ends and
    inside: one with a single positive key, one with all positive weights
    equal (many tied roots), and one from a random palette at a random zero
    share."""
    zero_share = rng.random()
    palette = rng.choice([(1, 2), (1, 2, 4, 8), (1, 5, 50, 500), tuple(range(1, 30))])
    single = [0] * n
    single[rng.randrange(n)] = rng.choice(palette)
    equal = [0 if rng.random() < zero_share else 3 for _ in range(n)]
    mixed = [0 if rng.random() < zero_share else rng.choice(palette) for _ in range(n)]
    vectors = [single]
    for weights in (equal, mixed):
        if n >= 3:  # zero runs at both ends and inside
            weights[0] = weights[-1] = weights[rng.randrange(1, n - 1)] = 0
        if not any(weights):
            weights[rng.randrange(n)] = 1
        vectors.append(weights)
    return [tuple(weights) for weights in vectors]


def test_dp_over_positive_keys_matches_all_keys_oracles_random():
    rng = random.Random(1975)
    for case in range(160):
        n = rng.randint(150, 200) if case % 40 == 0 else rng.randint(1, 40)
        for weights in map(WeightVector, sparse_weight_vectors(rng, n)):
            assert_matches_oracles(weights)
            assert_zero_weight_keys_grafted(weights, optimal_static_cost(weights)[1])


def test_zero_weight_keys_stay_in_tree():
    weights = WeightVector((0, 0, 9))
    cost, tree = optimal_static_cost(weights)
    assert sorted(depth_map(tree)) == [1, 2, 3]
    assert cost == 9  # key 3 can sit at the root


def test_balanced_cost_examples():
    assert balanced_static_cost(WeightVector((2, 2, 2, 2, 2))) == 22
    assert balanced_static_cost(WeightVector((4,))) == 4
    assert balanced_static_cost(WeightVector((0, 0, 9))) == 18


def test_optimal_never_exceeds_balanced():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 30)
        weights = WeightVector(
            tuple(rng.randint(0, 50) for _ in range(n - 1)) + (rng.randint(1, 50),)
        )
        assert optimal_static_cost(weights)[0] <= balanced_static_cost(weights)


def test_optimal_argmin_builds_a_deep_chain_without_recursion():
    # weights 2^i make the optimal tree a chain as deep as n
    n = 200
    weights = WeightVector(tuple(2**i for i in range(n)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        cost, tree = optimal_static_cost(weights)
    finally:
        sys.setrecursionlimit(limit)
    assert depth_map(tree) == {key: n + 1 - key for key in range(1, n + 1)}
    assert tree_cost(tree, weights) == cost
    # root ties still break toward the smaller key
    assert optimal_static_cost(WeightVector((1, 1)))[1].root == 1
