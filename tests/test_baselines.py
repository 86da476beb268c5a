import random
import sys

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


def assert_matches_oracles(weights: WeightVector) -> None:
    """The DP's cost and tree equal both oracles'."""
    cost, tree = optimal_static_cost(weights)
    for oracle in (cubic_optimal_static_cost, square_knuth_optimal_static_cost):
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
