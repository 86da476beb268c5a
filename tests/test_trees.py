import json
import random
import sys
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sfe_oracle
import trie_oracle
from abst import trees
from abst.dynamic import init, run
from abst.errors import InvalidDistributionError
from abst.matching import bst_to_matchings, matchings_to_bst
from abst.sfe import (
    CodeTable,
    ProbabilityDistribution,
    build_sfe_code,
    code_length,
    is_prefix_free,
    parse_distribution,
)
from abst.trees import (
    LazyCodedDepths,
    SearchTree,
    build_balanced,
    coded_depths,
    depth_map,
    format_tree,
    sfe_to_bst,
    tree_for_probs,
    tree_from_depths,
)
from abst.workload import generate, parse_workload
from trie_oracle import LinkedTree, Node, insert_key, parse_tree

EXAMPLE_A = parse_distribution("0.1,0.2,0.4,0.2,0.1")
EXAMPLE_B = parse_distribution("3/12,2/12,4/12,2/12,1/12")
TREE_A = "(3 (2 (1 . .) .) (4 . (5 . .)))"
TREE_B = "(3 (1 . (2 . .)) (4 . (5 . .)))"
# Trees and code tables the retired Fraction code trie and its leaf-promoting
# conversion gave, frozen before the trie was deleted: each case has integer
# weights (zeros are grafted), optional key labels, the codewords of the
# positive weights, and the tree in `format_tree` form.
TRIE_GOLDENS = json.loads(
    (Path(__file__).parent / "golden" / "trie_trees.json").read_text(encoding="utf-8")
)


def trie_leaf_depths(table: CodeTable) -> dict[int, int]:
    """Depth of each key's leaf in the code trie: one below its last bit."""
    return {e.key: e.length + 1 for e in table.entries}


def test_trie_leaf_depths_example_a():
    table = build_sfe_code(EXAMPLE_A)
    assert trie_leaf_depths(table) == {1: 6, 2: 5, 3: 4, 4: 5, 5: 6}
    assert table.codewords() == ["00001", "0011", "100", "1100", "11110"]


def test_trie_single_codeword():
    # the trie held one leaf, the root's right child
    assert build_sfe_code([Fraction(1)]).codewords() == ["1"]


def test_trie_two_even_keys():
    table = build_sfe_code([Fraction(1, 2), Fraction(1, 2)])
    assert trie_leaf_depths(table) == {1: 3, 2: 3}
    assert table.codewords() == ["01", "11"]


def test_trie_rejects_prefix_collision():
    table = build_sfe_code(EXAMPLE_A)
    bad = CodeTable(
        tuple(
            e._replace(codeword="0000") if e.key == 3 else e
            for e in table.entries
        )
    )
    assert is_prefix_free(table.codewords())
    assert not is_prefix_free(bad.codewords())


def test_conversion_example_a():
    assert format_tree(sfe_to_bst(EXAMPLE_A)) == TREE_A
    assert format_tree(tree_from_depths(range(1, 6), [3, 2, 1, 2, 3])) == TREE_A


def test_conversion_example_b():
    assert format_tree(sfe_to_bst(EXAMPLE_B)) == TREE_B
    assert format_tree(tree_from_depths(range(1, 6), [2, 3, 1, 2, 3])) == TREE_B


def test_conversion_single_leaf():
    assert format_tree(sfe_to_bst([Fraction(1)])) == "(1 . .)"
    assert coded_depths([7], 7) == [1]


def test_conversion_empty_trie_gives_empty_tree():
    assert coded_depths([], 0) == []
    assert tree_from_depths([], []).root is None


@pytest.mark.parametrize(
    "weights, total, message",
    [
        ([1, 1], 5, "weights sum to 2, not to the total 5"),
        ([1, 2], 0, "weights sum to 3, not to the total 0"),
        ([1, -2], 3, "weight 2 = -2 is not a nonnegative integer"),
        ([1, 0.5, 0.5], 2, "weight 2 = 0.5 is not a nonnegative integer"),
    ],
)
def test_coded_depths_rejects_weights_that_are_no_counts_of_the_total(weights, total, message):
    with pytest.raises(ValueError, match=message):
        coded_depths(weights, total)


def test_sfe_to_bst_depths():
    assert depth_map(sfe_to_bst(EXAMPLE_A)) == {1: 3, 2: 2, 3: 1, 4: 2, 5: 3}
    assert depth_map(sfe_to_bst(EXAMPLE_B)) == {1: 2, 2: 3, 3: 1, 4: 2, 5: 3}
    assert depth_map(sfe_to_bst([Fraction(1)])) == {1: 1}


def test_sfe_to_bst_relabeled_keys():
    tree = sfe_to_bst(EXAMPLE_A, keys=[2, 4, 6, 8, 10])
    assert list(tree.keys) == [2, 4, 6, 8, 10]
    assert depth_map(tree)[6] == 1
    with pytest.raises(ValueError):
        sfe_to_bst(EXAMPLE_A, keys=[1, 2, 3])
    with pytest.raises(ValueError):
        sfe_to_bst(EXAMPLE_A, keys=[5, 4, 3, 2, 1])


def test_depth_of():
    depths = depth_map(sfe_to_bst(EXAMPLE_A))
    assert depths[3] == 1
    assert depths[5] == 3
    assert 9 not in depths
    assert depth_map(parse_tree("(7 . .)")) == {7: 1}
    assert depth_map(parse_tree(".")) == {}


def test_format_parse_round_trip():
    for text in (TREE_A, TREE_B, "(1 . .)", "."):
        assert format_tree(parse_tree(text)) == text


def test_parse_tree_rejects_garbage():
    with pytest.raises(ValueError):
        parse_tree("(1 . .) junk")
    with pytest.raises(ValueError):
        parse_tree("(1 .")


def test_balanced_tree_shape():
    tree = build_balanced(5)
    assert depth_map(tree)[3] == 1
    assert list(tree.keys) == [1, 2, 3, 4, 5]
    assert build_balanced(1).root == 1
    for n in (1, 2, 3, 7, 20, 100):
        assert max(depth_map(build_balanced(n)).values()) <= (n + 1).bit_length()
    with pytest.raises(ValueError):
        build_balanced(0)


def recursive_balanced(n: int) -> SearchTree:
    """`build_balanced` as it was written before it became iterative. Test oracle."""

    def build(lo: int, hi: int) -> Node | None:
        if lo > hi:
            return None
        mid = (lo + hi) // 2
        node = Node(mid)
        node.left = build(lo, mid - 1)
        node.right = build(mid + 1, hi)
        return node

    return LinkedTree(build(1, n)).search_tree()


def test_balanced_tree_matches_recursive_build():
    for n in range(1, 301):
        assert format_tree(build_balanced(n)) == format_tree(recursive_balanced(n))


def test_insert_key_grafts_leaves():
    tree = LinkedTree(Node(2))
    assert insert_key(tree, 1) == 2
    assert insert_key(tree, 3) == 2
    assert insert_key(tree, 4) == 3
    assert format_tree(tree.search_tree()) == "(2 (1 . .) (3 . (4 . .)))"
    with pytest.raises(ValueError):
        insert_key(tree, 2)


def test_conversion_is_deterministic():
    assert sfe_to_bst(EXAMPLE_A) == sfe_to_bst(EXAMPLE_A)
    weights = [1, 2, 4, 2, 1]
    depths = coded_depths(weights, 10)
    assert coded_depths(weights, 10) == depths == [3, 2, 1, 2, 3]
    assert weights == [1, 2, 4, 2, 1]


def coded_tree(weights, total, keys) -> tuple[SearchTree, dict[int, int]]:
    """The coded tree for integer weights over `total`, as `sfe_to_bst`
    builds it, and its depth map."""
    depths = coded_depths(weights, total)
    return tree_from_depths(keys, depths), dict(zip(keys, depths))


weight_lists = st.lists(st.integers(1, 64), min_size=2, max_size=32)


@settings(max_examples=120, deadline=None)
@given(weights=weight_lists)
def test_conversion_invariants_random(weights):
    total = sum(weights)
    dist = ProbabilityDistribution(tuple(Fraction(w, total) for w in weights))
    table = build_sfe_code(dist)
    tree, depths = coded_tree(weights, total, range(1, len(weights) + 1))
    n = len(weights)
    assert list(tree.keys) == list(range(1, n + 1))
    assert depths == depth_map(tree)
    assert tree == trie_oracle.coded_tree(weights, total, range(1, n + 1))[0]
    for key, p in enumerate(dist.probs, start=1):
        # never deeper than its code trie leaf
        assert depths[key] <= table.entries[key - 1].length + 1
        # exact form of depth < log2(1/p) + 3
        e = depths[key] - 3
        if e >= 0:
            assert (p.numerator << e) < p.denominator
        else:
            assert p.numerator < (p.denominator << -e)


@st.composite
def vectors_with_zeros(draw):
    """Probabilities with zeros written as 0, "0", 0.0 and Fraction(0); now
    and then the nonzero ones sum to something other than one."""
    weights = draw(st.lists(st.integers(0, 30), min_size=1, max_size=40))
    total = (sum(weights) + draw(st.sampled_from([0, 0, 0, 1]))) or 1
    zeros = st.sampled_from([0, "0", 0.0, Fraction(0)])
    return [Fraction(w, total) if w else draw(zeros) for w in weights]


@settings(max_examples=300, deadline=None)
@given(probs=vectors_with_zeros())
def test_tree_for_probs_matches_the_fraction_sum_oracle(probs):
    # the tree, or the error, that validating the nonzero probabilities by a
    # `Fraction` sum and weighing them afterwards gives
    want = sfe_oracle.outcome(sfe_oracle.tree_for_probs, probs)
    assert sfe_oracle.outcome(tree_for_probs, probs) == want


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), "banana"])
def test_tree_for_probs_rejects_a_probability_that_is_no_rational(bad):
    with pytest.raises(InvalidDistributionError, match="not a rational number"):
        tree_for_probs([Fraction(1, 2), 0, bad])


def test_range_walk_matches_trie_oracle():
    assert len(TRIE_GOLDENS) == 69
    grafted = 0
    for case in TRIE_GOLDENS:
        weights, keys = case["weights"], case["keys"]
        total = sum(weights)
        probs = [Fraction(w, total) for w in weights]
        positive = ProbabilityDistribution(tuple(p for p in probs if p))
        assert build_sfe_code(positive).codewords() == case["codewords"]
        if all(weights):
            assert format_tree(sfe_to_bst(positive, keys)) == case["tree"]
        else:
            grafted += 1
            assert format_tree(tree_for_probs(probs)) == case["tree"]
        labels = keys or range(1, len(weights) + 1)
        depths = coded_depths(weights, total)
        assert depths == trie_oracle.coded_depths(weights, total)
        assert depths == trie_oracle.lcp_coded_depths(weights, total)
        assert requested_in_random_order(weights, total, random.Random(total)) == depths
        assert format_tree(tree_from_depths(labels, depths)) == case["tree"]
    assert grafted == 24


def test_range_walk_matches_trie_oracle_zipf_4096():
    n = 4096
    weights = [10**6 // r for r in range(1, n + 1)]
    total = sum(weights)
    depths = coded_depths(weights, total)
    want_tree, want_depths = trie_oracle.coded_tree(weights, total, range(1, n + 1))
    assert tree_from_depths(range(1, n + 1), depths) == want_tree
    assert dict(zip(range(1, n + 1), depths)) == want_depths
    assert coded_tree(weights, total, range(1, n + 1)) == (want_tree, want_depths)


def test_lcp_walk_matches_bisect_walk_zipf_16384():
    n = 16384
    weights = [10**7 // r for r in range(1, n + 1)]  # Zipf exponent 1.0
    total = sum(weights)
    depths = coded_depths(weights, total)
    assert depths == trie_oracle.coded_depths(weights, total)
    assert depths == trie_oracle.lcp_coded_depths(weights, total)


def test_lcp_walk_matches_bisect_walk_random():
    rng = random.Random(1980)
    palettes = [
        (0, 0, 0, 1, 2, 7),  # zero-heavy: gap chains between coded runs
        (1, 2**20),  # extreme ratios: long codewords beside short ones
        (1, 1, 1, 2),  # many equal lengths: the flank tie rule decides
        (1, 2, 4, 8, 16),  # dyadic: lengths land on their boundaries
        tuple(range(1, 1000)),
        (0, 1, 2**20),
    ]
    zeros = 0
    for case in range(3000):
        n = rng.randint(1, 90)
        weights = [rng.choice(palettes[case % len(palettes)]) for _ in range(n)]
        weights[rng.randrange(n)] = rng.randint(1, 9)
        zeros += 0 in weights
        total = sum(weights)
        depths = coded_depths(weights, total)
        assert depths == trie_oracle.coded_depths(weights, total), weights
        assert depths == trie_oracle.lcp_coded_depths(weights, total), weights
    assert zeros >= 900


def split_counter(mp):
    """Patch `trees._split` through `mp` to count its calls; returns the
    one-item list that holds the count."""
    calls = [0]
    split = trees._split

    def counted(*args):
        calls[0] += 1
        return split(*args)

    mp.setattr(trees, "_split", counted)
    return calls


def requested_in_random_order(weights, total, rng) -> list[int]:
    """Every key's depth from `LazyCodedDepths`, asked for in a random order
    as the simulator asks: a key's walk runs unless an earlier walk passed
    it. The dict-memo walk it replaced, asked in the same order, must give
    the same depths at every step. Checks that `_split` runs exactly once per
    placed rank, halfway through and at the end, as the oracle's dict holds
    one range per placed rank; asking for a known depth again splits
    nothing."""
    order = list(range(len(weights)))
    rng.shuffle(order)
    got = [0] * len(weights)
    with pytest.MonkeyPatch.context() as mp:
        calls = split_counter(mp)
        lazy = LazyCodedDepths(weights, total)
        oracle = trie_oracle.RangeMemoDepths(weights, total)
        for step, i in enumerate(order, 1):
            got[i] = lazy.depths[i] or lazy.depth(i)
            assert got[i] == (oracle.depths[i] or oracle.depth(i)), (weights, i)
            if step == len(order) // 2:
                assert calls[0] == sum(map(bool, lazy.rank_depths)) == len(oracle.roots)
        assert lazy.depths == got == oracle.depths
        assert [lazy.depth(i) for i in range(len(weights))] == got  # asked again: no split
    assert calls[0] == sum(map(bool, lazy.rank_depths)) == len(oracle.roots)
    return got


@pytest.mark.parametrize("name, weights", [
    ("geometric", [2 ** (2000 - i) for i in range(2000)]),  # one key per level
    ("alternating", [2**30 if i % 2 else 1 for i in range(4096)]),
    ("all-equal", [1] * 16384),  # all codes equally long: the tie rule decides
    ("zero-heavy", [random.Random(4096).choice((0, 0, 0, 0, 1, 2, 9)) for _ in range(4096)]),
    ("one-coded", [0] * 1500 + [7] + [0] * 2595),  # grafted chains of 1500 and 2595 keys
])
def test_walk_matches_both_oracles_on_adversarial_vectors(name, weights):
    total = sum(weights)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        depths = coded_depths(weights, total)
        on_demand = requested_in_random_order(weights, total, random.Random(len(weights)))
        bisected = trie_oracle.coded_depths(weights, total)
        lcp = trie_oracle.lcp_coded_depths(weights, total)
    finally:
        sys.setrecursionlimit(limit)
    assert depths == on_demand == bisected == lcp
    if name == "geometric":
        assert depths == list(range(1, 2001))
    tree_from_depths(range(1, len(weights) + 1), depths)


# weight palettes of the random on-demand tests: positive weights, and
# weights of which half are zero
POSITIVE_PALETTES = [
    tuple(range(1, 1000)),
    (1, 2, 4, 8, 16),
    (1, 1, 1, 2),
    (1, 2**20),
    (2**40 - 1, 2**40, 2**40 + 1, 3 * 2**39),  # long codes and big totals
]
ZERO_PALETTE = (0, 0, 0, 0, 1, 2, 9, 2**40)


def test_on_demand_depths_match_the_full_walk_random():
    rng = random.Random(1975)
    for case in range(3000):
        n = rng.randint(1, 90)
        if case % 6 == 5:  # a power-of-two total: a midpoint can equal a threshold
            weights = [2 ** rng.randrange(0, 4) for _ in range(n - 1)]
            weights.append((1 << sum(weights).bit_length()) - sum(weights))
        else:
            weights = [rng.choice(POSITIVE_PALETTES[case % 6]) for _ in range(n)]
        total = sum(weights)
        assert requested_in_random_order(weights, total, rng) == trie_oracle.coded_depths(
            weights, total
        )


def test_on_demand_grafted_depths_match_the_full_walk_random():
    rng = random.Random(1976)
    for case in range(3000):
        n = rng.randint(1, 90)
        weights = [rng.choice(ZERO_PALETTE) for _ in range(n)]
        shape = case % 4
        if shape == 1:  # zero runs at both ends
            weights[0] = weights[-1] = 0
        elif shape == 2:  # a single coded key
            weights = [0] * n
        elif shape == 3:  # a single zero
            weights = [rng.randint(1, 9) for _ in range(n)]
            weights[rng.randrange(n)] = 0
        if not any(weights):
            weights[rng.randrange(n)] = rng.randint(1, 9)
        total = sum(weights)
        assert requested_in_random_order(weights, total, rng) == trie_oracle.coded_depths(
            weights, total
        )


def test_fill_after_partial_walks_splits_each_rank_once():
    """`fill` after walks to a random subset of keys gives the bisecting
    oracle's depths, and splits only the ranks the walks did not place: one
    `_split` per key of positive weight over the walks and the fill."""
    rng = random.Random(1977)
    for case in range(2000):
        n = rng.randint(1, 90)
        palette = ZERO_PALETTE if case % 2 else POSITIVE_PALETTES[case // 2 % 5]
        weights = [rng.choice(palette) for _ in range(n)]
        if not any(weights):
            weights[rng.randrange(n)] = rng.randint(1, 9)
        total = sum(weights)
        with pytest.MonkeyPatch.context() as mp:
            calls = split_counter(mp)
            lazy = LazyCodedDepths(weights, total)
            for i in rng.sample(range(n), rng.randint(0, n)):
                lazy.depth(i)
            assert lazy.fill() == trie_oracle.coded_depths(weights, total), weights
            assert calls[0] == sum(map(bool, weights)), weights


def test_reading_state_depths_splits_only_the_unplaced_ranks():
    # after a run, the depths no request has asked for are split once each
    # when `state.depths` is read, and the ones requests placed are kept
    trace = generate(parse_workload("zipf:1.0", n=1024, m=20000, seed=7))
    state = init(1024, 2)
    run(state, trace)
    unplaced = state.known_depths.count(0)  # Laplace weights: a rank is a key
    assert state.rebuilds and 0 < unplaced < 1024
    with pytest.MonkeyPatch.context() as mp:
        calls = split_counter(mp)
        depths = state.depths
    assert calls[0] == unplaced
    assert depths == trie_oracle.coded_depths(state.tree_weights, state.tree_total)


def test_one_call_tie_rule_matches_two_code_lengths():
    """For a < b the codes tie iff a << (code_length(b) - 1) >= S: checked on
    weight pairs at dyadic and near-dyadic ratios and at 2^40 scale, then on
    every range `coded_depths` splits, against the two-length `_split`."""
    rng = random.Random(2040)
    outcomes = []
    for case in range(6000):
        total = rng.randint(1, 2**20) << rng.randrange(45)
        if case % 3 == 2:
            total = rng.randint(2**40, 2**42)
        a = total >> rng.randrange(1, 44)  # a dyadic ratio, when the shift is exact
        if case % 3 == 1:
            a += rng.choice((-1, 1))
        elif case % 3 == 2:
            a = rng.randint(2**38, 2**40)
        if a < 1:
            continue
        # b just above a, up to twice a, exactly twice, just past it, or far past
        b = a + rng.choice((1, rng.randint(1, a), a, a + 1, rng.randint(1, 4 * a)))
        if b > total:
            continue
        tied = code_length(a, total) == code_length(b, total)
        assert (a << code_length(b, total) - 1 >= total) == tied, (a, b, total)
        outcomes.append(tied)
    assert outcomes.count(True) > 1000 and outcomes.count(False) > 1000

    split = trees._split
    flanks = []  # for each split where the lighter flank is left: whether it won

    def both(mids, weights, total, lo, hi, d, p):
        r = split(mids, weights, total, lo, hi, d, p)
        assert r == trie_oracle.split_two_lengths(mids, weights, total, lo, hi, d, p)
        s = bisect_left(mids, -(-(2 * p + 1) * total >> d), lo, hi + 1)
        if lo < s <= hi and weights[s - 1] < weights[s]:
            flanks.append(r == s - 1)
        return r

    palettes = [(1, 2, 4, 8, 16), (3, 5, 7, 9, 15, 17, 31, 33), (2**40 - 1, 2**40, 2**40 + 1)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trees, "_split", both)
        for case in range(900):
            weights = [rng.choice(palettes[case % 3]) for _ in range(rng.randint(2, 60))]
            if case % 6 == 0:  # a power-of-two total
                weights.append((1 << sum(weights).bit_length()) - sum(weights))
            coded_depths(weights, sum(weights))
    assert flanks.count(True) > 1000 and flanks.count(False) > 1000


def test_depth_vector_matches_node_oracle_random():
    rng = random.Random(4111)
    palettes = [(0, 0, 0, 1, 2, 7), (0, 1, 1, 3), (1, 2, 4, 8, 16), tuple(range(1, 1000))]
    zeros = 0
    for case in range(1600):
        n = rng.randint(1, 80)
        weights = [rng.choice(palettes[case % 4]) for _ in range(n)]
        weights[rng.randrange(n)] = rng.randint(1, 9)
        zeros += 0 in weights
        keys = sorted(rng.sample(range(1, 4 * n + 1), n)) if case % 3 else range(1, n + 1)
        total = sum(weights)
        depths = coded_depths(weights, total)
        want_tree, want_depths = trie_oracle.coded_tree(weights, total, keys)
        assert tree_from_depths(keys, depths) == want_tree
        assert dict(zip(keys, depths)) == want_depths
    assert zeros >= 700


def grafted_by_insertion(weights, keys):
    """`coded_tree` over the positive weights, then each zero-weight key put
    in by its own `insert_key` walk, in increasing order. Test oracle."""
    coded = [i for i, w in enumerate(weights) if w]
    tree, depths = coded_tree(
        [weights[i] for i in coded], sum(weights), [keys[i] for i in coded]
    )
    linked = LinkedTree()
    for _, key in sorted(zip(tree.depths, tree.keys)):  # each parent before its children
        insert_key(linked, key)
    for i, w in enumerate(weights):
        if not w:
            depths[keys[i]] = insert_key(linked, keys[i])
    return linked.search_tree(), depths


def graft_slots(weights, keys, tree) -> set[str]:
    """Where each run of zero-weight keys between two coded keys a < b starts:
    "a.right" or "b.left"."""
    pair = bst_to_matchings(tree)
    parent = {child: key for match in (pair.left, pair.right) for key, child in match.items()}
    slots = set()
    for i in range(1, len(weights) - 1):
        if weights[i - 1] and not weights[i] and any(weights[i:]):
            slots.add("a.right" if parent[keys[i]] == keys[i - 1] else "b.left")
    return slots


@pytest.mark.parametrize(
    "weights, slots",
    [
        ((1, 0, 8), {"a.right"}),  # b=3 is the root, a=1 its left child
        ((8, 0, 1), {"b.left"}),  # a=1 is the root, b=3 its right child
        ((8, 0, 0, 0, 1), {"b.left"}),
        ((0, 0, 5, 3), set()),  # leading run
        ((5, 3, 0, 0), set()),  # trailing run
        ((0, 0, 7, 0, 0), set()),  # one coded key among zeros
        ((0, 1, 0, 8, 0, 0, 1, 0), {"a.right", "b.left"}),
        ((3,), set()),
    ],
)
def test_grafted_runs_match_insertion(weights, slots):
    keys = range(1, len(weights) + 1)
    tree, depths = coded_tree(weights, sum(weights), keys)
    want_tree, want_depths = grafted_by_insertion(weights, keys)
    assert format_tree(tree) == format_tree(want_tree)
    assert depths == want_depths == depth_map(tree)
    assert graft_slots(weights, keys, tree) == slots


def test_grafted_runs_match_insertion_random():
    rng = random.Random(60)
    seen = set()
    for _ in range(1500):
        n = rng.randint(1, 60)
        weights = [rng.choice((0, 0, 0, 1, 2, 7)) for _ in range(n)]
        weights[rng.randrange(n)] = rng.randint(1, 9)
        keys = sorted(rng.sample(range(1, 4 * n + 1), n))
        tree, depths = coded_tree(weights, sum(weights), keys)
        want_tree, want_depths = grafted_by_insertion(weights, keys)
        assert tree == want_tree
        assert depths == want_depths
        seen |= graft_slots(weights, keys, tree)
    assert seen == {"a.right", "b.left"}


def test_deep_grafted_chain_needs_no_recursion():
    # raw mode rebuilds at t=1 over key 1 alone and grafts 2..3000 as a chain
    state = init(3000, 4, "none")
    run(state, [1] * 5)
    tree = state.tree
    assert state.depths[2999] == 3000
    assert parse_tree(format_tree(tree)) == tree
    assert isinstance(hash(tree), int)


def test_tree_from_depths_builds_deep_chains_without_recursion():
    n = 3000
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        right = tree_from_depths(range(1, n + 1), range(1, n + 1))
        left = tree_from_depths(range(1, n + 1), range(n, 0, -1))
    finally:
        sys.setrecursionlimit(limit)
    assert right.root == 1 and left.root == n
    assert depth_map(right) == {k: k for k in range(1, n + 1)}
    assert depth_map(left) == {k: n + 1 - k for k in range(1, n + 1)}


def random_bst(rng: random.Random, keys: list[int]) -> SearchTree:
    tree = LinkedTree()
    for key in rng.sample(keys, len(keys)):
        insert_key(tree, key)
    return tree.search_tree()


def test_tree_from_depths_inverts_depth_map():
    rng = random.Random(1980)
    for _ in range(300):
        n = rng.randint(1, 60)
        keys = sorted(rng.sample(range(1, 5 * n + 1), n))
        tree = random_bst(rng, keys)
        depths = depth_map(tree)
        assert tree_from_depths(keys, [depths[k] for k in keys]) == tree


def test_child_links_match_the_linked_oracle():
    # `format_tree`, `bst_to_matchings` and `matchings_to_bst` read each key's
    # children from the depths alone; the node walks of the same trees built
    # as linked nodes must agree, also on chains deeper than the recursion limit
    rng = random.Random(2020)
    linked = []
    for _ in range(300):
        n = rng.randint(1, 60)
        tree = LinkedTree()
        for key in rng.sample(range(1, n + 1), n):
            insert_key(tree, key)
        linked.append(tree)
    n = 3000
    for keys, side in ((range(1, n + 1), "right"), (range(n, 0, -1), "left")):
        tree = LinkedTree(Node(keys[0]))
        node = tree.root
        for key in keys[1:]:
            setattr(node, side, Node(key))
            node = getattr(node, side)
        linked.append(tree)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        for tree in linked:
            want = tree.search_tree()
            pair = bst_to_matchings(want)
            assert format_tree(want) == trie_oracle.format_linked(tree)
            assert (pair.left, pair.right) == trie_oracle.linked_matchings(tree)
            assert matchings_to_bst(pair) == want
    finally:
        sys.setrecursionlimit(limit)
    assert linked[-1].search_tree().depths == tuple(range(n, 0, -1))


@pytest.mark.parametrize("depths", [[2], [1, 1], [1, 3], [1, 2, 2], [2, 1, 3], [0], [2, 2, 1]])
def test_tree_from_depths_rejects_impossible_depths(depths):
    with pytest.raises(ValueError):
        tree_from_depths(range(1, len(depths) + 1), depths)
    with pytest.raises(ValueError):
        tree_from_depths([1, 2], [1])
