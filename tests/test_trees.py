import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import trie_oracle
from abst.checks import random_distribution
from abst.dynamic import init, run, tree_for_probs
from abst.errors import KeyNotFoundError
from abst.sfe import CodeTable, ProbabilityDistribution, build_sfe_code, parse_distribution
from abst.trees import (
    Node,
    SearchTree,
    build_balanced,
    coded_tree,
    depth_map,
    depth_of,
    format_tree,
    in_order,
    parse_tree,
    sfe_to_bst,
)
from trie_oracle import (
    CorruptCodeError,
    PrefixTree,
    TrieNode,
    build_prefix_tree,
    insert_key,
    prefix_tree_to_bst,
)

EXAMPLE_A = parse_distribution("0.1,0.2,0.4,0.2,0.1")
EXAMPLE_B = parse_distribution("3/12,2/12,4/12,2/12,1/12")
TREE_A = "(3 (2 (1 . .) .) (4 . (5 . .)))"
TREE_B = "(3 (1 . (2 . .)) (4 . (5 . .)))"


def test_trie_leaf_depths_example_a():
    trie = build_prefix_tree(build_sfe_code(EXAMPLE_A))
    assert trie.leaf_depths() == {1: 6, 2: 5, 3: 4, 4: 5, 5: 6}
    assert [k for k, _ in trie.leaf_items()] == [1, 2, 3, 4, 5]


def test_trie_single_codeword():
    trie = build_prefix_tree(build_sfe_code([Fraction(1)]))
    assert trie.root.left is None
    assert trie.root.right is not None
    assert trie.root.right.key == 1


def test_trie_two_even_keys():
    trie = build_prefix_tree(build_sfe_code([Fraction(1, 2), Fraction(1, 2)]))
    assert trie.leaf_depths() == {1: 3, 2: 3}


def test_trie_rejects_prefix_collision():
    table = build_sfe_code(EXAMPLE_A)
    bad = CodeTable(
        tuple(
            dataclasses.replace(e, codeword="0000") if e.key == 3 else e
            for e in table.entries
        )
    )
    with pytest.raises(CorruptCodeError):
        build_prefix_tree(bad)


def test_conversion_example_a():
    tree = prefix_tree_to_bst(build_prefix_tree(build_sfe_code(EXAMPLE_A)))
    assert format_tree(tree) == TREE_A
    assert format_tree(sfe_to_bst(EXAMPLE_A)) == TREE_A


def test_conversion_example_b():
    tree = prefix_tree_to_bst(build_prefix_tree(build_sfe_code(EXAMPLE_B)))
    assert format_tree(tree) == TREE_B
    assert format_tree(sfe_to_bst(EXAMPLE_B)) == TREE_B


def test_conversion_single_leaf():
    tree = prefix_tree_to_bst(build_prefix_tree(build_sfe_code([Fraction(1)])))
    assert format_tree(tree) == "(1 . .)"
    assert format_tree(sfe_to_bst([Fraction(1)])) == "(1 . .)"


def test_conversion_empty_trie_gives_empty_tree():
    assert prefix_tree_to_bst(PrefixTree(TrieNode())).root is None


def test_sfe_to_bst_depths():
    assert depth_map(sfe_to_bst(EXAMPLE_A)) == {1: 3, 2: 2, 3: 1, 4: 2, 5: 3}
    assert depth_map(sfe_to_bst(EXAMPLE_B)) == {1: 2, 2: 3, 3: 1, 4: 2, 5: 3}
    assert depth_map(sfe_to_bst([Fraction(1)])) == {1: 1}


def test_sfe_to_bst_relabeled_keys():
    tree = sfe_to_bst(EXAMPLE_A, keys=[2, 4, 6, 8, 10])
    assert in_order(tree) == [2, 4, 6, 8, 10]
    assert depth_of(tree, 6) == 1
    with pytest.raises(ValueError):
        sfe_to_bst(EXAMPLE_A, keys=[1, 2, 3])
    with pytest.raises(ValueError):
        sfe_to_bst(EXAMPLE_A, keys=[5, 4, 3, 2, 1])


def test_depth_of():
    tree = sfe_to_bst(EXAMPLE_A)
    assert depth_of(tree, 3) == 1
    assert depth_of(tree, 5) == 3
    assert depth_of(parse_tree("(7 . .)"), 7) == 1
    with pytest.raises(KeyNotFoundError):
        depth_of(tree, 9)


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
    assert depth_of(tree, 3) == 1
    assert in_order(tree) == [1, 2, 3, 4, 5]
    assert build_balanced(1).root.key == 1
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

    return SearchTree(build(1, n))


def test_balanced_tree_matches_recursive_build():
    for n in range(1, 301):
        assert format_tree(build_balanced(n)) == format_tree(recursive_balanced(n))


def test_insert_key_grafts_leaves():
    tree = parse_tree("(2 . .)")
    assert insert_key(tree, 1) == 2
    assert insert_key(tree, 3) == 2
    assert insert_key(tree, 4) == 3
    assert format_tree(tree) == "(2 (1 . .) (3 . (4 . .)))"
    with pytest.raises(ValueError):
        insert_key(tree, 2)


def test_conversion_is_deterministic():
    assert sfe_to_bst(EXAMPLE_A) == sfe_to_bst(EXAMPLE_A)
    trie = build_prefix_tree(build_sfe_code(EXAMPLE_A))
    assert prefix_tree_to_bst(trie) == prefix_tree_to_bst(trie)
    # and the source trie is not consumed
    assert trie.leaf_depths() == {1: 6, 2: 5, 3: 4, 4: 5, 5: 6}


weight_lists = st.lists(st.integers(1, 64), min_size=2, max_size=32)


@settings(max_examples=120, deadline=None)
@given(weights=weight_lists)
def test_conversion_invariants_random(weights):
    total = sum(weights)
    dist = ProbabilityDistribution(tuple(Fraction(w, total) for w in weights))
    table = build_sfe_code(dist)
    tree, depths = coded_tree(weights, total, range(1, len(weights) + 1))
    n = len(weights)
    assert in_order(tree) == list(range(1, n + 1))
    assert depths == depth_map(tree)
    assert tree == trie_oracle.sfe_to_bst(dist)
    for key, p in enumerate(dist.probs, start=1):
        # never deeper than its code trie leaf
        assert depths[key] <= table.entry(key).length + 1
        # exact form of depth < log2(1/p) + 3
        e = depths[key] - 3
        if e >= 0:
            assert (p.numerator << e) < p.denominator
        else:
            assert p.numerator < (p.denominator << -e)


def _with_zeros(rng: random.Random, probs) -> list[Fraction]:
    """The probabilities with zeros inserted at random places."""
    out = list(probs)
    for _ in range(rng.randint(1, 8)):
        out.insert(rng.randint(0, len(out)), Fraction(0))
    return out


def test_range_walk_matches_trie_oracle():
    rng = random.Random(2024)
    dyadic = 0
    for _ in range(500):
        dist = random_distribution(rng, 2, 128)
        dyadic += all(p.denominator & (p.denominator - 1) == 0 for p in dist.probs)
        assert build_sfe_code(dist) == trie_oracle.build_sfe_code(dist)
        assert sfe_to_bst(dist) == trie_oracle.sfe_to_bst(dist)
        probs = _with_zeros(rng, dist.probs)
        assert tree_for_probs(probs) == trie_oracle.tree_for_probs(probs)
    assert dyadic >= 50


def test_range_walk_matches_trie_oracle_zipf_4096():
    n = 4096
    weights = [10**6 // r for r in range(1, n + 1)]
    total = sum(weights)
    dist = ProbabilityDistribution(tuple(Fraction(w, total) for w in weights))
    assert build_sfe_code(dist) == trie_oracle.build_sfe_code(dist)
    tree, depths = coded_tree(weights, total, range(1, n + 1))
    assert tree == trie_oracle.sfe_to_bst(dist) == sfe_to_bst(dist)
    assert depths == depth_map(tree)


def grafted_by_insertion(weights, keys):
    """`coded_tree` over the positive weights, then each zero-weight key put
    in by its own `insert_key` walk, in increasing order. Test oracle."""
    coded = [i for i, w in enumerate(weights) if w]
    tree, depths = coded_tree(
        [weights[i] for i in coded], sum(weights), [keys[i] for i in coded]
    )
    for i, w in enumerate(weights):
        if not w:
            depths[keys[i]] = insert_key(tree, keys[i])
    return tree, depths


def graft_slots(weights, keys, tree) -> set[str]:
    """Where each run of zero-weight keys between two coded keys a < b starts:
    "a.right" or "b.left"."""
    parent = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        for child in (node.left, node.right):
            if child is not None:
                parent[child.key] = node.key
                stack.append(child)
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
    assert state.depth_by_key[3000] == 3000
    assert parse_tree(format_tree(tree)) == tree
    assert isinstance(hash(tree), int)
