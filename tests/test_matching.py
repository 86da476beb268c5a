import json
import random
from fractions import Fraction

import pytest

from abst.errors import InvalidMatchingError, KeyNotFoundError
from abst.matching import MatchingPair, bst_to_matchings, matchings_to_bst, route
from abst.sfe import ProbabilityDistribution, parse_distribution
from abst.trees import depth_map, sfe_to_bst
from trie_oracle import parse_tree

TREE_A = parse_tree("(3 (2 (1 . .) .) (4 . (5 . .)))")
TREE_B = parse_tree("(3 (1 . (2 . .)) (4 . (5 . .)))")


def test_example_a_matchings():
    pair = bst_to_matchings(TREE_A)
    assert pair.left == {3: 2, 2: 1}
    assert pair.right == {3: 4, 4: 5}
    assert pair.n == 5


def test_example_b_matchings():
    pair = bst_to_matchings(TREE_B)
    assert pair.left == {3: 1}
    assert pair.right == {1: 2, 3: 4, 4: 5}


def test_single_node_matchings_empty():
    pair = bst_to_matchings(parse_tree("(1 . .)"))
    assert pair.n == 1 and pair.left == {} and pair.right == {}
    assert matchings_to_bst(pair).root == 1


def test_round_trip_identity():
    for tree in (TREE_A, TREE_B):
        assert matchings_to_bst(bst_to_matchings(tree)) == tree


def test_symmetric_order_violation_rejected():
    with pytest.raises(InvalidMatchingError, match="symmetric order"):
        matchings_to_bst(MatchingPair(n=2, left={1: 2}))


def test_cycle_rejected():
    with pytest.raises(InvalidMatchingError, match="cycle"):
        matchings_to_bst(MatchingPair(n=2, right={1: 2, 2: 1}))


def test_multiple_roots_rejected():
    with pytest.raises(InvalidMatchingError, match="multiple roots"):
        matchings_to_bst(MatchingPair(n=3, left={3: 2}))


def test_duplicate_child_rejected():
    with pytest.raises(InvalidMatchingError, match="twice"):
        matchings_to_bst(MatchingPair(n=3, left={1: 3}, right={2: 3}))


def test_self_loop_rejected():
    with pytest.raises(InvalidMatchingError, match="self-loop"):
        matchings_to_bst(MatchingPair(n=2, left={1: 1}))


def test_out_of_range_edge_rejected():
    with pytest.raises(InvalidMatchingError, match="outside"):
        matchings_to_bst(MatchingPair(n=2, left={1: 7}))


def test_off_tree_cycle_rejected():
    # one root, unique parents, but 2<->3 never hangs off the root
    pair = MatchingPair(n=3, left={2: 3}, right={3: 2})
    with pytest.raises(InvalidMatchingError, match="unreachable"):
        matchings_to_bst(pair)


def test_route_examples():
    pair = bst_to_matchings(TREE_A)
    assert route(pair, 5) == [3, 4, 5]
    assert route(pair, 3) == [3]
    assert route(bst_to_matchings(TREE_B), 2) == [3, 1, 2]


def test_route_rejects_unknown_target():
    pair = bst_to_matchings(TREE_A)
    with pytest.raises(KeyNotFoundError):
        route(pair, 6)
    with pytest.raises(KeyNotFoundError):
        route(pair, 0)


def test_route_dead_end_on_corrupt_pair():
    # unique root 2, but greedy descent toward 3 finds no right edge at 2
    pair = MatchingPair(n=3, left={2: 1}, right={1: 3})
    with pytest.raises(KeyNotFoundError, match="dead end"):
        route(pair, 3)


def test_route_length_equals_depth_random():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 40)
        weights = [rng.randint(1, 50) for _ in range(n)]
        total = sum(weights)
        tree = sfe_to_bst(
            ProbabilityDistribution(tuple(Fraction(w, total) for w in weights))
        )
        pair = bst_to_matchings(tree)
        depths = depth_map(tree)
        for key in range(1, n + 1):
            assert len(route(pair, key)) == depths[key]


def pair_from_json_dict(data: dict) -> MatchingPair:
    """Inverse of `MatchingPair.to_json_dict`."""
    return MatchingPair(
        n=int(data["n"]),
        left={int(u): int(v) for u, v in data["left"]},
        right={int(u): int(v) for u, v in data["right"]},
    )


def test_json_round_trip():
    pair = bst_to_matchings(sfe_to_bst(parse_distribution("0.1,0.2,0.4,0.2,0.1")))
    data = json.loads(json.dumps(pair.to_json_dict()))
    assert pair_from_json_dict(data) == pair
