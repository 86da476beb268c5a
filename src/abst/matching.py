"""A BST as two spine matchings: one for left children, one for right.

Each spine switch holds a partial matching over the n ports (ports are key
ranks); greedy comparison routing from the root reaches any key in exactly
its tree depth. `bst_to_matchings` reads each key's children from the tree's
depths (`trees._links`); `matchings_to_bst` walks the matchings from the root
for each port's depth, and the tree those depths fix must give the same
matchings back, or the matchings break symmetric order.
"""

from __future__ import annotations

import contextlib

from .errors import InvalidMatchingError, KeyNotFoundError
from .trees import SearchTree, _links


class MatchingPair:
    """Left- and right-child matchings over ports 1..n; a fresh pair's
    matchings are empty."""

    __slots__ = ("n", "left", "right")

    def __init__(self, n: int, left: dict[int, int] | None = None,
                 right: dict[int, int] | None = None):
        self.n = n
        self.left = {} if left is None else left
        self.right = {} if right is None else right

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.n, self.left, self.right) == (other.n, other.left, other.right)

    def __repr__(self) -> str:
        return f"MatchingPair(n={self.n!r}, left={self.left!r}, right={self.right!r})"

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "left": sorted([u, v] for u, v in self.left.items()),
            "right": sorted([u, v] for u, v in self.right.items()),
        }


def bst_to_matchings(tree: SearchTree) -> MatchingPair:
    """Extract the two child matchings of a tree over ranks 1..n; ValueError
    if its depths fit no BST."""
    keys = tree.keys
    _, left, right = _links(tree.depths)
    pair = MatchingPair(n=len(keys))
    for i, key in enumerate(keys):
        if left[i] >= 0:
            pair.left[key] = keys[left[i]]
        if right[i] >= 0:
            pair.right[key] = keys[right[i]]
    return pair


def _find_root(pair: MatchingPair) -> int:
    targets = list(pair.left.values()) + list(pair.right.values())
    target_set = set(targets)
    if len(targets) != len(target_set):
        raise InvalidMatchingError("some port is matched as a child twice")
    roots = [k for k in range(1, pair.n + 1) if k not in target_set]
    if len(roots) > 1:
        raise InvalidMatchingError(f"multiple roots: {roots}")
    if not roots:
        raise InvalidMatchingError("no root: the matchings contain a cycle")
    return roots[0]


def matchings_to_bst(pair: MatchingPair) -> SearchTree:
    """Rebuild the tree from its matchings, validating as it goes."""
    if pair.n < 1:
        raise InvalidMatchingError("need at least one port")
    for name, match in (("left", pair.left), ("right", pair.right)):
        for u, v in match.items():
            if not (1 <= u <= pair.n and 1 <= v <= pair.n):
                raise InvalidMatchingError(f"{name} edge {u}->{v} outside 1..{pair.n}")
            if u == v:
                raise InvalidMatchingError(f"{name} edge {u}->{v} is a self-loop")
    root_key = _find_root(pair)
    # reachability: unique parents plus one root still allow an off-tree cycle
    depths, reached = {root_key: 1}, [root_key]
    for u in reached:  # grows as it goes: a breadth-first walk from the root
        for v in (pair.left.get(u), pair.right.get(u)):
            if v is not None:
                depths[v] = depths[u] + 1
                reached.append(v)
    keys = range(1, pair.n + 1)
    if len(depths) != pair.n:
        missing = sorted(set(keys) - depths.keys())
        raise InvalidMatchingError(f"ports unreachable from the root: {missing}")
    # the BST over ranks 1..n at these depths has these matchings iff they
    # describe a tree in symmetric order
    tree = SearchTree(tuple(keys), tuple(depths[k] for k in keys))
    with contextlib.suppress(ValueError):  # raised when the depths fit no BST
        if bst_to_matchings(tree) == pair:
            return tree
    raise InvalidMatchingError("matchings violate symmetric order")


def route(pair: MatchingPair, target: int) -> list[int]:
    """Greedy comparison route from the root to `target`.

    Path length equals the target's tree depth.
    """
    if not 1 <= target <= pair.n:
        raise KeyNotFoundError(f"key {target} outside 1..{pair.n}")
    current = _find_root(pair)
    path = [current]
    while current != target:
        step = pair.left.get(current) if target < current else pair.right.get(current)
        if step is None:
            raise KeyNotFoundError(f"dead end at {current} while routing to {target}")
        current = step
        path.append(current)
        if len(path) > pair.n:
            raise InvalidMatchingError("routing loop: matchings are not a tree")
    return path
