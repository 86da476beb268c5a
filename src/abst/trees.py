"""Biased binary search trees from order-preserving prefix codes.

A coded tree is computed as a depth vector, with no trie and no node objects.
Key ranges lo..hi whose codewords share their first d bits are walked from an
explicit stack. Because the code is prefix-free and order-preserving, bit d
splits such a range into a run of 0s and a run of 1s. The range's root is the
shorter-coded of the two keys flanking that split (ties go left, and a range
with only one side takes that side's flank) and sits at depth d+1; both
remaining halves go back on the stack with d+1 shared bits. This is the
tree the code trie would give by promoting flanking leaves: keys stay in
symmetric order and no key ends up deeper than its trie leaf (codeword
length + 1).

The split is found in O(1), so a rebuild is linear. Let lcp[i] be the number
of leading bits codewords i and i+1 share. A range's codewords share exactly
its smallest lcp, so the range is mixed at bit d iff that minimum is d, and
it then splits at the one pair holding it. The walk carries, with each range,
a node of the min-rooted Cartesian tree of lcp (Vuillemin 1980) whose subtree
covers the range's pairs, and descends from it to the range minimum. The
subtrees handed to disjoint ranges are disjoint, so the descents are O(n) in
all (compare the LCP intervals of Kasai et al. 2001).

A BST is fixed by its in-order keys and their depths, so a `SearchTree` is
those two tuples and nothing else; `sfe_to_bst` pairs the keys with
`coded_depths`. The child links are read when they are needed (by
`format_tree` and `matching.bst_to_matchings`) from one stack pass over the
depths, `_links`, which is also the check that the depths fit a BST.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .sfe import ProbabilityDistribution, common_weights, sfe_code


@dataclass(frozen=True)
class SearchTree:
    """BST as its keys in symmetric order and their depths, root at depth 1.

    `tree_from_depths` is the constructor that checks the depths fit a BST.
    """

    keys: tuple[int, ...]
    depths: tuple[int, ...]

    @property
    def root(self) -> int | None:
        """The root key; None for the empty tree."""
        return self.keys[self.depths.index(1)] if self.keys else None


def coded_depths(weights: Sequence[int], total: int) -> list[int]:
    """Depth in the coded tree of each key, for integer weights over `total`.

    Keys of positive weight are placed by their Shannon-Fano-Elias codewords;
    a key of zero weight cannot get a codeword, and each run of them hangs as
    a chain one below the deeper of its coded neighbours, as leaf insertion
    in increasing order would put it. `tree_from_depths` gives the tree
    these depths fix.
    """
    coded = [i for i, w in enumerate(weights) if w]
    lengths, words = sfe_code([weights[i] for i in coded], total)
    n = len(coded)
    # codewords padded to one length, so that a pair's xor has its top bit
    # where the two first differ
    top = max(lengths, default=0)
    aligned = [word << (top - length) for word, length in zip(words, lengths)]
    lcp = [top - (a ^ b).bit_length() for a, b in zip(aligned, aligned[1:])]
    left, right = [-1] * (n - 1), [-1] * (n - 1)  # Cartesian tree of lcp
    spine: list[int] = []
    for i, v in enumerate(lcp):
        last = -1
        while spine and lcp[spine[-1]] > v:
            last = spine.pop()
        left[i] = last
        if spine:
            right[spine[-1]] = i
        spine.append(i)
    by_rank = [0] * n
    # (lo, hi, d, m): ranks lo..hi share d code bits, their root goes at
    # depth d+1, and the subtree of Cartesian node m covers pairs lo..hi-1
    stack = [(0, n - 1, 0, spine[0] if spine else -1)] if n else []
    while stack:
        lo, hi, d, m = stack.pop()
        while lo < hi:
            while not lo <= m < hi:  # descend past pairs that left the range
                m = left[m] if m >= hi else right[m]
            if lcp[m] == d:  # bit d is 0 up to rank m and 1 from m+1
                r = m if lengths[m] <= lengths[m + 1] else m + 1
                by_rank[r] = d + 1
                if lo < r:
                    stack.append((lo, r - 1, d + 1, left[m]))
                if r < hi:
                    stack.append((r + 1, hi, d + 1, right[m]))
                break
            # bit d is the same on the whole range: peel the flank on the
            # side of the empty run, all-1s at lo, all-0s at hi
            if aligned[hi] >> (top - 1 - d) & 1:
                by_rank[lo] = d + 1
                lo += 1
            else:
                by_rank[hi] = d + 1
                hi -= 1
            d += 1
        else:
            by_rank[lo] = d + 1
    if len(coded) == len(weights):
        return by_rank
    depths = [0] * len(weights)
    for i, depth in zip(coded, by_rank):
        depths[i] = depth
    rank, chain = 0, 0  # coded keys so far; depth of the last key of a zero run
    for i, w in enumerate(weights):
        if w:
            rank, chain = rank + 1, 0
            continue
        if not chain:
            a = by_rank[rank - 1] if rank else 0
            b = by_rank[rank] if rank < len(coded) else 0
            chain = max(a, b)
        chain += 1
        depths[i] = chain
    return depths


def _links(depths: Sequence[int]) -> tuple[int, list[int], list[int]]:
    """The root position of the one BST whose in-order keys sit at these
    depths, and each position's left and right child (-1 for none).

    Every subtree's root is the unique shallowest key of its range, so one
    stack pass builds the tree (the Cartesian tree of the depths); ValueError
    if no BST has these depths.
    """
    n = len(depths)
    left, right = [-1] * n, [-1] * n
    spine: list[int] = []  # the right spine of the tree built so far
    for i, depth in enumerate(depths):
        last = -1
        while spine and depths[spine[-1]] > depth:
            last = spine.pop()
        left[i] = last
        if spine:
            right[spine[-1]] = i
        spine.append(i)
    root = spine[0] if spine else -1
    if spine and depths[root] != 1 or any(
        c >= 0 and depths[c] != depths[i] + 1 for i in range(n) for c in (left[i], right[i])
    ):
        raise ValueError("no binary search tree has these depths")
    return root, left, right


def tree_from_depths(keys: Sequence[int], depths: Sequence[int]) -> SearchTree:
    """The one BST with `keys` in symmetric order at the given depths;
    ValueError if no BST has them."""
    if len(keys) != len(depths):
        raise ValueError("keys and depths differ in length")
    _links(depths)
    return SearchTree(tuple(keys), tuple(depths))


def sfe_to_bst(
    dist: ProbabilityDistribution | Iterable,
    keys: Sequence[int] | None = None,
) -> SearchTree:
    """Build the biased BST for a distribution via its prefix code.

    `keys` relabels the n ranks with arbitrary strictly increasing key
    values (default 1..n); the code shape depends only on the probabilities.
    """
    if not isinstance(dist, ProbabilityDistribution):
        dist = ProbabilityDistribution(tuple(dist))
    if keys is None:
        keys = range(1, dist.n + 1)
    else:
        keys = list(keys)
        if len(keys) != dist.n:
            raise ValueError("keys and distribution differ in length")
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("keys must be strictly increasing")
    weights, total = common_weights(dist.probs)
    return tree_from_depths(keys, coded_depths(weights, total))


def depth_map(tree: SearchTree) -> dict[int, int]:
    """Depth of every key, root at depth 1."""
    return dict(zip(tree.keys, tree.depths))


def in_order(tree: SearchTree) -> list[int]:
    return list(tree.keys)


def format_tree(tree: SearchTree) -> str:
    """Serialize as nested `(key left right)` with `.` for empty."""
    root, left, right = _links(tree.depths)
    parts: list[str] = []
    stack: list = [root]  # subtree positions to write, and literal text between them
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item < 0:
            parts.append(".")
        else:
            parts.append(f"({tree.keys[item]} ")
            stack += [")", right[item], " ", left[item]]
    return "".join(parts)


def parse_tree(text: str) -> SearchTree:
    """Inverse of format_tree."""
    tokens = iter(text.replace("(", " ( ").replace(")", " ) ").split())

    def take() -> str:
        tok = next(tokens, None)
        if tok is None:
            raise ValueError("unexpected end of tree text")
        return tok

    keys, depths = [], []
    # open nodes, each with whether its left subtree is already complete
    open_keys: list[tuple[int, bool]] = []
    while True:
        tok = take()
        if tok == "(":
            open_keys.append((int(take()), False))
            continue
        if tok != ".":
            raise ValueError(f"expected '(' or '.', got {tok!r}")
        while open_keys and open_keys[-1][1]:  # a right subtree just completed
            open_keys.pop()
            closing = take()
            if closing != ")":
                raise ValueError(f"expected ')', got {closing!r}")
        if not open_keys:
            break
        key = open_keys[-1][0]  # its left subtree is done: it comes next in order
        keys.append(key)
        depths.append(len(open_keys))
        open_keys[-1] = (key, True)
    if next(tokens, None) is not None:
        raise ValueError("trailing tokens after tree")
    return SearchTree(tuple(keys), tuple(depths))


def build_balanced(n: int) -> SearchTree:
    """Balanced BST over 1..n: each range's root is its median (lower on even)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return build_from_roots(n, lambda lo, hi: (lo + hi) // 2)


def build_from_roots(n: int, root_of: Callable[[int, int], int]) -> SearchTree:
    """BST over 1..n whose subtree on keys lo..hi has root `root_of(lo, hi)`.

    Built with an explicit stack, so no depth hits the recursion limit.
    """
    depths = [0] * n
    stack = [(1, n, 1)]  # (lo, hi, depth of their root)
    while stack:
        lo, hi, depth = stack.pop()
        if lo > hi:
            continue
        root = root_of(lo, hi)
        depths[root - 1] = depth
        stack.append((lo, root - 1, depth + 1))
        stack.append((root + 1, hi, depth + 1))
    return SearchTree(tuple(range(1, n + 1)), tuple(depths))
