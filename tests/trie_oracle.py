"""Reference rebuild pipeline for tests: the coded depths found by bisecting
each range, the coded tree built node by node, and the leaf insertion that
grafted zero-weight keys one root-to-leaf walk at a time; with the linked
`Node` trees they build, and the walks that read such a tree.

`coded_depths` is the range walk `abst.trees` used before it found each
split from the codewords' LCP array: a mixed range is split by a binary
search over bit d. It is kept as written (only its `sfe_code` call reads the
new `(lengths, words)` result) so the tests can require the walks to give
identical depths. `lcp_coded_depths` is that LCP walk, kept as written: it
found each range's split as the range minimum of the LCP array of adjacent
codewords, read from the array's Cartesian tree, until `abst.trees` came to
bisect the CDF midpoints and compute no codeword at all.

`coded_tree` is the range walk `abst.trees` used before the tree became a
function of the depth vector: it links a `Node` per key as it walks, where
`trees.coded_depths` only records depths. It is kept as written so the tests
can require the two to give identical trees and depth maps. The code trie it
replaced was retired once it had been frozen as golden trees and code tables
(`tests/golden/trie_trees.json`).

`RangeMemoDepths` is the on-demand walk `abst.trees.LazyCodedDepths` ran
before it kept the tree as child links by rank: each walk level builds a
`(lo, hi)` key and looks the range's root up in a dict. It is kept as
written, and splits with the library's `_split`, so the tests can require
both walks to memoize the same tree. `split_two_lengths` is `_split` as
it was before its tie test computed one code length, not two.

`abst.trees.SearchTree` is a BST's in-order keys and depths, with no nodes.
The oracles here build a `LinkedTree` of `Node`s, as the library once did,
and only what they return is converted, by `LinkedTree.search_tree`.
`format_linked` and `linked_matchings` are the node walks that
`trees.format_tree` and `matching.bst_to_matchings` ran before the tree lost
its nodes. `parse_tree` reads `trees.format_tree`'s text back into a
`SearchTree`, the inverse that the format tests check it against. Only
tests import this module.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from typing import Callable, Sequence

from abst.sfe import code_length, sfe_code
from abst.trees import SearchTree, _midpoints, _split


class Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key: int):
        self.key = key
        self.left: Node | None = None
        self.right: Node | None = None


class LinkedTree:
    """A BST of linked `Node`s; empty tree has root None."""

    def __init__(self, root: Node | None = None):
        self.root = root

    def search_tree(self) -> SearchTree:
        """The same tree as in-order keys and depths, by an in-order walk."""
        keys, depths = [], []
        stack: list[tuple[Node, int]] = []
        node, depth = self.root, 1
        while node is not None or stack:
            while node is not None:
                stack.append((node, depth))
                node, depth = node.left, depth + 1
            node, depth = stack.pop()
            keys.append(node.key)
            depths.append(depth)
            node, depth = node.right, depth + 1
        return SearchTree(tuple(keys), tuple(depths))


def format_linked(tree: LinkedTree) -> str:
    """Serialize as nested `(key left right)` with `.` for empty."""
    parts: list[str] = []
    stack: list = [tree.root]  # subtrees to write, and literal text between them
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item is None:
            parts.append(".")
        else:
            parts.append(f"({item.key} ")
            stack += [")", item.right, " ", item.left]
    return "".join(parts)


def parse_tree(text: str) -> SearchTree:
    """Inverse of `trees.format_tree`."""
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


def linked_matchings(tree: LinkedTree) -> tuple[dict[int, int], dict[int, int]]:
    """Each key's left child and each key's right child."""
    left: dict[int, int] = {}
    right: dict[int, int] = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if node.left is not None:
            left[node.key] = node.left.key
            stack.append(node.left)
        if node.right is not None:
            right[node.key] = node.right.key
            stack.append(node.right)
    return left, right


def coded_depths(weights: Sequence[int], total: int) -> list[int]:
    """Depth in the coded tree of each key, for integer weights over `total`.

    Keys of positive weight are placed by their Shannon-Fano-Elias codewords;
    a key of zero weight cannot get a codeword, and each run of them hangs as
    a chain one below the deeper of its coded neighbours, as leaf insertion
    in increasing order would put it. No node is built: `tree_from_depths`
    gives the tree these depths fix.
    """
    coded = [i for i, w in enumerate(weights) if w]
    lengths, words = sfe_code([weights[i] for i in coded], total)
    by_rank = [0] * len(coded)
    stack = [(0, len(coded) - 1, 0, 1)] if coded else []  # (lo, hi, d, depth)
    while stack:
        lo, hi, d, depth = stack.pop()
        r = lo
        if lo < hi:
            # bit d is 0 on a prefix of lo..hi and 1 on the rest; when one
            # side is empty, the other side's flank (hi or lo) is the root
            if not words[hi] >> (lengths[hi] - 1 - d) & 1:
                r = hi
            elif not words[lo] >> (lengths[lo] - 1 - d) & 1:
                s = bisect_left(
                    range(lo, hi + 1), 1, key=lambda i: words[i] >> (lengths[i] - 1 - d) & 1
                ) + lo
                r = s - 1 if lengths[s - 1] <= lengths[s] else s
        by_rank[r] = depth
        if lo < r:
            stack.append((lo, r - 1, d + 1, depth + 1))
        if r < hi:
            stack.append((r + 1, hi, d + 1, depth + 1))
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


def lcp_coded_depths(weights: Sequence[int], total: int) -> list[int]:
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


def coded_tree(
    weights: Sequence[int], total: int, keys: Sequence[int]
) -> tuple[SearchTree, dict[int, int]]:
    """Biased BST for integer weights over `total`, and the depth of every key.

    `keys` labels the weights with strictly increasing key values. Keys of
    positive weight are placed by their Shannon-Fano-Elias codewords; keys of
    zero weight cannot get a codeword and are grafted as leaves in increasing
    order, which never moves a coded key.
    """
    coded = [i for i, w in enumerate(weights) if w]
    lengths, words = sfe_code([weights[i] for i in coded], total)
    depths: dict[int, int] = {}
    nodes: list[Node | None] = [None] * len(coded)  # coded nodes by rank
    tree = LinkedTree(None)
    # (lo, hi, d, depth, parent, is_left): ranks lo..hi share d code bits
    stack = [(0, len(coded) - 1, 0, 1, None, False)]
    while stack:
        lo, hi, d, depth, parent, is_left = stack.pop()
        if lo > hi:
            continue
        r = lo
        if lo < hi:
            s = bisect_left(
                range(lo, hi + 1), 1, key=lambda i: words[i] >> (lengths[i] - 1 - d) & 1
            ) + lo
            if s > hi:
                r = hi
            elif s > lo:
                r = s - 1 if lengths[s - 1] <= lengths[s] else s
        key = keys[coded[r]]
        node = nodes[r] = Node(key)
        depths[key] = depth
        if parent is None:
            tree.root = node
        elif is_left:
            parent.left = node
        else:
            parent.right = node
        stack.append((lo, r - 1, d + 1, depth + 1, node, True))
        stack.append((r + 1, hi, d + 1, depth + 1, node, False))
    # Leaf insertion in increasing order hangs each run of zero-weight keys
    # as a right chain from the one empty slot between its coded neighbours
    # a < b: a.right if that is empty, else b.left. The slot lies one below
    # the deeper of a and b.
    rank, tail, depth = 0, None, 0
    for i, w in enumerate(weights):
        if w:
            rank, tail = rank + 1, None
            continue
        node = Node(keys[i])
        if tail is not None:
            tail.right = node
        else:
            a = nodes[rank - 1] if rank else None
            b = nodes[rank] if rank < len(nodes) else None
            if a is not None and a.right is None:
                a.right = node
            elif b is not None:
                b.left = node
            else:
                tree.root = node
            depth = max(depths[a.key] if a else 0, depths[b.key] if b else 0)
        depth += 1
        depths[keys[i]] = depth
        tail = node
    return tree.search_tree(), depths


def insert_key(tree: LinkedTree, key: int) -> int:
    """Standard leaf insertion; existing key depths are unchanged.

    Returns the depth of the new leaf.
    """
    if tree.root is None:
        tree.root = Node(key)
        return 1
    node = tree.root
    depth = 2
    while True:
        if key == node.key:
            raise ValueError(f"duplicate key {key}")
        if key < node.key:
            if node.left is None:
                node.left = Node(key)
                return depth
            node = node.left
        else:
            if node.right is None:
                node.right = Node(key)
                return depth
            node = node.right
        depth += 1


class RangeMemoDepths:
    """The depths of `coded_depths(weights, total)`, each computed when it is
    first asked for.

    `depths` holds every depth computed so far and 0 for the rest, and
    `depth(i)` computes key i's. The split rule runs over the ranks of the
    keys of positive weight: a walk goes from the root down to rank r and
    records in `rank_depths` the depth of each rank on the way, and `roots`
    memoizes each range's root by (lo, hi), so it never holds more than one
    range per key. With no zero weight a rank is a key's position and
    `rank_depths` is `depths`. A key of zero weight takes the depth
    `coded_depths` grafts it at, from the walks to its two coded neighbours
    only.
    """

    def __init__(self, weights: Sequence[int], total: int):
        self.total = total
        self.roots: dict[tuple[int, int], int] = {}
        self.depths = [0] * len(weights)
        if 0 in weights:
            self.coded: list[int] | None = list(compress(range(len(weights)), weights))
            self.weights: Sequence[int] = list(filter(None, weights))
            self.rank_depths = [0] * len(self.coded)
        else:
            self.coded, self.weights, self.rank_depths = None, weights, self.depths
        self.mids = _midpoints(self.weights)

    @property
    def depth(self) -> Callable[[int], int]:
        """`depth(i)` is the depth of key i (0-based). With no zero weight it
        is the walk itself, so a caller that holds it pays no rank lookup."""
        return self._walk if self.coded is None else self._grafted_depth

    def _walk(self, i: int) -> int:
        """Depth of the key of positive weight of rank i (0-based)."""
        mids, weights, total = self.mids, self.weights, self.total
        depths, roots = self.rank_depths, self.roots
        lo, hi, d, p = 0, len(weights) - 1, 0, 0
        while True:
            r = roots.get((lo, hi))
            if r is None:
                r = roots[lo, hi] = _split(mids, weights, total, lo, hi, d, p)
                depths[r] = d + 1
            if r == i:
                return d + 1
            d, p = d + 1, 2 * p
            if i < r:
                hi = r - 1
            else:
                lo, p = r + 1, p + 1

    def _grafted_depth(self, i: int) -> int:
        """Depth of key i of a weight vector with a zero: a coded key's
        walk, or the chain rule of `coded_depths` for a zero-weight key, one
        below the deeper coded neighbour per step from the coded key
        before it."""
        coded, by_rank = self.coded, self.rank_depths
        r = bisect_left(coded, i)  # the coded keys before i
        if r < len(coded) and coded[r] == i:
            depth = by_rank[r] or self._walk(r)
        else:
            before = (by_rank[r - 1] or self._walk(r - 1)) if r else 0
            after = (by_rank[r] or self._walk(r)) if r < len(coded) else 0
            depth = max(before, after) + i - (coded[r - 1] if r else -1)
        self.depths[i] = depth
        return depth


def split_two_lengths(
    mids: list[int], weights: Sequence[int], total: int, lo: int, hi: int, d: int, p: int
) -> int:
    """The root of keys lo..hi of positive weight, whose codewords share the
    d-bit prefix p."""
    if lo == hi:
        return lo
    s = bisect_left(mids, -(-(2 * p + 1) * total >> d), lo, hi + 1)  # first bit d of 1
    if s == lo:
        return lo
    if s > hi:
        return hi
    # the shorter-coded flank, ties left; a code never lengthens as its weight grows
    a, b = weights[s - 1], weights[s]
    return s - 1 if a >= b or code_length(a, total) == code_length(b, total) else s
