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

A BST is fixed by its in-order keys and their depths, so `tree_from_depths`
builds the `Node` tree only when one is asked for; `coded_tree` is the two
steps composed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .sfe import ProbabilityDistribution, common_weights, sfe_code


class Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key: int):
        self.key = key
        self.left: Node | None = None
        self.right: Node | None = None


class SearchTree:
    """BST over key ranks in symmetric order. Empty tree has root None."""

    def __init__(self, root: Node | None):
        self.root = root

    def __eq__(self, other) -> bool:
        if not isinstance(other, SearchTree):
            return NotImplemented
        stack = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            if (a is None) != (b is None):
                return False
            if a is None:
                continue
            if a.key != b.key:
                return False
            stack.append((a.left, b.left))
            stack.append((a.right, b.right))
        return True

    def __hash__(self):
        return hash(format_tree(self))


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


def tree_from_depths(keys: Sequence[int], depths: Sequence[int]) -> SearchTree:
    """The one BST with `keys` in symmetric order at the given depths.

    A BST is fixed by its in-order keys and their depths: every subtree's
    root is the unique shallowest key of its range. One stack pass over the
    keys builds it (the Cartesian tree of the depths); ValueError if no BST
    has these depths.
    """
    if len(keys) != len(depths):
        raise ValueError("keys and depths differ in length")
    nodes = [Node(key) for key in keys]
    parent = [-1] * len(nodes)
    spine: list[int] = []  # the right spine of the tree built so far
    for i, depth in enumerate(depths):
        last = -1
        while spine and depths[spine[-1]] > depth:
            last = spine.pop()
        if last >= 0:
            nodes[i].left = nodes[last]
            parent[last] = i
        if spine:
            nodes[spine[-1]].right = nodes[i]
            parent[i] = spine[-1]
        spine.append(i)
    for i, p in enumerate(parent):
        if depths[i] != (depths[p] + 1 if p >= 0 else 1):
            raise ValueError("no binary search tree has these depths")
    return SearchTree(nodes[spine[0]] if spine else None)


def coded_tree(
    weights: Sequence[int], total: int, keys: Sequence[int]
) -> tuple[SearchTree, dict[int, int]]:
    """Biased BST for integer weights over `total`, and the depth of every key.

    `keys` labels the weights with strictly increasing key values; see
    `coded_depths` for where each key goes.
    """
    depths = coded_depths(weights, total)
    return tree_from_depths(keys, depths), dict(zip(keys, depths))


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
    return coded_tree(weights, total, keys)[0]


def depth_map(tree: SearchTree) -> dict[int, int]:
    """Depth of every key, root at depth 1."""
    out: dict[int, int] = {}
    stack = [(tree.root, 1)]
    while stack:
        node, depth = stack.pop()
        if node is None:
            continue
        out[node.key] = depth
        stack.append((node.left, depth + 1))
        stack.append((node.right, depth + 1))
    return out


def in_order(tree: SearchTree) -> list[int]:
    out: list[int] = []
    stack: list[Node] = []
    node = tree.root
    while node is not None or stack:
        while node is not None:
            stack.append(node)
            node = node.left
        node = stack.pop()
        out.append(node.key)
        node = node.right
    return out


def format_tree(tree: SearchTree) -> str:
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
    """Inverse of format_tree."""
    tokens = iter(text.replace("(", " ( ").replace(")", " ) ").split())

    def take() -> str:
        tok = next(tokens, None)
        if tok is None:
            raise ValueError("unexpected end of tree text")
        return tok

    # open nodes, each with whether its left subtree is already attached
    open_nodes: list[tuple[Node, bool]] = []
    while True:
        tok = take()
        if tok == "(":
            open_nodes.append((Node(int(take())), False))
            continue
        if tok != ".":
            raise ValueError(f"expected '(' or '.', got {tok!r}")
        done = None  # the subtree just completed
        while open_nodes and open_nodes[-1][1]:
            node = open_nodes.pop()[0]
            node.right = done
            closing = take()
            if closing != ")":
                raise ValueError(f"expected ')', got {closing!r}")
            done = node
        if not open_nodes:
            break
        node = open_nodes[-1][0]
        node.left = done
        open_nodes[-1] = (node, True)
    if next(tokens, None) is not None:
        raise ValueError("trailing tokens after tree")
    return SearchTree(done)


def build_balanced(n: int) -> SearchTree:
    """Balanced BST over 1..n: each range's root is its median (lower on even)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return build_from_roots(n, lambda lo, hi: (lo + hi) // 2)


def build_from_roots(n: int, root_of: Callable[[int, int], int]) -> SearchTree:
    """BST over 1..n whose subtree on keys lo..hi has root `root_of(lo, hi)`.

    Built with an explicit stack, so no depth hits the recursion limit.
    """
    tree = SearchTree(None)
    stack = [(1, n, None, False)]  # (lo, hi, parent, is_left)
    while stack:
        lo, hi, parent, is_left = stack.pop()
        if lo > hi:
            continue
        node = Node(root_of(lo, hi))
        if parent is None:
            tree.root = node
        elif is_left:
            parent.left = node
        else:
            parent.right = node
        stack.append((lo, node.key - 1, node, True))
        stack.append((node.key + 1, hi, node, False))
    return tree
