"""Biased binary search trees from order-preserving prefix codes.

The coded tree is built straight from the key-ordered codewords, with no trie:
an explicit stack of key ranges lo..hi whose codewords share their first d
bits. Because the code is prefix-free and order-preserving, bit d splits
such a range into a run of 0s and a run of 1s. The range's root is the
shorter-coded of the two keys flanking that split (ties go left, and a range
with only one side takes that side's flank), and both remaining halves go
back on the stack at depth d+1. This is the tree the code trie would give by
promoting flanking leaves: keys stay in symmetric order and no key ends up
deeper than its trie leaf (codeword length + 1).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from .errors import KeyNotFoundError
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
    code = sfe_code([weights[i] for i in coded], total)
    lengths = [length for length, _ in code]
    words = [word for _, word in code]
    depths: dict[int, int] = {}
    tree = SearchTree(None)
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
        node = Node(key)
        depths[key] = depth
        if parent is None:
            tree.root = node
        elif is_left:
            parent.left = node
        else:
            parent.right = node
        stack.append((lo, r - 1, d + 1, depth + 1, node, True))
        stack.append((r + 1, hi, d + 1, depth + 1, node, False))
    for i, w in enumerate(weights):
        if not w:
            depths[keys[i]] = insert_key(tree, keys[i])
    return tree, depths


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


def depth_of(tree: SearchTree, key: int) -> int:
    """Node-count depth of `key` (root is 1)."""
    node = tree.root
    depth = 1
    while node is not None:
        if key == node.key:
            return depth
        node = node.left if key < node.key else node.right
        depth += 1
    raise KeyNotFoundError(f"key {key} not in tree")


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
    """Balanced BST over 1..n by recursive median choice (lower on even)."""
    if n < 1:
        raise ValueError("n must be at least 1")

    def build(lo: int, hi: int) -> Node | None:
        if lo > hi:
            return None
        mid = (lo + hi) // 2
        node = Node(mid)
        node.left = build(lo, mid - 1)
        node.right = build(mid + 1, hi)
        return node

    return SearchTree(build(1, n))


def insert_key(tree: SearchTree, key: int) -> int:
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
