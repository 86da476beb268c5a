"""Code tries and biased binary search trees.

A code trie keeps keys at its leaves in sorted left-to-right order. The
conversion lifts leaves into internal positions, producing a BST in symmetric
order in which no key ends up deeper than it sat in the trie.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import CorruptCodeError, KeyNotFoundError
from .sfe import CodeTable, ProbabilityDistribution, build_sfe_code


class TrieNode:
    __slots__ = ("key", "left", "right")

    def __init__(self, key: int | None = None):
        self.key = key
        self.left: TrieNode | None = None
        self.right: TrieNode | None = None


class PrefixTree:
    """Binary trie of codewords; bit 0 descends left, bit 1 descends right."""

    def __init__(self, root: TrieNode):
        self.root = root

    def leaf_items(self) -> list[tuple[int, int]]:
        """(key, depth) per leaf in left-to-right order; root has depth 1."""
        out: list[tuple[int, int]] = []

        def walk(node: TrieNode | None, depth: int) -> None:
            if node is None:
                return
            if node.key is not None:
                out.append((node.key, depth))
                return
            walk(node.left, depth + 1)
            walk(node.right, depth + 1)

        walk(self.root, 1)
        return out

    def leaf_depths(self) -> dict[int, int]:
        return dict(self.leaf_items())


def _insert_codeword(root: TrieNode, key: int, codeword: str) -> None:
    node = root
    last = len(codeword) - 1
    for i, bit in enumerate(codeword):
        if node.key is not None:
            raise CorruptCodeError(
                f"codeword {codeword!r} passes through the leaf of key {node.key}"
            )
        child = node.left if bit == "0" else node.right
        if i == last:
            if child is not None:
                raise CorruptCodeError(
                    f"codeword {codeword!r} collides with an existing subtree"
                )
            leaf = TrieNode(key)
            if bit == "0":
                node.left = leaf
            else:
                node.right = leaf
            return
        if child is None:
            child = TrieNode()
            if bit == "0":
                node.left = child
            else:
                node.right = child
        node = child


def _trie_from_pairs(pairs: Iterable[tuple[int, str]]) -> TrieNode:
    root = TrieNode()
    for key, codeword in pairs:
        if not codeword:
            raise CorruptCodeError("empty codeword")
        _insert_codeword(root, key, codeword)
    return root


def build_prefix_tree(table: CodeTable) -> PrefixTree:
    """Binary trie of the table's codewords with key ranks at the leaves."""
    return PrefixTree(_trie_from_pairs((e.key, e.codeword) for e in table.entries))


def _copy_trie(node: TrieNode | None) -> TrieNode | None:
    if node is None:
        return None
    dup = TrieNode(node.key)
    dup.left = _copy_trie(node.left)
    dup.right = _copy_trie(node.right)
    return dup


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


def _leaf_path(start: TrieNode, prefer_right: bool) -> list[TrieNode]:
    """Path from `start` to its rightmost (or leftmost) leaf."""
    path = [start]
    node = start
    while node.key is None:
        if prefer_right:
            node = node.right if node.right is not None else node.left
        else:
            node = node.left if node.left is not None else node.right
        path.append(node)
    return path


def _delete_leaf(anchor: TrieNode, path: list[TrieNode]) -> None:
    """Unlink path[-1], pruning internals left childless; keeps `anchor`."""
    chain = [anchor] + path
    for i in range(len(chain) - 1, 0, -1):
        node, parent = chain[i], chain[i - 1]
        if node.key is None and (node.left is not None or node.right is not None):
            break
        if parent.left is node:
            parent.left = None
        else:
            parent.right = None


def _convert(node: TrieNode | None) -> Node | None:
    """Recursively turn a trie into a BST.

    The subtree root becomes the shallower of the two leaves flanking the
    trie root (rightmost leaf on the left vs leftmost leaf on the right);
    ties go left. The chosen leaf is deleted and both trie halves recurse.
    """
    if node is None:
        return None
    if node.key is not None:
        return Node(node.key)
    left_path = _leaf_path(node.left, prefer_right=True) if node.left else None
    right_path = _leaf_path(node.right, prefer_right=False) if node.right else None
    if right_path is None or (left_path is not None and len(left_path) <= len(right_path)):
        chosen = left_path
    else:
        chosen = right_path
    root = Node(chosen[-1].key)
    _delete_leaf(node, chosen)
    root.left = _convert(node.left)
    root.right = _convert(node.right)
    return root


def prefix_tree_to_bst(tree: PrefixTree) -> SearchTree:
    """Convert a code trie to a BST; every key is at most as deep as before.

    The input trie is copied, not consumed. An empty trie yields an empty
    tree.
    """
    root = _copy_trie(tree.root)
    if root is not None and root.key is None and root.left is None and root.right is None:
        return SearchTree(None)
    return SearchTree(_convert(root))


def sfe_to_bst(
    dist: ProbabilityDistribution | Iterable,
    keys: Sequence[int] | None = None,
) -> SearchTree:
    """Build the biased BST for a distribution via its prefix code.

    `keys` relabels the n ranks with arbitrary strictly increasing key
    values (default 1..n); the code shape depends only on the probabilities.
    """
    table = build_sfe_code(dist)
    if keys is None:
        keys = range(1, table.n + 1)
    else:
        keys = list(keys)
        if len(keys) != table.n:
            raise ValueError("keys and distribution differ in length")
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("keys must be strictly increasing")
    trie = _trie_from_pairs(
        (k, e.codeword) for k, e in zip(keys, table.entries)
    )
    return prefix_tree_to_bst(PrefixTree(trie))


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

    def fmt(node: Node | None) -> str:
        if node is None:
            return "."
        return f"({node.key} {fmt(node.left)} {fmt(node.right)})"

    return fmt(tree.root)


def parse_tree(text: str) -> SearchTree:
    """Inverse of format_tree."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of tree text")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse() -> Node | None:
        tok = take()
        if tok == ".":
            return None
        if tok != "(":
            raise ValueError(f"expected '(' or '.', got {tok!r}")
        node = Node(int(take()))
        node.left = parse()
        node.right = parse()
        closing = take()
        if closing != ")":
            raise ValueError(f"expected ')', got {closing!r}")
        return node

    root = parse()
    if pos != len(tokens):
        raise ValueError("trailing tokens after tree")
    return SearchTree(root)


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


def insert_key(tree: SearchTree, key: int) -> None:
    """Standard leaf insertion; existing key depths are unchanged."""
    if tree.root is None:
        tree.root = Node(key)
        return
    node = tree.root
    while True:
        if key == node.key:
            raise ValueError(f"duplicate key {key}")
        if key < node.key:
            if node.left is None:
                node.left = Node(key)
                return
            node = node.left
        else:
            if node.right is None:
                node.right = Node(key)
                return
            node = node.right
