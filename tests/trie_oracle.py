"""Reference pipeline for tests: the Fraction Shannon-Fano-Elias code, the
code trie, the leaf-promoting trie-to-BST conversion, and the leaf insertion
that grafted zero-weight keys one root-to-leaf walk at a time.

This is the rebuild path `abst` used before the integer range walk and the
one-pass graft replaced it, kept as written so the tests can require the new
pipeline to give equal code tables and bit-identical trees. Only tests
import it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from abst.errors import InvalidDistributionError
from abst.sfe import CodeEntry, CodeTable, ProbabilityDistribution
from abst.trees import Node, SearchTree


class CorruptCodeError(Exception):
    """A codeword collides with another while building the code trie."""


def ceil_log2_inverse(p: Fraction) -> int:
    """Smallest integer k >= 0 with p * 2^k >= 1, i.e. ceil(log2(1/p)).

    Computed by integer shift-and-compare so dyadic probabilities land
    exactly on their boundary (p = 1/2^k gives k, never k +- 1).
    """
    if p <= 0:
        raise InvalidDistributionError(f"cannot take log of {p}")
    num, den = p.numerator, p.denominator
    k = 0
    v = num
    while v < den:
        v <<= 1
        k += 1
    return k


def fraction_bits(x: Fraction, nbits: int) -> str:
    """First `nbits` bits of the binary fractional expansion of x in [0, 1).

    Each bit is the integer part after doubling the exact remainder, so the
    expansion is exact for any rational input.
    """
    num, den = x.numerator, x.denominator
    if not 0 <= num < den:
        raise ValueError(f"{x} is not in [0, 1)")
    out = []
    for _ in range(nbits):
        num <<= 1
        if num >= den:
            out.append("1")
            num -= den
        else:
            out.append("0")
    return "".join(out)


def build_sfe_code(dist: ProbabilityDistribution | Iterable) -> CodeTable:
    """Construct the Shannon-Fano-Elias code table for a distribution.

    Key i is assigned the first ceil(log2(1/p_i)) + 1 bits of the binary
    expansion of the CDF midpoint F(i-1) + p_i/2. Midpoints are strictly
    increasing and each codeword pins down an interval no wider than its
    probability mass, which makes the code prefix-free and order-preserving.
    """
    if not isinstance(dist, ProbabilityDistribution):
        dist = ProbabilityDistribution(tuple(dist))
    entries = []
    cum = Fraction(0)
    for rank, p in enumerate(dist.probs, start=1):
        midpoint = cum + p / 2
        cum = cum + p
        length = ceil_log2_inverse(p) + 1
        codeword = fraction_bits(midpoint, length)
        entries.append(CodeEntry(rank, cum, midpoint, length, codeword))
    return CodeTable(tuple(entries))


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


def tree_for_probs(probs: Sequence[Fraction]) -> SearchTree:
    """Biased tree for a probability vector that may contain zeros.

    Zero-probability keys (possible in raw-frequency mode before every key
    has been seen) cannot get a codeword, so the coded tree is built over the
    positive keys, whose probabilities already sum to one, and the rest are
    grafted as leaves in increasing order. Grafting never moves an existing
    key, so the coded keys keep their depth guarantee.
    """
    positive = [(k, p) for k, p in enumerate(probs, start=1) if p > 0]
    if len(positive) == len(probs):
        return sfe_to_bst(ProbabilityDistribution(tuple(probs)))
    dist = ProbabilityDistribution(tuple(p for _, p in positive))
    tree = sfe_to_bst(dist, keys=[k for k, _ in positive])
    for key, p in enumerate(probs, start=1):
        if p == 0:
            insert_key(tree, key)
    return tree


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
