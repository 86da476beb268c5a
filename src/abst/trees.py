"""Biased binary search trees from order-preserving prefix codes.

A coded tree is computed as a depth vector, with no trie, codeword or node
object: `_split` finds the root of a range of keys from their CDF midpoints,
`LazyCodedDepths` walks those splits from the root down to the keys asked
for, and `coded_depths` is its `fill`. A `SearchTree` is its in-order keys
and their depths; `_links` reads its child links from the depths and checks
that they fit a BST.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, chain, compress
from operator import add, index
from typing import Callable, Iterable, NamedTuple, Sequence

from .sfe import ProbabilityDistribution, _as_fraction, code_length


class SearchTree(NamedTuple):
    """BST as its keys in symmetric order and their depths, root at depth 1,
    which fix it. `tree_from_depths` is the constructor that checks the
    depths fit a BST.
    """

    keys: tuple[int, ...]
    depths: tuple[int, ...]

    @property
    def root(self) -> int | None:
        """The root key; None for the empty tree."""
        return self.keys[self.depths.index(1)] if self.keys else None


def _midpoints(weights: Sequence[int]) -> list[int]:
    """M_i = C_{i-1} + C_i for the prefix sums C: key i's CDF midpoint over
    total S is M_i / 2S."""
    # M_i - M_{i-1} = w_{i-1} + w_i, so one running sum builds them
    return list(accumulate(map(add, weights, chain((0,), weights))))


def _split(
    mids: list[int], weights: Sequence[int], total: int, lo: int, hi: int, d: int, p: int
) -> int:
    """The root of keys lo..hi of positive weight, whose codewords share the
    d-bit prefix p.

    Bit d splits such a range into a run of 0s and a run of 1s, as the code
    is prefix-free and order-preserving. The root is the shorter-coded of
    the two keys flanking the split (ties go left), or the flank on the side
    of an empty run: lo if every bit d is 1, hi if every one is 0. It sits
    at depth d+1, and the keys below and above it share the prefixes 2p and
    2p+1. This is the tree the code trie would give by promoting flanking
    leaves: keys stay in symmetric order and none is deeper than its trie
    leaf (code length + 1). A key's codeword is the first bits of its
    midpoint M_i / 2S, and every key of a range of two or more has more
    than d bits, so bit d is 1 exactly when M_i >= ceil((2p+1) S / 2^d).
    The midpoints rise with rank, so the split is one `bisect_left`, as
    Mehlhorn's nearly optimal trees (Acta Informatica 5, 1975) bisect
    cumulative weights, and only the two flanks' code lengths are computed.
    """
    if lo == hi:
        return lo
    s = bisect_left(mids, -(-(2 * p + 1) * total >> d), lo, hi + 1)  # first bit d of 1
    if s == lo:
        return lo
    if s > hi:
        return hi
    # the shorter-coded flank, ties left; a code never lengthens as its weight
    # grows, and for a < b the codes tie iff a reaches S within b's code length
    a, b = weights[s - 1], weights[s]
    return s - 1 if a >= b or a << code_length(b, total) - 1 >= total else s


def coded_depths(weights: Sequence[int], total: int) -> list[int]:
    """Depth in the coded tree of each key, for integer weights over `total`;
    `tree_from_depths` gives the tree these depths fix. Keys of positive
    weight are placed by their Shannon-Fano-Elias codes, and keys of zero
    weight, which get no codeword, are grafted (`graft_zero_weights`).

    ValueError unless the weights are nonnegative integers summing to
    `total`. Callers that hold weights known to be valid, such as a rebuild,
    use `LazyCodedDepths`, which does not check them."""
    mass = 0
    for i, w in enumerate(weights, 1):
        if not hasattr(type(w), "__index__") or w < 0:  # what `operator.index` takes
            raise ValueError(f"weight {i} = {w!r} is not a nonnegative integer")
        mass += w
    if mass != total:
        raise ValueError(f"weights sum to {mass}, not to the total {total!r}")
    return LazyCodedDepths(weights, total).fill()


class LazyCodedDepths:
    """The depths of `coded_depths(weights, total)`, each computed when it is
    first asked for, or all that are left at once by `fill`.

    `depths` holds every depth computed so far and 0 for the rest, and
    `depth(i)` computes key i's. The split rule runs over the ranks of the
    keys of positive weight, and the tree is kept as child links by rank,
    -1 until a walk needs the child. A walk goes from the root down the
    links to rank r; at a missing link it splits the child's range, read
    from the parent's range `lo..hi` and code prefix `p` (kept per placed
    rank in `ranges`), and records the child's depth in `rank_depths`. So
    `_split` runs once per placed rank, and a level already walked costs
    one list read. With no zero weight a rank is a key's position and
    `rank_depths` is `depths`. A key of zero weight is grafted below its
    coded neighbours by the rule of `graft_zero_weights`: `_grafted_depth`
    applies it to one key, `fill` to all at once.
    """

    def __init__(self, weights: Sequence[int], total: int):
        self.total = total
        self.depths = [0] * len(weights)
        if 0 in weights:
            self.coded: list[int] | None = list(compress(range(len(weights)), weights))
            self.weights: Sequence[int] = list(filter(None, weights))
            self.rank_depths = [0] * len(self.coded)
        else:
            self.coded, self.weights, self.rank_depths = None, weights, self.depths
        self.mids = _midpoints(self.weights)
        k = len(self.weights)
        self.left, self.right = [-1] * k, [-1] * k
        # (lo, hi, p) of each placed rank: it is the root of ranks lo..hi,
        # whose codewords share the prefix p of its depth less one bits
        self.ranges: dict[int, tuple[int, int, int]] = {}
        self.root = -1
        if k:
            self.root = _split(self.mids, self.weights, total, 0, k - 1, 0, 0)
            self.rank_depths[self.root] = 1
            self.ranges[self.root] = (0, k - 1, 0)

    @property
    def depth(self) -> Callable[[int], int]:
        """`depth(i)` is the depth of key i (0-based). With no zero weight it
        is the walk itself, which takes no rank lookup."""
        return self._walk if self.coded is None else self._grafted_depth

    def _walk(self, i: int) -> int:
        """Depth of the key of positive weight of rank i (0-based)."""
        depths = self.rank_depths
        if depths[i]:
            return depths[i]
        left, right = self.left, self.right
        r = self.root
        while (c := left[r] if i < r else right[r]) >= 0:  # i is not placed: no c is i
            r = c
        mids, weights, total, ranges = self.mids, self.weights, self.total, self.ranges
        lo, hi, p = ranges[r]
        d = depths[r]  # the bits r's children share
        while True:
            if i < r:
                links, hi, p = left, r - 1, 2 * p
            else:
                links, lo, p = right, r + 1, 2 * p + 1
            c = links[r] = _split(mids, weights, total, lo, hi, d, p)
            r, d = c, d + 1
            depths[r] = d
            ranges[r] = (lo, hi, p)
            if r == i:
                return d

    def _grafted_depth(self, i: int) -> int:
        """Depth of key i of a weight vector with a zero: a coded key's
        walk, or for a zero-weight key the rule of `graft_zero_weights`,
        from the walks to its two coded neighbours only."""
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

    def fill(self) -> list[int]:
        """Compute every depth no walk has and return `depths`: one explicit
        stack splits the ranges below placed ranks that no walk has split, so
        `_split` still runs once per rank. It records no link, as no rank is
        left to walk to."""
        mids, weights, total, by_rank = self.mids, self.weights, self.total, self.rank_depths
        left, right = self.left, self.right
        stack = []  # (lo, hi, d, p): ranks lo..hi share the d-bit code prefix p
        for r, (lo, hi, p) in self.ranges.items():
            if lo < r and left[r] < 0:
                stack.append((lo, r - 1, by_rank[r], 2 * p))
            if r < hi and right[r] < 0:
                stack.append((r + 1, hi, by_rank[r], 2 * p + 1))
        while stack:
            lo, hi, d, p = stack.pop()
            r = _split(mids, weights, total, lo, hi, d, p)
            d += 1
            by_rank[r] = d
            if lo < r:
                stack.append((lo, r - 1, d, 2 * p))
            if r < hi:
                stack.append((r + 1, hi, d, 2 * p + 1))
        if self.coded is not None:
            graft_zero_weights(self.depths, self.coded, by_rank)
        return self.depths


def graft_zero_weights(depths: list[int], coded: Sequence[int], by_rank: Sequence[int]) -> None:
    """Write into `depths` the depth of every key, given the rising positions
    `coded` of the keys of positive weight and their depths `by_rank` in a
    BST on those keys alone.

    A key of zero weight is placed by the graft rule: each run of them hangs
    as a chain one below the deeper of its two coded neighbours (or of the
    one it has), as leaf insertion in increasing order would put it. The
    coded keys keep their depths, so the weighted cost is that of their tree.
    """
    prev, prev_depth = -1, 0  # the coded key before the current run
    for i, depth in zip(coded, by_rank):
        depths[i] = depth
        if i - prev > 1:
            base = max(prev_depth, depth)
            depths[prev + 1:i] = range(base + 1, base + i - prev)
        prev, prev_depth = i, depth
    if prev < len(depths) - 1:
        depths[prev + 1:] = range(prev_depth + 1, prev_depth + len(depths) - prev)


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
    return tree_from_depths(keys, LazyCodedDepths(dist.weights, dist.total).fill())


def tree_for_probs(probs: Sequence) -> SearchTree:
    """The coded tree over keys 1..n for probabilities that may include zeros,
    as raw frequencies give before every key is seen. The nonzero ones must
    form a `ProbabilityDistribution`; the zero-probability keys are grafted
    (`graft_zero_weights`). An entry that is no rational number, such as
    `inf`, raises `InvalidDistributionError`."""
    probs = [_as_fraction(p) for p in probs]
    dist = ProbabilityDistribution(tuple(filter(None, probs)))
    positive = iter(dist.weights)
    weights = [next(positive) if p else 0 for p in probs]
    return tree_from_depths(range(1, len(probs) + 1), LazyCodedDepths(weights, dist.total).fill())


def depth_map(tree: SearchTree) -> dict[int, int]:
    """Depth of every key, root at depth 1."""
    return dict(zip(tree.keys, tree.depths))


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


def checked_n(n) -> int:
    """`n` as a number of keys: an integer, taken through `operator.index`,
    of at least 1. ValueError naming n for anything else, a bool included."""
    if isinstance(n, bool) or not hasattr(type(n), "__index__"):
        raise ValueError(f"n must be an integer, not {n!r}")
    if (n := index(n)) < 1:
        raise ValueError(f"n must be at least 1, not {n}")
    return n


def build_balanced(n: int) -> SearchTree:
    """Balanced BST over 1..n: each range's root is its median (lower on even)."""
    n = checked_n(n)
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
