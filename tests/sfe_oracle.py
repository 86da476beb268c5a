"""Reference distribution pipeline for tests: validation by a `Fraction` sum,
and integer weights computed from the validated probabilities afterwards.

`ProbabilityDistribution` once proved its sum by adding its n `Fraction`s,
and `common_weights` then turned the same probabilities into integers over
the lcm of their denominators at every caller: the code table, the entropy,
`sfe_to_bst` and `tree_for_probs`. Now the distribution computes its
`weights` and `total` once, while it validates. The old steps are kept here
as written, so the tests can require the same weights, total, errors and
trees from both.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from abst.errors import InvalidDistributionError
from abst.trees import LazyCodedDepths, SearchTree, tree_from_depths


def _as_fraction(value) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise InvalidDistributionError(f"not a rational number: {value!r}") from exc


def validated_probs(probs) -> tuple[Fraction, ...]:
    """The checks of `ProbabilityDistribution`, with the sum added in
    `Fraction`s; the probabilities it would keep."""
    probs = tuple(_as_fraction(p) for p in probs)
    if not probs:
        raise InvalidDistributionError("empty distribution")
    for i, p in enumerate(probs):
        if p <= 0:
            raise InvalidDistributionError(
                f"p_{i + 1} = {p} is not strictly positive"
            )
    total = sum(probs)
    if total != 1:
        raise InvalidDistributionError(f"probabilities sum to {total}, not 1")
    return probs


def common_weights(probs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer weights over the lcm S of the denominators: p_i = w_i / S.

    S is the total weight whenever the probabilities sum to one.
    """
    total = math.lcm(*(p.denominator for p in probs))
    return [p.numerator * (total // p.denominator) for p in probs], total


def tree_for_probs(probs: Sequence[Fraction]) -> SearchTree:
    """Biased tree for a probability vector that may contain zeros.

    The nonzero probabilities must form a distribution. Zero-probability keys
    (possible in raw-frequency mode before every key has been seen) are
    grafted as leaves, see `trees.coded_depths`.
    """
    probs = [_as_fraction(p) for p in probs]
    validated_probs(p for p in probs if p)
    weights, total = common_weights(probs)
    return tree_from_depths(range(1, len(probs) + 1), LazyCodedDepths(weights, total).fill())


def average_code_length(table, dist) -> Fraction:
    """Expected codeword length, exact, from the distribution's probabilities."""
    return sum((p * e.length for p, e in zip(dist.probs, table.entries)), Fraction(0))


def outcome(fn, *args):
    """What `fn(*args)` returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
