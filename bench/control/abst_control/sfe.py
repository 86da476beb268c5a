"""Shannon-Fano-Elias coding over ordered keys, in exact rational arithmetic.

Code construction never touches floating point: cumulative sums, midpoints
and codeword bits all live on `fractions.Fraction`, so a flipped rounding bit
can never break the prefix property. Floats appear only in entropy reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, InvalidDistributionError


def _as_fraction(value) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidDistributionError(f"not a rational number: {value!r}") from exc


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Strictly positive rational probabilities for keys ranked 1..n.

    Rank order is the sorted-value order of the keys; the distribution is
    immutable and safe to share.
    """

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        probs = tuple(_as_fraction(p) for p in self.probs)
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
        object.__setattr__(self, "probs", probs)

    @property
    def n(self) -> int:
        return len(self.probs)

    def prob(self, rank: int) -> Fraction:
        """Probability of the key with the given 1-based rank."""
        return self.probs[rank - 1]


def parse_distribution(text: str) -> ProbabilityDistribution:
    """Parse a comma-separated list of rationals ("1/10") or decimals ("0.1").

    Decimal literals convert exactly (0.1 becomes 1/10, not a binary float).
    """
    items = [tok.strip() for tok in text.split(",")]
    if not any(items):
        raise InvalidDistributionError("empty distribution literal")
    return ProbabilityDistribution(tuple(_as_fraction(tok) for tok in items))


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


@dataclass(frozen=True)
class CodeEntry:
    """Per-key code record: CDF value, CDF midpoint, length and codeword."""

    key: int
    cum: Fraction
    midpoint: Fraction
    length: int
    codeword: str


@dataclass(frozen=True)
class CodeTable:
    entries: tuple[CodeEntry, ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, rank: int) -> CodeEntry:
        return self.entries[rank - 1]

    def codewords(self) -> list[str]:
        return [e.codeword for e in self.entries]

    def lengths(self) -> list[int]:
        return [e.length for e in self.entries]


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


def average_code_length(table: CodeTable, dist: ProbabilityDistribution) -> Fraction:
    """Expected codeword length, exact."""
    if table.n != dist.n:
        raise DimensionMismatchError(
            f"table has {table.n} entries, distribution has {dist.n}"
        )
    return sum((p * e.length for p, e in zip(dist.probs, table.entries)), Fraction(0))


def entropy(dist: ProbabilityDistribution) -> float:
    """Binary entropy in bits; float, compare at 1e-9 tolerance."""
    return -sum(float(p) * math.log2(float(p)) for p in dist.probs)


def entropy_of_weights(weights: Sequence[int]) -> float:
    """Binary entropy of a frequency vector, skipping zero counts."""
    m = sum(weights)
    if m <= 0:
        raise ValueError("weights must have positive total")
    return sum((w / m) * math.log2(m / w) for w in weights if w > 0)


def is_prefix_free(codewords: Iterable[str]) -> bool:
    """True iff no codeword is a prefix of another.

    Sorting makes any offending pair adjacent, so one linear pass suffices.
    """
    ordered = sorted(codewords)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            return False
    return True
