"""Shannon-Fano-Elias coding over ordered keys, in exact integer arithmetic.

A distribution is coded as integer weights over one total S, so p_i = w_i/S
(`ProbabilityDistribution.weights` and `.total`, computed once when it is
validated), and `sfe_code` gives each key its length and codeword.
Code construction never touches floating point, so a flipped rounding bit
can never break the prefix property; `Fraction` appears only at the parsing
and printing boundary, and floats only in entropy reporting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Iterable, Sequence

from .errors import InvalidDistributionError


def _as_fraction(value) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError) as exc:
        raise InvalidDistributionError(f"not a rational number: {value!r}") from exc


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Strictly positive rational probabilities for keys ranked 1..n.

    Rank order is the sorted-value order of the keys; the distribution is
    immutable and safe to share. `weights` over `total`, the lcm S of the
    denominators, are the probabilities as integers: p_i = w_i / S.
    """

    probs: tuple[Fraction, ...]
    total: int = field(init=False, repr=False, compare=False)
    weights: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = tuple(_as_fraction(p) for p in self.probs)
        if not probs:
            raise InvalidDistributionError("empty distribution")
        for i, p in enumerate(probs):
            if p <= 0:
                raise InvalidDistributionError(f"p_{i + 1} = {p} is not strictly positive")
        total = math.lcm(*(p.denominator for p in probs))
        weights = tuple(p.numerator * (total // p.denominator) for p in probs)
        if (mass := sum(weights)) != total:
            raise InvalidDistributionError(f"probabilities sum to {Fraction(mass, total)}, not 1")
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return len(self.probs)


def parse_distribution(text: str) -> ProbabilityDistribution:
    """Parse a comma-separated list of rationals ("1/10") or decimals ("0.1").

    Decimal literals convert exactly (0.1 becomes 1/10, not a binary float).
    """
    items = [tok.strip() for tok in text.split(",")]
    if not any(items):
        raise InvalidDistributionError("empty distribution literal")
    return ProbabilityDistribution(tuple(_as_fraction(tok) for tok in items))


def sfe_code(weights: Sequence[int], total: int) -> tuple[list[int], list[int]]:
    """Lengths and codewords of the keys, for positive weights summing to `total`.

    Key i gets length L_i = ceil(log2(S/w_i)) + 1 (`code_length`), and its
    codeword is an integer whose L_i-bit binary form, leading zeros
    included, is the first bits of the CDF midpoint (2 C_{i-1} + w_i) / 2S
    for the prefix sums C of the weights (Cover and Thomas, Elements of
    Information Theory, section 5.9).
    """
    lengths, words = [], []
    total2 = 2 * total
    cum = 0
    for w in weights:
        length = code_length(w, total)
        lengths.append(length)
        words.append(((2 * cum + w) << length) // total2)
        cum += w
    return lengths, words


def code_length(weight: int, total: int) -> int:
    """Codeword length ceil(log2(S/w)) + 1 of a key of weight w over total S."""
    # ceil(log2(S/w)), the smallest k >= 0 with w << k >= S, is the
    # bit-length difference or one more; dyadic ratios land on the former
    k = total.bit_length() - weight.bit_length()
    return k + 1 if weight << k >= total else k + 2


@dataclass(frozen=True)
class CodeEntry:
    """Per-key code record: probability, CDF value and midpoint, length, codeword."""

    key: int
    p: Fraction
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

    def codewords(self) -> list[str]:
        return [e.codeword for e in self.entries]


def build_sfe_code(dist: ProbabilityDistribution | Iterable) -> CodeTable:
    """The Shannon-Fano-Elias code table of a distribution (`sfe_code`).

    Midpoints are strictly increasing and each codeword pins down an
    interval no wider than its probability mass, which makes the code
    prefix-free and order-preserving.
    """
    if not isinstance(dist, ProbabilityDistribution):
        dist = ProbabilityDistribution(tuple(dist))
    weights, total = dist.weights, dist.total
    entries = []
    cum = 0
    lengths, words = sfe_code(weights, total)
    for rank, (p, w, length, code) in enumerate(zip(dist.probs, weights, lengths, words), 1):
        midpoint = Fraction(2 * cum + w, 2 * total)
        cum += w
        entries.append(
            CodeEntry(rank, p, Fraction(cum, total), midpoint, length, f"{code:0{length}b}")
        )
    return CodeTable(tuple(entries))


def average_code_length(table: CodeTable) -> Fraction:
    """Expected codeword length, exact."""
    return sum((e.p * e.length for e in table.entries), Fraction(0))


def entropy(dist: ProbabilityDistribution) -> float:
    """Binary entropy in bits; float, compare at 1e-9 tolerance."""
    return entropy_of_weights(dist.weights)


def entropy_of_weights(weights: Sequence[int]) -> float:
    """Binary entropy of a frequency vector, skipping zero counts.

    The terms are added left to right from 0.0, as `sum` added floats before
    Python 3.12 made it compensated, so every version gives the same bits.
    """
    m = sum(weights)
    if m <= 0:
        raise ValueError("weights must have positive total")
    return reduce(add, [(w / m) * math.log2(m / w) for w in weights if w > 0], 0.0)


def is_prefix_free(codewords: Iterable[str]) -> bool:
    """True iff no codeword is a prefix of another.

    Sorting makes any offending pair adjacent, so one linear pass suffices.
    """
    ordered = sorted(codewords)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            return False
    return True
