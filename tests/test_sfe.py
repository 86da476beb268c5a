import builtins
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abst.checks import _ledger_run, check_report_bounds
from abst.errors import DimensionMismatchError, InvalidDistributionError
from abst.sfe import (
    ProbabilityDistribution,
    average_code_length,
    build_sfe_code,
    entropy,
    entropy_of_weights,
    is_prefix_free,
    parse_distribution,
    sfe_code,
)
from abst.workload import generate, parse_workload

EXAMPLE_A = parse_distribution("0.1,0.2,0.4,0.2,0.1")
EXAMPLE_B = parse_distribution("3/12,2/12,4/12,2/12,1/12")


def test_example_a_code_table():
    table = build_sfe_code(EXAMPLE_A)
    assert [e.length for e in table.entries] == [5, 4, 3, 4, 5]
    assert table.codewords() == ["00001", "0011", "100", "1100", "11110"]
    assert [e.cum for e in table.entries] == [
        Fraction(1, 10), Fraction(3, 10), Fraction(7, 10), Fraction(9, 10), Fraction(1),
    ]
    assert [e.midpoint for e in table.entries] == [
        Fraction(1, 20), Fraction(1, 5), Fraction(1, 2), Fraction(4, 5), Fraction(19, 20),
    ]


def test_example_b_code_table():
    table = build_sfe_code(EXAMPLE_B)
    assert [e.length for e in table.entries] == [3, 4, 3, 4, 5]
    assert table.codewords() == ["001", "0101", "100", "1101", "11110"]


def test_two_even_keys():
    table = build_sfe_code([Fraction(1, 2), Fraction(1, 2)])
    assert table.codewords() == ["01", "11"]
    assert [e.midpoint for e in table.entries] == [Fraction(1, 4), Fraction(3, 4)]


def test_single_key():
    table = build_sfe_code([Fraction(1)])
    assert [e.length for e in table.entries] == [1]
    assert table.entries[0].midpoint == Fraction(1, 2)
    assert table.codewords() == ["1"]


def test_midpoint_matches_cum_minus_half_prob():
    table = build_sfe_code(EXAMPLE_A)
    for e, p in zip(table.entries, EXAMPLE_A.probs):
        assert e.midpoint == e.cum - p / 2


def test_average_length_example_a():
    assert average_code_length(build_sfe_code(EXAMPLE_A), EXAMPLE_A) == Fraction(19, 5)


def test_average_length_uniform_dyadic():
    dist = ProbabilityDistribution((Fraction(1, 4),) * 4)
    assert average_code_length(build_sfe_code(dist), dist) == 3


def test_average_length_single_key():
    dist = ProbabilityDistribution((Fraction(1),))
    assert average_code_length(build_sfe_code(dist), dist) == 1


def test_average_length_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        average_code_length(build_sfe_code(EXAMPLE_A), parse_distribution("1/2,1/2"))


def test_entropy_values():
    assert entropy(ProbabilityDistribution((Fraction(1, 4),) * 4)) == pytest.approx(2.0, abs=1e-9)
    assert entropy(ProbabilityDistribution((Fraction(1),))) == pytest.approx(0.0, abs=1e-9)
    assert entropy(EXAMPLE_A) == pytest.approx(2.1219280948873624, abs=1e-9)


def test_entropy_of_weights_skips_zeros():
    assert entropy_of_weights((0, 4, 0, 4)) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        entropy_of_weights((0, 0))


def test_no_float_goes_through_the_builtin_sum(monkeypatch):
    # from Python 3.12 `sum` adds floats compensated, so a float sum through
    # it gives other bits than on 3.10 and 3.11
    builtin_sum = builtins.sum

    def sum_of_no_floats(items, start=0):
        items = list(items)
        if any(isinstance(x, float) for x in [start, *items]):
            raise AssertionError("a float went through the built-in sum")
        return builtin_sum(items, start)

    monkeypatch.setattr(builtins, "sum", sum_of_no_floats)
    assert entropy_of_weights((1, 2, 4, 2, 1)) == pytest.approx(2.1219280948873624, abs=1e-9)
    assert entropy(EXAMPLE_A) == pytest.approx(2.1219280948873624, abs=1e-9)
    for s in ("0.5", "1.0", "1.5"):
        assert len(generate(parse_workload(f"zipf:{s}", n=64, m=100, seed=99))) == 100
    trace = generate(parse_workload("zipf:1.0", n=16, m=768, seed=99))
    assert check_report_bounds(*_ledger_run(16, 8, trace, "laplace")) == []


@pytest.mark.parametrize("text", ["0,1", "-1/2,3/2", "1/2,1/3", "0.5,0.6", ""])
def test_invalid_distributions_rejected(text):
    with pytest.raises(InvalidDistributionError):
        parse_distribution(text)


def test_parse_distribution_decimals_are_exact():
    dist = parse_distribution("0.1, 0.9")
    assert dist.probs == (Fraction(1, 10), Fraction(9, 10))


def test_parse_distribution_rejects_garbage():
    with pytest.raises(InvalidDistributionError):
        parse_distribution("1/2,banana")


def test_ceil_log2_inverse_dyadic_boundaries():
    # a codeword is ceil(log2(S/w)) + 1 bits long
    for k in range(12):
        assert sfe_code([2**k], 2**k) == ([1], [1])
        if k:
            assert sfe_code([1, 2**k - 1], 2**k)[0][0] == k + 1
    assert sfe_code([1, 2], 3)[0] == [3, 2]
    assert sfe_code([2, 3], 5)[0] == [3, 2]
    assert sfe_code([2**40 + 1, 2**41 - 1], 3 * 2**40)[0] == [3, 2]


def test_build_is_deterministic():
    assert build_sfe_code(EXAMPLE_A) == build_sfe_code(EXAMPLE_A)


def test_is_prefix_free_detects_prefixes_and_duplicates():
    assert is_prefix_free(["00", "01", "1"])
    assert not is_prefix_free(["0", "01"])
    assert not is_prefix_free(["10", "10"])


weight_lists = st.lists(st.integers(1, 64), min_size=2, max_size=24)


@settings(max_examples=120, deadline=None)
@given(weights=weight_lists)
def test_code_properties_random(weights):
    total = sum(weights)
    dist = ProbabilityDistribution(tuple(Fraction(w, total) for w in weights))
    table = build_sfe_code(dist)
    words = table.codewords()
    assert is_prefix_free(words)
    assert all(a < b for a, b in zip(words, words[1:]))
    length = average_code_length(table, dist)
    h = entropy(dist)
    assert float(length) >= h + 1 - 1e-9
    assert float(length) < h + 2 + 1e-9
    for e, p in zip(table.entries, dist.probs):
        # integer-only oracle: smallest k with num * 2^k >= den
        k = 0
        while p.numerator << k < p.denominator:
            k += 1
        assert e.length - 1 == k
        # the codeword is floor(midpoint * 2^length), written in length bits
        x = e.midpoint
        assert int(e.codeword, 2) == x.numerator * 2**e.length // x.denominator
