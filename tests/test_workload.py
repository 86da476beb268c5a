import bisect
import random
from collections import Counter

import pytest

from abst.errors import TraceParseError
from abst.workload import (
    WorkloadSpec,
    generate,
    parse_workload,
    read_trace,
    write_trace,
)


def test_same_seed_same_sequence():
    spec = parse_workload("zipf:1.2", n=16, m=300, seed=42)
    assert generate(spec) == generate(spec)


def test_different_seeds_differ():
    a = generate(parse_workload("uniform", n=16, m=300, seed=1))
    b = generate(parse_workload("uniform", n=16, m=300, seed=2))
    assert a != b


def test_uniform_single_key():
    assert generate(parse_workload("uniform", n=1, m=7, seed=0)) == [1] * 7


def test_freq_realizes_exact_counts():
    trace = generate(parse_workload("freq:1,2,4,2,1", n=5, m=10, seed=3))
    assert Counter(trace) == {1: 1, 2: 2, 3: 4, 4: 2, 5: 1}


def test_freq_scales_counts_to_m():
    trace = generate(parse_workload("freq:1,2,4,2,1", n=5, m=20, seed=3))
    assert Counter(trace) == {1: 2, 2: 4, 3: 8, 4: 4, 5: 2}
    trace = generate(parse_workload("freq:1,1,1", n=3, m=7, seed=3))
    assert Counter(trace) == {1: 3, 2: 2, 3: 2}  # remainder tie goes to key 1


def test_zipf_zero_exponent_is_uniform():
    trace = generate(parse_workload("zipf:0", n=4, m=10_000, seed=12345))
    counts = Counter(trace)
    expected = 10_000 / 4
    chi2 = sum((counts[k] - expected) ** 2 / expected for k in range(1, 5))
    assert chi2 < 16.27  # df=3 at the 0.001 level


def test_zipf_hot_key_dominates_for_large_exponent():
    trace = generate(parse_workload("zipf:3", n=8, m=2000, seed=6))
    assert max(Counter(trace).values()) > 1200


def test_trace_file_round_trip(tmp_path):
    path = tmp_path / "trace.txt"
    write_trace(path, [3, 1, 4, 1, 5])
    assert read_trace(path) == [3, 1, 4, 1, 5]


def test_trace_file_comments_and_blanks(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("# header\n3\n\n1\n# middle\n4\n")
    assert read_trace(path) == [3, 1, 4]


def test_trace_file_rejects_zero_key(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("1\n0\n")
    with pytest.raises(TraceParseError, match="line 2"):
        read_trace(path, n=5)


def test_trace_file_rejects_non_integer(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("1\ntwo\n")
    with pytest.raises(TraceParseError, match="line 2"):
        read_trace(path)


def test_trace_file_rejects_key_above_n(tmp_path):
    path = tmp_path / "trace.txt"
    path.write_text("9\n")
    with pytest.raises(TraceParseError):
        read_trace(path, n=5)


def test_file_workload_prefix_and_overrun(tmp_path):
    path = tmp_path / "trace.txt"
    write_trace(path, [1, 2, 3, 4])
    spec = parse_workload(f"file:{path}", n=5, m=2)
    assert generate(spec) == [1, 2]
    full = parse_workload(f"file:{path}", n=5, m=None)
    assert generate(full) == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        generate(parse_workload(f"file:{path}", n=5, m=9))


@pytest.mark.parametrize(
    "text",
    ["bogus", "zipf", "zipf:-1", "freq:1,2", "uniform:3", "file:"],
)
def test_parse_workload_rejects_bad_specs(text):
    with pytest.raises(ValueError):
        parse_workload(text, n=5, m=10)


def test_generated_workloads_need_m():
    with pytest.raises(ValueError):
        generate(WorkloadSpec(kind="uniform", n=5, m=None))


def _oracle_trace(kind: str, n: int, m: int, seed: int, s: float = 1.0) -> list[int]:
    """The uniform and zipf traces as one comprehension a draw, as
    `generate` built them before it mapped the draws at C speed."""
    rng = random.Random(seed)
    if kind == "uniform":
        return [min(n, 1 + int(rng.random() * n)) for _ in range(m)]
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    mass = [1.0 / (r ** s) for r in range(1, n + 1)]
    total = sum(mass)
    cdf = []
    acc = 0.0
    for x in mass:
        acc += x / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return [perm[bisect.bisect_right(cdf, rng.random())] for _ in range(m)]


@pytest.mark.parametrize("seed", [0, 7, 99, 12345])
@pytest.mark.parametrize(
    "kind, s, n, m",
    [
        ("uniform", None, 1, 50),
        ("uniform", None, 3, 5_000),
        ("uniform", None, 1000, 20_000),
        ("uniform", None, 4096, 40_000),
        ("zipf", 1.0, 1, 50),
        ("zipf", 1.0, 100, 20_000),
        ("zipf", 1.5, 1023, 20_000),
        ("zipf", 0.0, 7, 5_000),
    ],
)
def test_generated_trace_equals_the_per_draw_oracle(kind, s, n, m, seed):
    text = kind if s is None else f"{kind}:{s}"
    trace = generate(parse_workload(text, n=n, m=m, seed=seed))
    assert trace == _oracle_trace(kind, n, m, seed, s)
    assert all(type(key) is int for key in trace)


@pytest.mark.parametrize("text", ["uniform", "zipf:1.0"])
def test_long_generated_trace_equals_the_per_draw_oracle(text):
    kind, _, s = text.partition(":")
    trace = generate(parse_workload(text, n=64, m=300_000, seed=99))
    assert trace == _oracle_trace(kind, 64, 300_000, 99, float(s or 0))


def test_uniform_clamps_a_draw_that_rounds_up_to_n(monkeypatch):
    # (1 - 2**-53) * 3 rounds to 3.0, so 1 + int(3 r) is 4, clamped to key 3
    class TopDraw(random.Random):
        def random(self):
            return 1.0 - 2.0 ** -53

    monkeypatch.setattr(random, "Random", TopDraw)
    trace = generate(parse_workload("uniform", n=3, m=4, seed=0))
    assert trace == _oracle_trace("uniform", 3, 4, 0) == [3, 3, 3, 3]
