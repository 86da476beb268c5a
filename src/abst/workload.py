"""Seeded request-sequence generation and trace file I/O.

All randomness comes from `random.Random`, i.e. the Mersenne Twister
(MT19937), and float sums are added left to right, so identical seeds
reproduce identical sequences on any platform and any supported Python
version.

A zipf draw r in [0, 1) becomes the key `perm[bisect_right(cdf, r)]`, but
by table lookup (Chen and Asau's guide table): [0, 1) is cut into B = 2**k
equal buckets, k = min(14, m.bit_length()), and each bucket that no CDF
value cuts holds the one key all its draws map to. Multiplying a float by
a power of two is exact, so `floor(r * B)` is r's bucket and a CDF value c
cuts bucket b exactly when b < c * B < b + 1. A cut bucket holds 0, and
only the draws that land in one take the bisection. The trace is the one
the bisection alone would give, draw for draw.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from functools import reduce
from itertools import islice, repeat
from operator import add, mul
from typing import NamedTuple, Sequence

from .errors import TraceParseError

DEFAULT_SEED = 12345


class WorkloadSpec(NamedTuple):
    kind: str  # "uniform" | "zipf" | "freq" | "file"
    n: int
    m: int | None
    seed: int = DEFAULT_SEED
    s: float | None = None
    weights: tuple[int, ...] | None = None
    path: str | None = None


def parse_workload(
    text: str, *, n: int, m: int | None, seed: int = DEFAULT_SEED
) -> WorkloadSpec:
    """Parse a workload string: `uniform`, `zipf:1.2`, `freq:1,2,4,2,1`,
    or `file:trace.txt`."""
    kind, _, arg = text.partition(":")
    kind = kind.strip()
    if kind == "uniform":
        if arg:
            raise ValueError("uniform takes no parameter")
        return WorkloadSpec(kind="uniform", n=n, m=m, seed=seed)
    if kind == "zipf":
        if not arg:
            raise ValueError("zipf needs an exponent, e.g. zipf:1.0")
        s = float(arg)
        if not math.isfinite(s) or s < 0:
            raise ValueError(f"zipf exponent must be finite and nonnegative, got {arg}")
        return WorkloadSpec(kind="zipf", n=n, m=m, seed=seed, s=s)
    if kind == "freq":
        weights = []
        for w in arg.split(","):
            try:
                weights.append(int(w))
            except ValueError:
                raise ValueError(f"freq count {w.strip()!r} is not an integer") from None
        if len(weights) != n or any(w < 0 for w in weights) or sum(weights) < 1:
            raise ValueError(f"freq needs {n} nonnegative counts with positive sum")
        return WorkloadSpec(kind="freq", n=n, m=m, seed=seed, weights=tuple(weights))
    if kind == "file":
        if not arg:
            raise ValueError("file needs a path, e.g. file:trace.txt")
        return WorkloadSpec(kind="file", n=n, m=m, seed=seed, path=arg)
    raise ValueError(f"unknown workload kind {kind!r}")


def _apportion(weights: Sequence[int], m: int) -> list[int]:
    """Scale weights to integer counts summing to m (largest remainder,
    ties to the smaller key)."""
    total = sum(weights)
    base = [m * w // total for w in weights]
    remainders = [(m * w % total, -i) for i, w in enumerate(weights)]
    short = m - sum(base)
    for _, neg_i in sorted(remainders, reverse=True)[:short]:
        base[-neg_i] += 1
    return base


_WINDOW = 1024  # draws per pass of `_zipf_keys`: only a window is held as floats


def _zipf_keys(draws, m: int, cdf: list[float], perm: list[int]) -> list[int]:
    """`perm[bisect_right(cdf, r)]` for each of the next m draws r, read
    from the bucket table of the module docstring, `_WINDOW` draws a pass."""
    size = 1 << min(14, m.bit_length())
    scale = float(size)
    table: list[int] = []
    for key, c in zip(perm, cdf):
        x = c * scale
        b = math.floor(x)
        if b > len(table):  # buckets up to b lie between the last value and c
            table += [key] * (b - len(table))
        if x != b and b == len(table):  # c cuts bucket b, not yet marked
            table.append(0)
    trace: list[int] = []
    for start in range(0, m, _WINDOW):
        window = list(islice(draws, min(_WINDOW, m - start)))
        keys = list(map(table.__getitem__, map(math.floor, map(mul, window, repeat(scale)))))
        at = -1
        try:
            while True:  # a draw in a cut bucket takes the bisection
                at = keys.index(0, at + 1)
                keys[at] = perm[bisect_right(cdf, window[at])]
        except ValueError:  # no 0 is left
            pass
        trace += keys
    return trace


def generate(spec: WorkloadSpec) -> list[int]:
    """Deterministic request sequence: same WorkloadSpec, same trace."""
    if spec.kind == "file":
        trace = read_trace(spec.path, n=spec.n)
        if spec.m is not None:
            if spec.m < 1:
                raise ValueError("m must be at least 1")
            if spec.m > len(trace):
                raise ValueError(
                    f"trace has {len(trace)} requests, {spec.m} asked for"
                )
            trace = trace[: spec.m]
        return trace
    if spec.m is None or spec.m < 1:
        raise ValueError("generated workloads need m >= 1")
    if spec.n < 1:
        raise ValueError("need at least one key")
    if spec.m > sys.maxsize:
        raise ValueError(f"m is too large: {spec.m} requests, at most {sys.maxsize}")
    rng = random.Random(spec.seed)
    # The m draws of the uniform and zipf traces, mapped to keys at C speed.
    # Lazy: zipf's shuffle takes its draws first. random() < 1.0, so the
    # sentinel never ends the stream early.
    draws = iter(rng.random, 1.0)
    if spec.kind == "uniform":
        # key 1 + floor(n r), clamped to n where n r rounds up to n
        keys = list(range(1, spec.n + 1))
        keys.append(spec.n)
        buckets = map(math.floor, map(mul, islice(draws, spec.m), repeat(float(spec.n))))
        return list(map(keys.__getitem__, buckets))
    if spec.kind == "zipf":
        # CDF draw over ranks, then a seeded relabeling so the hot key is
        # not always key 1
        perm = list(range(1, spec.n + 1))
        rng.shuffle(perm)
        try:
            mass = [1.0 / (r ** spec.s) for r in range(1, spec.n + 1)]
        except OverflowError:
            raise ValueError(
                f"zipf exponent {spec.s} overflows a float weight at n={spec.n}"
            ) from None
        total = reduce(add, mass, 0.0)  # left to right, as `sum` before 3.12
        cdf = []
        acc = 0.0
        for x in mass:
            acc += x / total
            cdf.append(acc)
        cdf[-1] = 1.0
        return _zipf_keys(draws, spec.m, cdf, perm)
    if spec.kind == "freq":
        counts = _apportion(spec.weights, spec.m)
        seq = [k for k, c in enumerate(counts, start=1) for _ in range(c)]
        rng.shuffle(seq)
        return seq
    raise ValueError(f"unknown workload kind {spec.kind!r}")


def read_trace(path: str, n: int | None = None) -> list[int]:
    """Read a newline-delimited trace of 1-based keys; `#` lines are comments."""
    trace: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                key = int(line)
            except ValueError:
                raise TraceParseError(f"not an integer: {line!r}", line_no) from None
            if key < 1:
                raise TraceParseError(f"keys are 1-based, got {key}", line_no)
            if n is not None and key > n:
                raise TraceParseError(f"key {key} exceeds n={n}", line_no)
            trace.append(key)
    return trace


def write_trace(path: str, trace: Sequence[int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in trace:
            fh.write(f"{key}\n")
