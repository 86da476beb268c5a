"""Reference mapping from draws to keys for the uniform and zipf workloads.

`workload.generate` reads a zipf key from a bucket table and takes a
uniform key by `math.floor`. The mappings it used before are kept here, one
draw at a time: the uniform key `min(n, 1 + int(n r))` and the zipf key
`perm[bisect_right(cdf, r)]`, over the same seeded relabelling and the same
left-to-right CDF. The tests require the same trace from both.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import reduce
from operator import add

from abst.workload import WorkloadSpec


def zipf_cdf(n: int, s: float) -> list[float]:
    """The CDF over ranks 1..n, summed left to right, its last value 1.0."""
    mass = [1.0 / (r ** s) for r in range(1, n + 1)]
    total = reduce(add, mass, 0.0)
    cdf = []
    acc = 0.0
    for x in mass:
        acc += x / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def oracle(spec: WorkloadSpec) -> list[int]:
    """The trace of a `uniform` or `zipf` spec, one bisection per draw."""
    n, m = spec.n, spec.m
    rng = random.Random(spec.seed)
    if spec.kind == "uniform":
        return [min(n, 1 + int(rng.random() * n)) for _ in range(m)]
    assert spec.kind == "zipf", spec.kind
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    cdf = zipf_cdf(n, spec.s)
    return [perm[bisect_right(cdf, rng.random())] for _ in range(m)]
