"""The benchmark, `bench/run.py`, finds every library name it looks up."""

import importlib.util
from pathlib import Path

import abst
import abst.cli
from abst import init

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_benchmark_finds_every_name_it_looks_up():
    # `Library` turns a missing stage into None, and the traced pass then
    # skips the checks that use it with nothing failing, so a renamed public
    # name would weaken the benchmark silently. The lists are read from the
    # benchmark itself, which runs nothing on import.
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    names = bench.Library.REQUIRED + bench.Library.STAGE_NAMES
    assert [name for name in names if not hasattr(abst, name)] == []
    assert callable(abst.cli.main)
    assert [name for name in bench.CompareSpy.WRAPPED if not hasattr(abst.cli, name)] == []
    # the fields `StepDriver.drive` reads from a fresh state
    state = init(5, 2)
    for name in ("n", "smoothing", "tree", "rebuilds", "search_cost"):
        assert hasattr(state, name), name
