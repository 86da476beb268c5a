"""The benchmark, `bench/run.py`, finds every library name it looks up."""

import importlib.util
from collections import Counter
from pathlib import Path

import abst
import abst.cli
from abst import init

BENCH_RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def load_bench():
    """`bench/run.py` as a module; it runs nothing on import."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH_RUN)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_benchmark_finds_every_name_it_looks_up():
    # `Library` turns a missing stage into None, and the traced pass then
    # skips the checks that use it with nothing failing, so a renamed public
    # name would weaken the benchmark silently. The lists are read from the
    # benchmark itself.
    bench = load_bench()
    names = bench.Library.REQUIRED + bench.Library.STAGE_NAMES
    assert [name for name in names if not hasattr(abst, name)] == []
    assert callable(abst.cli.main)
    # the names `CompareSpy` and the compare-raw marking wrapper patch
    patched = {*bench.CompareSpy.WRAPPED, "run", "init", "generate", "optimal_static_cost"}
    assert [name for name in sorted(patched) if not callable(getattr(abst.cli, name, None))] == []
    # the fields `StepDriver.drive` reads from a fresh state
    state = init(5, 2)
    for name in ("n", "smoothing", "tree", "rebuilds", "search_cost"):
        assert hasattr(state, name), name


def test_compare_raw_call_is_cut_at_each_run_and_static_optimum(monkeypatch):
    # `cal_wall_s` sums each segment's fastest time over calls, so the
    # segments must stay where they are: the wrappers that mark them forward
    # positional arguments only, and a renamed call would not be marked.
    bench = load_bench()
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in ("run", "optimal_static_cost"):
        monkeypatch.setattr(abst.cli, name, counted(name, getattr(abst.cli, name)))
    workload = bench.CompareWorkload(bench.Library(abst, abst.cli), bench.DEFAULT_SEED)
    marks = []
    assert workload.check(workload.call(marks), bench.load_pinned()) == []
    assert calls == {"run": 3, "optimal_static_cost": 6}
    assert len(marks) == 18
