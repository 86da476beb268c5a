#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for abst (stdlib only).

Run from anywhere; paths resolve against the repository root:

    python3 bench/run.py                      # every workload, one fresh process each
    python3 bench/run.py --workload serve-zipf --seed 7 --trace 0
    python3 bench/run.py --workload rebuild-zipf --trace 1

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end ones named in BENCHMARK.json, with `--trace 1` the per-layer ones
from a separate traced pass. Full results with machine info, and the spans of
a traced pass, go to `.bench_out/` at the repository root. bench/NOTES.md says
why each workload exists and which metric each layer should move.

The library is imported from `src/` of the same checkout, never from an
installed copy; without it the benchmark exits 2 and prints no result. Timed
runs also call `bench/control/abst_control`, a frozen copy of the library, and
report each time relative to it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PINNED_PATH = BENCH_DIR / "pinned.json"

DEFAULT_SEED = 99  # the seed whose outputs are pinned in pinned.json
DEFAULT_SECONDS = 40  # run_seconds in BENCHMARK.json
MIN_CALLS = 3  # timed calls per run, however long they take
SETUPS = 5  # set-up repeats per run, spread over it; setup_s is their median
CONTROL_DIR = BENCH_DIR / "control"  # holds abst_control, a frozen copy of abst
# The control's time for one call (the fastest_envelope of its segments) and
# for one set-up with its import, at seed 99 on the 2-core VM the benchmark
# was built on, rounded. Each reported time is the program's time as a
# multiple of the control's, measured in the same run, times one of these.
CONTROL_WALL_S = {"serve-zipf": 1.3, "rebuild-zipf": 1.6, "compare-raw": 1.2}
CONTROL_SETUP_S = {"serve-zipf": 0.2, "rebuild-zipf": 0.7, "compare-raw": 0.6}
WARMUP_REQUESTS = 1_000
DP_SERIES = (64, 128, 256)
CHILD_TIMEOUT_S = 900

# `chunk`: requests per `run` call within one timed call; a chunk takes about
# 40-70 ms, short enough to fall within one of the host's speed spells.
SIMULATE = {
    "serve-zipf": {"n": 64, "alpha": 8, "workload": "zipf:1.0", "m": 300_000,
                   "smoothing": "laplace", "chunk": 10_000},
    "rebuild-zipf": {"n": 1024, "alpha": 8, "workload": "zipf:1.5", "m": 50_000,
                     "smoothing": "laplace", "chunk": 2_000},
}
COMPARE_N = 128
COMPARE_WARMUP_N = 64
COMPARE_ALPHAS = (2, 8)
COMPARE_WORKLOADS = ("uniform", "zipf:1.0", "zipf:1.5")
WORKLOADS = ("serve-zipf", "rebuild-zipf", "compare-raw")

# Rebuild stages replayed by the traced pass, in call order.
STAGES = ("sfe.validate", "sfe.build_code", "trees.sfe_to_bst",
          "dynamic.tree_for_probs", "trees.depth_map")


class SetupError(Exception):
    """The program under test cannot be loaded or prepared."""


# --------------------------------------------------------------------------
# Loading the library and describing the machine


class Library:
    """Public names of abst the benchmark calls; a missing one is None.

    A later version may drop a stage function; its metric is then recorded
    as absent rather than crashing the benchmark.
    """

    REQUIRED = ("init", "run", "step", "generate", "parse_workload")
    STAGE_NAMES = ("ProbabilityDistribution", "build_sfe_code", "sfe_to_bst",
                   "tree_for_probs", "depth_map", "optimal_static_cost",
                   "WeightVector", "bst_to_matchings", "route", "read_trace",
                   "write_trace")

    def __init__(self, abst, cli):
        self.cli = cli
        for name in self.REQUIRED + self.STAGE_NAMES:
            setattr(self, name, getattr(abst, name, None))
        missing = [name for name in self.REQUIRED if getattr(self, name) is None]
        if missing or getattr(cli, "main", None) is None:
            raise SetupError(f"abst lacks required names: {missing or ['cli.main']}")


def load_library() -> tuple[Library, float]:
    """Import abst from this checkout's src/; return it and the import time."""
    package = SRC / "abst"
    if not (package / "__init__.py").is_file():
        raise SetupError(f"no abst package at {package}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import abst
        import abst.cli
    except ImportError as exc:
        raise SetupError(f"cannot import abst: {exc}") from exc
    import_s = time.perf_counter() - t0
    if Path(abst.__file__).resolve().parent != package.resolve():
        raise SetupError(f"imported abst from {abst.__file__}, not from {package}")
    return Library(abst, abst.cli), import_s


def load_control() -> tuple[Library, float]:
    """Import abst_control, the frozen copy of abst kept beside the benchmark;
    return it and the import time."""
    sys.path.insert(0, str(CONTROL_DIR))
    t0 = time.perf_counter()
    try:
        import abst_control
        import abst_control.cli
    except ImportError as exc:
        raise SetupError(f"cannot import the control library: {exc}") from exc
    return Library(abst_control, abst_control.cli), time.perf_counter() - t0


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository; git does
    not look above the checkout for one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_info(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# Small statistics helpers


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a nonempty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summary(values) -> dict:
    return {"count": len(values), "p50": statistics.median(values),
            "p99": quantile(values, 0.99), "min": min(values), "max": max(values)}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# --------------------------------------------------------------------------
# Output checks


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_report(d: dict, cfg: dict) -> list[str]:
    """Invariants every simulate report must satisfy, at any seed."""
    problems = []
    if d["m"] != cfg["m"] or d["n"] != cfg["n"]:
        problems.append(f"n, m = {d['n']}, {d['m']}, expected {cfg['n']}, {cfg['m']}")
    alpha = Fraction(d["alpha"])
    if Fraction(d["total"]) != d["search_cost"] + alpha * d["rebuilds"]:
        problems.append(f"total {d['total']} != search_cost + alpha * rebuilds")
    if d["search_cost"] < d["m"]:
        problems.append(f"search_cost {d['search_cost']} < m {d['m']}")
    if d["theorem_applicable"] and d["total"] > d["theorem_bound"]:
        problems.append(f"total {d['total']} > theorem_bound {d['theorem_bound']}")
    return problems


def compare_argv(n: int, seed: int) -> list[str]:
    return ["compare", "--n", str(n), "--alphas", ",".join(map(str, COMPARE_ALPHAS)),
            "--workloads", ",".join(COMPARE_WORKLOADS), "--smoothing", "none",
            "--seed", str(seed)]


def check_compare_output(text: str) -> list[str]:
    """Invariants of the `compare` CSV rows, at any seed."""
    rows = list(csv.DictReader(io.StringIO(text)))
    cells = [(int(r["alpha"]), r["workload"]) for r in rows]
    expected = [(a, w) for a in COMPARE_ALPHAS for w in COMPARE_WORKLOADS]
    if cells != expected:
        return [f"compare cells {cells}, expected {expected}"]
    problems = []
    for r in rows:
        cell = f"alpha={r['alpha']} {r['workload']}"
        search, rebuilds, m = int(r["search_cost"]), int(r["rebuilds"]), int(r["m"])
        total, stat = Fraction(r["total"]), int(r["stat_cost"])
        if total != search + Fraction(r["alpha"]) * rebuilds:
            problems.append(f"{cell}: total != search_cost + alpha * rebuilds")
        if search < m:
            problems.append(f"{cell}: search_cost {search} < m {m}")
        if stat > total:
            problems.append(f"{cell}: stat_cost {stat} > total {total}")
        if r["theorem_applicable"] == "true" and float(total) > float(r["theorem_bound"]):
            problems.append(f"{cell}: total {total} > theorem_bound {r['theorem_bound']}")
    return problems


def run_compare(lib: Library, argv: list[str]) -> str:
    """`abst compare` in-process with stdout captured; raises on a nonzero exit."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"abst {' '.join(argv)} exited {code}")
    return buf.getvalue()


@contextlib.contextmanager
def wrapped(module, attrs: tuple[str, ...], wrap):
    """Replace each of `attrs` that `module` has by wrap(attr, original) for
    the body; yield whether all of them were there."""
    saved = {attr: getattr(module, attr) for attr in attrs if hasattr(module, attr)}
    for attr, fn in saved.items():
        setattr(module, attr, wrap(attr, fn))
    try:
        yield len(saved) == len(attrs)
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


# --------------------------------------------------------------------------
# Workloads: set-up and the timed call


class SimulateWorkload:
    """`init`, then `run` plus `to_dict()` on one trace generated from the seed."""

    def __init__(self, lib: Library, name: str, seed: int):
        self.lib, self.name, self.seed = lib, name, seed
        self.cfg = SIMULATE[name]
        self.requests = self.cfg["m"]
        self.trace = None
        self.reference = None

    def spec(self):
        c = self.cfg
        return self.lib.parse_workload(c["workload"], n=c["n"], m=c["m"], seed=self.seed)

    def init_args(self) -> tuple:
        return self.cfg["n"], self.cfg["alpha"], self.cfg["smoothing"]

    def setup(self) -> None:
        """Generate the trace, cut it into chunks and warm up on its first requests."""
        trace = self.lib.generate(self.spec())
        if self.trace is not None and trace != self.trace:
            raise SetupError("the same seed generated a different trace")
        self.trace = trace
        size = self.cfg["chunk"]
        self.chunks = [trace[i:i + size] for i in range(0, len(trace), size)]
        self.lib.run(self.lib.init(*self.init_args()), trace[:WARMUP_REQUESTS]).to_dict()

    def call(self, marks: list[float]):
        """`run` on one state, a chunk of the trace at a time, marking the
        clock after each; the last report covers the whole trace. The report
        is returned too, so that freeing it is not timed."""
        state = self.lib.init(*self.init_args())
        for chunk in self.chunks:
            report = self.lib.run(state, chunk)
            marks.append(time.perf_counter())
        return report, report.to_dict()

    def check(self, result, pinned: dict | None) -> list[str]:
        d = json.loads(json.dumps(result[1]))
        problems = check_report(d, self.cfg)
        if self.reference is None:
            self.reference = d
        elif d != self.reference:
            problems.append("report differs from the first call's")
        if pinned is not None and d != pinned[self.name]:
            problems.append(f"report {d} differs from the pinned {pinned[self.name]}")
        return problems


class CompareWorkload:
    """`abst compare` at n=128 with raw frequencies, called in-process."""

    name = "compare-raw"

    def __init__(self, lib: Library, seed: int):
        self.lib, self.seed = lib, seed
        self.argv = compare_argv(COMPARE_N, seed)
        self.requests = None  # sum of m over the cells, known after a call
        self.reference = None

    def setup(self) -> None:
        """Warm up on the same grid at a smaller n."""
        run_compare(self.lib, compare_argv(COMPARE_WARMUP_N, self.seed))

    def call(self, marks: list[float]):
        """One `compare`, marking the clock as each cell's `run` and
        `optimal_static_cost` inside `abst.cli` starts and ends."""

        def marked(_attr, fn):
            def call(*args):
                marks.append(time.perf_counter())
                try:
                    return fn(*args)
                finally:
                    marks.append(time.perf_counter())
            return call

        with wrapped(self.lib.cli, ("run", "optimal_static_cost"), marked):
            return run_compare(self.lib, self.argv)

    def check(self, result: str, pinned: dict | None) -> list[str]:
        problems = check_compare_output(result)
        if self.reference is None:
            self.reference = result
            if not problems:
                self.requests = sum(int(r["m"]) for r in csv.DictReader(io.StringIO(result)))
        elif result != self.reference:
            problems.append("compare output differs from the first call")
        if pinned is not None and list(csv.DictReader(io.StringIO(result))) != pinned[self.name]:
            problems.append("compare rows differ from the pinned rows")
        return problems


def make_workload(lib: Library, name: str, seed: int):
    if name in SIMULATE:
        return SimulateWorkload(lib, name, seed)
    return CompareWorkload(lib, seed)


# --------------------------------------------------------------------------
# Untraced pass: end-to-end metrics


def fastest_envelope(segments: list[list[float]]) -> float | None:
    """Sum over segment positions of the fastest time any call took there.

    Every call does the same work between the same marks, so each position's
    fastest time is that work's time in the host's fastest spell of the run.
    None if the calls were cut into different numbers of segments.
    """
    if not segments or len({len(s) for s in segments}) != 1:
        return None
    return sum(min(column) for column in zip(*segments))


def timed_call(wl, pinned: dict | None) -> tuple[float, list[float], list[str]]:
    """One checked call of `wl`: its wall time, the segments between its
    marks, and what is wrong with its output (empty if nothing)."""
    gc.collect()
    marks: list[float] = []
    t0 = time.perf_counter()
    try:
        result = wl.call(marks)
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - t0, [], [f"{type(exc).__name__}: {exc}"]
    t1 = time.perf_counter()
    bounds = [t0, *marks, t1]
    return t1 - t0, [b - a for a, b in zip(bounds, bounds[1:])], wl.check(result, pinned)


def measure(lib: Library, name: str, seed: int, seconds: int, import_s: float) -> dict:
    pinned = load_pinned() if seed == DEFAULT_SEED else None
    wl = make_workload(lib, name, seed)
    clock = time.perf_counter

    def setup(workload, times: list[float]) -> None:
        t0 = clock()
        workload.setup()
        times.append(clock() - t0)

    # On the shared 2-core VM the benchmark was built on, the same call's
    # time varies by +-20% from one call to the next and drifts by up to 2x
    # over minutes. Two measures cancel most of that:
    # - Each call marks the clock at fixed points of its work, and a call's
    #   time is taken as each segment's fastest time over the run, summed
    #   (fastest_envelope).
    # - Calls and set-ups alternate with the same ones on abst_control, a
    #   frozen copy of the library, which the host slows alike. Each time is
    #   reported as a multiple of the control's, scaled to seconds by
    #   CONTROL_WALL_S or CONTROL_SETUP_S.
    # Set-ups are spread over the run so that they do not all fall in one
    # spell. Peak RSS is read before the control is loaded.
    setup_times, control_setup_times = [], []
    walls, segments, failed_walls, errors, durations = [], [], [], [], []
    control_walls, control_segments = [], []

    def program_call() -> None:
        wall, segs, problems = timed_call(wl, pinned)
        if problems:
            failed_walls.append(wall)
            errors.extend(problems[:3])
        else:
            walls.append(wall)
            segments.append(segs)

    def control_call() -> None:
        wall, segs, problems = timed_call(cw, None)
        if problems:
            raise SetupError(f"the control library failed: {problems[0]}")
        control_walls.append(wall)
        control_segments.append(segs)

    setup(wl, setup_times)
    begin = clock()
    program_call()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    control, control_import_s = load_control()
    cw = make_workload(control, name, seed)
    setup(cw, control_setup_times)
    while len(walls) + len(failed_walls) < MIN_CALLS or (
        clock() - begin + statistics.median(durations) <= seconds
    ):
        t0 = clock()
        for call in (control_call, program_call) if len(durations) % 2 == 0 else (
                program_call, control_call):
            call()
        durations.append(clock() - t0)
        if len(setup_times) < SETUPS and clock() - begin >= len(setup_times) * seconds / SETUPS:
            setup(wl, setup_times)
            setup(cw, control_setup_times)

    envelope = fastest_envelope(segments)
    if envelope is None:
        envelope = min(walls or failed_walls)
    control_envelope = fastest_envelope(control_segments)
    cal_wall_s = envelope / control_envelope * CONTROL_WALL_S[name]
    setup_ratio = ((import_s + statistics.median(setup_times))
                   / (control_import_s + statistics.median(control_setup_times)))
    requests = wl.requests or 1
    metrics = {
        "cal_req_per_s": metric(requests / cal_wall_s, "1/s"),
        "cal_wall_s": metric(cal_wall_s, "s"),
        "setup_s": metric(setup_ratio * CONTROL_SETUP_S[name], "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    detail = {
        "requests_per_call": wl.requests,
        "call_wall_s": walls,
        "median_call_wall_s": statistics.median(walls) if walls else None,
        "min_call_wall_s": min(walls) if walls else None,
        "envelope_s": envelope,
        "control_call_wall_s": control_walls,
        "control_envelope_s": control_envelope,
        "segments_per_call": len(segments[0]) if segments else None,
        "failed_call_wall_s": failed_walls,
        "import_s": import_s,
        "setup_repeat_s": setup_times,
        "control_import_s": control_import_s,
        "control_setup_repeat_s": control_setup_times,
        "pinned_check": pinned is not None,
        "errors": errors,
    }
    return {"correct": not failed_walls, "attempted": len(walls) + len(failed_walls),
            "failed": len(failed_walls),
            "metrics": metrics, "detail": detail}


# --------------------------------------------------------------------------
# Traced pass: per-layer metrics


class Tracer:
    """In-memory spans (name, start, end, parent index) plus the durations
    of each span name; written out once the pass ends."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.durations: dict[str, list[float]] = {}
        self.absent: set[str] = set()

    def begin(self, name: str, parent: int | None) -> int:
        self.spans.append((name, time.perf_counter(), None, parent))
        return len(self.spans) - 1

    def end(self, index: int) -> float:
        name, start, _, parent = self.spans[index]
        end = time.perf_counter()
        self.spans[index] = (name, start, end, parent)
        self.durations.setdefault(name, []).append(end - start)
        return end - start

    def call(self, name: str, parent: int | None, fn, *args):
        """Time fn(*args) as a span; a missing fn records `name` as absent."""
        if fn is None:
            self.absent.add(name)
            return None
        index = self.begin(name, parent)
        try:
            return fn(*args)
        finally:
            self.end(index)

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def write(self, path: Path) -> None:
        """One JSON line a span; a span cut short by an exception has no end."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start - origin,
                    "end": None if end is None else end - origin,
                    "parent": parent, "workload": self.workload}, separators=(",", ":")) + "\n")


def replay_rebuild(lib: Library, tracer: Tracer, parent: int, counts: list[int],
                   t: int, smoothing: str):
    """Call each rebuild stage on the distribution the simulator rebuilds
    from, computed from the harness's own counts of the trace prefix.

    Returns the rebuilt tree, or None if `tree_for_probs` is absent.
    """
    n = len(counts)
    if smoothing == "laplace":
        probs = tuple(Fraction(w + 1, t + n) for w in counts)
    else:
        probs = tuple(Fraction(w, t) for w in counts)
    keys = [k for k, p in enumerate(probs, start=1) if p > 0]
    positive = tuple(probs[k - 1] for k in keys)
    dist = tracer.call("sfe.validate", parent, lib.ProbabilityDistribution, positive)
    if dist is None:
        dist = positive
    tracer.call("sfe.build_code", parent, lib.build_sfe_code, dist)
    tracer.call("trees.sfe_to_bst", parent, lib.sfe_to_bst, dist,
                None if len(keys) == n else keys)
    if lib.build_sfe_code is not None and lib.sfe_to_bst is not None:
        convert = tracer.durations["trees.sfe_to_bst"][-1] - tracer.durations["sfe.build_code"][-1]
        tracer.durations.setdefault("trees.convert", []).append(convert)
    return tracer.call("dynamic.tree_for_probs", parent, lib.tree_for_probs, probs)


class StepDriver:
    """Serves traces through `step` one request at a time, a span per call,
    replaying the rebuild stages whenever the simulator rebuilds."""

    def __init__(self, lib: Library, tracer: Tracer, root: int):
        self.lib, self.tracer, self.root = lib, tracer, root
        self.replay_s = 0.0
        self.rebuilds = 0
        self.final_tree = None

    def drive(self, init_args: tuple, trace: list[int], expected: dict) -> list[str]:
        """Serve one trace; the result must match the untraced `expected`."""
        lib, tracer = self.lib, self.tracer
        spans, clock, step = tracer.spans, time.perf_counter, lib.step
        plain = tracer.durations.setdefault("dynamic.step", [])
        rebuilding = tracer.durations.setdefault("dynamic.step.rebuilt", [])
        state = lib.init(*init_args)
        n, smoothing = state.n, state.smoothing
        depth_map = lib.depth_map
        tree = getattr(state, "tree", None)
        depths = depth_map(tree) if depth_map and tree else None
        counts = [0] * n
        search = 0
        for t, key in enumerate(trace, start=1):
            before = state.rebuilds
            start = clock()
            step(state, key)
            end = clock()
            counts[key - 1] += 1
            if state.rebuilds == before:
                spans.append(("dynamic.step", start, end, self.root))
                plain.append(end - start)
            else:
                spans.append(("dynamic.step.rebuilt", start, end, self.root))
                rebuilding.append(end - start)
                r0 = clock()
                replay = tracer.begin("bench.replay", len(spans) - 1)
                tree = replay_rebuild(lib, tracer, replay, counts, t, smoothing)
                depths = tree and tracer.call("trees.depth_map", replay, depth_map, tree)
                self.final_tree = tree
                tracer.end(replay)
                self.replay_s += clock() - r0
            if depths is not None:
                search += depths[key]
        self.rebuilds += state.rebuilds
        problems = []
        got = {"search_cost": state.search_cost, "rebuilds": state.rebuilds}
        want = {k: expected[k] for k in got}
        if got != want:
            problems.append(f"traced pass gave {got}, untraced {want}")
        if depths is not None and search != expected["search_cost"]:
            problems.append(
                f"replayed trees give search cost {search}, untraced {expected['search_cost']}")
        return problems


def bytes_per_request(lib: Library, init_args: tuple, trace: list[int]) -> float:
    """tracemalloc peak of one `run` plus `to_dict()`, per request."""
    gc.collect()
    tracemalloc.start()
    try:
        lib.run(lib.init(*init_args), trace).to_dict()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / len(trace)


def trace_roundtrip(lib: Library, tracer: Tracer, root: int, traces: list) -> list[str]:
    """write_trace then a timed read_trace of each trace; must read back equal."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{tracer.workload}.trace"
    problems = []
    try:
        for trace in traces:
            if lib.write_trace is None:
                tracer.absent.add("workload.read_trace")
                break
            lib.write_trace(str(path), trace)
            back = tracer.call("workload.read_trace", root, lib.read_trace, str(path))
            if back is not None and back != trace:
                problems.append("read_trace did not return the written trace")
    finally:
        if path.exists():
            path.unlink()
    return problems


def matching_view(lib: Library, tracer: Tracer, root: int, tree) -> list[str]:
    """Matchings of the final tree, then a route to every key; each route
    must be as long as the key's depth."""
    if tree is None:
        tracer.absent.update({"matching.bst_to_matchings", "matching.route"})
        return []
    pair = tracer.call("matching.bst_to_matchings", root, lib.bst_to_matchings, tree)
    if pair is None or lib.route is None or lib.depth_map is None:
        tracer.absent.add("matching.route")
        return []
    problems = []
    for key, depth in sorted(lib.depth_map(tree).items()):
        path = tracer.call("matching.route", root, lib.route, pair, key)
        if len(path) != depth:
            problems.append(f"route to {key} has {len(path)} hops, depth is {depth}")
    return problems


def dp_series(lib: Library, tracer: Tracer, root: int, seed: int) -> list[str]:
    """Static-optimum DP at growing n on seeded weights; the returned tree
    must cost what the DP says."""
    if lib.optimal_static_cost is None or lib.WeightVector is None:
        tracer.absent.update(f"baselines.optimal_static.s.n{n}" for n in DP_SERIES)
        return []
    rng = random.Random(seed)
    problems = []
    for n in DP_SERIES:
        weights = [rng.randint(1, 1000) for _ in range(n)]
        cost, tree = tracer.call(f"baselines.optimal_static.s.n{n}", root,
                                 lib.optimal_static_cost, lib.WeightVector(tuple(weights)))
        if lib.depth_map is not None:
            depths = lib.depth_map(tree)
            if sum(w * depths[k] for k, w in enumerate(weights, start=1)) != cost:
                problems.append(f"DP tree at n={n} does not cost {cost}")
    return problems


class CompareSpy:
    """Wraps the layer functions `abst.cli` calls with spans, and keeps each
    cell's `init` arguments, trace and report so the step driver can replay
    the cell afterwards."""

    WRAPPED = {"generate": "workload.generate", "init": "dynamic.init",
               "run": "dynamic.run", "optimal_static_cost": "baselines.optimal_static"}

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.parent = None
        self.cells: list[list] = []

    def wrapper(self, attr: str, fn):
        span = self.WRAPPED[attr]

        def traced(*args):
            result = self.tracer.call(span, self.parent, fn, *args)
            if attr == "init":
                self.cells.append([args, None, None])
            elif attr == "run" and self.cells:
                self.cells[-1][1:] = [args[1], result]
            return result

        return traced


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])

    @contextlib.contextmanager
    def group(self):
        """One checked operation: the body appends its problems to the list
        it is given, and an exception it raises is one more problem."""
        problems: list[str] = []
        try:
            yield problems
        except Exception as exc:  # a failed operation is counted, not fatal
            problems.append(f"{type(exc).__name__}: {exc}")
        self.add(problems)


def p50(values, scale: float, unit: str) -> dict:
    return metric(statistics.median(values) * scale, unit)


def traced_pass(lib: Library, name: str, seed: int) -> dict:
    """One fixed pass with spans around every layer call; see NOTES.md."""
    tracer = Tracer(name)
    checks = Checks()
    pinned = load_pinned() if seed == DEFAULT_SEED else None
    root = tracer.begin("bench.traced_pass", None)
    per_layer: dict[str, dict] = {}
    cells = []  # (init arguments, trace, untraced report) of each simulation
    untraced_s = traced_s = None

    if name in SIMULATE:
        wl = SimulateWorkload(lib, name, seed)
        with checks.group() as problems:
            init_args = wl.init_args()
            trace = tracer.call("workload.generate", root, lib.generate, wl.spec())
            t0 = time.perf_counter()
            reference = lib.run(lib.init(*init_args), trace).to_dict()
            untraced_s = time.perf_counter() - t0
            problems += wl.check((None, reference), pinned)
            cells.append((init_args, trace, reference))
    else:
        wl = CompareWorkload(lib, seed)
        with checks.group() as problems:
            t0 = time.perf_counter()
            output = run_compare(lib, wl.argv)
            untraced_s = time.perf_counter() - t0
            problems += wl.check(output, pinned)
        spy, complete = CompareSpy(tracer), False
        with checks.group() as problems, wrapped(lib.cli, tuple(CompareSpy.WRAPPED),
                                                 spy.wrapper) as complete:
            spy.parent = tracer.begin("cli.compare", root)
            output = run_compare(lib, wl.argv)
            traced_s = tracer.end(spy.parent)
            problems += wl.check(output, pinned)
            cells = [(args, trace, report.to_dict())
                     for args, trace, report in spy.cells if report is not None]
        if complete and traced_s and untraced_s:
            children = sum(tracer.total(span) for span in CompareSpy.WRAPPED.values())
            per_layer["cli.self_ms"] = metric((traced_s - children) * 1e3, "ms")
            per_layer["baselines.share"] = metric(
                tracer.total("baselines.optimal_static") / traced_s, "frac")
            per_layer["trace_overhead_frac"] = metric(traced_s / untraced_s - 1, "frac")
        else:
            tracer.absent.update({"cli.self_ms", "baselines.share", "trace_overhead_frac"})

    driver = StepDriver(lib, tracer, root)
    loop_start = time.perf_counter()
    for init_args, trace, expected in cells:
        with checks.group() as problems:
            problems += driver.drive(init_args, trace, expected)
    loop_s = time.perf_counter() - loop_start
    if name in SIMULATE:
        per_layer["cli.self_ms"] = metric(0.0, "ms")
        per_layer["baselines.share"] = metric(0.0, "frac")
        if untraced_s:
            per_layer["trace_overhead_frac"] = metric(
                (loop_s - driver.replay_s) / untraced_s - 1, "frac")

    with checks.group() as problems:
        problems += trace_roundtrip(lib, tracer, root, [trace for _, trace, _ in cells])
    with checks.group() as problems:
        problems += matching_view(lib, tracer, root, driver.final_tree)
    with checks.group() as problems:
        problems += dp_series(lib, tracer, root, seed)
    if cells:
        with checks.group():
            longest = max(cells, key=lambda cell: len(cell[1]))
            per_layer["dynamic.bytes_per_req"] = metric(
                bytes_per_request(lib, longest[0], longest[1]), "B")
        per_layer["dynamic.rebuilds"] = metric(driver.rebuilds, "count")
    tracer.end(root)

    d = tracer.durations
    plain, rebuilt = d.get("dynamic.step", []), d.get("dynamic.step.rebuilt", [])
    if d.get("workload.generate"):
        per_layer["workload.generate_s"] = metric(tracer.total("workload.generate"), "s")
    if plain:
        per_layer["dynamic.step.us_p50"] = p50(plain, 1e6, "us")
        per_layer["dynamic.step.us_p99"] = metric(quantile(plain, 0.99) * 1e6, "us")
        per_layer["dynamic.rebuild.share"] = metric(
            sum(rebuilt) / (sum(plain) + sum(rebuilt)), "frac")
    if rebuilt:
        per_layer["dynamic.rebuild.ms_p50"] = p50(rebuilt, 1e3, "ms")
        per_layer["dynamic.rebuild.ms_p99"] = metric(quantile(rebuilt, 0.99) * 1e3, "ms")
    for stage in STAGES + ("trees.convert",):
        if d.get(stage):
            per_layer[f"{stage}.ms_p50"] = p50(d[stage], 1e3, "ms")
    dp = d.get("baselines.optimal_static")
    per_layer["baselines.optimal_static.s_p50"] = p50(dp, 1, "s") if dp else metric(0.0, "s")
    for n in DP_SERIES:
        if d.get(f"baselines.optimal_static.s.n{n}"):
            per_layer[f"baselines.optimal_static.s.n{n}"] = metric(
                d[f"baselines.optimal_static.s.n{n}"][0], "s")
    if d.get("workload.read_trace"):
        per_layer["workload.read_trace_s"] = metric(tracer.total("workload.read_trace"), "s")
    if d.get("matching.bst_to_matchings"):
        per_layer["matching.bst_to_matchings.ms"] = metric(
            d["matching.bst_to_matchings"][0] * 1e3, "ms")
    if d.get("matching.route"):
        per_layer["matching.route.us_p50"] = p50(d["matching.route"], 1e6, "us")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{name}.spans.jsonl"
    tracer.write(spans_path)
    detail = {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.spans),
              "untraced_call_s": untraced_s, "absent": sorted(tracer.absent),
              "samples_s": {k: summary(v) for k, v in sorted(d.items()) if v},
              "pinned_check": pinned is not None, "errors": checks.problems}
    return {"correct": not checks.failed, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": per_layer, "detail": detail}


# --------------------------------------------------------------------------
# Entry points


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    try:
        lib, import_s = load_library()
        if trace:
            result = traced_pass(lib, name, seed)
        else:
            result = measure(lib, name, seed, seconds, import_s)
    except (SetupError, OSError) as exc:
        print(f"bench: cannot run {name}: {exc}", file=sys.stderr)
        return 2
    machine = machine_info(seed)
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine, **result}
    out_path = OUT_DIR / f"{name}.trace{int(trace)}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in result["detail"]["errors"]:
        print(f"bench: {name}: {problem}", file=sys.stderr)
    print(f"# {name} seed={seed} trace={int(trace)} python={machine['python']} "
          f"nproc={machine['nproc']} cpu={machine['cpu_model']!r} commit={machine['commit']}")
    print(f"# details: {out_path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(seed: int, trace: bool) -> int:
    """Each workload in a fresh child process, one after another, so each
    peak RSS belongs to a process that ran only that workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--trace", str(int(trace))]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = child.stdout.strip().splitlines()
        if child.returncode not in (0, 1) or not lines:
            print(f"bench: {name} exited {child.returncode} without a result", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        status = max(status, child.returncode)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:<34} {m['value']:>16.6g} {m['unit']}")
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="length of one run; keep the default, run_seconds of "
                             "BENCHMARK.json, so that two commits are measured alike")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
