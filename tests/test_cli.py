import contextlib
import csv
import io
import json
import tempfile
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from abst import baselines, checks, cli
from abst.dynamic import StepRecord, init, step
from abst.workload import generate, parse_workload, write_trace

WORKED_TRACE = [3, 2, 3, 4, 3, 2, 4, 3, 5, 1, 1, 1]


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_example(capsys):
    code, out, _ = run_cli(capsys, "encode", "0.1,0.2,0.4,0.2,0.1")
    assert code == 0
    for word in ("00001", "0011", "100", "1100", "11110"):
        assert word in out
    assert "L = 19/5" in out
    assert "H = 2.121928" in out


def test_encode_single_key(capsys):
    code, out, _ = run_cli(capsys, "encode", "1")
    assert code == 0
    assert out.count("\n") == 4  # header, one row, H, L


def test_encode_invalid_distribution(capsys):
    code, _, err = run_cli(capsys, "encode", "0.5,0.6")
    assert code == cli.EXIT_CONFIG
    assert "sum" in err


def test_build_examples(capsys):
    code, out, _ = run_cli(capsys, "build", "0.1,0.2,0.4,0.2,0.1")
    assert code == 0
    tree_line, matchings_line = out.strip().splitlines()
    assert tree_line == "(3 (2 (1 . .) .) (4 . (5 . .)))"
    data = json.loads(matchings_line)
    assert data == {"n": 5, "left": [[2, 1], [3, 2]], "right": [[3, 4], [4, 5]]}

    code, out, _ = run_cli(capsys, "build", "3/12,2/12,4/12,2/12,1/12")
    assert out.splitlines()[0] == "(3 (1 . (2 . .)) (4 . (5 . .)))"

    code, out, _ = run_cli(capsys, "build", "1")
    assert out.splitlines()[0] == "(1 . .)"


def test_simulate_worked_trace(tmp_path, capsys):
    trace_path = tmp_path / "worked.txt"
    write_trace(trace_path, WORKED_TRACE)
    steps_path = tmp_path / "steps.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate", "--n", "5", "--alpha", "2",
        "--workload", f"file:{trace_path}", "--smoothing", "none",
        "--with-stat", "--check-bounds", "--steps-csv", str(steps_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["m"] == 12
    assert report["rebuilds"] == 6
    assert report["adjust_cost"] == 12
    assert report["total"] == report["search_cost"] + report["adjust_cost"]
    assert report["stat_cost"] == 23
    assert report["rho"] == pytest.approx(report["total"] / 23)
    with open(steps_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["rebuilt"] for r in rows] == ["1", "1", "0", "1", "0", "0", "0", "0", "1", "1", "0", "1"]
    assert rows[11] == {"t": "12", "key": "1", "depth": "2", "rebuilt": "1"}


@pytest.mark.parametrize("n, workload, smoothing", [
    (5, "zipf:1.5", "laplace"),
    (16, "uniform", "none"),
    (64, "zipf:1.0", "laplace"),
    (200, "zipf:1.0", "none"),
])
def test_steps_csv_matches_step_oracle(tmp_path, capsys, n, workload, smoothing):
    m = 3 * n + 50
    steps_path = tmp_path / "steps.csv"
    code, _, _ = run_cli(
        capsys, "simulate", "--n", str(n), "--alpha", "4", "--m", str(m),
        "--workload", workload, "--smoothing", smoothing, "--seed", "8",
        "--check-bounds", "--steps-csv", str(steps_path),
    )
    assert code == 0
    state = init(n, 4, smoothing)
    trace = generate(parse_workload(workload, n=n, m=m, seed=8))
    rows = [["t", "key", "depth", "rebuilt"]] + [
        [str(rec.t), str(rec.key), str(rec.depth), str(int(rec.rebuilt))]
        for rec in (step(state, key) for key in trace)
    ]
    with open(steps_path, newline="") as fh:
        assert list(csv.reader(fh)) == rows


def test_depth_check_reports_a_fabricated_record():
    # q = (4+1)/(35+5) = 1/8 allows depth < 7 with add-one smoothing
    deep = StepRecord(t=35, key=2, count=4, depth=7, depth_pre=7, rebuilt=False)
    assert checks.check_served_depth(deep, 5, "laplace") == [
        "t=35: key 2 served at depth 7, not below log2(1/q) + 4"
    ]
    assert checks.check_served_depth(StepRecord(35, 2, 4, 6, 7, False), 5, "laplace") == []
    # raw q = 4/35 allows depth < 7.13
    assert checks.check_served_depth(deep, 5, "none") == []
    assert checks.check_served_depth(StepRecord(35, 2, 4, 8, 7, False), 5, "none") != []


def test_simulate_check_bounds_catches_a_bad_streamed_record(capsys, monkeypatch):
    real_run = cli.run

    def corrupting_run(state, trace, on_step=None):
        def corrupt(rec):
            if rec.t == 30:
                rec.depth = 40
            on_step(rec)

        return real_run(state, trace, on_step=corrupt)

    monkeypatch.setattr(cli, "run", corrupting_run)
    code, out, err = run_cli(
        capsys, "simulate", "--n", "5", "--alpha", "2", "--m", "60",
        "--workload", "uniform", "--check-bounds",
    )
    assert code == cli.EXIT_BOUND
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("bound violation: t=30: key ")
    assert "served at depth 40" in err


def test_steps_csv_holds_the_steps_served_before_a_violation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        checks, "guarded_invariant_holds", lambda state, keys=None: state.t < 7
    )
    steps_path = tmp_path / "steps.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--n", "5", "--alpha", "2", "--m", "40",
        "--workload", "uniform", "--check-bounds", "--steps-csv", str(steps_path),
    )
    assert code == cli.EXIT_BOUND
    assert "after t=7" in err
    with open(steps_path) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["t"] for r in rows] == [str(t) for t in range(1, 8)]


def test_simulate_csv_format(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys,
        "simulate", "--n", "8", "--alpha", "4", "--m", "120",
        "--workload", "zipf:1.0", "--format", "csv", "--out", str(out_path),
    )
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["n"] == "8"
    assert rows[0]["theorem_applicable"] in ("true", "false")


def test_simulate_rejects_bad_workload(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--n", "5", "--alpha", "2", "--m", "10",
        "--workload", "bogus",
    )
    assert code == cli.EXIT_CONFIG
    assert "workload" in err


@pytest.mark.parametrize(
    "workload, alpha, needle",
    [
        ("zipf:nan", "2", "nan"),
        ("zipf:inf", "2", "inf"),
        ("zipf:2000", "2", "2000"),
        ("uniform", "1e400", "alpha"),
    ],
)
def test_simulate_overflowing_inputs_are_config_errors(capsys, workload, alpha, needle):
    code, _, err = run_cli(
        capsys, "simulate", "--n", "5", "--alpha", alpha, "--m", "10",
        "--workload", workload,
    )
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error:") and needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("workload", ["uniform", "zipf:1.0", "freq:1,2,3,2,1"])
def test_an_m_past_the_largest_list_is_a_config_error_naming_m(capsys, workload):
    code, _, err = run_cli(
        capsys, "simulate", "--n", "5", "--alpha", "2", "--m", "99999999999999999999",
        "--workload", workload,
    )
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: m is too large: 99999999999999999999 requests")
    assert "islice" not in err


def test_a_freq_count_that_is_no_integer_is_a_config_error_naming_it(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--n", "3", "--alpha", "2", "--m", "10", "--workload", "freq:1,x,2",
    )
    assert code == cli.EXIT_CONFIG
    assert err == "error: freq count 'x' is not an integer\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--n", "8", "--alpha", "1e-400", "--m", "100",
         "--workload", "uniform", "--check-bounds"),
        ("compare", "--n", "8", "--alphas", "1e-400", "--workloads", "uniform"),
    ],
)
def test_alpha_too_small_for_a_float_is_a_config_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error:") and "1e-400" in err
    assert "Traceback" not in err


def test_alpha_below_two_warns_in_one_stderr_line_per_alpha(capsys):
    warning = "warning: alpha < 2: accepted, but the total-cost guarantee is off\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "simulate", "--n", "7", "--alpha", "1", "--m", "300",
                                 "--workload", "zipf:1.0", "--seed", "4")
        assert code == 0 and json.loads(out)["theorem_applicable"] is False
        assert err == warning
        code, out, err = run_cli(capsys, "compare", "--n", "7", "--m", "100",
                                 "--alphas", "1,1/2,8", "--workloads", "uniform,zipf:1.0")
        assert code == 0 and len(out.splitlines()) == 1 + 3 * 2
        assert err == warning * 2
    assert caught == []  # no Python warning reaches the user


def test_simulate_trace_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1\nnope\n")
    code, _, err = run_cli(
        capsys, "simulate", "--n", "5", "--alpha", "2",
        "--workload", f"file:{bad}",
    )
    assert code == cli.EXIT_PARSE
    assert "line 2" in err


def test_simulate_bound_violation_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(checks, "check_report_bounds", lambda report, ledger: ["fabricated"])
    trace_path = tmp_path / "t.txt"
    write_trace(trace_path, [1, 2, 3])
    code, _, err = run_cli(
        capsys, "simulate", "--n", "3", "--alpha", "2",
        "--workload", f"file:{trace_path}", "--check-bounds",
    )
    assert code == cli.EXIT_BOUND
    assert "fabricated" in err


def test_compare_table(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--n", "8", "--m", "200", "--alphas", "2,8",
        "--workloads", "uniform,zipf:1.0", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 4
    for row in rows:
        assert float(row["rho"]) > 0
        total = float(row["total"])
        assert total == float(row["search_cost"]) + float(row["adjust_cost"])


def test_cli_prices_the_static_optimum_without_building_its_tree(capsys, monkeypatch):
    # `simulate --with-stat` and `compare` read only the optimum's cost
    def no_tree(*args):
        raise AssertionError("the optimum's tree was built")

    monkeypatch.setattr(baselines, "build_from_roots", no_tree)
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "32", "--alpha", "2", "--m", "300",
        "--workload", "zipf:1.0", "--smoothing", "none", "--seed", "3", "--with-stat",
    )
    assert code == 0 and json.loads(out)["stat_cost"] > 0
    code, out, _ = run_cli(
        capsys, "compare", "--n", "16", "--m", "100", "--alphas", "2,8",
        "--workloads", "uniform,zipf:1.0", "--smoothing", "none",
    )
    assert code == 0 and len(out.splitlines()) == 5


def test_compare_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--n", "5", "--m", "60", "--alphas", "2",
        "--workloads", "uniform", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1 and rows[0]["workload"] == "uniform"


def test_compare_takes_freq_counts_across_commas(capsys):
    code, out, _ = run_cli(
        capsys,
        "compare", "--n", "5", "--m", "50", "--alphas", "2,8",
        "--workloads", "freq:1,2,4,2,1,uniform", "--seed", "99",
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [row["workload"] for row in rows] == ["freq:1,2,4,2,1", "uniform"] * 2


@pytest.mark.parametrize("workloads", ["uniform,3", "4,freq:1,2,4,2,1", "zipf:1.0,1,2,4,2,1"])
def test_compare_rejects_a_bare_number_after_no_freq(capsys, workloads):
    code, out, err = run_cli(
        capsys, "compare", "--n", "5", "--m", "50", "--alphas", "2", "--workloads", workloads,
    )
    assert code == cli.EXIT_CONFIG
    assert out == "" and err.startswith("error: unknown workload kind")


def compare_one_run_per_cell(args) -> int:
    """`cli.cmd_compare` as it was before it served each workload once for
    all its alphas: a fresh trace, state and run per cell, through the
    same `cli` names. Test oracle."""
    alphas = cli._split_list(args.alphas, "--alphas")
    workloads = cli._split_workloads(args.workloads)
    rows = []
    for alpha_text in alphas:
        alpha = cli._parse_alpha(alpha_text)
        with cli._warnings_as_lines():  # once per alpha, not per workload
            for workload in workloads:
                m = args.m if args.m is not None else checks.grid_m(args.n, alpha)
                spec = cli.parse_workload(workload, n=args.n, m=m, seed=args.seed)
                trace = cli.generate(spec)
                state = cli.init(args.n, alpha, args.smoothing)
                report = cli.run(state, trace)
                cli._add_stat(report)
                row = report.to_dict()
                row["workload"] = workload
                rows.append(row)
    cols = ["n", "alpha", "workload", "m", "smoothing", "search_cost", "adjust_cost",
            "rebuilds", "total", "entropy_empirical", "theorem_bound",
            "theorem_applicable", "stat_cost", "rho"]
    cli._emit(args, rows, cols, rows)
    return cli.EXIT_OK


@pytest.fixture
def compare_file_trace(tmp_path):
    path = tmp_path / "trace.txt"
    write_trace(path, generate(parse_workload("zipf:1.0", n=8, m=500, seed=3)))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["--n", "16", "--alphas", "2,4,8"],
    ["--n", "16", "--alphas", "8,4,2"],
    ["--n", "16", "--alphas", "2,8,2,4,8,4"],
    ["--n", "16", "--alphas", "2,8", "--smoothing", "none", "--seed", "7"],
    ["--n", "16", "--alphas", "8,2,32", "--smoothing", "none", "--format", "json"],
    ["--n", "12", "--m", "300", "--alphas", "2,8,32,4"],
    ["--n", "12", "--m", "300", "--alphas", "2,8", "--format", "json"],
    ["--n", "9", "--alphas", "1,2,1/2,3/2,4,1", "--workloads", "uniform,zipf:1.5"],
    ["--n", "9", "--m", "150", "--alphas", "1,1", "--workloads", "zipf:0"],
    ["--n", "1", "--alphas", "2,8,4", "--workloads", "freq:3,uniform,zipf:2"],
    ["--n", "1", "--m", "40", "--alphas", "2,8", "--workloads", "freq:5"],
    ["--n", "5", "--alphas", "2,8", "--workloads", "uniform,freq:1,2,4,2,1,zipf:1.0"],
    ["--n", "8", "--alphas", "2,4,2", "--workloads", "file:{trace},uniform"],
    ["--n", "8", "--alphas", "2,8", "--workloads", "file:{trace}"],  # 384 of 500 at alpha 8
    ["--n", "8", "--alphas", "2,8,16", "--workloads", "uniform,file:{trace}"],  # too short
    ["--n", "8", "--m", "100", "--alphas", "2,8", "--workloads", "file:{trace}"],
    ["--n", "8", "--alphas", "2,abc", "--workloads", "uniform"],
    ["--n", "8", "--alphas", "1,0", "--workloads", "uniform"],
    ["--n", "8", "--alphas", "2,1e-400", "--workloads", "uniform"],
    ["--n", "8", "--alphas", "1,2", "--workloads", "uniform,bogus"],
    ["--n", "8", "--alphas", "2,1", "--workloads", "zipf:1.0,zipf:-1"],
    ["--n", "8", "--alphas", "1", "--workloads", "uniform,file:{trace}.missing"],
])
def test_compare_equals_one_run_per_cell(capsys, monkeypatch, compare_file_trace, argv):
    argv = ["compare"] + [arg.format(trace=compare_file_trace) for arg in argv]
    got = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "cmd_compare", compare_one_run_per_cell)
    assert got == run_cli(capsys, *argv)


def test_compare_runs_a_longer_trace_that_does_not_extend_the_served_one(capsys, monkeypatch):
    # reversed traces: a larger m at the same seed no longer starts with the smaller m's trace
    monkeypatch.setattr(cli, "generate", lambda spec: generate(spec)[::-1])
    argv = ["compare", "--n", "16", "--alphas", "2,8,4", "--smoothing", "none"]
    got = run_cli(capsys, *argv)
    monkeypatch.setattr(cli, "cmd_compare", compare_one_run_per_cell)
    assert got == run_cli(capsys, *argv)


@pytest.mark.parametrize("argv, runs, stats, traces", [
    (["--n", "128", "--m", "20000", "--alphas", "2,4,8,16,32"], 3, 3, 3),
    (["--n", "16", "--alphas", "2,8,32"], 3, 9, 9),  # the rest of each trace, on the kept state
    (["--n", "16", "--alphas", "32,8,2"], 9, 9, 9),  # each trace shorter than the served one
    # the benchmark's compare-raw grid
    (["--n", "128", "--smoothing", "none", "--seed", "99", "--alphas", "2,8"], 3, 6, 6),
])
def test_compare_runs_each_workload_once_unless_its_trace_shrinks(
        capsys, monkeypatch, argv, runs, stats, traces):
    # `init` builds a state only for a run that `compare` starts
    argv = ["compare", *argv]
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in ("init", "run", "optimal_static_cost", "generate"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    got = run_cli(capsys, *argv)
    assert calls == {"init": runs, "run": runs, "optimal_static_cost": stats, "generate": traces}
    assert got[0] == 0 and len(got[1].splitlines()) == 1 + 3 * (argv[-1].count(",") + 1)
    monkeypatch.setattr(cli, "cmd_compare", compare_one_run_per_cell)
    assert got == run_cli(capsys, *argv)


@pytest.mark.parametrize(
    "extra, needle",
    [
        (("--m", "0"), "error: generated workloads need m >= 1"),
        (("--m", "-3"), "error: generated workloads need m >= 1"),
        (("--alphas", ",,"), "error: --alphas names nothing"),
        (("--workloads", ","), "error: --workloads names nothing"),
        (("--alphas", " , "), "error: --alphas names nothing"),
    ],
)
def test_compare_rejects_empty_inputs(capsys, extra, needle):
    code, out, err = run_cli(capsys, "compare", "--n", "5", *extra)
    assert code == cli.EXIT_CONFIG
    assert out == ""
    assert err.startswith(needle)


def test_unexpected_error_has_its_own_exit_code(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("something broke")

    monkeypatch.setattr(cli, "cmd_simulate", broken)
    code, out, err = run_cli(
        capsys, "simulate", "--n", "5", "--alpha", "2", "--m", "10", "--workload", "uniform",
    )
    assert code == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err == "internal error: RuntimeError: something broke\n"


def test_main_builds_the_parser_once_and_finds_each_command_when_called(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    argv = ("encode", "1/2,1/2")
    assert run_cli(capsys, *argv)[0] == cli.EXIT_OK
    monkeypatch.setattr(cli, "cmd_encode", lambda args: 42)
    assert run_cli(capsys, *argv) == (42, "", "")
    monkeypatch.undo()
    assert run_cli(capsys, *argv)[1].startswith("  i ")


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "quick", "--seed", "7")
    assert code == 0
    assert "[PASS] code-properties" in out
    assert "[FAIL]" not in out


def test_report_json_round_trip(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "5", "--alpha", "2", "--m", "40",
        "--workload", "uniform", "--out", str(out_path),
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert set(data) >= {"n", "m", "alpha", "smoothing", "search_cost",
                         "adjust_cost", "rebuilds", "total"}


# A grammar of argv: each command with its flags, each flag with valid
# values (drawn three times as often) and invalid ones, plus flags and
# commands that do not exist. Sizes stay small so that a valid run takes
# milliseconds.
def _values(valid: tuple, invalid: tuple) -> tuple:
    return valid * 3 + invalid


SIM_FLAGS = {
    "--n": _values(("1", "5", "40"), ("0", "-1", "x", "1e3", "")),
    "--alpha": _values(("2", "8", "5/2", "1"),
                       ("0", "-2", "1e400", "1e-400", "nan", "inf", "1/0", "x")),
    "--workload": _values(("uniform", "zipf:1.0", "zipf:1.5", "freq:3,1,0,2,1"),
                          ("zipf:nan", "zipf:2000", "zipf:", "freq:1,0", "freq:", "freq:a",
                           "bogus", "file:/nonexistent/abst-trace")),
    "--m": _values(("1", "60", "400"), ("0", "-3", "x")),
    "--smoothing": _values(("laplace", "none"), ("windowed",)),
    "--seed": _values(("0", "7"), ("-1", "x")),
    "--format": _values(("json", "csv"), ("xml",)),
}
SIM_EXTRA = (["--with-stat"], ["--check-bounds"], ["--help"], ["--bogus", "1"],
             ["--steps-csv", tempfile.gettempdir()])  # a directory: not writable as a file
COMPARE_FLAGS = {
    "--n": _values(("1", "5", "16"), ("0", "x")),
    "--m": _values(("1", "60"), ("0", "-3", "x")),
    "--alphas": _values(("2", "2,8", "8,32", "1"), ("0", "1e-400", ",,", "x")),
    "--workloads": _values(("uniform", "zipf:1.0,uniform"), ("bogus", ",")),
    "--smoothing": _values(("laplace", "none"), ("windowed",)),
    "--format": _values(("json", "csv"), ("xml",)),
}
DISTRIBUTIONS = ("0.1,0.2,0.4,0.2,0.1", "3/12,2/12,4/12,2/12,1/12", "1", "0.5,0.6", "0,1",
                 "-1,2", "1/0", "a", "", "0.5,,0.5")
DOCUMENTED_EXITS = {cli.EXIT_OK, cli.EXIT_VERIFY_FAILED, cli.EXIT_CONFIG, cli.EXIT_PARSE,
                    cli.EXIT_BOUND, cli.EXIT_INTERNAL}


def _command(name: str, flags: dict, extras: tuple) -> st.SearchStrategy:
    """`name`, then each flag with a drawn value (one in six left out), then
    up to three extra switches, in a drawn order."""
    def flag(f: str) -> st.SearchStrategy:
        return st.sampled_from(flags[f]).map(lambda v: [f, v])

    present = st.sampled_from((True,) * 5 + (False,))
    items = st.tuples(*(st.tuples(present, flag(f)) for f in flags)).map(
        lambda pairs: [pair for keep, pair in pairs if keep]
    )
    chosen = st.tuples(items, st.lists(st.sampled_from(extras), max_size=3))
    return chosen.flatmap(lambda c: st.permutations(c[0] + c[1])).map(
        lambda parts: [name] + [tok for part in parts for tok in part]
    )


argvs = st.one_of(
    _command("simulate", SIM_FLAGS, SIM_EXTRA),
    _command("compare", COMPARE_FLAGS, (["--help"], ["--bogus"])),
    st.tuples(st.sampled_from(["encode", "build"]),
              st.lists(st.sampled_from(DISTRIBUTIONS), max_size=2)).map(
        lambda c: [c[0]] + c[1]),
    st.lists(st.sampled_from(["medium", "--seed", "x"]), max_size=2).map(
        lambda rest: ["verify"] + rest),
    st.sampled_from([[], ["bogus"], ["--version"], ["-h"]]),
)


@settings(max_examples=250, deadline=None)
@given(argv=argvs)
def test_cli_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage errors exit 2, --help exits 0
            code = exc.code
    assert caught == [], (argv, [str(w.message) for w in caught])
    assert code in DOCUMENTED_EXITS, (argv, code, err.getvalue())
    assert code != cli.EXIT_INTERNAL, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
