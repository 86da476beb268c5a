"""Command-line front end: encode, build, simulate, compare, verify.

Exit codes: 0 success, 1 verify failure, 2 bad configuration or input,
3 trace parse error, 4 cost-bound violation during a checked run,
5 internal error (an unexpected exception, reported on one stderr line).

`abst.checks` is imported only by `verify` and `simulate --check-bounds`,
the commands that run it, so the others start without it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import sys
import warnings
from fractions import Fraction
from itertools import islice
from typing import Callable

from . import dynamic
from .baselines import WeightVector, optimal_static_cost
from .dynamic import SMOOTHING_LAPLACE, SMOOTHING_NONE, SimulationReport, StepRecord, init, run
from .errors import AbstError, BoundViolationError, TraceParseError
from .matching import bst_to_matchings
from .sfe import average_code_length, build_sfe_code, entropy, parse_distribution
from .trees import format_tree, sfe_to_bst
from .workload import DEFAULT_SEED, generate, parse_workload

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_BOUND = 4
EXIT_INTERNAL = 5


def _parse_alpha(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"alpha must be a number, got {text!r}") from None


def cmd_encode(args) -> int:
    dist = parse_distribution(args.distribution)
    table = build_sfe_code(dist)
    print(f"{'i':>3} {'p':>10} {'F':>10} {'Fmid':>10} {'len':>4}  codeword")
    for e in table.entries:
        print(f"{e.key:>3} {str(e.p):>10} {str(e.cum):>10} {str(e.midpoint):>10} "
              f"{e.length:>4}  {e.codeword}")
    length = average_code_length(table)
    print(f"H = {entropy(dist):.6f} bits")
    print(f"L = {length} ({float(length):.6f} bits)")
    return EXIT_OK


def cmd_build(args) -> int:
    dist = parse_distribution(args.distribution)
    tree = sfe_to_bst(dist)
    print(format_tree(tree))
    print(json.dumps(bst_to_matchings(tree).to_json_dict()))
    return EXIT_OK


def _emit(args, value, cols: list[str], rows: list[dict]) -> None:
    """Write `value` as indented JSON, or `rows` as CSV under `cols`, as
    `--format` asks, to the `--out` file if one is given, else to stdout."""
    if args.format == "json":
        text = json.dumps(value, indent=2) + "\n"
    else:
        text = _csv_text(cols, [[_csv_cell(row.get(c)) for c in cols] for row in rows])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_stat(report: SimulationReport, stat: int | None = None) -> int:
    """Set the report's hindsight-optimal static cost, computed unless
    `stat` gives it, and its ratio rho; return the cost."""
    if stat is None:
        # positional, as `bench/run.py`'s wrappers forward positional arguments only
        stat, _ = optimal_static_cost(WeightVector(report.weights), False)
    report.stat_cost, report.rho = stat, float(report.total) / stat
    return stat


@contextlib.contextmanager
def _warnings_as_lines():
    """Print each distinct warning raised in the block, such as `init`'s for
    alpha < 2, as one `warning:` line on stderr, not as a Python warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _csv_text(cols, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cols)
    writer.writerows(rows)
    return buf.getvalue()


def _steps_csv_sink(fh) -> Callable[[StepRecord], object]:
    """Write the per-step CSV header to `fh`; return a sink for `run` that
    writes one row per served request."""
    writer = csv.writer(fh)
    writer.writerow(["t", "key", "depth", "rebuilt"])
    return lambda rec: writer.writerow([rec.t, rec.key, rec.depth, int(rec.rebuilt)])


def cmd_simulate(args) -> int:
    """Run one trace. `--steps-csv` rows are written as the requests are
    served; `--check-bounds` feeds the same stream, after the CSV, to a
    `checks.RunLedger`, which raises on the first step that breaks the drift
    invariant. So after a violation the file holds the steps served so far,
    the violating one included."""
    spec = parse_workload(args.workload, n=args.n, m=args.m, seed=args.seed)
    trace = generate(spec)
    with _warnings_as_lines():
        state = init(args.n, _parse_alpha(args.alpha), args.smoothing)
    sinks: list[Callable[[StepRecord], object]] = []
    with contextlib.ExitStack() as stack:
        if args.steps_csv:
            fh = stack.enter_context(open(args.steps_csv, "w", encoding="utf-8", newline=""))
            sinks.append(_steps_csv_sink(fh))
        if args.check_bounds:
            from . import checks

            ledger = checks.RunLedger(state)
            sinks.append(ledger)

        def on_step(rec: StepRecord) -> None:
            for sink in sinks:
                sink(rec)

        report = run(state, trace, on_step=on_step if sinks else None)
    if args.with_stat:
        _add_stat(report)
    if args.check_bounds:
        problems = checks.check_report_bounds(report, ledger)
        if problems:
            for msg in problems:
                print(f"bound violation: {msg}", file=sys.stderr)
            return EXIT_BOUND
    data = report.to_dict()
    _emit(args, data, list(data), [data])
    return EXIT_OK


def _split_list(text: str, flag: str) -> list[str]:
    """Comma-separated items with blanks dropped; ValueError if none is left."""
    items = [item.strip() for item in text.split(",") if item.strip()]
    if not items:
        raise ValueError(f"{flag} names nothing: {text!r}")
    return items


def _split_workloads(text: str) -> list[str]:
    """`--workloads` items, as `_split_list` gives them except that a bare
    integer continues the `freq:` item before it, whose counts are
    comma-separated too."""
    items: list[str] = []
    for item in _split_list(text, "--workloads"):
        if item.isdigit() and items and items[-1].startswith("freq:"):
            items[-1] += "," + item
        else:
            items.append(item)
    return items


def cmd_compare(args) -> int:
    """Report each (alpha, workload) cell, alpha-major, with the hindsight
    static optimum and rho.

    Alpha prices a run but never enters serving (see `dynamic`), so each
    workload's trace is served once for all its alphas. The state, trace and
    static optimum a workload has served are kept. A cell whose spec is the
    one served, as when `--m` is given, serves nothing. A cell whose trace
    starts with the served trace, as a larger default m at the same seed
    does, serves only the rest on the kept state. Any other cell, such as a
    `freq:` trace or a smaller m after a larger one, runs on a fresh state,
    which is kept instead. Each report is priced at its cell's own alpha,
    checked where a fresh run's `init` would check it, so errors and
    warnings come in the same order. The cost is memory: one served trace
    is held per workload, where a run per cell would hold one in total.
    """
    alphas = _split_list(args.alphas, "--alphas")
    workloads = _split_workloads(args.workloads)
    served: dict[str, tuple] = {}  # workload -> (spec, trace, state, stat_cost)
    rows = []
    for alpha_text in alphas:
        alpha = _parse_alpha(alpha_text)
        with _warnings_as_lines():  # once per alpha, not per workload
            for workload in workloads:
                m = args.m if args.m is not None else dynamic.grid_m(args.n, alpha)
                spec = parse_workload(workload, n=args.n, m=m, seed=args.seed)
                kept_spec, kept_trace, kept_state, stat = served.get(workload, (None, [], None, None))
                trace = kept_trace if spec == kept_spec else generate(spec)
                k = len(kept_trace)
                if kept_state is not None and trace[:k] == kept_trace:
                    kept_state.alpha = dynamic.checked_alpha(alpha)  # alpha only prices the report
                    if len(trace) > k:  # new counts, so a new static optimum
                        dynamic.serve(kept_state, islice(trace, k, None))
                        stat = None
                    state = kept_state
                    report = dynamic.report(state)
                else:
                    state = init(args.n, alpha, args.smoothing)
                    report, stat = run(state, trace), None
                served[workload] = (spec, trace, state, _add_stat(report, stat))
                row = report.to_dict()
                row["workload"] = workload
                rows.append(row)
    cols = ["n", "alpha", "workload", "m", "smoothing", "search_cost", "adjust_cost",
            "rebuilds", "total", "entropy_empirical", "theorem_bound",
            "theorem_applicable", "stat_cost", "rho"]
    _emit(args, rows, cols, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import checks

    results = checks.run_verify(args.scale, seed=args.seed)
    failed = False
    for name, violations in results.items():
        status = "PASS" if not violations else "FAIL"
        print(f"[{status}] {name}")
        for msg in violations[:10]:
            print(f"    {msg}")
        if len(violations) > 10:
            print(f"    ... and {len(violations) - 10} more")
        failed = failed or bool(violations)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abst",
        description="Coded biased search trees with a drift-triggered rebuild "
        "policy, priced in the matching cost model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="print the code table for a distribution")
    p.add_argument("distribution", help='comma-separated, e.g. "0.1,0.2,0.4,0.2,0.1"')

    p = sub.add_parser("build", help="print the biased BST and its matchings")
    p.add_argument("distribution")

    p = sub.add_parser("simulate", help="run one trace and report costs")
    _add_sim_args(p)
    p.add_argument("--with-stat", action="store_true",
                   help="also compute the hindsight-optimal static cost and rho")
    p.add_argument("--check-bounds", action="store_true",
                   help="verify cost-accounting invariants; exit 4 on violation")
    p.add_argument("--steps-csv", metavar="PATH",
                   help="write per-step records (t,key,depth,rebuilt)")

    p = sub.add_parser("compare", help="simulate across alphas/workloads with rho")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None,
                   help="trace length (default: guarantee threshold per alpha)")
    p.add_argument("--alphas", default="2,8,32")
    p.add_argument("--workloads", default="uniform,zipf:1.0,zipf:1.5")
    p.add_argument("--smoothing", choices=[SMOOTHING_LAPLACE, SMOOTHING_NONE],
                   default=SMOOTHING_LAPLACE)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.add_argument("--out", metavar="PATH")

    p = sub.add_parser("verify", help="run the randomized property suites")
    p.add_argument("scale", choices=["quick", "full"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return parser


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="number of keys")
    p.add_argument("--alpha", required=True, help="reconfiguration cost")
    p.add_argument("--m", type=int, default=None,
                   help="trace length (defaults to the file length for file:)")
    p.add_argument("--workload", required=True,
                   help="uniform | zipf:S | freq:w1,...,wn | file:PATH")
    p.add_argument("--smoothing", choices=[SMOOTHING_LAPLACE, SMOOTHING_NONE],
                   default=SMOOTHING_LAPLACE)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", metavar="PATH")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except BoundViolationError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except TraceParseError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (AbstError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # a fault in abst itself, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
