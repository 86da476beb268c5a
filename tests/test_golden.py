"""Byte-for-byte goldens of the CLI's outputs.

`tests/golden/cli.json` holds, for each `simulate` configuration, the report
JSON, the report CSV, the SHA-256 and row count of `--steps-csv`, and the
SHA-256 of the run's per-key frequency-log sums (over the requested keys)
and rebuild records, both kept by a `checks.RunLedger` fed the run's steps;
and the CSV of the README `compare` grid. A speed-up must leave every byte of them as
it was. To re-pin after a deliberate change of outputs, run
`PYTHONPATH=src python tests/test_golden.py`, which rewrites the file from the
code on the path. The README's two tables of rho must be what the CLI prints:
its `compare` table the pinned grid, its table over m fresh `simulate` runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

from abst import RunLedger, cli, generate, init, parse_workload, run

GOLDEN_PATH = Path(__file__).parent / "golden" / "cli.json"
README_PATH = Path(__file__).parent.parent / "README.md"

# Laplace and raw counts, n from 5 to 1024, guarded and unguarded runs; the
# raw n=300 uniform run rebuilds while keys are still unseen, so it grafts.
SIMULATE = {
    "n5-zipf1.5-laplace": "--n 5 --alpha 2 --m 200 --workload zipf:1.5 --seed 1",
    "n16-zipf1.0-laplace-readme": "--n 16 --alpha 8 --m 768 --workload zipf:1.0 --seed 99 "
    "--with-stat --check-bounds",
    "n64-zipf1.5-raw-checked": "--n 64 --alpha 4 --m 6000 --workload zipf:1.5 "
    "--smoothing none --seed 7 --check-bounds",
    "n300-uniform-raw-grafts": "--n 300 --alpha 4 --m 900 --workload uniform "
    "--smoothing none --seed 3",
    "n128-zipf1.0-alpha32-stat": "--n 128 --alpha 32 --m 8000 --workload zipf:1.0 --seed 11 "
    "--with-stat",
    "n1024-zipf1.5-laplace": "--n 1024 --alpha 8 --m 20000 --workload zipf:1.5 --seed 5",
    "n8-freq-raw-alpha5/2": "--n 8 --alpha 5/2 --m 400 --workload freq:9,5,3,0,1,1,0,2 "
    "--smoothing none --seed 2 --with-stat --check-bounds",
}
COMPARE_README = "compare --n 16 --alphas 2,8,32 --workloads uniform,zipf:1.0,zipf:1.5 --seed 99"
# the README's table of rho as m grows, without its --m
README_RHO_BY_M = "simulate --n 16 --alpha 8 --workload zipf:1.0 --seed 99 --with-stat"


def _main(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise AssertionError(f"abst {' '.join(argv)} exited {code}")


def simulate_outputs(args: str, tmp: Path) -> dict:
    """Report JSON and CSV, and the digest of the steps CSV, of one config."""
    argv = ["simulate", *args.split()]
    report, table, steps = tmp / "report.json", tmp / "report.csv", tmp / "steps.csv"
    _main(argv + ["--out", str(report), "--steps-csv", str(steps)])
    _main(argv + ["--format", "csv", "--out", str(table)])
    data = steps.read_bytes()
    return {
        "json": report.read_text(encoding="utf-8"),
        "csv": table.read_text(encoding="utf-8"),
        "steps_sha256": _sha256(data),
        "steps_rows": data.count(b"\n"),
        **run_logs(argv),
    }


def run_logs(argv: list[str]) -> dict:
    """Digests of the ledger's frequency-log sums and rebuild records of the
    same run made through the library."""
    args = cli.build_parser().parse_args(argv)
    trace = generate(parse_workload(args.workload, n=args.n, m=args.m, seed=args.seed))
    state = init(args.n, Fraction(args.alpha), args.smoothing)
    ledger = RunLedger(state)
    report = run(state, trace, on_step=ledger)
    qlog = [(key, q.hex()) for key, (q, w) in enumerate(zip(ledger.qlog, report.weights), 1) if w]
    rebuilds = [tuple(rec) for rec in ledger.rebuilds]
    return {
        "qlog_sha256": _sha256(json.dumps(qlog).encode()),
        "rebuild_log_sha256": _sha256(json.dumps(rebuilds).encode()),
        "rebuilds": len(rebuilds),
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compare_output(tmp: Path) -> str:
    out = tmp / "compare.csv"
    _main(COMPARE_README.split() + ["--out", str(out)])
    return out.read_text(encoding="utf-8")


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SIMULATE))
def test_simulate_outputs_match_golden(tmp_path, name):
    want = _golden()["simulate"][name]
    assert want["args"] == SIMULATE[name]
    got = simulate_outputs(SIMULATE[name], tmp_path)
    assert got["json"] == want["json"]
    assert got["csv"] == want["csv"]
    assert got["steps_rows"] == want["steps_rows"]
    assert got["steps_sha256"] == want["steps_sha256"]
    assert got["rebuilds"] == want["rebuilds"]
    assert got["rebuild_log_sha256"] == want["rebuild_log_sha256"]
    assert got["qlog_sha256"] == want["qlog_sha256"]


def test_readme_compare_grid_matches_golden(tmp_path):
    assert compare_output(tmp_path) == _golden()["compare_readme"]


def readme_table(header: list[str]) -> list[list[str]]:
    """The cells of each row of the README table whose header is `header`."""
    lines = README_PATH.read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        if _cells(line) == header:
            rows = []
            for row in lines[i + 2:]:  # past the header and its rule
                if not row.startswith("|"):
                    break
                rows.append(_cells(row))
            return rows
    raise AssertionError(f"README has no table headed {header}")


def _cells(line: str) -> list[str]:
    return [cell.strip() for cell in line.strip("|").split("|")] if line.startswith("|") else []


def test_readme_rho_by_m_table_is_what_simulate_prints(tmp_path):
    rows = readme_table(["m", "total", "stat", "rho"])
    assert len(rows) == 5
    for m, *printed in rows:
        out = tmp_path / "report.json"
        _main(README_RHO_BY_M.split() + ["--m", m, "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        assert printed == [str(report["total"]), str(report["stat_cost"]), f"{report['rho']:.3f}"]


def test_readme_compare_table_is_the_pinned_grid():
    pinned = csv.DictReader(io.StringIO(_golden()["compare_readme"]))
    want = [
        [row["alpha"], row["workload"], row["m"], row["total"], row["stat_cost"],
         f"{float(row['rho']):.3f}"]
        for row in pinned
    ]
    assert len(want) == 9
    assert readme_table(["alpha", "workload", "m", "total", "stat", "rho"]) == want


def capture() -> dict:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {"simulate": {}, "compare_readme": compare_output(Path(tmp))}
        for name, args in SIMULATE.items():
            golden["simulate"][name] = {"args": args, **simulate_outputs(args, Path(tmp))}
    return golden


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1) + "\n", encoding="utf-8")
