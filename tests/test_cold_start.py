"""`import abst.cli` loads only the code its commands run: the verification
layer, `abst.checks`, loads when a command or a name needs it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import abst

SRC = Path(__file__).resolve().parent.parent / "src"

# what the cold path must not load; `inspect` and `ast` come with `dataclasses`
HEAVY = {"dataclasses", "inspect", "abst.checks"}

PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import abst.cli
imported = set(sys.modules) - before
with contextlib.redirect_stdout(io.StringIO()):
    code = abst.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
ran = set(sys.modules) - before
print(json.dumps([code, sorted(imported), sorted(ran)]))
"""


def modules_added(argv: list[str]) -> tuple[int, set[str], set[str]]:
    """In a fresh interpreter: the exit code of `abst.cli.main(argv)`, and the
    modules that `import abst.cli`, and then the command, added to
    `sys.modules`. Modules loaded at start-up do not count."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    code, imported, ran = json.loads(done.stdout.splitlines()[-1])
    return code, set(imported), set(ran)


SIMULATE = ["simulate", "--n", "16", "--alpha", "8", "--m", "768", "--workload", "zipf:1.0"]
COMPARE = ["compare", "--n", "16", "--alphas", "2,8", "--workloads", "uniform,zipf:1.0",
           "--smoothing", "none"]


@pytest.mark.parametrize(
    "argv, loads_checks",
    [(SIMULATE, False), (COMPARE, False), (SIMULATE + ["--check-bounds"], True),
     (["verify", "quick"], True)],
    ids=["simulate", "compare", "simulate-check-bounds", "verify-quick"],
)
def test_import_and_commands_load_the_checks_only_where_they_run(argv, loads_checks):
    code, imported, ran = modules_added(argv)
    assert code == 0
    assert imported & HEAVY == set()
    if loads_checks:
        assert "abst.checks" in ran
    else:  # the cold path, end to end
        assert ran & HEAVY == set()


def test_checks_names_resolve_through_the_package_root():
    from abst import RebuildRecord, RunLedger
    from abst.checks import RebuildRecord as record, RunLedger as ledger

    assert (RunLedger, RebuildRecord) == (ledger, record)
    assert getattr(abst, "no_such_name", None) is None  # how `bench/run.py` probes a name
    with pytest.raises(AttributeError, match="no_such_name"):
        abst.no_such_name
