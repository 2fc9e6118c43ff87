"""The golden report corpus: CLI runs whose every output byte is kept in ``tests/golden/``.

Each case is one ``ceda`` command line, run in-process through ``cli.main``
in a folder holding the inputs, which ``simulate`` draws at seed 1 (see
``INPUTS``).  A case's folder holds the run's ``stdout``, ``stderr`` and
``exit_code``, and ``out`` when the run writes ``--out``.
``tests/test_golden.py`` reruns every case and compares bytes.

Regenerate the corpus only with a change that declares a report
difference, and list every file that changed:

    PYTHONPATH=src python3 tests/golden_corpus.py

A case marked ``blas`` fits multi-dimensional K-means, whose distances go
through BLAS matrix products; their last bits may differ between BLAS
builds and CPUs, so a mismatch there alone may be the platform's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from ceda.cli import main
from ceda.genlab import EXAMPLE_IDS

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (example, rows), each drawn by `simulate` at seed 1
INPUTS = {"ex4.csv": ("ex4", 2000), "ex6.csv": ("ex6", 2000),
          "ex3.csv": ("ex3_rho", 5000), "ex2star.csv": ("ex2star", 2000)}

# a scheme file in the form earlier versions of `bins` wrote, with the keys
# `low_q`, `high_q` and `k_interior` that `--replay` now ignores
OLD_SCHEMES = {
    "config_digest": "0123456789abcdef",
    "seed": 1,
    "X1": {"low_q": 0.05, "high_q": 0.95, "k_interior": 4, "edges": [0.1, 0.3, 0.5, 0.7, 0.9]},
    "X3": {"low_q": 0.05, "high_q": 0.95, "k_interior": 2, "edges": [0.25, 0.5, 0.75]},
}

EX4 = ("--input", "ex4.csv", "--response", "Y", "--covariates", "X1,X2,X3,X4", "--seed", "1")
SELECT_EX4 = ("select", *EX4, "--max-order", "2", "--replicates", "200")
SELECT_EX6 = (
    "select", "--input", "ex6.csv", "--response", "Y",
    "--covariates", ",".join(f"X{i}" for i in range(1, 11)), "--noise", "X7,X8,X9,X10",
    "--max-order", "2", "--replicates", "150", "--seed", "1",
)
NULL_EX4 = ("null", *EX4, "--subsets", "X1,X3+X2,X4", "--replicates", "200")


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple
    blas: bool = False


CASES = (
    Case("select-ex4-tsv", SELECT_EX4),
    Case("select-ex4-json", (*SELECT_EX4, "--format", "json", "--out", "report.json")),
    # order-3 synthetic padding fills the wide-block branch of `nullsim._block_ce`
    Case("select-ex4-order3", (*SELECT_EX4, "--max-order", "3")),
    Case("select-ex4-noise", (*SELECT_EX4, "--noise", "X3,X4")),
    Case(
        "select-ex4-kmeans-threads2",
        (*SELECT_EX4, "--threads", "2", "--categorize", "X1=kmeans:102,X2=quantile:100"),
    ),
    # X1's 102 x 12 table is sparser than the floor: its row reads unreliable, and it is no factor
    Case(
        "select-ex4-cell-floor",
        (*SELECT_EX4, "--categorize", "X1=quantile:100", "--cell-floor", "2"),
    ),
    Case("select-ex6-noise-json", (*SELECT_EX6, "--threads", "1", "--format", "json")),
    Case("select-ex6-noise-tsv-threads2", (*SELECT_EX6, "--threads", "2")),
    # order-3 noise levels read the CE of each subset plus its designated noise combos
    Case("select-ex6-noise-order3", (*SELECT_EX6, "--max-order", "3", "--replicates", "50")),
    Case(
        "grid-ex3",
        ("grid", "--input", "ex3.csv", "--response", "Y", "--covariates", "X",
         "--replicates", "200", "--seed", "1"),
    ),
    Case("measure-plus", ("measure", *EX4, "--subsets", "X1,X3+X2,X2+X3+X4")),
    Case(
        "measure-kmeans-response",
        ("measure", "--input", "ex2star.csv", "--response", "Y1,Y2", "--covariates", "V1",
         "--categorize", "Y1=kmeans:12,V1=categorical", "--seed", "1"),
        blas=True,
    ),
    Case("null-tsv", NULL_EX4),
    Case("null-json", (*NULL_EX4, "--format", "json")),
    Case("bins", ("bins", *EX4, "--out", "schemes.json")),
    Case("bins-replay-old-format", ("bins", "--input", "ex4.csv", "--replay", "old-schemes.json")),
    *(
        Case(f"simulate-{example}", ("simulate", "--example", example, "--n", "40", "--seed", "1"))
        for example in EXAMPLE_IDS
    ),
)


def write_inputs(folder: Path):
    """Draw every input of ``INPUTS`` into ``folder``, plus the old-format scheme file."""
    for name, (example, n) in INPUTS.items():
        argv = ["simulate", "--example", example, "--n", str(n), "--seed", "1", "--out", name]
        with _in(folder), contextlib.redirect_stderr(io.StringIO()):
            if main(argv) != 0:
                raise RuntimeError(f"simulate {example} failed")
    (folder / "old-schemes.json").write_text(json.dumps(OLD_SCHEMES, indent=2) + "\n")


def run_case(case: Case, folder: Path) -> dict[str, bytes]:
    """The files of ``case``'s run in ``folder``: name -> bytes, as kept in its golden folder."""
    out, err = io.StringIO(), io.StringIO()
    out_name = case.argv[case.argv.index("--out") + 1] if "--out" in case.argv else None
    with _in(folder), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(case.argv))
    files = {
        "stdout": out.getvalue().encode(),
        "stderr": err.getvalue().encode(),
        "exit_code": f"{code}\n".encode(),
    }
    if out_name is not None:
        files["out"] = (folder / out_name).read_bytes()
        (folder / out_name).unlink()
    return files


def stored_files(case: Case) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in (GOLDEN / case.name).iterdir()}


@contextlib.contextmanager
def _in(folder: Path):
    """Run in ``folder``: a report's config digest hashes the ``--input`` path as typed."""
    here = os.getcwd()
    os.chdir(folder)
    try:
        yield
    finally:
        os.chdir(here)


def regenerate():
    """Rewrite ``tests/golden/`` from the current code and name every file that changed."""
    before = {p.relative_to(GOLDEN).as_posix(): p.read_bytes() for p in GOLDEN.glob("*/*")}
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        after = {
            f"{case.name}/{name}": data
            for case in CASES
            for name, data in run_case(case, Path(tmp)).items()
        }
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for rel, data in after.items():
        (GOLDEN / rel).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / rel).write_bytes(data)
    for rel in sorted(before.keys() | after.keys()):
        if before.get(rel) != after.get(rel):
            state = "added" if rel not in before else "removed" if rel not in after else "changed"
            print(f"{state}\t{rel}")


if __name__ == "__main__":
    regenerate()
