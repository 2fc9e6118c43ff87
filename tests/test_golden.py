"""Every golden-corpus case reproduces its stored stdout, stderr, exit code and ``--out`` bytes."""

import os
import subprocess
import sys

import pytest

import ceda
from golden_corpus import CASES, run_case, stored_files, write_inputs


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    write_inputs(folder)
    return folder


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_report_bytes_match_the_corpus(case, inputs):
    note = " (multi-D K-means: BLAS products may differ by platform)" if case.blas else ""
    assert run_case(case, inputs) == stored_files(case), f"{case.name} differs{note}"


@pytest.mark.parametrize("case", [c for c in CASES if c.blas], ids=lambda c: c.name)
def test_blas_case_matches_the_corpus_in_a_cli_process(case, inputs):
    """A ``python -m ceda.cli`` process runs BLAS on one thread; its K-means keeps the bytes."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(ceda.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "ceda.cli", *case.argv], cwd=inputs, capture_output=True,
        env=env, timeout=300,
    )
    code = f"{proc.returncode}\n".encode()
    assert {"stdout": proc.stdout, "stderr": proc.stderr, "exit_code": code} == stored_files(case)
