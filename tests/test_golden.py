"""Every golden-corpus case reproduces its stored stdout, stderr, exit code and ``--out`` bytes."""

import pytest

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
