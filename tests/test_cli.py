"""Command-line workflows: ingestion, reports, exit codes, provenance."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ceda.nullsim
import ceda.protocol
from ceda.cli import (
    _SETTING_TABLE, ConfigError, DataError, RunConfig, build_parser, ingest_csv, main,
)
from ceda.categorize import BinningScheme, apply_bins, fuse_features, quantile_bins
from ceda.genlab import EXAMPLE_IDS, GeneratorSpec, sample
from ceda.protocol import ProtocolConfig, SubsetEvaluator
from ceda.tabulate import CategoricalSeries, crosstab, entropy_report
from conftest import binned, count_fusion_calls, traced_peak


def reject_constant(name):
    """``json.loads``' ``parse_constant``: NaN and Infinity are not JSON."""
    raise ValueError(f"{name} in a JSON report")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_capped(argv):
    """``ceda`` in a child process whose address space is capped at 2 GiB, so a run
    that failed to stop an oversize request cannot take the machine's memory. The child
    gets no ``OPENBLAS_NUM_THREADS``: BLAS threads are what the CLI itself sets."""
    pytest.importorskip("resource")
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from ceda.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ceda.__file__))
    return subprocess.run(
        [sys.executable, "-c", child, *argv], capture_output=True, text=True, env=env,
        timeout=300,
    )


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("Y,V1\n0.5,0\n1.5,1\n2.5,0\n")
    return str(path)


@pytest.fixture(scope="module")
def ex1_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ex1.csv"
    assert main(
        ["simulate", "--example", "ex1", "--n", "4000", "--seed", "2",
         "--out", str(path)]
    ) == 0
    return str(path)


def reference_ingest_csv(path: str, config: RunConfig) -> dict:
    """``ingest_csv`` as it was when it read every row before parsing any; the oracle.

    Categorical columns come back as a fixed-width ``<U`` array, which drops
    trailing NULs from each label.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    wanted = list(config.response) + list(config.covariates)
    if not wanted:
        wanted = header
    missing = [c for c in wanted if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    index = {c: header.index(c) for c in wanted}
    n_fields = len(header)
    columns: dict[str, list] = {c: [] for c in wanted}
    categorical = {c for c in wanted if config.directive(c)[0] == "categorical"}
    for i, row in enumerate(rows, start=1):
        if len(row) != n_fields:
            raise DataError(
                f"{path}: row {i} has {len(row)} fields, expected {n_fields}"
            )
        for c in wanted:
            token = row[index[c]]
            if c in categorical:
                columns[c].append(token)
                continue
            try:
                value = float(token)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: row {i}, column {c!r}: cannot parse {token!r} as a finite number"
                )
            columns[c].append(value)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return {
        c: (np.asarray(v) if c in categorical else np.asarray(v, dtype=float))
        for c, v in columns.items()
    }


def ingest_outcome(ingest, path, config):
    """``ingest``'s columns, or its DataError's message."""
    try:
        return ingest(path, config)
    except DataError as exc:
        return str(exc)


NAMES = ["Y", "X1", "X2", "G"]
CSV_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "inf", "-inf", "", "abc", " 1.5 ", "1_0", "0x1", "1e999", "\udcff"]),
    st.text(st.characters(exclude_characters="\x00", exclude_categories=("Cs",)), max_size=6),
)


@st.composite
def ingest_cases(draw):
    """A CSV (as bytes) and the run config it is read under.

    Columns may be unwanted, categorical or missing, the header may repeat a
    name, and rows may be short, long, or hold bad tokens and undecodable bytes.
    """
    if draw(st.integers(0, 19)) == 0:
        return b"", RunConfig()
    header = draw(st.permutations(NAMES + ["U"]))[: draw(st.integers(1, 5))]
    if draw(st.integers(0, 9)) == 0:
        header.append(draw(st.sampled_from(header)))
    wanted = draw(st.lists(st.sampled_from(header), unique=True, max_size=3))
    if draw(st.integers(0, 9)) == 0:
        wanted.append("Z")
    categorical = [c for c in NAMES + ["U"] if draw(st.booleans())]
    config = RunConfig(
        response=tuple(wanted[:1]),
        covariates=tuple(wanted[1:]),
        categorize={c: ("categorical", 0) for c in categorical},
    )
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = [
            draw(CSV_TOKENS) if draw(st.integers(0, 4)) == 0 else f"{draw(st.floats(-9, 9)):.3f}"
            for _ in header
        ]
        if draw(st.integers(0, 14)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        rows.append(row)
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header, *rows])
    return text.getvalue().encode("utf-8", "surrogateescape"), config


class TestIngestCsv:
    @settings(max_examples=400, deadline=None)
    @given(ingest_cases())
    def test_matches_the_reference_reader(self, tmp_path_factory, case):
        data, config = case
        path = tmp_path_factory.mktemp("ingest") / "d.csv"
        path.write_bytes(data)
        got = ingest_outcome(ingest_csv, str(path), config)
        want = ingest_outcome(reference_ingest_csv, str(path), config)
        if isinstance(want, str):
            assert got == want
            return
        assert list(got) == list(want)
        for c, values in want.items():
            if values.dtype.kind == "U":
                assert got[c].dtype == object
                assert got[c].tolist() == values.tolist()
            else:
                assert got[c].dtype == np.float64
                assert got[c].tobytes() == values.tobytes()

    def test_read_fault_past_the_first_chunk_outranks_a_bad_number(self, tmp_path):
        path = tmp_path / "late.csv"
        rows = "".join(f"{i},{i % 3}\n" for i in range(20_000))  # about 150 KB
        path.write_bytes(b"Y,X\noops,1\n" + rows.encode() + b"\xff,1\n")
        cfg = RunConfig(response=("Y",), covariates=("X",))
        with pytest.raises(DataError, match="^cannot read") as caught:
            ingest_csv(str(path), cfg)
        assert str(caught.value) == ingest_outcome(reference_ingest_csv, str(path), cfg)

    def test_reads_only_the_named_columns_as_float64(self, tmp_path):
        path = tmp_path / "wide.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"C{j}" for j in range(12)) + "\n")
            for i in range(20_000):
                fh.write(",".join(f"{(i * 7919 + j) % 1000 / 7:.6f}" for j in range(12)) + "\n")
        cfg = RunConfig(response=("C3",), covariates=("C8",))
        data, peak = traced_peak(ingest_csv, str(path), cfg)
        assert list(data) == ["C3", "C8"]
        assert all(v.dtype == np.float64 and v.size == 20_000 for v in data.values())
        # two 160 KB columns; every field of every row as text would take about 17 MB
        assert peak < 2_000_000

    def test_categorical_labels_keep_trailing_nuls(self, capsys, tmp_path):
        path = tmp_path / "nul.csv"
        path.write_text("Y,G\n1,a\n2,a\x00\n1,b\n2,a\n1,a\x00\n2,b\n")
        cfg = RunConfig(response=("Y",), covariates=("G",), categorize={"G": ("categorical", 0)})
        assert ingest_csv(str(path), cfg)["G"].tolist() == ["a", "a\x00", "b", "a", "a\x00", "b"]
        code, out, _ = run(
            capsys, "measure", "--input", str(path), "--response", "Y", "--covariates", "G",
            "--categorize", "Y=categorical,G=categorical", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["reports"][0]["rows"] == 3  # "a" and "a\x00" stay apart

    def test_a_long_categorical_label_is_held_once(self, capsys, tmp_path):
        path = tmp_path / "long.csv"
        labels = ["x" * 100_000] + ["ab"[i % 2] for i in range(1, 500)]
        path.write_text("Y,G\n" + "".join(f"{i / 10},{g}\n" for i, g in enumerate(labels)))
        argv = [
            "measure", "--input", str(path), "--response", "Y", "--covariates", "G",
            "--categorize", "G=categorical", "--format", "json",
        ]
        code, peak = traced_peak(main, argv)
        assert code == 0
        assert json.loads(capsys.readouterr().out)["reports"][0]["rows"] == 3
        # a fixed-width array of the 500 labels would take 500 x 400 KB
        assert peak < 5_000_000

    @pytest.mark.parametrize(
        "argv",
        [["measure", "--response", "Y", "--covariates", "V1"], ["bins"]],
        ids=["measure", "bins-every-column"],
    )
    def test_a_byte_order_mark_is_not_part_of_the_first_column_name(
        self, capsys, tmp_path, ex1_csv, argv
    ):
        path = tmp_path / "d.csv"  # one path for both reads, so the config digests agree
        plain = Path(ex1_csv).read_bytes()
        path.write_bytes(plain)
        want = run(capsys, *argv, "--input", str(path))
        path.write_bytes(b"\xef\xbb\xbf" + plain)
        assert run(capsys, *argv, "--input", str(path)) == want
        assert want[0] == 0 and want[1]

    def test_toy_round_trip(self, toy_csv):
        cfg = RunConfig(response=("Y",), covariates=("V1",))
        data = ingest_csv(toy_csv, cfg)
        assert set(data) == {"Y", "V1"}
        assert data["Y"].tolist() == [0.5, 1.5, 2.5]

    def test_missing_column_named(self, toy_csv):
        cfg = RunConfig(response=("Y",), covariates=("NOPE",))
        with pytest.raises(DataError, match="NOPE"):
            ingest_csv(toy_csv, cfg)

    def test_bad_token_names_row_and_column(self, tmp_path):
        rows = [f"{i / 10},{i % 3}" for i in range(1, 21)]
        rows[16] = "oops,1"  # data row 17
        path = tmp_path / "bad.csv"
        path.write_text("Y,X2\n" + "\n".join(rows) + "\n")
        cfg = RunConfig(response=("Y",), covariates=("X2",))
        with pytest.raises(DataError, match=r"row 17.*'Y'"):
            ingest_csv(str(path), cfg)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("Y,X\n1,2\n3\n")
        with pytest.raises(DataError, match="row 2"):
            ingest_csv(str(path), RunConfig(response=("Y",), covariates=("X",)))

    def test_categorical_column_kept_verbatim(self, tmp_path):
        path = tmp_path / "cat.csv"
        path.write_text("Y,G\n1.0,a\n2.0,b\n3.0,a\n")
        cfg = RunConfig(
            response=("Y",), covariates=("G",), categorize={"G": ("categorical", 0)}
        )
        data = ingest_csv(str(path), cfg)
        assert data["G"].tolist() == ["a", "b", "a"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            ingest_csv(str(path), RunConfig())


class TestRunConfig:
    def test_overlapping_roles_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(response=("Y",), covariates=("Y", "X"))

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(out_format="xml")

    def test_digest_stable_and_sensitive(self):
        a = RunConfig(protocol=ProtocolConfig(seed=1))
        b = RunConfig(protocol=ProtocolConfig(seed=1))
        c = RunConfig(protocol=ProtocolConfig(seed=2))
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


class TestExitCodes:
    def test_config_error_is_exit_3(self, capsys, ex1_csv):
        code, _, err = run(
            capsys, "select", "--max-order", "0", "--input", ex1_csv,
            "--response", "Y", "--covariates", "V1",
        )
        assert code == 3
        assert "config error" in err

    def test_data_error_is_exit_2(self, capsys):
        code, _, err = run(
            capsys, "measure", "--input", "/no/such/file.csv",
            "--response", "Y", "--covariates", "V1",
        )
        assert code == 2
        assert "data error" in err

    @pytest.mark.parametrize("command", ["select"])
    def test_max_order_above_covariate_count_is_exit_3(self, capsys, ex1_csv, command):
        code, out, err = run(
            capsys, command, "--max-order", "2", "--input", ex1_csv,
            "--response", "Y", "--covariates", "V1", "--replicates", "50",
        )
        assert code == 3
        assert err.startswith("config error:")
        assert out == ""

    @pytest.mark.parametrize("given", ["flag", "config"])
    @pytest.mark.parametrize("command", ["measure", "null", "grid", "bins"])
    def test_max_order_is_read_by_select_alone(self, capsys, tmp_path, ex1_csv, command, given):
        """Only ``select`` reads ``--max-order``: another subcommand with one covariate
        refuses the flag, and runs as it does without it when a shared config file gives it."""
        argv = [command, "--input", ex1_csv, "--response", "Y", "--covariates", "V1"]
        if command in ("null", "grid"):
            argv += ["--replicates", "50"]
        if command == "grid":
            argv += ["--y-ladder", "3", "--x-ladder", "2"]
        if given == "flag":
            code, out, err = run(capsys, *argv, "--max-order", "2")
            assert (code, out) == (3, "")
            assert err == "config error: ceda: unrecognized arguments: --max-order 2\n"
            return
        (tmp_path / "shared.json").write_text('{"max_order": 2}')
        code, out, err = run(capsys, *argv, "--config", str(tmp_path / "shared.json"))
        assert code == 0, err
        assert out == run(capsys, *argv)[1]

    def test_select_default_max_order_above_covariate_count_is_exit_3(self, capsys, ex1_csv):
        code, _, err = run(
            capsys, "select", "--input", ex1_csv, "--response", "Y", "--covariates", "V1",
        )
        assert code == 3
        assert err == "config error: --max-order: max order 2 is outside 1..1 (the feature count)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--seed", "abc"],
            ["select", "--format", "xml"],
            ["simulate"],
            ["simulate", "--example", "ex1", "--n", "1.5"],
            ["measure", "--replicates", "abc"],
            ["null", "--r-int", "x"],
            ["grid", "--no-such-flag"],
            ["frobnicate"],
            [],
        ],
    )
    def test_usage_error_is_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("config error: ceda")
        assert out == ""

    @pytest.mark.parametrize(
        "command", [[], ["simulate"], ["bins"], ["measure"], ["null"], ["grid"], ["select"]]
    )
    def test_help_is_exit_0(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: {' '.join(['ceda', *command])}")

    def test_unwritable_out_is_exit_3(self, capsys, tmp_path, ex1_csv):
        code, _, err = run(
            capsys, "measure", "--input", ex1_csv, "--response", "Y",
            "--covariates", "V1", "--out", str(tmp_path / "missing" / "report.tsv"),
        )
        assert code == 3
        assert err.startswith("config error: cannot write")

    def test_invalid_config_file_is_exit_3(self, capsys, tmp_path, ex1_csv):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        code, _, _ = run(capsys, "measure", "--input", ex1_csv, "--config", str(bad))
        assert code == 3

    @pytest.mark.parametrize(
        "flag, content, code, prefix",
        [
            ("--input", b"Y,X1\n1,\xff\xfe\n2,3\n", 2, "data error: cannot read"),
            ("--input", b"Y,X1\n1," + b"7" * 200_000 + b"\n2,3\n", 2, "data error: cannot read"),
            ("--config", b'{"seed": "\xff"}', 3, "config error: config file"),
            ("--replay", b'{"X1": "\xff"}', 3, "config error: replay file"),
            ("--config", b"[" * 100_000 + b"]" * 100_000, 3, "config error: config file"),
        ],
        ids=["csv-bad-utf8", "csv-field-too-large", "config-bad-utf8", "replay-bad-utf8",
             "config-nested-too-deep"],
    )
    def test_undecodable_or_unparseable_file_is_one_error_line(
        self, capsys, tmp_path, ex4_csv, flag, content, code, prefix
    ):
        path = tmp_path / "raw"
        path.write_bytes(content)
        # the last of a repeated flag wins, so a raw ``--input`` replaces ex4's
        code_seen, out, err = run(capsys, "bins", "--input", ex4_csv, flag, str(path))
        assert code_seen == code
        assert err.startswith(prefix) and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize(
        "content", ['{"r_int": "abc"}', '{"max_order": [1]}', '{"categorize": 5}']
    )
    def test_config_file_value_of_wrong_type_is_exit_3(self, capsys, tmp_path, ex1_csv, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, out, err = run(
            capsys, "measure", "--input", ex1_csv, "--response", "Y",
            "--covariates", "V1", "--config", str(cfg),
        )
        assert code == 3
        assert err.startswith("config error: bad config value")
        assert out == ""

    @pytest.mark.parametrize(
        "entry, flag",
        [
            ('"quantile:7"', "X1=quantile:7"),
            ('["quantile", 7]', "X1=quantile:7"),
            ('"kmeans:5"', "X1=kmeans:5"),
            ('"categorical"', "X1=categorical"),
            ('["categorical", 0]', "X1=categorical"),
        ],
    )
    def test_config_categorize_entry_runs_as_its_flag(self, capsys, tmp_path, ex4_csv, entry, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"categorize": {"X1": %s}}' % entry)
        common = ("measure", "--input", ex4_csv, "--response", "Y", "--covariates", "X1,X2")
        code, out, err = run(capsys, *common, "--config", str(cfg))
        assert (code, err) == (0, "")
        assert out == run(capsys, *common, "--categorize", flag)[1]

    @pytest.mark.parametrize(
        "entry",
        [
            '["quantile", "10"]', '["bogus", 3]', '["quantile", 0]', '["quantile", 2.5]',
            '["quantile", true]', '["quantile", 10, 1]', '["quantile"]', '["categorical", 3]',
            '"quantile"', '"quantile:0"', '"quantile:x"', '"bogus:3"', '"categorical:3"',
            "5", "null", "true", '{"quantile": 10}',
        ],
    )
    def test_malformed_config_categorize_entry_is_exit_3(self, capsys, tmp_path, ex4_csv, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"categorize": {"X1": %s}}' % entry)
        code, out, err = run(
            capsys, "select", "--input", ex4_csv, "--response", "Y", "--covariates", "X1,X2",
            "--replicates", "20", "--config", str(cfg),
        )
        assert code == 3
        assert err.startswith("config error: bad config value: categorize:")
        assert out == ""

    def test_empty_categorize_item_is_skipped(self, capsys, ex4_csv):
        common = ("measure", "--input", ex4_csv, "--response", "Y", "--covariates", "X1,X2")
        code, out, err = run(capsys, *common, "--categorize", "X1=quantile:5,,")
        assert (code, err) == (0, "")
        assert out == run(capsys, *common, "--categorize", "X1=quantile:5")[1]

    def test_categorize_item_without_equals_is_exit_3(self, capsys, ex4_csv):
        code, out, err = run(
            capsys, "measure", "--input", ex4_csv, "--response", "Y", "--covariates", "X1,X2",
            "--categorize", "X1=quantile:5,X2",
        )
        assert (code, out) == (3, "")
        assert err == "config error: bad categorization directive 'X2'\n"

    def test_categorize_naming_a_column_twice_is_exit_3_before_reading(self, capsys):
        code, out, err = run(
            capsys, "measure", "--input", "/no/such/file.csv", "--response", "Y",
            "--covariates", "X1,X2", "--categorize", "X1=quantile:3,X2=kmeans:2,X1=quantile:5",
        )
        assert (code, out) == (3, "")
        assert err == "config error: categorize names a column more than once: 'X1'\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("measure", "--response", "Y", "--covariates", "X1"),
            ("null", "--response", "Y", "--covariates", "X1,X2"),
            ("select", "--response", "Y", "--covariates", "X1,X2"),
            ("bins", "--covariates", "X1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_directive_for_a_column_the_run_does_not_read_is_exit_3_before_reading(
        self, capsys, argv
    ):
        code, out, err = run(
            capsys, *argv, "--input", "/no/such/file.csv",
            "--categorize", "X1=quantile:3,X9=kmeans:2,Z=categorical",
        )
        assert (code, out) == (3, "")
        assert err == (
            "config error: --categorize names columns the run does not read: ['X9', 'Z']\n"
        )

    @pytest.mark.parametrize("command", ["bins", "measure", "null", "grid", "select"])
    def test_missing_input_is_exit_3(self, capsys, command):
        code, out, err = run(capsys, command, "--response", "Y", "--covariates", "X1")
        assert (code, out) == (3, "")
        assert err == f"config error: {command} requires --input\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["null", "--response", "Y", "--covariates", "X1", "--replicates", "1000000000"],
            ["simulate", "--example", "ex4", "--n", "10000000000"],
        ],
        ids=["null-replicates", "simulate-rows"],
    )
    def test_running_out_of_memory_is_exit_3(self, ex4_csv, argv):
        """Each request asks for tens of GiB."""
        if argv[0] == "null":
            argv = [*argv, "--input", ex4_csv]
        proc = run_capped(argv)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("config error: out of memory: Unable to allocate")
        assert proc.stderr.count("\n") == 1

    def test_max_order_over_the_subset_budget_is_exit_3_before_the_input_is_read(self):
        """40 covariates at order 20 would enumerate about 6e11 subsets; the count refuses them."""
        covariates = ",".join(f"X{i}" for i in range(40))
        proc = run_capped(
            ["select", "--input", "/no/such/file.csv", "--response", "Y",
             "--covariates", covariates, "--max-order", "20"]
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            "config error: --max-order: 618679078297 subsets of 1 to 20 of 40 features "
            f"exceed the subset budget ({ceda.protocol.SUBSET_BUDGET})\n"
        )

    def test_max_order_listing_131071_subsets_runs(self, tmp_path, capsys):
        """17 covariates at order 17: every subset past the singletons is over the cell
        budget, so the ledger lists 131 071 rows and evaluates 17 of them."""
        rng = np.random.default_rng(0)
        data = rng.normal(size=(600, 18))
        path = tmp_path / "wide.csv"
        names = [f"X{i}" for i in range(17)]
        path.write_text(
            ",".join([*names, "Y"]) + "\n"
            + "".join(",".join(f"{v:.4f}" for v in row) + "\n" for row in data)
        )
        categorize = ",".join([*(f"{c}=quantile:500" for c in names), "Y=quantile:10"])
        code, out, _ = run(
            capsys, "select", "--input", str(path), "--response", "Y",
            "--covariates", ",".join(names), "--categorize", categorize,
            "--max-order", "17", "--replicates", "2",
        )
        orders = Counter(line.split("\t", 1)[0] for line in out.splitlines())
        assert code == 0
        assert [orders[str(k)] for k in range(1, 18)] == [math.comb(17, k) for k in range(1, 18)]

    @pytest.mark.parametrize(
        "content",
        [
            '{"max_order": 1.5}', '{"seed": true}', '{"seed": 1.0}', '{"replicates": "20"}',
            '{"threads": null}', '{"r_int": true}', '{"r_int": "3"}', '{"cell_floor": [1]}',
            pytest.param('{"r_int": 1%s}' % ("0" * 400), id="r_int-past-double-range"),
            '{"input": 5}', '{"format": null}',
            '{"response": [1]}', '{"covariates": [["X1"]]}', '{"noise_features": {"X1": 1}}',
            '{"categorize": ["X1", "quantile:3"]}',
        ],
    )
    def test_config_value_of_the_wrong_form_is_exit_3(self, capsys, tmp_path, ex4_csv, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, out, err = run(
            capsys, "measure", "--input", ex4_csv, "--response", "Y", "--covariates", "X1,X2",
            "--config", str(cfg),
        )
        assert code == 3
        assert err.startswith("config error: bad config value:")
        assert out == ""

    def test_config_numbers_of_the_right_form_are_accepted(self, capsys, tmp_path, ex4_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 3, "r_int": 2, "cell_floor": 0.5, "max_order": 1}')
        common = ("select", "--input", ex4_csv, "--response", "Y", "--covariates", "X1,X2",
                  "--replicates", "20")
        code, out, _ = run(capsys, *common, "--config", str(cfg))
        assert code == 0
        assert out == run(
            capsys, *common,
            "--seed", "3", "--r-int", "2.0", "--cell-floor", "0.5", "--max-order", "1",
        )[1]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--r-int", "nan", "r_int must be finite and > 0"),
            ("--r-int", "-2", "r_int must be finite and > 0"),
            ("--r-int", "inf", "r_int must be finite and > 0"),
            ("--cell-floor", "-1", "cell_floor must be >= 0"),
            ("--cell-floor", "nan", "cell_floor must be >= 0"),
            ("--replicates", "1", "replicates must be >= 2"),
            ("--threads", "0", "threads must be >= 1"),
        ],
    )
    def test_out_of_range_select_setting_is_exit_3(
        self, capsys, ex1_csv, flag, value, message
    ):
        code, out, err = run(
            capsys, "select", "--input", ex1_csv, "--response", "Y",
            "--covariates", "V1", "--max-order", "1", flag, value,
        )
        assert code == 3
        assert err.startswith(f"config error: {message}")
        assert out == ""

    @pytest.mark.parametrize("command", ["measure", "null"])
    def test_subset_repeating_a_feature_is_exit_3(self, capsys, ex4_csv, command):
        code, out, err = run(
            capsys, command, "--input", ex4_csv, "--response", "Y",
            "--covariates", "X1,X2", "--subsets", "X2,X1+X1",
        )
        assert code == 3
        assert err.startswith("config error: subset 'X1+X1'")
        assert out == ""

    @pytest.mark.parametrize("command, value", [("null", ","), ("measure", " "), ("measure", "")])
    def test_subsets_naming_no_subset_is_exit_3(self, capsys, ex4_csv, command, value):
        code, out, err = run(
            capsys, command, "--input", ex4_csv, "--response", "Y",
            "--covariates", "X1,X2", "--subsets", value,
        )
        assert code == 3
        assert err == "config error: --subsets names no subset\n"
        assert out == ""

    @pytest.mark.parametrize(
        "command, roles, message",
        [
            ("select", ("--covariates", "X1,X1", "--replicates", "20"),
             "covariates names a column more than once"),
            ("measure", ("--covariates", "X1,X1"), "covariates names a column more than once"),
            ("bins", ("--covariates", "X1,X1"), "covariates names a column more than once"),
            ("measure", ("--response", "Y,Y"), "response names a column more than once"),
            ("select", ("--noise", "X2,X2", "--replicates", "20"),
             "noise_features names a feature more than once"),
        ],
    )
    def test_column_named_twice_is_exit_3(self, capsys, ex4_csv, command, roles, message):
        # the last of a repeated flag wins, so ``roles`` overrides the default roles
        code, out, err = run(
            capsys, command, "--input", ex4_csv, "--response", "Y", "--covariates", "X1,X2",
            *roles,
        )
        assert code == 3
        assert err.startswith(f"config error: {message}")
        assert out == ""

    @pytest.mark.parametrize(
        "content",
        [
            {"response": "Y", "covariates": ["X1", "X2", "X1"]},
            {"response": ["Y", "Y"], "covariates": "X1"},
            {"response": "Y", "covariates": "X1,X2", "noise_features": "X2,X2"},
        ],
    )
    def test_config_file_naming_a_column_twice_is_exit_3(
        self, capsys, tmp_path, ex4_csv, content
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(content))
        code, out, err = run(
            capsys, "select", "--input", ex4_csv, "--config", str(path), "--replicates", "20",
        )
        assert code == 3
        assert "more than once" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_in_measure_is_exit_2(self, capsys, tmp_path, token):
        path = tmp_path / "d.csv"
        path.write_text(f"Y,X\n1,2\n3,{token}\n5,6\n7,8\n")
        code, out, err = run(
            capsys, "measure", "--input", str(path), "--response", "Y",
            "--covariates", "X", "--categorize", "Y=kmeans:2,X=kmeans:2",
        )
        assert code == 2
        assert err.startswith("data error:") and "row 2, column 'X'" in err
        assert out == ""

    def test_non_finite_value_in_grid_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Y,X\n1,2\n3,4\nnan,6\n7,8\n")
        code, out, err = run(
            capsys, "grid", "--input", str(path), "--response", "Y",
            "--covariates", "X", "--y-ladder", "2", "--x-ladder", "2",
        )
        assert code == 2
        assert err.startswith("data error:") and "row 3, column 'Y'" in err
        assert out == ""

    @pytest.mark.parametrize(
        "roles, column",
        [
            (("--response", "Y", "--categorize", "Y=kmeans:2,X=kmeans:9"), "'X'"),
            (("--response", "Y,Z", "--categorize", "Y=kmeans:9,X=kmeans:2"), "'Y,Z'"),
        ],
        ids=["covariate", "fused-response"],
    )
    def test_kmeans_k_above_row_count_is_exit_3(self, capsys, tmp_path, roles, column):
        path = tmp_path / "d.csv"
        path.write_text("Y,Z,X\n1,2,3\n4,5,7\n7,9,8\n10,11,15\n")
        code, out, err = run(
            capsys, "measure", "--input", str(path), "--covariates", "X", *roles,
        )
        assert code == 3
        assert err.startswith(f"config error: column {column}: kmeans:9")
        assert out == ""

    @pytest.mark.parametrize("command", ["bins", "measure"])
    @pytest.mark.parametrize(
        "column, directive, message",
        [
            ("X", "X=quantile:10", "too few values"),
            ("C", "C=quantile:2", "zero width"),
        ],
        ids=["more-bins-than-rows", "constant-column"],
    )
    def test_column_quantile_binning_cannot_bin_is_exit_2(
        self, capsys, tmp_path, command, column, directive, message
    ):
        path = tmp_path / "d.csv"
        path.write_text("Y,X,C\n" + "".join(f"{i},{i * i},7\n" for i in range(6)))
        code, out, err = run(
            capsys, command, "--input", str(path), "--response", "Y",
            "--covariates", column, "--categorize", f"Y=quantile:2,{directive}",
        )
        assert code == 2
        assert err.startswith(f"data error: column {column!r}:") and message in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("grid", "--response", "G", "--covariates", "X", "--categorize", "G=categorical",
              "--y-ladder", "2", "--x-ladder", "2", "--replicates", "20"),
             "ceda: unrecognized arguments: --categorize G=categorical"),
            (("measure", "--response", "Y,G", "--covariates", "X",
              "--categorize", "G=categorical"),
             "response Y,G: a multi-column response takes one directive, kmeans:K, on its "
             "first column 'Y'"),
        ],
        ids=["grid", "fused-response"],
    )
    def test_kmeans_on_a_categorical_column_is_exit_3(self, capsys, tmp_path, argv, message):
        path = tmp_path / "d.csv"
        path.write_text("Y,X,G\n" + "".join(f"{i},{i % 4},{'ab'[i % 2]}\n" for i in range(12)))
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 3
        assert err == f"config error: {message}\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--example", "ex4", "--n", "10"),
            ("measure", "--response", "Y", "--covariates", "X1,X2"),
            ("null", "--response", "Y", "--covariates", "X1,X2"),
            ("grid", "--response", "Y", "--covariates", "X1", "--y-ladder", "4", "--x-ladder", "4"),
            ("select", "--response", "Y", "--covariates", "X1,X2"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_exit_3(self, capsys, ex4_csv, argv):
        if argv[0] != "simulate":
            argv = (*argv, "--input", ex4_csv)
        code, out, err = run(capsys, *argv, "--seed", "-1")
        assert code == 3
        assert err.startswith("config error: seed must be >= 0")
        assert out == ""

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_simulate_row_count_below_one_is_exit_3(self, capsys, n):
        code, out, err = run(capsys, "simulate", "--example", "ex4", "--n", n)
        assert code == 3
        assert err.startswith("config error: n must be >= 1")
        assert out == ""

    def test_select_noise_feature_outside_the_covariates_is_exit_3(
        self, capsys, tmp_path, ex4_csv
    ):
        shared = tmp_path / "cfg.json"
        shared.write_text(json.dumps({"noise_features": ["X2", "Z9"]}))
        argv = ("--input", ex4_csv, "--response", "Y", "--covariates", "X1,X2",
                "--config", str(shared))
        code, out, err = run(capsys, "select", *argv, "--replicates", "20")
        assert code == 3
        assert err.startswith("config error: noise features must be covariates")
        assert "'Z9'" in err and "'X2'" not in err
        assert out == ""
        # measure does not read the noise features, so the shared file still works
        code, out, _ = run(capsys, "measure", *argv)
        assert code == 0 and out.startswith("# config ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["measure"], "no response column named"),
            (["null", "--response", "Y"], "no covariate columns named"),
            (["measure", "--response", "Y", "--covariates", "X1,X2", "--subsets", "NOPE"],
             "subset names unknown covariates ['NOPE']"),
            (["null", "--response", "Y,X1", "--covariates", "X2", "--categorize", "Y=categorical"],
             "response Y,X1: a multi-column response takes one directive, kmeans:K, on its first"),
            (["measure", "--response", "Y,X1", "--covariates", "X2",
              "--categorize", "Y=quantile:3"],
             "response Y,X1: a multi-column response takes one directive, kmeans:K, on its first"),
            (["select", "--response", "Y,X1", "--covariates", "X2", "--categorize", "X1=kmeans:3"],
             "response Y,X1: a multi-column response takes one directive"),
            (["select", "--response", "Y", "--covariates", "X1"],
             "--max-order: max order 2 is outside 1..1"),
            (["select", "--response", "Y", "--covariates", "X1,X2", "--noise", "Z"],
             "noise features must be covariates"),
            (["grid", "--response", "Y", "--covariates", "X1", "--y-ladder", "a"],
             "ladders must be comma-separated integers"),
            (["bins", "--replay"], "bad scheme for 'X1'"),
        ],
        ids=["no-response", "no-covariates", "subsets", "multi-response", "response-quantile",
             "response-second-directive", "max-order", "noise",
             "ladder", "replay"],
    )
    def test_settings_error_comes_before_the_input_is_read(self, capsys, tmp_path, argv, message):
        path = tmp_path / "bad.csv"
        path.write_text("Y,X1,X2\n" + "".join(f"{i},{i},{i}\n" for i in range(20)) + "a,b,c\n")
        if argv[-1] == "--replay":
            replay_path = tmp_path / "s.json"
            replay_path.write_text(json.dumps({"X1": {"edges": [1, 0]}}))
            argv = [*argv, str(replay_path)]
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 3
        assert err.startswith("config error:") and message in err
        assert out == ""

    @pytest.mark.parametrize("n", [1, 2])
    def test_select_on_fewer_than_three_rows_is_exit_2(self, capsys, tmp_path, n):
        path = tmp_path / "d.csv"
        path.write_text("Y,X1,X2\n" + "".join(f"{i},{i},{i}\n" for i in range(n)))
        code, out, err = run(
            capsys, "select", "--input", str(path), "--response", "Y", "--covariates", "X1,X2",
            "--categorize", "Y=categorical,X1=categorical,X2=kmeans:1", "--replicates", "5",
        )
        assert code == 2
        assert err.startswith(f"data error: select needs at least 3 rows, got {n}")
        assert out == ""


def reference_simulate_csv(data) -> str:
    """The row-by-row CSV writer ``simulate`` had, kept as the oracle for its bytes."""
    names = list(data)
    n = len(next(iter(data.values())))
    lines = [",".join(names)]
    cols = [data[c] for c in names]
    for i in range(n):
        lines.append(
            ",".join(
                str(int(col[i])) if np.issubdtype(col.dtype, np.integer) else f"{col[i]:.17g}"
                for col in cols
            )
        )
    return "\n".join(lines) + "\n"


def reference_replay_csv(labeled) -> str:
    """The row-by-row CSV writer ``bins --replay`` had, kept as the oracle for its bytes."""
    cols = list(labeled)
    lines = [",".join(cols)]
    for i in range(len(labeled[cols[0]])):
        lines.append(",".join(str(int(labeled[c][i])) for c in cols))
    return "\n".join(lines) + "\n"


class TestSimulateRoundTrip:
    @pytest.mark.parametrize("example", EXAMPLE_IDS)
    def test_csv_bytes_match_the_row_by_row_writer(self, capsys, example):
        code, out, _ = run(capsys, "simulate", "--example", example, "--n", "60", "--seed", "5")
        assert code == 0
        assert out == reference_simulate_csv(sample(GeneratorSpec(example, 60, seed=5)))

    def test_csv_round_trips_bitwise_into_pipeline(self, ex1_csv):
        cfg = RunConfig(
            response=("Y",), covariates=("V1",),
            categorize={"V1": ("categorical", 0)},
        )
        from_csv = ingest_csv(ex1_csv, cfg)
        in_memory = sample(GeneratorSpec("ex1", 4000, seed=2))
        assert np.array_equal(from_csv["Y"], in_memory["Y"])
        scheme = quantile_bins(from_csv["Y"], 10)
        a = apply_bins(from_csv["Y"], scheme)
        b = apply_bins(in_memory["Y"], quantile_bins(in_memory["Y"], 10))
        assert np.array_equal(a.labels, b.labels)


class TestMeasure:
    def test_tsv_report_layout_and_provenance(self, capsys, ex1_csv):
        code, out, _ = run(
            capsys, "measure", "--input", ex1_csv, "--response", "Y",
            "--covariates", "V1", "--categorize", "Y=quantile:10,V1=categorical",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config ")
        assert lines[1].split("\t") == ["subset", "rows", "cols", "h_y", "h_y_given_a", "mi"]
        fields = lines[2].split("\t")
        assert fields[0] == "V1"
        assert (int(fields[1]), int(fields[2])) == (2, 12)

    def test_matches_in_memory_measurement(self, capsys, ex1_csv):
        code, out, _ = run(
            capsys, "measure", "--input", ex1_csv, "--response", "Y",
            "--covariates", "V1", "--categorize", "Y=quantile:10,V1=categorical",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        data = sample(GeneratorSpec("ex1", 4000, seed=2))
        y = apply_bins(data["Y"], quantile_bins(data["Y"], 10))
        uniq, inverse = np.unique(data["V1"], return_inverse=True)
        v1 = CategoricalSeries(labels=inverse.ravel(), cardinality=uniq.size)
        expected = entropy_report(crosstab(v1, y))
        assert payload["reports"][0]["mi"] == pytest.approx(expected.mutual_info, abs=1e-12)
        assert "config_digest" in payload and "seed" in payload

    def test_byte_identical_reports_for_same_inputs(self, capsys, ex1_csv):
        argv = (
            "measure", "--input", ex1_csv, "--response", "Y", "--covariates", "V1",
            "--categorize", "Y=quantile:10,V1=categorical", "--seed", "4",
        )
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestNullCommand:
    def test_verdict_row_and_determinism(self, capsys, ex1_csv):
        argv = (
            "null", "--input", ex1_csv, "--response", "Y", "--covariates", "V1",
            "--categorize", "Y=quantile:10,V1=categorical",
            "--replicates", "300", "--seed", "5",
        )
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert "confirmed" in out
        assert "null V1: confirmed" in err
        _, again, _ = run(capsys, *argv)
        assert out == again

    def test_band_row_is_the_subsets_own_and_the_evaluators(self, capsys, ex4_csv):
        argv = ("null", "--input", ex4_csv, "--response", "Y", "--covariates", "X1,X2,X3,X4",
                "--replicates", "50", "--seed", "1")
        rows = {}
        for subsets in ("X1,X2+X3", "X2+X3,X1"):
            code, out, _ = run(capsys, *argv, "--subsets", subsets)
            assert code == 0
            rows[subsets] = sorted(out.splitlines()[2:])
        assert rows["X1,X2+X3"] == rows["X2+X3,X1"]

        code, out, _ = run(capsys, *argv, "--subsets", "X2+X3,X1", "--format", "json")
        assert code == 0
        data = sample(GeneratorSpec("ex4", 2000, seed=1))
        evaluator = SubsetEvaluator(
            {c: binned(data[c]) for c in ("X1", "X2", "X3", "X4")},
            binned(data["Y"]),
            ProtocolConfig(replicates=50, seed=1),
        )
        for row in json.loads(out)["verdicts"]:
            verdict = evaluator.mi_verdict(tuple(row["subset"]))
            assert row == {
                "subset": row["subset"],
                "observed": verdict.observed,
                "status": verdict.status,
                "excess_sd": verdict.excess_sd,
                "band": verdict.band.to_json_dict(),
            }

    def test_verdicts_spread_over_threads_without_changing_output(
        self, capsys, ex4_csv, monkeypatch
    ):
        on_main = []
        original = ceda.protocol.mi_verdict

        def recording(*args):
            on_main.append(threading.current_thread() is threading.main_thread())
            return original(*args)

        monkeypatch.setattr(ceda.protocol, "mi_verdict", recording)
        argv = ("null", "--input", ex4_csv, "--response", "Y", "--covariates", "X1,X2,X3,X4",
                "--subsets", "X1,X2,X3,X4", "--replicates", "50", "--seed", "1")
        outputs = {}
        for threads in ("1", "2"):
            on_main.clear()
            code, out, err = run(capsys, *argv, "--threads", threads)
            assert code == 0
            outputs[threads] = (out, err)
        assert len(on_main) == 4 and not all(on_main)
        assert outputs["2"] == outputs["1"]

    def test_json_writes_an_unbounded_excess_as_null(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("X,Y\n0,0\n0,0\n1,1\n")
        code, out, _ = run(
            capsys, "null", "--input", str(path), "--response", "Y", "--covariates", "X",
            "--categorize", "X=categorical,Y=categorical", "--replicates", "2", "--seed", "7",
            "--format", "json",
        )
        assert code == 0
        (verdict,) = json.loads(out, parse_constant=reject_constant)["verdicts"]
        assert verdict["band"]["sd"] == 0.0 and verdict["excess_sd"] is None


class TestPlusEntries:
    """A ``+`` entry names a feature set: the order it is typed in changes no number."""

    @pytest.fixture(scope="class")
    def evaluator(self):
        data = sample(GeneratorSpec("ex4", 2000, seed=1))
        return SubsetEvaluator(
            {c: binned(data[c]) for c in ("X1", "X2", "X3", "X4")},
            binned(data["Y"]),
            ProtocolConfig(replicates=50, seed=1),
        )

    def rows(self, capsys, ex4_csv, command, key):
        rows = {}
        for entry in ("X1+X2", "X2+X1"):
            code, out, _ = run(
                capsys, command, "--input", ex4_csv, "--response", "Y",
                "--covariates", "X1,X2,X3,X4", "--seed", "1", "--subsets", entry,
                "--format", "json", *(["--replicates", "50"] if command == "null" else []),
            )
            assert code == 0
            (row,) = json.loads(out)[key]
            assert row.pop("subset") == entry.split("+")
            rows[entry] = row
        assert rows["X2+X1"] == rows["X1+X2"]
        return rows["X1+X2"]

    def test_measure_row_is_the_sorted_sets(self, capsys, ex4_csv, evaluator):
        row = self.rows(capsys, ex4_csv, "measure", "reports")
        assert row == entropy_report(evaluator.table(("X1", "X2"))).to_json_dict(total=2000)

    def test_null_row_is_the_sorted_sets(self, capsys, ex4_csv, evaluator):
        row = self.rows(capsys, ex4_csv, "null", "verdicts")
        verdict = evaluator.mi_verdict(("X1", "X2"))
        assert row == {
            "observed": verdict.observed,
            "status": verdict.status,
            "excess_sd": verdict.excess_sd,
            "band": verdict.band.to_json_dict(),
        }


class TestBinsCommand:
    def test_emit_then_replay(self, capsys, tmp_path, ex1_csv):
        scheme_path = tmp_path / "schemes.json"
        code, out, _ = run(
            capsys, "bins", "--input", ex1_csv, "--response", "Y",
            "--covariates", "V1", "--categorize", "V1=categorical",
            "--out", str(scheme_path),
        )
        assert code == 0
        schemes = json.loads(scheme_path.read_text())
        assert "Y" in schemes and len(schemes["Y"]["edges"]) == 11
        replay_input = {k: v for k, v in schemes.items() if k == "Y"}
        replay_path = tmp_path / "y_only.json"
        replay_path.write_text(json.dumps(replay_input))
        code, out, _ = run(capsys, "bins", "--input", ex1_csv, "--replay", str(replay_path))
        assert code == 0
        labels = [int(line.split(",")[0]) for line in out.strip().split("\n")[1:]]
        data = sample(GeneratorSpec("ex1", 4000, seed=2))
        expected = apply_bins(data["Y"], quantile_bins(data["Y"], 10)).labels
        assert labels == expected.tolist()

    def test_each_skipped_column_is_named_on_stderr(self, capsys, ex1_csv):
        argv = ("bins", "--input", ex1_csv, "--response", "Y")
        code, plain, _ = run(capsys, *argv)
        assert code == 0
        code, out, err = run(capsys, *argv, "--covariates", "V1", "--categorize", "V1=kmeans:4")
        assert code == 0
        assert err == "bins: skipped 'V1': its directive kmeans:4 is not quantile\n"
        schemes = json.loads(out)
        assert "V1" not in schemes and schemes["Y"] == json.loads(plain)["Y"]

    @pytest.mark.parametrize(
        "fields",
        [
            {"edges": [[0.1], [0.2]], "k_interior": 1},
            {"edges": [], "k_interior": -1},
            {"edges": [0.1, None], "k_interior": 1},
            {"edges": "0.1", "k_interior": 0},
            {"edges": [0.1, 10**400]},
        ],
        ids=["nested-edges", "negative-k", "null-edge", "string-edges", "huge-edge"],
    )
    def test_malformed_replay_scheme_is_exit_3(self, capsys, tmp_path, ex1_csv, fields):
        scheme = {"edges": [0.1, 0.2], "low_q": 0.05, "high_q": 0.95, "k_interior": 1}
        replay_path = tmp_path / "schemes.json"
        replay_path.write_text(json.dumps({"Y": {**scheme, **fields}}))
        code, out, err = run(capsys, "bins", "--input", ex1_csv, "--replay", str(replay_path))
        assert code == 3
        assert err.startswith("config error: replay file") and "bad scheme for 'Y'" in err
        assert out == ""

    def test_replay_of_its_own_output_skips_the_provenance_keys(self, capsys, tmp_path, ex1_csv):
        scheme_path = tmp_path / "schemes.json"
        code, _, _ = run(
            capsys, "bins", "--input", ex1_csv, "--response", "Y",
            "--covariates", "V1", "--categorize", "V1=categorical",
            "--out", str(scheme_path),
        )
        assert code == 0
        assert {"config_digest", "seed", "Y"} == set(json.loads(scheme_path.read_text()))
        code, out, err = run(capsys, "bins", "--input", ex1_csv, "--replay", str(scheme_path))
        assert (code, err) == (0, "")
        header, *rows = out.strip().split("\n")
        assert header == "Y"
        data = sample(GeneratorSpec("ex1", 4000, seed=2))
        expected = apply_bins(data["Y"], quantile_bins(data["Y"], 10)).labels
        assert [int(r) for r in rows] == expected.tolist()

    def test_replay_bytes_match_the_row_by_row_writer(self, capsys, tmp_path, ex4_csv):
        scheme_path = tmp_path / "schemes.json"
        code, _, _ = run(
            capsys, "bins", "--input", ex4_csv, "--response", "Y", "--covariates", "X1,X2",
            "--categorize", "X2=quantile:12", "--out", str(scheme_path),
        )
        assert code == 0
        code, out, _ = run(capsys, "bins", "--input", ex4_csv, "--replay", str(scheme_path))
        assert code == 0
        data = sample(GeneratorSpec("ex4", 2000, seed=1))
        schemes = json.loads(scheme_path.read_text())
        labeled = {
            c: apply_bins(data[c], BinningScheme.from_json_dict(schemes[c])).labels
            for c in ("X1", "X2", "Y")
        }
        assert out == reference_replay_csv(labeled)

    @pytest.mark.parametrize("labels", ["ab", "01"], ids=["letters", "digits"])
    def test_replay_on_a_categorical_column_is_exit_3(self, capsys, tmp_path, labels):
        path = tmp_path / "g.csv"
        path.write_text("G\n" + "".join(f"{labels[i % 2]}\n" for i in range(8)))
        replay_path = tmp_path / "s.json"
        scheme = quantile_bins(np.arange(8.0), 1).to_json_dict()
        replay_path.write_text(json.dumps({"G": scheme}))
        code, out, err = run(
            capsys, "bins", "--input", str(path), "--replay", str(replay_path),
            "--categorize", "G=categorical",
        )
        assert code == 3
        assert err == (
            "config error: bins --replay reads only --input, --config and --out, "
            "not ['--categorize']\n"
        )
        assert out == ""

    def test_replay_on_a_text_column_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("G\n" + "".join(f"{'ab'[i % 2]}\n" for i in range(8)))
        replay_path = tmp_path / "s.json"
        replay_path.write_text(json.dumps({"G": quantile_bins(np.arange(8.0), 1).to_json_dict()}))
        code, out, err = run(capsys, "bins", "--input", str(path), "--replay", str(replay_path))
        assert (code, out) == (2, "")
        assert err == (
            f"data error: {path}: row 1, column 'G': cannot parse 'a' as a finite number\n"
        )

    @pytest.mark.parametrize(
        "flag, value",
        [("--response", "Nope"), ("--covariates", "Zip"), ("--categorize", "X=kmeans:5"),
         ("--seed", "9")],
    )
    def test_replay_refuses_a_flag_it_does_not_read_before_reading(self, capsys, flag, value):
        code, out, err = run(
            capsys, "bins", "--input", "/no/such/file.csv", "--replay", "/no/such/s.json",
            flag, value,
        )
        assert (code, out) == (3, "")
        assert err == (
            f"config error: bins --replay reads only --input, --config and --out, not ['{flag}']\n"
        )

    def test_replay_drops_the_config_keys_it_does_not_read(self, capsys, tmp_path, ex4_csv):
        scheme_path = tmp_path / "schemes.json"
        scheme_path.write_text(json.dumps({"X1": {"edges": [0.2, 0.5, 0.8]}}))
        shared = tmp_path / "cfg.json"
        shared.write_text(json.dumps(
            {"response": "Nope", "covariates": ["Zip"], "seed": 9,
             "categorize": {"X1": "categorical"}}
        ))
        argv = ("bins", "--input", ex4_csv, "--replay", str(scheme_path))
        code, out, err = run(capsys, *argv, "--config", str(shared))
        assert (code, err) == (0, "")
        assert out.startswith("X1\n") and out == run(capsys, *argv)[1]

    def test_replay_of_a_column_the_csv_lacks_is_exit_2(self, capsys, tmp_path, ex1_csv):
        replay_path = tmp_path / "z.json"
        scheme = quantile_bins(np.arange(50.0), 10).to_json_dict()
        replay_path.write_text(json.dumps({"Z": scheme}))
        code, out, err = run(capsys, "bins", "--input", ex1_csv, "--replay", str(replay_path))
        assert code == 2
        assert err.startswith("data error:") and "'Z'" in err
        assert out == ""

    @pytest.mark.parametrize(
        "content",
        [None, "{not json", "[1, 2]", "{}", '{"Y": {"edges": [1, 0]}}'],
        ids=["missing", "not-json", "not-an-object", "no-schemes", "bad-scheme"],
    )
    def test_unusable_replay_file_is_exit_3(self, capsys, tmp_path, ex1_csv, content):
        replay_path = tmp_path / "schemes.json"
        if content is not None:
            replay_path.write_text(content)
        code, out, err = run(capsys, "bins", "--input", ex1_csv, "--replay", str(replay_path))
        assert code == 3
        assert err.startswith("config error:") and "replay file" in err
        assert out == ""


class TestGridCommand:
    def test_small_grid(self, capsys, tmp_path):
        path = tmp_path / "ex3.csv"
        assert main(
            ["simulate", "--example", "ex3_fullsine", "--n", "3000", "--seed", "3",
             "--out", str(path)]
        ) == 0
        code, out, _ = run(
            capsys, "grid", "--input", str(path), "--response", "Y",
            "--covariates", "X", "--y-ladder", "12", "--x-ladder", "12",
            "--replicates", "200", "--seed", "6",
        )
        assert code == 0
        row = out.strip().split("\n")[2].split("\t")
        assert row[:2] == ["12", "12"]
        assert row[5] == "confirmed"

    def test_bad_ladder_is_config_error(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("Y,X\n1,2\n3,4\n5,6\n")
        code, _, _ = run(
            capsys, "grid", "--input", str(path), "--response", "Y",
            "--covariates", "X", "--y-ladder", "two",
        )
        assert code == 3

    @pytest.mark.parametrize("ladder", [("--y-ladder", "0"), ("--x-ladder", "3,4")])
    def test_ladder_outside_one_to_n_is_config_error(self, capsys, tmp_path, ladder):
        path = tmp_path / "d.csv"
        path.write_text("Y,X\n1,2\n3,4\n5,6\n")
        code, _, err = run(
            capsys, "grid", "--input", str(path), "--response", "Y",
            "--covariates", "X", "--y-ladder", "2", "--x-ladder", "2", *ladder,
        )
        assert code == 3
        assert err.startswith("config error: ladder values")

    @pytest.mark.parametrize("directive", ["Y=quantile:3", "X=kmeans:4"])
    def test_directive_grid_would_ignore_is_exit_3_before_reading(
        self, capsys, tmp_path, directive
    ):
        code, out, err = run(
            capsys, "grid", "--input", str(tmp_path / "missing.csv"), "--response", "Y",
            "--covariates", "X", "--categorize", directive,
        )
        assert code == 3
        assert err == f"config error: ceda: unrecognized arguments: --categorize {directive}\n"
        assert out == ""


@pytest.fixture(scope="module")
def ex4_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ex4.csv"
    assert main(
        ["simulate", "--example", "ex4", "--n", "2000", "--seed", "1", "--out", str(path)]
    ) == 0
    return str(path)


class TestSelectCommand:
    def test_names_the_planted_factors(self, capsys, tmp_path):
        path = tmp_path / "ex4.csv"
        assert main(
            ["simulate", "--example", "ex4", "--n", "10000", "--seed", "1",
             "--out", str(path)]
        ) == 0
        code, out, _ = run(
            capsys, "select", "--input", str(path), "--response", "Y",
            "--covariates", "X1,X2,X3,X4", "--seed", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["chief"] == ["X1"]
        assert payload["interactions"] == [["X2", "X3"]]
        assert payload["config_digest"]
        assert "ledger_tsv" in payload

    def test_tsv_alternative_lines_are_the_json_alternatives(self, capsys, tmp_path):
        path = tmp_path / "ex6.csv"
        assert main(
            ["simulate", "--example", "ex6", "--n", "2000", "--seed", "1", "--out", str(path)]
        ) == 0
        argv = (
            "select", "--input", str(path), "--response", "Y",
            "--covariates", ",".join(f"X{i}" for i in range(1, 11)), "--noise", "X7,X8,X9,X10",
            "--seed", "1", "--replicates", "150",
        )
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["alternatives"] == [["X4", "X5", "X6"]]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = [line.split("\t") for line in out.splitlines() if line.startswith("alternative\t")]
        assert lines == [["alternative", "X4 X5 X6"]]

    def test_thread_count_changes_neither_work_nor_report(self, capsys, ex4_csv, monkeypatch):
        calls = count_fusion_calls(monkeypatch)
        seen = []
        for threads in ("1", "2"):
            calls.clear()
            code, out, _ = run(
                capsys, "select", "--input", ex4_csv, "--response", "Y",
                "--covariates", "X1,X2,X3,X4", "--seed", "1", "--replicates", "50",
                "--threads", threads, "--format", "json",
            )
            assert code == 0
            seen.append((dict(calls), out))
        assert seen[0][0]["crosstab"] > 0 and seen[0][0]["product_categories"] > 0
        assert seen[1] == seen[0]

    def test_each_mi_null_band_is_computed_once(self, capsys, ex4_csv, monkeypatch):
        calls = []
        original = ceda.nullsim.null_band

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(ceda.nullsim, "null_band", counting)
        code, out, _ = run(
            capsys, "select", "--input", ex4_csv, "--response", "Y",
            "--covariates", "X1,X2,X3,X4", "--seed", "1", "--replicates", "50",
            "--format", "json",
        )
        assert code == 0
        rows = [line.split("\t") for line in json.loads(out)["ledger_tsv"].splitlines()[1:]]
        reliable = [row for row in rows if row[-1] not in ("", "unreliable")]
        # the ledger's verdicts cover every singleton, so selection adds none
        assert {row[0] for row in reliable} == {"1", "2"}
        assert len(calls) == len(reliable)

    def test_each_conditional_entropy_is_computed_once(self, capsys, ex4_csv, monkeypatch):
        calls = []
        original = ceda.protocol.conditional_entropy

        def counting(table):
            calls.append(table.rows)
            return original(table)

        monkeypatch.setattr(ceda.protocol, "conditional_entropy", counting)
        code, _, _ = run(
            capsys, "select", "--input", ex4_csv, "--response", "Y",
            "--covariates", "X1,X2,X3,X4", "--noise", "X3,X4", "--seed", "1",
            "--replicates", "20", "--threads", "2",
        )
        assert code == 0
        # one call for each of the ledger's ten subsets, read again by noise levels and
        # selection; X4's padding by X3 reads the ledger's own (X3, X4) entry
        assert len(calls) == 10


@pytest.mark.parametrize(
    "command",
    [
        ("null", "--covariates", "X1,X2,X3", "--subsets", "X1,X2+X3"),
        ("grid", "--covariates", "X1", "--y-ladder", "4,6", "--x-ladder", "4,6"),
        ("select", "--covariates", "X1,X2,X3,X4"),
    ],
    ids=lambda command: command[0],
)
@pytest.mark.parametrize("out_format", ["tsv", "json"])
def test_report_bytes_do_not_depend_on_thread_count(capsys, ex4_csv, command, out_format):
    outs = []
    for threads in ("1", "3"):
        code, out, _ = run(
            capsys, command[0], "--input", ex4_csv, "--response", "Y", *command[1:],
            "--seed", "1", "--replicates", "50", "--threads", threads,
            "--format", out_format,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


CELLS = {
    "spread": lambda i: f"{(i * 7919) % 13 / 3:.3f}",
    "few": lambda i: str(i % 3),
    "constant": lambda i: "5",
    "labels": lambda i: "ab"[i % 2],
}
BAD_CELLS = ("nan", "inf", "-inf", "", "abc")
# cells that leave the CSV undecodable or unparseable: a byte that is not UTF-8
# (a lone surrogate, written as 0xff through "surrogateescape") and a field one
# character past the csv module's size limit
RAW_CELLS = ("\udcff", "7" * (csv.field_size_limit() + 1))
# JSON nested this deep is past any recursion limit of the decoder
DEEP = 100_000
# flag: (values in range or at a bound, values past a bound)
FLAGS = {
    "--replicates": (["2", "5", "20"], ["0", "1", "abc", "1.5"]),
    "--max-order": (["1", "2"], ["0", "3", "abc", "1.5"]),
    "--threads": (["1", "2"], ["0", "abc", "1.5"]),
    "--r-int": (["3", "0.5"], ["nan", "-1", "0", "inf", "x"]),
    "--cell-floor": (["0", "1"], ["-1", "nan", "x"]),
    "--seed": (["0", "1", "12345678901234567890"], ["-1", "-7", "abc", "1.5"]),
    "--n": (["1", "2", "30"], ["0", "-3", "abc", "1.5"]),
    "--y-ladder": (["1", "2", "1,3"], ["0", "two", "31"]),
    "--x-ladder": (["1", "2", "1,3"], ["0", "two", "31"]),
    "--noise": (["X2"], ["Z9", "Y", "X2,X2"]),
    "--subsets": (["X1", "X1+X2"], ["X1+X1", "Z9", ","]),
    "--categorize": (
        ["quantile:1", "quantile:3", "kmeans:1", "kmeans:3", "categorical"],
        ["quantile:400", "kmeans:400", "quantile:0"],
    ),
}


# JSON values of every kind, for config keys and scheme fields
AWKWARD = st.one_of(
    st.text(max_size=4),
    st.floats(),
    st.booleans(),
    st.none(),
    st.integers(-2, 5),
    st.lists(st.one_of(st.integers(0, 3), st.floats(0, 1), st.text(max_size=2)), max_size=3),
    st.just([["X1"]]),
    st.just({"X1": 1}),
)
CONFIG_VALUES = {
    "max_order": [1, 2],
    "replicates": [2, 5],
    "seed": [0, 1],
    "threads": [1, 2],
    "r_int": [3, 0.5],
    "cell_floor": [0, 1.0],
    "input": ["", "no/such.csv"],
    "format": ["tsv", "json"],
    "response": ["Y", ["Y"]],
    "covariates": ["X1,X2", ["X1"]],
    "noise_features": ["X2", []],
}
DIRECTIVES = [
    "quantile:3", "kmeans:2", "categorical", ["quantile", 3], ["kmeans", 2], ["categorical", 0],
    "quantile:0", ["quantile", "3"], ["bogus", 3], ["quantile", 0], ["quantile", 1.5],
]


@st.composite
def config_files(draw):
    """A JSON config file whose keys hold well-formed or awkward values, or deep nesting."""
    if draw(st.integers(0, 19)) == 19:
        return "[" * DEEP + "]" * DEEP
    cfg = {}
    for key, good in CONFIG_VALUES.items():
        if draw(st.integers(0, 3)) == 3:
            cfg[key] = draw(st.sampled_from(good) if draw(st.integers(0, 2)) else AWKWARD)
    if draw(st.booleans()):
        cfg["categorize"] = draw(
            st.dictionaries(
                st.sampled_from(["Y", "X1", "X2", "Z"]),
                st.one_of(st.sampled_from(DIRECTIVES), AWKWARD),
                max_size=3,
            )
            if draw(st.integers(0, 9))
            else AWKWARD
        )
    return json.dumps(cfg)


@st.composite
def replay_files(draw):
    """A JSON scheme file for ``bins --replay`` whose schemes may have malformed fields."""
    edges = st.one_of(
        st.just([0.5, 1.5]),
        st.sampled_from([[[0.1], [0.2]], [], [1.5, 0.5], [0.1, None], [0.5, 1.5, 2.5]]),
        AWKWARD,
    )
    schemes = {}
    for column in draw(st.lists(st.sampled_from(["Y", "X1", "Z"]), min_size=1, max_size=2)):
        scheme = {"edges": [0.5, 1.5], "low_q": 0.05, "high_q": 0.95, "k_interior": 1}
        for key, bad in (("edges", edges), ("low_q", AWKWARD), ("high_q", AWKWARD),
                         ("k_interior", AWKWARD)):
            if draw(st.integers(0, 3)) == 3:
                scheme[key] = draw(bad)
        if draw(st.integers(0, 9)) == 9:
            del scheme[draw(st.sampled_from(sorted(scheme)))]
        schemes[column] = scheme if draw(st.integers(0, 9)) else draw(AWKWARD)
    return json.dumps(schemes)


COMMANDS = ("simulate", "bins", "measure", "null", "grid", "select")


def common_flags(command):
    """The common flags ``command`` takes, in the settings table's order."""
    return [flag for flag, _, _, commands, _ in _SETTING_TABLE if command in commands]


@st.composite
def cli_runs(draw):
    """A small CSV with awkward columns, one command with flags at or past their bounds,
    and the contents of the JSON files it reads (``--config``, ``bins --replay``).

    The command gets only the common flags it reads, and directives only for the columns
    it names, but 1 draw in 10 adds a flag it does not read, which is returned as well
    (None when there is none), and 1 in 10 adds a directive for column Z, which none
    names (the last item, a bool).
    """

    def value(flag):
        good, bad = FLAGS[flag]
        return draw(st.sampled_from(bad if draw(st.integers(0, 9)) == 9 else good))

    n = draw(st.integers(1, 30))
    header = ["Y", "X1", "X2"]
    if draw(st.integers(0, 9)) == 9:
        header[2] = "X1"
    columns = []
    for _ in header:
        kind = draw(st.sampled_from(["spread"] * 4 + ["few", "constant", "labels"]))
        cells = [CELLS[kind](i) for i in range(n)]
        if draw(st.integers(0, 9)) == 9:
            cells[draw(st.integers(0, n - 1))] = draw(st.sampled_from(BAD_CELLS + RAW_CELLS))
        columns.append(cells)
    text = ",".join(header) + "\n" + "".join(",".join(row) + "\n" for row in zip(*columns))

    command = draw(st.sampled_from(["measure", "null", "bins", "select", "grid", "simulate"]))
    reads = common_flags(command)
    seed = ["--seed", value("--seed")] if draw(st.booleans()) else []
    files = {}
    if draw(st.booleans()):
        files["--config"] = draw(config_files())
    stray = False
    if command == "simulate":
        example = draw(st.sampled_from(EXAMPLE_IDS))
        argv = ["simulate", "--example", example, "--n", value("--n"), *seed]
    elif command == "bins" and draw(st.booleans()):  # the replay file names the columns
        files["--replay"] = draw(replay_files())
        reads = ["--input", "--config", "--out"]
        argv = ["bins"]
    else:
        roles = [("Y", "X1,X2")] * 3 + [
            ("Y", "X1"), ("Y,X2", "X1"), ("Y", "X1,Y"), ("Y", "X1,X1"), ("Y,Y", "X1"),
        ]
        if command == "grid":
            roles = [("Y", "X1")] * 3 + roles
        roles = draw(st.sampled_from(roles))
        argv = [command, "--response", roles[0], "--covariates", roles[1], *seed]
        if command == "grid":
            argv += ["--y-ladder", value("--y-ladder"), "--x-ladder", value("--x-ladder")]
        if "--replicates" in reads:
            argv += ["--replicates", value("--replicates")]
        if "--categorize" in reads:
            named = dict.fromkeys(",".join(roles).split(","))
            directives = [f"{c}={value('--categorize')}" for c in named if draw(st.booleans())]
            stray = draw(st.integers(0, 9)) == 9
            if stray:
                directives.append(f"Z={value('--categorize')}")
            if directives:
                argv += ["--categorize", ",".join(directives)]
        for flag in ("--max-order", "--threads", "--r-int", "--cell-floor", "--noise", "--subsets"):
            if (flag in reads or flag == "--subsets" and command in ("measure", "null")) and (
                draw(st.booleans())
            ):
                argv += [flag, value(flag)]
        if "--format" in reads:
            argv += ["--format", draw(st.sampled_from(["tsv", "json"]))]
    unread = [flag for flag in common_flags("select") if flag not in reads]
    if unread and draw(st.integers(0, 9)) == 9:
        flag = draw(st.sampled_from(unread))
        return text, [*argv, flag, value(flag) if flag in FLAGS else "X1"], files, flag, stray
    return text, argv, files, None, stray


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_runs())
def test_exit_code_contract(tmp_path_factory, run_case):
    """Every input ends in exit 0 with a parseable report, 2 or 3; never in a traceback.
    A flag the command does not read is a usage error, and a directive for a column it
    does not read a settings error: exit 3, in one line."""
    text, argv, files, unread, stray = run_case
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "d.csv").write_bytes(text.encode("utf-8", "surrogateescape"))
    paths = ["--input", str(folder / "d.csv")] if "--input" in common_flags(argv[0]) else []
    for flag, content in files.items():
        (folder / f"{flag[2:]}.json").write_text(content)
        paths += [flag, str(folder / f"{flag[2:]}.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, *paths])
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if unread:
        assert (code, out.getvalue()) == (3, "")
        # a flag value of the wrong type is a usage error too, and argparse reports it first
        pattern = rf"ceda.*(unrecognized arguments: {unread} |: invalid ).*"
        if "--replay" in files:  # a flag `bins` takes and its replay does not read
            pattern += rf"|bins --replay reads only .*, not \['{unread}'\]"
        assert re.fullmatch(rf"config error: ({pattern})\n", err.getvalue())
    elif stray:
        assert (code, out.getvalue()) == (3, "")
        assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1
    elif code == 0:
        report = out.getvalue()
        if "--replay" in files:
            assert report.splitlines()[0].split(",") == list(json.loads(files["--replay"]))
        elif argv[0] == "simulate":
            assert len(report.splitlines()) == 1 + int(argv[argv.index("--n") + 1])
        elif argv[0] == "bins" or argv[-1] == "json":
            assert "config_digest" in json.loads(report, parse_constant=reject_constant)
        else:
            assert report.startswith("# config ") and "\t" in report


def test_readme_library_example_runs(capsys):
    """README's ``## Library`` example runs as written and prints its three results."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library\s+```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    mi, status, report = capsys.readouterr().out.splitlines()
    assert float(mi) > 0 and status == "confirmed"
    assert report.startswith("('X1',) ")


def test_readme_names_every_common_flag():
    """README's list under "Each subcommand takes only the common flags it reads" names
    each subcommand's row of the settings table, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"Each subcommand takes only the common flags it reads.*?\n\n(.*?)\n\n",
                      readme, re.S).group(1)
    listed = {
        command: re.findall(r"`(--[\w-]+)", flags)
        for command, flags in re.findall(r"^- `(\w+)`: (.*?)\.$", block, re.S | re.M)
    }
    assert listed == {command: common_flags(command) for command in COMMANDS}


class TestSettingsTable:
    """A subcommand takes the common flags it reads and keeps the config keys it reads."""

    def test_each_parser_holds_its_rows_of_the_table(self):
        own = {"-h", "--help", "--example", "--n", "--replay", "--subsets", "--y-ladder",
               "--x-ladder"}
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        taken = {
            command: [s for a in p._actions for s in a.option_strings if s not in own]
            for command, p in sub.choices.items()
        }
        assert taken == {command: common_flags(command) for command in COMMANDS}
        assert sum(map(len, taken.values())) == 51

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("grid", "--max-order", "9"), ("grid", "--noise", "Q"), ("grid", "--r-int", "7"),
            ("grid", "--cell-floor", "5"), ("simulate", "--format", "json"),
            ("simulate", "--input", "x.csv"), ("simulate", "--max-order", "99"),
            ("measure", "--noise", "ZZ"), ("measure", "--max-order", "99"),
            ("measure", "--r-int", "5"), ("bins", "--format", "tsv"),
            ("grid", "--categorize", "Z=quantile:3"),
        ],
    )
    def test_a_flag_the_subcommand_does_not_read_is_exit_3_before_reading(
        self, capsys, command, flag, value
    ):
        argv = {
            "simulate": ("simulate", "--example", "ex4", "--n", "10"),
            "bins": ("bins", "--input", "/no/such/file.csv"),
            "measure": ("measure", "--input", "/no/such/file.csv", "--response", "Y",
                        "--covariates", "X1"),
            "grid": ("grid", "--input", "/no/such/file.csv", "--response", "Y",
                     "--covariates", "X1", "--y-ladder", "4", "--x-ladder", "4"),
        }[command]
        code, out, err = run(capsys, *argv, flag, value)
        assert (code, out) == (3, "")
        assert err == f"config error: ceda: unrecognized arguments: {flag} {value}\n"

    @pytest.mark.parametrize(
        "content", ['{"max_order": 9, "r_int": 7}', '{"max_order": 0, "cell_floor": -1}'],
        ids=["select-values", "out-of-range"],
    )
    def test_a_config_key_grid_does_not_read_moves_no_byte(
        self, capsys, tmp_path, ex4_csv, content
    ):
        shared = tmp_path / "select.json"
        shared.write_text(content)
        argv = ("grid", "--input", ex4_csv, "--response", "Y", "--covariates", "X1",
                "--y-ladder", "4", "--x-ladder", "4", "--replicates", "20", "--seed", "1")
        code, out, err = run(capsys, *argv, "--config", str(shared))
        assert (code, err) == (0, "")
        assert out.startswith("# config ") and out == run(capsys, *argv)[1]

    @pytest.mark.parametrize(
        "argv, full, kept",
        [
            (("measure", "--response", "Y", "--covariates", "X1"),
             {"X1": "quantile:4", "X2": "kmeans:3", "Z": "categorical"}, {"X1": "quantile:4"}),
            (("grid", "--response", "Y", "--covariates", "X1", "--y-ladder", "4",
              "--x-ladder", "4", "--replicates", "20"),
             {"Y": "quantile:3", "X1": "categorical", "Z": "categorical"}, {}),
        ],
        ids=["measure", "grid"],
    )
    def test_config_directives_for_columns_the_run_does_not_read_move_no_byte(
        self, capsys, tmp_path, ex4_csv, argv, full, kept
    ):
        outs = []
        for directives in (full, kept):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"seed": 2, "categorize": directives}))
            code, out, err = run(capsys, *argv, "--input", ex4_csv, "--config", str(path))
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0].startswith("# config ") and outs[0] == outs[1]

    @pytest.mark.parametrize(
        "flag, content",
        [
            ("--config", '{"seed": 3, "categorize": {"X1": "quantile:4"}}'),
            ("--replay", '{"X1": {"edges": [0.2, 0.5, 0.8]}}'),
        ],
        ids=["config", "replay"],
    )
    def test_a_json_file_may_start_with_a_byte_order_mark(
        self, capsys, tmp_path, ex4_csv, flag, content
    ):
        path = tmp_path / "f.json"
        argv = ("bins", "--input", ex4_csv, flag, str(path))
        path.write_text(content, encoding="utf-8")
        want = run(capsys, *argv)
        path.write_text(content, encoding="utf-8-sig")
        assert run(capsys, *argv) == want
        assert want[0] == 0 and want[1]
