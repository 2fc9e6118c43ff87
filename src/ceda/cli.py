"""Command-line front end: simulate, categorize, measure, test and select.

Subcommands
-----------
simulate  draw one seeded dataset from a built-in generator, as CSV
bins      emit (or replay) 1+K+1 categorization schemes for columns
measure   entropy report for each requested covariate subset
null      null band and confirmability verdict per subset
grid      mutual-information grid over K-means cluster-count ladders
select    full subset ledger plus the major-factor report

Data goes to stdout or ``--out``; progress lines go to stderr.  Exit codes:
0 success, 2 data error (bad input file), 3 configuration or usage error, or
a run that runs out of memory.
"""

from __future__ import annotations

import argparse
import array
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

# OpenBLAS sizes its worker pool once, as numpy loads; a CLI run's only parallelism is --threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from ceda.tabulate import (
    CategoricalSeries,
    crosstab,  # noqa: F401  (unused; bench/test_bench.py expects the tracer to wrap it here)
    entropy_report,
)
from ceda.categorize import BinningScheme, apply_bins, fuse_features, quantile_bins
from ceda.genlab import EXAMPLE_IDS, GeneratorSpec, sample
from ceda.protocol import (
    ProtocolConfig,
    SubsetEvaluator,
    build_ledger,
    check_noise_features,
    check_subset_budget,
    mi_grid,
    select_major_factors,
)

__all__ = ["ConfigError", "DataError", "RunConfig", "ingest_csv", "main"]


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 3."""


class DataError(Exception):
    """Invalid or unreadable input data; maps to exit code 2."""


# The subcommands, each reading at least the settings the one before it reads, except that
# `grid` reads no directive: it clusters its two columns by K-means at each ladder value
_ALL = ("simulate", "bins", "measure", "null", "grid", "select")
_DATA, _REPORTS, _BANDS = _ALL[1:], _ALL[2:], _ALL[3:]

# One row per common setting: flag, dest, value form, the subcommands that read it (`bins`
# prints the seed) and the rest of its argparse arguments.  The dest is also the setting's
# config-file key, unless the form is None: a flag that no config file sets.  A subcommand
# takes only its flags, and keeps only their keys.
_SETTING_TABLE = (
    ("--input", "input", "text", _DATA, {"help": "input CSV path"}),
    ("--config", "config", None, _ALL, {"help": "JSON config file"}),
    ("--response", "response", "names", _DATA, {"help": "comma-separated response column(s)"}),
    ("--covariates", "covariates", "names", _DATA, {"help": "comma-separated covariate columns"}),
    (
        "--categorize", "categorize", "directives", ("bins", "measure", "null", "select"),
        {"help": "per-column directives, e.g. Y=quantile:10,X1=kmeans:12,G=categorical"},
    ),
    (
        "--noise", "noise_features", "names", ("select",),
        {"help": "comma-separated designated noise columns"},
    ),
    ("--max-order", "max_order", "integer", ("select",), {}),
    ("--replicates", "replicates", "integer", _BANDS, {}),
    ("--seed", "seed", "integer", _ALL, {}),
    ("--threads", "threads", "integer", _BANDS, {}),
    ("--r-int", "r_int", "number", ("select",), {}),
    ("--cell-floor", "cell_floor", "number", ("select",), {}),
    ("--format", "format", "text", _REPORTS, {"choices": ("tsv", "json")}),
    ("--out", "out", None, _ALL, {"help": "write data here instead of stdout"}),
)

# A config value's form: what the error names, and whether the JSON value has it
_FORMS = {
    "text": ("a string", lambda v: isinstance(v, str)),
    "names": (
        "comma-separated text or a list of names",
        lambda v: isinstance(v, str) or isinstance(v, list) and all(isinstance(c, str) for c in v),
    ),
    "integer": ("an integer", lambda v: type(v) is int),
    "number": ("a number", lambda v: type(v) in (int, float)),
    "directives": ("an object mapping columns to directives", lambda v: isinstance(v, dict)),
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one run, hashable into a provenance digest."""

    input_path: str | None = None
    response: tuple = ()
    covariates: tuple = ()
    categorize: dict = field(default_factory=dict)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    out_format: str = "tsv"

    def __post_init__(self):
        if self.out_format not in ("tsv", "json"):
            raise ConfigError(f"unknown output format {self.out_format!r}")
        for role in ("response", "covariates"):
            names = getattr(self, role)
            if len(set(names)) < len(names):
                raise ConfigError(f"{role} names a column more than once: {list(names)}")
        overlap = set(self.response) & set(self.covariates)
        if overlap:
            raise ConfigError(
                f"columns cannot be both response and covariate: {sorted(overlap)}"
            )

    def directive(self, col: str) -> tuple:
        """The column's ``(method, k)``: ``("quantile", 10)`` unless it has its own."""
        return self.categorize.get(col, ("quantile", 10))

    def directive_text(self, col: str) -> str:
        """The column's directive as typed: ``categorical`` or ``METHOD:K``."""
        method, k = self.directive(col)
        return method if method == "categorical" else f"{method}:{k}"

    def digest(self) -> str:
        fields = ("max_order", "replicates", "seed", "r_int", "cell_floor")
        protocol = {n: getattr(self.protocol, n) for n in fields}
        blob = json.dumps(
            {
                "input": self.input_path,
                "response": list(self.response),
                "covariates": list(self.covariates),
                "categorize": {k: list(v) for k, v in sorted(self.categorize.items())},
                "noise": list(self.protocol.noise_features),
                **protocol,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parse_directive(col: str, spec) -> tuple:
    """One column's categorization: "categorical", "METHOD:K" or a [METHOD, K] pair.

    METHOD is quantile or kmeans and K a whole number >= 1; the pair is the
    parsed form, so ["categorical", 0] stands for "categorical".  Anything
    else is a ConfigError.
    """
    if (
        isinstance(spec, list)
        and len(spec) == 2
        and isinstance(spec[0], str)
        and type(spec[1]) is int
    ):
        spec = "categorical" if spec == ["categorical", 0] else f"{spec[0]}:{spec[1]}"
    if not isinstance(spec, str):
        raise ConfigError(f"bad categorization directive for {col!r}: {spec!r}")
    item = f"{col}={spec}"
    if spec == "categorical":
        return ("categorical", 0)
    if ":" not in spec:
        raise ConfigError(f"bad categorization directive {item!r}")
    method, k_text = spec.split(":", 1)
    if method not in ("quantile", "kmeans"):
        raise ConfigError(f"unknown categorization method {method!r}")
    try:
        k = int(k_text)
    except ValueError as exc:
        raise ConfigError(f"bad bin count in {item!r}") from exc
    if k < 1:
        raise ConfigError(f"bin count must be >= 1 in {item!r}")
    return (method, k)


def _parse_categorize(text: str | None) -> dict:
    """Parse "COL=quantile:10,COL2=kmeans:12,COL3=categorical" directives."""
    out: dict = {}
    if not text:
        return out
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"bad categorization directive {item!r}")
        col, spec = item.split("=", 1)
        col = col.strip()
        if col in out:
            raise ConfigError(f"categorize names a column more than once: {col!r}")
        out[col] = _parse_directive(col, spec)
    return out


def _load_json_object(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is skipped
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # undecodable bytes, bad or too-deep JSON
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must hold a JSON object")
    return obj


def _check_config_file(cfg: dict) -> dict:
    """The config file's settings with each value checked against its key's form.

    A key's form is its ``_SETTING_TABLE`` row's: ``text`` is a string, ``names``
    comma-separated text or a list of names, ``integer`` a whole JSON number, ``number``
    any JSON number (never a bool) and ``directives`` an object mapping columns to
    ``_parse_directive``'s forms.  Every key in the table is checked, read by the running
    subcommand or not, because one file may serve several; other keys are dropped.  A
    value of the wrong form is a ConfigError.
    """

    def bad(key, want):
        return ConfigError(f"bad config value: {key!r} must be {want}, got {cfg[key]!r}")

    out = {}
    for _, key, form, _, _ in _SETTING_TABLE:
        if form is None or key not in cfg:
            continue
        value = cfg[key]
        want, fits = _FORMS[form]
        if not fits(value):
            raise bad(key, want)
        if form == "number":
            try:  # stored as a float, as the flag gives it, so the digest is the same
                value = float(value)
            except OverflowError:
                raise bad(key, "a number in double range") from None
        elif form == "directives":
            try:
                value = {col: _parse_directive(col, spec) for col, spec in value.items()}
            except ConfigError as exc:
                raise ConfigError(f"bad config value: {key}: {exc}") from None
        out[key] = value
    return out


def build_run_config(args) -> RunConfig:
    """The settings ``args.command`` reads: the config file's, each overridden by its flag
    where one is given.  The file's keys the subcommand does not read, and its directives
    for columns the run does not read, are dropped once their form is checked, so they
    reach no range check and no digest; given as flags, they are a ConfigError."""
    read = {key for _, key, form, cmds, _ in _SETTING_TABLE if form and args.command in cmds}
    flags = {k: v for k, v in vars(args).items() if k in read and v is not None}
    if getattr(args, "replay", None):  # the replay file names the columns and their bins
        read = {"input"}
        given = [flag for flag, key, *_ in _SETTING_TABLE if key in flags.keys() - read]
        if given:
            raise ConfigError(f"bins --replay reads only --input, --config and --out, not {given}")
    file = _check_config_file(_load_json_object(args.config, "config file")) if args.config else {}
    settings = {k: v for k, v in file.items() if k in read}
    directives = _parse_categorize(flags.pop("categorize", None))
    settings.update(flags)
    for role in ("response", "covariates", "noise_features"):  # text or a list of names
        v = settings.get(role, "")
        settings[role] = tuple([c for c in v.split(",") if c] if isinstance(v, str) else v)
    named = settings["response"] + settings["covariates"]  # none named: `bins` reads every one
    stray = [c for c in directives if named and c not in named]
    if stray:
        raise ConfigError(f"--categorize names columns the run does not read: {stray}")
    file_directives = settings.get("categorize", {}).items()
    settings["categorize"] = {c: d for c, d in file_directives if not named or c in named}
    settings["categorize"].update(directives)
    fields = {k: settings.pop(k) for k in ("response", "covariates", "categorize")}
    fields.update(input_path=settings.pop("input", None), out_format=settings.pop("format", "tsv"))
    try:  # what is left is the protocol's
        protocol = ProtocolConfig(**settings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config = RunConfig(protocol=protocol, **fields)
    if "input" in read and not config.input_path:
        raise ConfigError(f"{args.command} requires --input")
    return config


def ingest_csv(path: str, config: RunConfig) -> dict[str, np.ndarray]:
    """Read a UTF-8 header CSV into named columns with role-aware parsing, row by row.

    A leading byte-order mark is skipped, so it is not part of the first column's name.
    Only the named columns are kept (every column when none is named).
    Columns categorized as "categorical" keep their string labels, as an
    object array; every other requested column is parsed by ``float`` (so
    ``1_000`` and a full-width ``２`` are numbers too), must be finite, and is
    stored as float64 while reading.  Errors name the offending data
    row (1-based, excluding the header) and column.  The whole file is read
    before a header or row fault is raised, so a fault reading the file
    anywhere comes first.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            try:
                return _read_columns(path, header, reader, config)
            except DataError:
                for _ in reader:  # a read fault further on outranks this one
                    pass
                raise
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_columns(path: str, header: list, reader, config: RunConfig) -> dict[str, np.ndarray]:
    """The wanted columns of ``reader``'s rows; the first header or row fault is a DataError."""
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate column names in header")
    wanted = list(config.response) + list(config.covariates) or header
    missing = [c for c in wanted if c not in header]
    if missing:
        raise DataError(f"{path}: missing columns {missing}")
    columns = {
        c: [] if config.directive(c)[0] == "categorical" else array.array("d") for c in wanted
    }
    fields = [(c, header.index(c), columns[c], type(columns[c]) is list) for c in wanted]
    labels: dict[str, str] = {}  # one string object per distinct categorical label
    n_fields = len(header)
    i = 0
    for i, row in enumerate(reader, start=1):
        if len(row) != n_fields:
            raise DataError(f"{path}: row {i} has {len(row)} fields, expected {n_fields}")
        for c, j, column, categorical in fields:
            token = row[j]
            if categorical:
                column.append(labels.setdefault(token, token))
                continue
            try:
                value = float(token)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataError(
                    f"{path}: row {i}, column {c!r}: cannot parse {token!r} as a finite number"
                )
            column.append(value)
    if not i:
        raise DataError(f"{path}: no data rows")
    return {
        c: np.array(v, dtype=object) if type(v) is list else np.frombuffer(v)
        for c, v in columns.items()
    }


def _quantile_scheme(name: str, values: np.ndarray, k: int) -> BinningScheme:
    """The column's 1+K+1 scheme; a column that cannot be binned is a DataError."""
    try:
        return quantile_bins(values, k)
    except ValueError as exc:
        raise DataError(f"column {name!r}: {exc}") from exc


def _categorize_column(name: str, values: np.ndarray, config: RunConfig) -> CategoricalSeries:
    method, k = config.directive(name)
    if method == "categorical":
        # codes in string order, as np.unique sorts labels
        codes = {label: code for code, label in enumerate(sorted(set(values)))}
        labels = np.fromiter(map(codes.__getitem__, values), dtype=np.int64, count=len(values))
        return CategoricalSeries(labels=labels, cardinality=len(codes))
    if method == "kmeans":
        return _kmeans_series(name, values, k, config)
    return apply_bins(values, _quantile_scheme(name, values, k))


def _kmeans_series(name: str, values: np.ndarray, k: int, config: RunConfig) -> CategoricalSeries:
    if k > len(values):
        raise ConfigError(
            f"column {name!r}: kmeans:{k} asks for more clusters than the {len(values)} rows"
        )
    return fuse_features(values, k, seed=config.protocol.seed, sort_centroids=True)


def _build_series(data, config: RunConfig):
    """Categorized response + covariate series from raw columns."""
    if len(config.response) == 1:
        response = _categorize_column(config.response[0], data[config.response[0]], config)
    else:
        # multi-column response: K-means fusion on the stacked coordinates
        block = np.column_stack([data[c] for c in config.response])
        k = config.directive(config.response[0])[1]
        response = _kmeans_series(",".join(config.response), block, k, config)
    covs = {c: _categorize_column(c, data[c], config) for c in config.covariates}
    return covs, response


def _parse_subsets(text: str | None, config: RunConfig) -> list[tuple]:
    """``--subsets`` entries as typed, each ``+`` entry a feature set; none given: singletons."""
    if text is None:
        return [(c,) for c in config.covariates]
    subsets = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        parts = tuple(p.strip() for p in item.split("+"))
        unknown = [p for p in parts if p not in config.covariates]
        if unknown:
            raise ConfigError(f"subset names unknown covariates {unknown}")
        if len(set(parts)) < len(parts):
            raise ConfigError(f"subset {item!r} names a covariate more than once")
        subsets.append(parts)
    if not subsets:
        raise ConfigError("--subsets names no subset")
    return subsets


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_csv(columns: dict, out_path: str | None):
    """Write named columns as CSV: integers as they are, floats to 17 significant digits."""
    cells = [
        map(str if np.issubdtype(col.dtype, np.integer) else "{:.17g}".format, col.tolist())
        for col in columns.values()
    ]
    _emit("\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n", out_path)


def _provenance(config: RunConfig) -> dict:
    return {"config_digest": config.digest(), "seed": config.protocol.seed}


def ledger_to_tsv(entries) -> str:
    lines = [
        "order\tsubset\tce\tce_drop\tsce_drop\tsce_star_drop\trows\tavg_cell\tc1_status"
    ]
    for e in entries:
        star = "" if e.sce_star_drop is None else f"{e.sce_star_drop:.6f}"
        status = "unreliable" if e.c1 is None else e.c1.status
        lines.append(
            f"{e.order}\t{'_'.join(str(f) for f in e.subset)}\t{e.ce:.6f}\t"
            f"{e.ce_drop:.6f}\t{e.sce_drop:.6f}\t{star}\t{e.table_rows}\t"
            f"{e.avg_cell:.4f}\t{status}"
        )
    return "\n".join(lines) + "\n"


def _write_report(config: RunConfig, out_path: str | None, fields: dict, tsv_lines: list):
    """Write a report in the configured format, headed by the run's provenance.

    JSON is the provenance object extended by ``fields``; TSV is a
    ``# config DIGEST seed SEED`` comment line followed by ``tsv_lines``.
    """
    if config.out_format == "json":
        text = json.dumps({**_provenance(config), **fields}, indent=2)
    else:
        text = "\n".join([f"# config {config.digest()} seed {config.protocol.seed}", *tsv_lines])
    _emit(text + "\n", out_path)


def _log(msg: str):
    print(msg, file=sys.stderr)


def _series_config(args) -> RunConfig:
    """The run's config, with the roles ``_build_series`` needs checked before any data is read."""
    config = build_run_config(args)
    if not config.response:
        raise ConfigError("no response column named (use --response)")
    if not config.covariates:
        raise ConfigError("no covariate columns named (use --covariates)")
    if len(config.response) > 1:  # fused by K-means, with k from the first column's directive
        first, *rest = config.response
        if config.categorize.get(first, ("kmeans",))[0] != "kmeans" or any(
            c in config.categorize for c in rest
        ):
            raise ConfigError(
                f"response {','.join(config.response)}: a multi-column response takes one "
                f"directive, kmeans:K, on its first column {first!r}"
            )
    return config


def _load(config: RunConfig) -> SubsetEvaluator:
    """The evaluator of the run's series, read from ``--input``."""
    covs, response = _build_series(ingest_csv(config.input_path, config), config)
    return SubsetEvaluator(covs, response, config.protocol)


def cmd_simulate(args) -> int:
    config = build_run_config(args)
    try:
        spec = GeneratorSpec(example_id=args.example, n=args.n, seed=config.protocol.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    data = sample(spec)
    _emit_csv(data, args.out)
    _log(f"simulate {args.example}: {len(next(iter(data.values())))} rows, seed {spec.seed}")
    return 0


def cmd_bins(args) -> int:
    config = build_run_config(args)
    if args.replay:
        # a file `bins` wrote heads its schemes with the provenance keys
        provenance = _provenance(config)
        schemes = {
            c: s
            for c, s in _load_json_object(args.replay, "replay file").items()
            if c not in provenance
        }
        if not schemes:
            raise ConfigError(f"replay file {args.replay} holds no schemes")
        for c, s in schemes.items():
            try:
                schemes[c] = BinningScheme.from_json_dict(s)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(
                    f"replay file {args.replay}: bad scheme for {c!r}: {exc}"
                ) from exc
        # read exactly the scheme's columns: a column the CSV lacks is a data error
        data = ingest_csv(config.input_path, replace(config, covariates=tuple(schemes)))
        _emit_csv({c: apply_bins(data[c], s).labels for c, s in schemes.items()}, args.out)
        return 0
    data = ingest_csv(config.input_path, config)
    out = dict(_provenance(config))
    targets = list(config.covariates) + list(config.response) or list(data)
    for c in targets:
        method, k = config.directive(c)
        if method != "quantile":
            # stdout and exit 0 stay as they are, so a config file shared with select still works
            _log(f"bins: skipped {c!r}: its directive {config.directive_text(c)} is not quantile")
            continue
        out[c] = _quantile_scheme(c, data[c], k).to_json_dict()
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return 0


def cmd_measure(args) -> int:
    config = _series_config(args)
    subsets = _parse_subsets(args.subsets, config)
    evaluator = _load(config)
    reports = [(s, entropy_report(evaluator.table(s))) for s in subsets]
    fields = {
        "reports": [{"subset": list(s), **r.to_json_dict(total=evaluator.n)} for s, r in reports]
    }
    lines = ["subset\trows\tcols\th_y\th_y_given_a\tmi"]
    for s, r in reports:
        lines.append(
            f"{'+'.join(s)}\t{r.rows}\t{r.cols}\t{r.h_y:.6f}\t"
            f"{r.h_y_given_a:.6f}\t{r.mutual_info:.6f}"
        )
    _write_report(config, args.out, fields, lines)
    return 0


def cmd_null(args) -> int:
    config = _series_config(args)
    subsets = _parse_subsets(args.subsets, config)
    evaluator = _load(config)
    rows = list(zip(subsets, evaluator.mi_verdicts(subsets)))
    for s, v in rows:
        _log(f"null {'+'.join(s)}: {v.status}")
    fields = {
        "verdicts": [
            {
                "subset": list(s),
                "observed": v.observed,
                "status": v.status,
                "excess_sd": None if not np.isfinite(v.excess_sd) else v.excess_sd,
                "band": v.band.to_json_dict(),
            }
            for s, v in rows
        ]
    }
    lines = ["subset\tobserved\tmean\tsd\tq025\tq975\tstatus\texcess_sd"]
    for s, v in rows:
        b = v.band
        lines.append(
            f"{'+'.join(s)}\t{v.observed:.6f}\t{b.mean:.6f}\t{b.sd:.6f}\t"
            f"{b.q025:.6f}\t{b.q975:.6f}\t{v.status}\t{v.excess_sd:.3f}"
        )
    _write_report(config, args.out, fields, lines)
    return 0


def cmd_grid(args) -> int:
    config = build_run_config(args)
    if len(config.response) != 1 or len(config.covariates) != 1:
        raise ConfigError("grid needs exactly one response and one covariate column")
    try:
        y_ladder = [int(v) for v in args.y_ladder.split(",")]
        x_ladder = [int(v) for v in args.x_ladder.split(",")]
    except ValueError as exc:
        raise ConfigError("ladders must be comma-separated integers") from exc
    data = ingest_csv(config.input_path, config)
    n = len(data[config.response[0]])
    bad = [k for k in y_ladder + x_ladder if not 1 <= k <= n]
    if bad:
        raise ConfigError(f"ladder values must lie in 1..{n} (the row count): {bad}")
    y, x = data[config.response[0]], data[config.covariates[0]]
    cells = mi_grid(y, x, y_ladder, x_ladder, config.protocol)
    fields = {
        "cells": [
            {
                "y_bins": c.y_bins,
                "x_bins": c.x_bins,
                "mi": c.verdict.observed,
                "status": c.verdict.status,
                "band": c.verdict.band.to_json_dict(),
            }
            for c in cells
        ]
    }
    lines = ["y_bins\tx_bins\tmi\tq025\tq975\tstatus"]
    for c in cells:
        v = c.verdict
        lines.append(
            f"{c.y_bins}\t{c.x_bins}\t{v.observed:.6f}\t"
            f"{v.band.q025:.6f}\t{v.band.q975:.6f}\t{v.status}"
        )
    _write_report(config, args.out, fields, lines)
    return 0


def cmd_select(args) -> int:
    config = _series_config(args)
    try:
        check_subset_budget(len(config.covariates), config.protocol.max_order)
    except ValueError as exc:
        raise ConfigError(f"--max-order: {exc}") from None
    try:  # only select reads --noise, so a config file shared with measure may name any
        check_noise_features(config.protocol.noise_features, config.covariates)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    evaluator = _load(config)
    if evaluator.n < 3:  # synthetic noise features are binned 1+K+1, which takes 3 values
        raise DataError(f"select needs at least 3 rows, got {evaluator.n}")
    _log(f"select: {len(evaluator.covariates)} covariates, max order {config.protocol.max_order}")
    ledger = build_ledger(evaluator)
    report = select_major_factors(evaluator)
    ledger_tsv = ledger_to_tsv(ledger)
    confirmed = [((f,), 1, "order-1 major factor") for f in report.chief_collection] + [
        (pair, 2, "order-2 major factor (interaction)") for pair in report.interactions
    ]
    fields = {
        "chief": list(report.chief_collection),
        "alternatives": [list(s) for s in report.alternative_collections],
        "interactions": [list(s) for s in report.interactions],
        "confirmed": [
            {"subset": list(s), "order": order, "label": label} for s, order, label in confirmed
        ],
        "pairs": [
            {
                "pair": list(p.pair),
                "classification": p.classification,
                "ratio": None if not np.isfinite(p.ratio) else p.ratio,
                "excess": None if not np.isfinite(p.excess) else p.excess,
            }
            for p in report.pair_analyses
        ],
        "ledger_tsv": ledger_tsv,
    }
    lines = [ledger_tsv.rstrip("\n"), "", f"chief\t{' '.join(fields['chief']) or '-'}"]
    for alt in fields["alternatives"]:
        lines.append(f"alternative\t{' '.join(alt)}")
    for s, _, label in confirmed:
        lines.append(f"confirmed\t{'+'.join(s)}\t{label}")
    _write_report(config, args.out, fields, lines)
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are ConfigErrors (exit 3), not exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ceda",
        description="Categorical exploratory analysis of response/covariate data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw a seeded dataset from a built-in study")
    p.add_argument("--example", required=True, choices=EXAMPLE_IDS)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bins", help="emit or replay categorization schemes")
    p.add_argument("--replay", help="JSON scheme file to apply instead of fitting")
    p.set_defaults(func=cmd_bins)

    p = sub.add_parser("measure", help="entropy report per covariate subset")
    p.add_argument("--subsets", help="e.g. X1,X2+X3 (default: all singletons)")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("null", help="null band and confirmability per subset")
    p.add_argument("--subsets", help="e.g. X1,X2+X3 (default: all singletons)")
    p.set_defaults(func=cmd_null)

    p = sub.add_parser("grid", help="mutual-information grid over cluster ladders")
    p.add_argument("--y-ladder", dest="y_ladder", default="12,22,32,102")
    p.add_argument("--x-ladder", dest="x_ladder", default="12,22,32,102")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("select", help="subset ledger and major-factor report")
    p.set_defaults(func=cmd_select)

    for flag, dest, form, commands, extra in _SETTING_TABLE:
        for command in commands:
            sub.choices[command].add_argument(
                flag, dest=dest, type={"integer": int, "number": float}.get(form), **extra
            )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the last resort for a request too large to hold
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
