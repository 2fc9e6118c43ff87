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
0 success, 2 data error (bad input file), 3 configuration or usage error.
"""

from __future__ import annotations

import argparse
import array
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, replace

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
    ledger_to_tsv,
    mi_grid,
    select_major_factors,
)

__all__ = ["ConfigError", "DataError", "RunConfig", "ingest_csv", "main"]


class ConfigError(Exception):
    """Invalid configuration; maps to exit code 3."""


class DataError(Exception):
    """Invalid or unreadable input data; maps to exit code 2."""


# The ProtocolConfig fields a flag or config file can set (unset, they keep their
# defaults), and every config key a flag overrides, by the flag's dest.  The
# ``--categorize`` flag is not among them: it merges column by column.
_PROTOCOL_FIELDS = ("max_order", "replicates", "seed", "threads", "r_int", "cell_floor")
_SETTINGS = ("input", "response", "covariates", "noise_features", "format", *_PROTOCOL_FIELDS)


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

    def digest(self) -> str:
        protocol = {n: getattr(self.protocol, n) for n in _PROTOCOL_FIELDS if n != "threads"}
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
        out[col.strip()] = _parse_directive(col.strip(), spec)
    return out


def _load_json_object(path: str, what: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
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

    ``input`` and ``format`` are strings; ``response``, ``covariates`` and
    ``noise_features`` are comma-separated text or a list of names;
    ``categorize`` maps columns to ``_parse_directive``'s forms; the integer
    protocol fields take whole JSON numbers and ``r_int``/``cell_floor`` any
    JSON number (never a bool).  Other keys are ignored.  A value of the
    wrong form is a ConfigError.
    """

    def bad(name, want):
        return ConfigError(f"bad config value: {name!r} must be {want}, got {cfg[name]!r}")

    out = dict(cfg)
    for name in ("input", "format"):
        if name in cfg and not isinstance(cfg[name], str):
            raise bad(name, "a string")
    for name in ("response", "covariates", "noise_features"):
        value = cfg.get(name, "")
        if not (
            isinstance(value, str)
            or isinstance(value, list) and all(isinstance(c, str) for c in value)
        ):
            raise bad(name, "comma-separated text or a list of names")
    for name in _PROTOCOL_FIELDS:
        if name not in cfg:
            continue
        value = cfg[name]
        if isinstance(getattr(ProtocolConfig, name), int):
            if type(value) is not int:
                raise bad(name, "an integer")
        elif type(value) not in (int, float):
            raise bad(name, "a number")
        else:
            try:  # stored as a float, as the flag gives it, so the digest is the same
                out[name] = float(value)
            except OverflowError:
                raise bad(name, "a number in double range") from None
    if "categorize" in cfg:
        if not isinstance(cfg["categorize"], dict):
            raise bad("categorize", "an object mapping columns to directives")
        try:
            out["categorize"] = {
                col: _parse_directive(col, spec) for col, spec in cfg["categorize"].items()
            }
        except ConfigError as exc:
            raise ConfigError(f"bad config value: categorize: {exc}") from None
    return out


def build_run_config(args) -> RunConfig:
    """The config file's settings, each overridden by its flag where one is given."""
    settings = (
        _check_config_file(_load_json_object(args.config, "config file")) if args.config else {}
    )
    settings.update((k, v) for k, v in vars(args).items() if k in _SETTINGS and v is not None)
    settings["categorize"] = settings.get("categorize", {}) | _parse_categorize(args.categorize)
    for role in ("response", "covariates", "noise_features"):  # text or a list of names
        v = settings.get(role, "")
        settings[role] = tuple([c for c in v.split(",") if c] if isinstance(v, str) else v)
    try:
        protocol = ProtocolConfig(
            **{n: settings[n] for n in ("noise_features", *_PROTOCOL_FIELDS) if n in settings}
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config = RunConfig(
        input_path=settings.get("input"),
        response=settings["response"],
        covariates=settings["covariates"],
        categorize=settings["categorize"],
        protocol=protocol,
        out_format=settings.get("format", "tsv"),
    )
    if "max_order" in settings and config.covariates:
        _check_max_order(config)
    if not config.input_path and args.command != "simulate":
        raise ConfigError(f"{args.command} requires --input")
    return config


def _check_max_order(config: RunConfig):
    if config.protocol.max_order > len(config.covariates):
        raise ConfigError(
            f"max-order {config.protocol.max_order} exceeds the number of covariates "
            f"({len(config.covariates)})"
        )


def ingest_csv(path: str, config: RunConfig) -> dict[str, np.ndarray]:
    """Read a UTF-8 header CSV into named columns with role-aware parsing, row by row.

    Only the named columns are kept (every column when none is named).
    Columns categorized as "categorical" keep their string labels, as an
    object array; all other requested columns must parse as finite decimals
    and are stored as float64 while reading.  Errors name the offending data
    row (1-based, excluding the header) and column.  The whole file is read
    before a header or row fault is raised, so a fault reading the file
    anywhere comes first.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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


def _require_numeric(config: RunConfig, columns, use: str = "K-means cannot cluster"):
    """``use`` needs numbers: a column declared categorical is a ConfigError."""
    for c in columns:
        if config.directive(c)[0] == "categorical":
            raise ConfigError(f"column {c!r}: {use} a categorical column")


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
    if not config.response:
        raise ConfigError("no response column named (use --response)")
    if not config.covariates:
        raise ConfigError("no covariate columns named (use --covariates)")
    if len(config.response) == 1:
        response = _categorize_column(config.response[0], data[config.response[0]], config)
    else:
        # multi-column response: K-means fusion on the stacked coordinates
        _require_numeric(config, config.response)
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


def _load(args) -> tuple[RunConfig, SubsetEvaluator]:
    """The run's config and the evaluator of its series, read from ``--input``."""
    config = build_run_config(args)
    covs, response = _build_series(ingest_csv(config.input_path, config), config)
    return config, SubsetEvaluator(covs, response, config.protocol)


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
        _require_numeric(config, schemes, f"replay file {args.replay} cannot bin")
        # read exactly the scheme's columns: a column the CSV lacks is a data error
        data = ingest_csv(config.input_path, replace(config, response=(), covariates=tuple(schemes)))
        labeled = {}
        for c, s in schemes.items():
            try:
                scheme = BinningScheme.from_json_dict(s)
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(
                    f"replay file {args.replay}: bad scheme for {c!r}: {exc}"
                ) from exc
            labeled[c] = apply_bins(data[c], scheme).labels
        _emit_csv(labeled, args.out)
        return 0
    data = ingest_csv(config.input_path, config)
    out = dict(_provenance(config))
    targets = list(config.covariates) + list(config.response) or list(data)
    for c in targets:
        method, k = config.directive(c)
        if method != "quantile":
            continue
        out[c] = _quantile_scheme(c, data[c], k).to_json_dict()
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return 0


def cmd_measure(args) -> int:
    config, evaluator = _load(args)
    subsets = _parse_subsets(args.subsets, config)
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
    config, evaluator = _load(args)
    rows = []
    for subset in _parse_subsets(args.subsets, config):
        verdict = evaluator.mi_verdict(subset)
        rows.append((subset, verdict))
        _log(f"null {'+'.join(subset)}: {verdict.status}")
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
    _require_numeric(config, config.response + config.covariates)
    data = ingest_csv(config.input_path, config)
    try:
        y_ladder = [int(v) for v in args.y_ladder.split(",")]
        x_ladder = [int(v) for v in args.x_ladder.split(",")]
    except ValueError as exc:
        raise ConfigError("ladders must be comma-separated integers") from exc
    n = len(data[config.response[0]])
    bad = [k for k in y_ladder + x_ladder if not 1 <= k <= n]
    if bad:
        raise ConfigError(f"ladder values must lie in 1..{n} (the row count): {bad}")
    cells = mi_grid(
        data[config.response[0]],
        data[config.covariates[0]],
        y_ladder,
        x_ladder,
        n_replicates=config.protocol.replicates,
        seed=config.protocol.seed,
        threads=config.protocol.threads,
    )
    fields = {
        "cells": [
            {
                "y_bins": c.y_bins,
                "x_bins": c.x_bins,
                "mi": c.report.mutual_info,
                "status": c.verdict.status,
                "band": c.band.to_json_dict(),
            }
            for c in cells
        ]
    }
    lines = ["y_bins\tx_bins\tmi\tq025\tq975\tstatus"]
    for c in cells:
        lines.append(
            f"{c.y_bins}\t{c.x_bins}\t{c.report.mutual_info:.6f}\t"
            f"{c.band.q025:.6f}\t{c.band.q975:.6f}\t{c.verdict.status}"
        )
    _write_report(config, args.out, fields, lines)
    return 0


def cmd_select(args) -> int:
    config, evaluator = _load(args)
    _check_max_order(config)
    # only select reads --noise, so a config file shared with measure may name any
    unknown = [c for c in config.protocol.noise_features if c not in config.covariates]
    if unknown:
        raise ConfigError(f"noise features must be covariates, got {unknown}")
    if evaluator.n < 3:  # synthetic noise features are binned 1+K+1, which takes 3 values
        raise DataError(f"select needs at least 3 rows, got {evaluator.n}")
    _log(f"select: {len(evaluator.covariates)} covariates, max order {config.protocol.max_order}")
    ledger = build_ledger(evaluator)
    report = select_major_factors(evaluator)
    ledger_tsv = ledger_to_tsv(ledger)
    fields = {
        "chief": list(report.chief_collection),
        "alternatives": [list(s) for s in report.alternative_collections],
        "interactions": [list(s) for s, order, _ in report.confirmed if order >= 2],
        "confirmed": [
            {"subset": list(s), "order": order, "label": label}
            for s, order, label in report.confirmed
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
    for s, _, label in report.confirmed:
        lines.append(f"confirmed\t{'+'.join(s)}\t{label}")
    _write_report(config, args.out, fields, lines)
    return 0


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--input", help="input CSV path")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--response", help="comma-separated response column(s)")
    p.add_argument("--covariates", help="comma-separated covariate columns")
    p.add_argument(
        "--categorize",
        help="per-column directives, e.g. Y=quantile:10,X1=kmeans:12,G=categorical",
    )
    p.add_argument(
        "--noise", dest="noise_features", help="comma-separated designated noise columns"
    )
    p.add_argument("--max-order", dest="max_order", type=int)
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--r-int", dest="r_int", type=float)
    p.add_argument("--cell-floor", dest="cell_floor", type=float)
    p.add_argument("--format", choices=("tsv", "json"))
    p.add_argument("--out", help="write data here instead of stdout")


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
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bins", help="emit or replay categorization schemes")
    p.add_argument("--replay", help="JSON scheme file to apply instead of fitting")
    _add_common(p)
    p.set_defaults(func=cmd_bins)

    p = sub.add_parser("measure", help="entropy report per covariate subset")
    p.add_argument("--subsets", help="e.g. X1,X2+X3 (default: all singletons)")
    _add_common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("null", help="null band and confirmability per subset")
    p.add_argument("--subsets", help="e.g. X1,X2+X3 (default: all singletons)")
    _add_common(p)
    p.set_defaults(func=cmd_null)

    p = sub.add_parser("grid", help="mutual-information grid over cluster ladders")
    p.add_argument("--y-ladder", dest="y_ladder", default="12,22,32,102")
    p.add_argument("--x-ladder", dest="x_ladder", default="12,22,32,102")
    _add_common(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("select", help="subset ledger and major-factor report")
    _add_common(p)
    p.set_defaults(func=cmd_select)

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


if __name__ == "__main__":
    sys.exit(main())
