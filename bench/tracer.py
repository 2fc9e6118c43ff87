"""Span tracer for the ceda benchmark.

It wraps the package's public functions from outside, so no file under
``src/`` changes.  Each function is replaced at every ``ceda`` module that
binds its name (``crosstab`` is bound in ``tabulate``, ``nullsim``,
``protocol``, ``cli`` and the package root), so calls through any import
path are seen.  Spans nest on one stack per thread: a span's self time is
its duration minus the durations of the spans it directly encloses in the
same thread.  A shared stack would charge a worker thread's spans to
whatever span the other thread has open, giving negative self times.

Run as a script, it traces one CLI invocation and writes the per-name sums
as JSON:

    python3 bench/tracer.py OUT.json select --input data.csv ...
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import threading
import time

ROOT_SPAN = "cli.main"


def _crosstab_counts(tracer, bound, table):
    return {"cells": table.rows * table.cols}


def _kmeans_counts(tracer, bound, model):
    return {
        "iters": model.iterations_run,
        "cap_hits": int(model.iterations_run >= bound.arguments["max_iter"]),
    }


def _mimic_counts(tracer, bound, samples):
    table = bound.arguments["table"]
    # computed from array sizes, not measured
    return {"draw_cells": table.rows * table.cols * bound.arguments["n_replicates"]}


def _null_band_counts(tracer, bound, band):
    return {"dups": int(tracer.band_seen(bound))}


# (module, qualified name, counter hook or None).  A hook gets the tracer,
# the call's bound arguments (defaults applied) and its result, and returns
# counts to add to the span's totals.
TRACED = (
    ("ceda.cli", "ingest_csv", None),
    ("ceda.cli", "cmd_simulate", None),
    ("ceda.genlab", "sample", None),
    ("ceda.categorize", "product_categories", None),
    ("ceda.tabulate", "crosstab", _crosstab_counts),
    ("ceda.categorize", "quantile_bins", None),
    ("ceda.categorize", "apply_bins", None),
    ("ceda.nullsim", "synthetic_noise_series", None),
    ("ceda.categorize", "kmeans_fit", _kmeans_counts),
    ("ceda.nullsim", "mimic_ce_samples", _mimic_counts),
    ("ceda.nullsim", "null_band", _null_band_counts),
    ("ceda.protocol", "build_ledger", None),
    ("ceda.protocol", "select_major_factors", None),
    ("ceda.protocol", "mi_grid", None),
    ("ceda.protocol", "SubsetEvaluator.reference_band", None),
    ("ceda.protocol", "SubsetEvaluator.padded_ce_samples", None),
)


def span_name(module: str, qualname: str) -> str:
    return f"{module.removeprefix('ceda.')}.{qualname}"


SPAN_NAMES = tuple(span_name(m, q) for m, q, _ in TRACED)


class Tracer:
    """Per-name call counts, self and inclusive time, and hook counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._seen_bands: set = set()
        self.stats: dict = {}
        self.sites: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, **values):
        with self._lock:
            entry = self.stats.setdefault(name, {})
            for key, value in values.items():
                entry[key] = entry.get(key, 0) + value

    def band_seen(self, bound) -> bool:
        """Whether a null band on the same counts and replicates ran before."""
        counts = bound.arguments["table"].counts
        key = (
            counts.shape,
            hashlib.sha1(counts.tobytes()).hexdigest(),
            bound.arguments["n_replicates"],
        )
        with self._lock:
            seen = key in self._seen_bands
            self._seen_bands.add(key)
        return seen

    def wrap(self, name: str, fn, hook=None):
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [0.0, 0]  # time and count of direct child spans
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                    stack[-1][1] += 1
                self._add(
                    name,
                    calls=1,
                    s=elapsed - frame[0],
                    incl_s=elapsed,
                    leaf_calls=int(frame[1] == 0),
                )
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._add(name, **hook(self, bound, result))
            return result

        return traced

    def install(self):
        """Wrap every TRACED function at each ``ceda`` module binding it."""
        importlib.import_module("ceda.cli")  # imports every ceda module
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "ceda" or key.startswith("ceda.")
        ]
        for module_name, qualname, hook in TRACED:
            name = span_name(module_name, qualname)
            owner = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr), hook))
                self.sites[name] = [f"{module_name}.{cls_name}"]
                continue
            original = getattr(owner, qualname)
            wrapped = self.wrap(name, original, hook)
            self.sites[name] = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self.sites[name].append(f"{mod.__name__}.{key}")
            leftover = [
                mod.__name__
                for mod in modules
                if any(v is original for v in vars(mod).values())
            ]
            if leftover:
                raise RuntimeError(f"{name} still unwrapped in {leftover}")

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": {k: dict(v) for k, v in self.stats.items()},
                "sites": dict(self.sites),
            }


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py OUT.json CLI-ARGS...", file=sys.stderr)
        return 3
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from ceda import cli

    code = tracer.wrap(ROOT_SPAN, cli.main)(cli_args)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
