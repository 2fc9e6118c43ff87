"""Categorical exploratory data analysis.

Entropy and mutual-information measurements on contingency tables,
mimicry-based null distributions, and a major-factor selection
protocol over covariate subsets.  The names below are the ones a typical
analysis needs; everything else is imported from its submodule
(``ceda.tabulate``, ``ceda.categorize``, ``ceda.nullsim``, ``ceda.genlab``,
``ceda.protocol``).  Each name's submodule is imported on first use
(PEP 562), so ``import ceda`` alone loads no numpy: the command line sets
how numpy starts before it is loaded.
"""

import importlib

# exported name -> the submodule that defines it
_HOMES = {
    "GeneratorSpec": "genlab",
    "ProtocolConfig": "protocol",
    "SubsetEvaluator": "protocol",
    "apply_bins": "categorize",
    "c1_test": "nullsim",
    "crosstab": "tabulate",
    "entropy_report": "tabulate",
    "mutual_information": "tabulate",
    "null_band": "nullsim",
    "product_categories": "categorize",
    "quantile_bins": "categorize",
    "sample": "genlab",
    "select_major_factors": "protocol",
}

__all__ = list(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        return getattr(importlib.import_module(f"ceda.{_HOMES[name]}"), name)
    if name in _HOMES.values():  # ``ceda.protocol`` after a bare ``import ceda``
        return importlib.import_module(f"ceda.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
