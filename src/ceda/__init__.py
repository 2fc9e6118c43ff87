"""Categorical exploratory data analysis.

Entropy and mutual-information measurements on contingency tables,
mimicry-based null distributions, and a major-factor selection
protocol over covariate subsets.  The names below are the ones a typical
analysis needs; everything else is imported from its submodule
(``ceda.tabulate``, ``ceda.categorize``, ``ceda.nullsim``, ``ceda.genlab``,
``ceda.protocol``).
"""

from ceda.tabulate import crosstab, entropy_report, mutual_information
from ceda.categorize import apply_bins, product_categories, quantile_bins
from ceda.nullsim import c1_test, null_band
from ceda.genlab import GeneratorSpec, sample
from ceda.protocol import ProtocolConfig, SubsetEvaluator, select_major_factors

__all__ = [
    "GeneratorSpec",
    "ProtocolConfig",
    "SubsetEvaluator",
    "apply_bins",
    "c1_test",
    "crosstab",
    "entropy_report",
    "mutual_information",
    "null_band",
    "product_categories",
    "quantile_bins",
    "sample",
    "select_major_factors",
]
