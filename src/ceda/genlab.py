"""Seeded data generators for the six simulation studies, plus analytic oracles.

Each generator returns named numeric columns; ``Y`` (or ``Y1..Ym``) is the
designated response.  Multivariate normals are drawn via the lower-triangular
Cholesky factor of the covariance.  All randomness comes from numpy's PCG64
generator seeded from the GeneratorSpec, so outputs are bitwise reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GeneratorSpec", "gaussian_entropy", "sample", "theoretical_ex1"]

EXAMPLE_IDS = (
    "ex1",
    "ex2",
    "ex2star",
    "ex3_rho",
    "ex3_halfsine",
    "ex3_fullsine",
    "ex4",
    "ex5",
    "ex6",
)


@dataclass(frozen=True)
class GeneratorSpec:
    """Which study to simulate, at what size, with which parameters."""

    example_id: str
    n: int
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.example_id not in EXAMPLE_IDS:
            raise ValueError(f"unknown example_id {self.example_id!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")


def _compound_symmetric(d: int, rho: float) -> np.ndarray:
    cov = np.full((d, d), rho)
    np.fill_diagonal(cov, 1.0)
    return cov


def _mvn(rng: np.random.Generator, cov: np.ndarray, n: int) -> np.ndarray:
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix is not positive definite") from exc
    z = rng.standard_normal((n, cov.shape[0]))
    return z @ chol.T


def gaussian_entropy(cov) -> float:
    """Differential entropy (nats) of a multivariate normal: .5*ln|S| + d/2*(1+ln 2pi)."""
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = cov.shape[0]
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix is not positive definite") from exc
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    return 0.5 * logdet + 0.5 * d * (1.0 + math.log(2.0 * math.pi))


def theoretical_ex1(mean_gap: float = 1.0, grid_points: int = 400_001):
    """Exact (H[Y], H[Y|V1], I) for the balanced two-normal study.

    The mixture entropy comes from dense trapezoid quadrature of the
    two-component density; the conditional term is the closed-form normal
    entropy.  With the default unit gap this gives (1.5321, 1.4189, 0.1132).
    """
    h_cond = gaussian_entropy([[1.0]])
    lo = -10.0
    hi = mean_gap + 10.0
    y = np.linspace(lo, hi, grid_points)
    norm = 1.0 / math.sqrt(2.0 * math.pi)
    f = 0.5 * norm * (np.exp(-0.5 * y**2) + np.exp(-0.5 * (y - mean_gap) ** 2))
    integrand = np.where(f > 0, -f * np.log(np.where(f > 0, f, 1.0)), 0.0)
    h_y = float(np.trapezoid(integrand, y))
    return h_y, h_cond, h_y - h_cond


def _two_halves(n: int):
    """Sizes of the two balanced groups, and the label ``V1`` that is 0 then 1."""
    n1 = n // 2
    return n1, n - n1, (np.arange(n) >= n1).astype(np.int64)


def sample(spec: GeneratorSpec) -> dict[str, np.ndarray]:
    """Simulate one dataset for the given spec.  Returns name -> column arrays."""
    rng = np.random.default_rng(spec.seed)
    p = spec.params
    n = spec.n

    if spec.example_id == "ex1":
        # Two populations N(0,1) and N(mean_gap,1), balanced halves.
        gap = p.get("mean_gap", 1.0)
        n1, _, v1 = _two_halves(n)
        y = rng.standard_normal(n)
        y[n1:] += gap
        return {"Y": y, "V1": v1}

    if spec.example_id == "ex2":
        # Two zero-mean compound-symmetric normals differing in correlation.
        m = p.get("m", 2)
        rho0 = p.get("rho0", 0.5)
        rho1 = p.get("rho1", 0.7)
        n1, n2, v1 = _two_halves(n)
        y0 = _mvn(rng, _compound_symmetric(m, rho0), n1)
        y1 = _mvn(rng, _compound_symmetric(m, rho1), n2)
        y = np.vstack([y0, y1])
        cols = {f"Y{i + 1}": y[:, i] for i in range(m)}
        cols["V1"] = v1
        return cols

    if spec.example_id == "ex2star":
        # Population 0: balanced 2D normal mixture at +/-mu with component
        # covariance c*I.  Population 1: a single 2D normal matched to the
        # mixture's overall mean (zero) and covariance c*I + mu mu'.
        mu = np.asarray(p.get("mu", (0.5, 0.5)), dtype=float)
        comp_var = p.get("component_var", 2.0)
        n1, n2, v1 = _two_halves(n)
        signs = np.where(rng.random(n1) < 0.5, 1.0, -1.0)
        y0 = math.sqrt(comp_var) * rng.standard_normal((n1, 2)) + signs[:, None] * mu
        cov1 = comp_var * np.eye(2) + np.outer(mu, mu)
        y1 = _mvn(rng, cov1, n2)
        y = np.vstack([y0, y1])
        return {"Y1": y[:, 0], "Y2": y[:, 1], "V1": v1}

    if spec.example_id == "ex3_rho":
        rho = p.get("rho", 0.5)
        if not -1.0 < rho < 1.0:
            raise ValueError("correlation must lie in (-1, 1)")
        yx = _mvn(rng, np.array([[1.0, rho], [rho, 1.0]]), n)
        return {"Y": yx[:, 0], "X": yx[:, 1]}

    if spec.example_id in ("ex3_halfsine", "ex3_fullsine"):
        cycles = 0.5 if spec.example_id == "ex3_halfsine" else 1.0
        noise = p.get("noise_scale", 0.03)
        x = rng.random(n)
        y = np.sin(2.0 * math.pi * cycles * x) + noise * rng.standard_normal(n)
        return {"Y": y, "X": x}

    if spec.example_id in ("ex4", "ex5"):
        # Y = X1 + sin(2pi(X2 + X3)) + noise; ex5 adds X4 inside the sine.
        noise = p.get("noise_scale", 0.1)
        x = rng.random((n, 4))
        phase = x[:, 1] + x[:, 2]
        if spec.example_id == "ex5":
            phase = phase + x[:, 3]
        y = x[:, 0] + np.sin(2.0 * math.pi * phase) + noise * rng.standard_normal(n)
        cols = {"Y": y}
        cols.update({f"X{i + 1}": x[:, i] for i in range(4)})
        return cols

    if spec.example_id == "ex6":
        # X1..X5, X7..X10 jointly normal with pairwise correlation 0.2;
        # X6 is a noisy average of X1..X5; Y = X1+X2+X3 + N(0,1)/10.
        rho = p.get("rho", 0.2)
        noise = p.get("noise_scale", 0.1)
        base = _mvn(rng, _compound_symmetric(9, rho), n)
        names = ["X1", "X2", "X3", "X4", "X5", "X7", "X8", "X9", "X10"]
        cols = {name: base[:, i] for i, name in enumerate(names)}
        cols["X6"] = (
            cols["X1"] + cols["X2"] + cols["X3"] + cols["X4"] + cols["X5"]
            + noise * rng.standard_normal(n)
        ) / 3.0
        cols["Y"] = cols["X1"] + cols["X2"] + cols["X3"] + noise * rng.standard_normal(n)
        ordered = ["Y"] + [f"X{i}" for i in range(1, 11)]
        return {name: cols[name] for name in ordered}

    raise AssertionError("unreachable")
