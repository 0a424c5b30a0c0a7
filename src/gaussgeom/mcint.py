"""Iterative adaptive importance-sampling integration over rectangles.

The adaptive integrator follows the classic per-axis binning scheme: each
iteration samples through a separable piecewise-uniform grid, accumulates
squared contributions per bin, and compresses the grid toward regions of
large |f|^2 with a damped update.  Per-iteration estimates are combined by
inverse-variance weighting and their mutual consistency is reported as a
chi^2 per degree of freedom.  A plain uniform-sampling integrator is
provided as a cross-check.

All routines are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _integer
from .typicality import McEstimate  # defined there; re-exported here

__all__ = [
    "IntegrationError",
    "McEstimate",
    "AdaptiveGrid",
    "vegas_integrate",
    "plain_integrate",
    "sample_from_grid",
]

MAX_DIM = 4
_NONFINITE_LIMIT = 1e-3


class IntegrationError(RuntimeError):
    """Monte Carlo integration failed (bad integrand or degenerate sampling)."""


def _check_bounds(bounds) -> tuple[np.ndarray, np.ndarray]:
    bounds = list(bounds)
    if not 1 <= len(bounds) <= MAX_DIM:
        raise ValueError(f"dimension must be between 1 and {MAX_DIM}, got {len(bounds)}")
    lo = np.array([float(b[0]) for b in bounds])
    hi = np.array([float(b[1]) for b in bounds])
    if np.any(hi <= lo):
        raise ValueError("each axis must have high > low")
    return lo, hi


@dataclass
class AdaptiveGrid:
    """Per-axis piecewise-uniform sampling grid on [0, 1]^d.

    ``edges[ax]`` holds nbins + 1 strictly increasing values from 0 to 1.
    Sampling maps uniform variates through the grid so that each bin receives
    the same number of points on average; the importance update moves bin
    edges toward regions of large accumulated weight, damped by ``damping``.
    """

    edges: list[np.ndarray]
    damping: float = 1.5

    def __post_init__(self):
        if not 0.0 < self.damping <= 2.0:
            raise ValueError("damping must lie in (0, 2]")
        for e in self.edges:
            if e[0] != 0.0 or e[-1] != 1.0 or np.any(np.diff(e) <= 0.0):
                raise ValueError("edges must increase strictly from 0 to 1")

    @classmethod
    def uniform(cls, dims: int, nbins: int = 50, damping: float = 1.5) -> "AdaptiveGrid":
        return cls(edges=[np.linspace(0.0, 1.0, nbins + 1) for _ in range(dims)], damping=damping)

    @property
    def dims(self) -> int:
        return len(self.edges)

    @property
    def nbins(self) -> int:
        return len(self.edges[0]) - 1

    def map_points(self, u: np.ndarray):
        """Map uniform points to grid points; returns (x, density weight, bins).

        The weight is 1/pdf(x) for the sampling density implied by the grid,
        normalized so that a uniform grid gives weight 1.
        """
        nb = self.nbins
        n, d = u.shape
        x = np.empty_like(u)
        jac = np.ones(n)
        bins = np.empty((n, d), dtype=np.intp)
        for ax in range(d):
            t = u[:, ax] * nb
            k = np.minimum(t.astype(np.intp), nb - 1)
            e = self.edges[ax]
            width = e[k + 1] - e[k]
            x[:, ax] = e[k] + width * (t - k)
            jac *= nb * width
            bins[:, ax] = k
        return x, jac, bins

    def refine(self, importance: np.ndarray) -> None:
        """Damped importance update from accumulated per-bin weights."""
        for ax in range(self.dims):
            w = np.asarray(importance[:, ax], dtype=float)
            if w.sum() <= 0.0:
                continue
            w = self._smooth(w)
            m = w / w.sum()
            m = np.clip(m, 1e-12, 1.0 - 1e-12)
            r = ((1.0 - m) / -np.log(m)) ** self.damping
            self.edges[ax] = self._redistribute(self.edges[ax], r)

    @staticmethod
    def _smooth(w: np.ndarray) -> np.ndarray:
        if w.size < 3:
            return w
        out = np.empty_like(w)
        out[0] = (7.0 * w[0] + w[1]) / 8.0
        out[-1] = (w[-2] + 7.0 * w[-1]) / 8.0
        out[1:-1] = (w[:-2] + 6.0 * w[1:-1] + w[2:]) / 8.0
        # Keep every bin barely alive so edges never collapse.
        return np.maximum(out, 1e-10 * out.mean())

    @staticmethod
    def _redistribute(edges: np.ndarray, w: np.ndarray) -> np.ndarray:
        nb = w.size
        target = w.sum() / nb
        new = np.empty_like(edges)
        new[0], new[-1] = 0.0, 1.0
        j = 0
        used = 0.0
        for i in range(1, nb):
            need = target
            while j < nb - 1 and w[j] - used < need:
                need -= w[j] - used
                j += 1
                used = 0.0
            used += need
            frac = min(used / w[j], 1.0) if w[j] > 0.0 else 1.0
            new[i] = edges[j] + (edges[j + 1] - edges[j]) * frac
        new = np.clip(new, 0.0, 1.0)
        for i in range(1, nb):
            if new[i] <= new[i - 1]:
                new[i] = np.nextafter(new[i - 1], 2.0)
        for i in range(nb - 1, 0, -1):  # keep room below the fixed endpoint 1
            if new[i] >= new[i + 1]:
                new[i] = np.nextafter(new[i + 1], -1.0)
        return new


def _combine(estimates: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Inverse-variance combination and chi^2/dof across iterations."""
    values = np.array([e[0] for e in estimates])
    variances = np.array([e[1] for e in estimates])
    if np.all(variances == 0.0):
        return float(values[-1]), 0.0, 0.0
    # Rare mixed case: treat an exactly-zero sample variance conservatively.
    positive = variances[variances > 0.0]
    variances = np.where(variances == 0.0, positive.min(), variances)
    weights = 1.0 / variances
    mean = float(np.sum(weights * values) / np.sum(weights))
    err = float(np.sqrt(1.0 / np.sum(weights)))
    dof = values.size - 1
    chi2 = float(np.sum(weights * (values - mean) ** 2))
    return mean, err, chi2 / dof if dof > 0 else 0.0


def vegas_integrate(
    f,
    bounds,
    iterations: int = 10,
    evals_per_iter: int = 10_000,
    damping: float = 1.5,
    seed: int = 0,
    nbins: int = 50,
    return_grid: bool = False,
):
    """Adaptive importance-sampling estimate of the integral of f over a box.

    ``f`` must accept an (n, d) array of points and return n values; it may
    be signed.  Non-finite values are zeroed and counted, and the run aborts
    if they exceed 0.1% of all evaluations.  Identical (seed, configuration)
    reproduce the estimate bit for bit.

    Returns an :class:`McEstimate`, or ``(estimate, grid)`` when
    ``return_grid`` is set (the grid can then be reused through
    :func:`sample_from_grid`).
    """
    lo, hi = _check_bounds(bounds)
    iterations = _integer("iterations", iterations, 1)
    evals_per_iter = _integer("evals_per_iter", evals_per_iter, 2)
    d = lo.size
    vol = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    grid = AdaptiveGrid.uniform(d, nbins=nbins, damping=damping)

    estimates = []
    n_bad = 0
    n_total = 0
    for _ in range(iterations):
        u = rng.random((evals_per_iter, d))
        x01, jac, bin_idx = grid.map_points(u)
        fv = np.asarray(f(lo + (hi - lo) * x01), dtype=float)
        bad = ~np.isfinite(fv)
        n_bad += int(bad.sum())
        n_total += fv.size
        if n_bad > _NONFINITE_LIMIT * n_total:
            raise IntegrationError(
                f"{n_bad} non-finite integrand values in {n_total} evaluations"
            )
        fv = np.where(bad, 0.0, fv)
        w = fv * jac * vol
        estimates.append((float(w.mean()), float(w.var(ddof=1)) / w.size))
        importance = np.zeros((grid.nbins, d))
        w2 = w * w
        for ax in range(d):
            np.add.at(importance[:, ax], bin_idx[:, ax], w2)
        grid.refine(importance)

    value, err, chi2 = _combine(estimates)
    est = McEstimate(value=value, std_error=err, chi2_per_dof=chi2, n_evals=n_total)
    return (est, grid) if return_grid else est


def sample_from_grid(grid: AdaptiveGrid, bounds, n: int, seed: int):
    """Draw n points from a frozen grid; returns (points, importance weights).

    The weights are vol / (n * pdf) summands: ``mean(weights * f(points))``
    estimates the integral of f over the box without further adaptation.
    """
    lo, hi = _check_bounds(bounds)
    if grid.dims != lo.size:
        raise ValueError("grid dimension does not match the bounds")
    n = _integer("n", n, 0)
    rng = np.random.default_rng(seed)
    u = rng.random((n, grid.dims))
    x01, jac, _ = grid.map_points(u)
    return lo + (hi - lo) * x01, jac * float(np.prod(hi - lo))


def plain_integrate(f, bounds, n: int = 10_000, seed: int = 0) -> McEstimate:
    """Uniform-sampling Monte Carlo estimate over a box, with standard error."""
    lo, hi = _check_bounds(bounds)
    n = _integer("n", n, 2)
    vol = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    x = lo + (hi - lo) * rng.random((n, lo.size))
    fv = np.asarray(f(x), dtype=float)
    bad = ~np.isfinite(fv)
    if bad.sum() > _NONFINITE_LIMIT * n:
        raise IntegrationError(f"{int(bad.sum())} non-finite integrand values in {n} evaluations")
    fv = np.where(bad, 0.0, fv)
    w = fv * vol
    return McEstimate(
        value=float(w.mean()),
        std_error=float(np.sqrt(w.var(ddof=1) / n)),
        chi2_per_dof=0.0,
        n_evals=n,
    )
