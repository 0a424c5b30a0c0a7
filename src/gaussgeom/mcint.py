"""Iterative adaptive importance-sampling integration over rectangles.

The adaptive integrator follows the classic per-axis binning scheme
(Lepage, J. Comput. Phys. 27, 192 (1978)): each iteration samples through a
separable piecewise-uniform grid and accumulates squared contributions per
bin; a damped update then moves the edges toward large |f|^2 by
interpolating the cumulative importance, so that each new bin holds an
equal share.  Per-iteration estimates are combined by inverse-variance
weighting, with their consistency reported as chi^2 per degree of freedom.
A plain uniform-sampling integrator is provided as a cross-check.

Arguments are read by :mod:`gaussgeom.core`'s readers, an integrand returns
one value per point, and a result beyond the float range raises ValueError.
All routines are deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _integer, _real, _real_array
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


def _check_bounds(bounds) -> tuple[np.ndarray, np.ndarray, float]:
    """The box's low corner, its widths and its volume, from (low, high) pairs."""
    box = _real_array("bounds", bounds)
    if box.ndim != 2 or box.shape[1] != 2 or not 1 <= len(box) <= MAX_DIM:
        raise ValueError(f"bounds must have shape (d, 2), dimension d 1 to {MAX_DIM}, got {box.shape}")
    lo, hi = box.T
    if np.any(hi <= lo):
        raise ValueError("each axis must have high > low")
    with np.errstate(over="ignore", invalid="ignore"):
        width = hi - lo
        vol = float(np.prod(width))
    if not np.isfinite(vol):  # an infinite or NaN bound too
        raise ValueError("bounds must be finite, and so must the volume of the box")
    return lo, width, vol


def _evaluate(f, points: np.ndarray, jac, vol: float, n_bad: int = 0, n_done: int = 0):
    """(w / 2**e, e, mean of w, variance of the mean of w / 2**e, n_bad).

    w = f(points) * jac * vol, and 2**e is the power of two near max |w|, so
    that the scaled values and their variance neither under- nor overflow;
    the scaling is exact and leaves the digits of every result as they are.
    ValueError unless f gives one real value per point and both moments of
    w are finite.  Non-finite values of f are zeroed and counted into
    ``n_bad``: IntegrationError once they pass 0.1 % of all ``n_done`` + n
    evaluations.
    """
    n = len(points)
    values = np.asarray(f(points))
    if values.shape != (n,) or values.dtype.kind not in "biuf":
        got = f"{values.dtype} of shape {values.shape}"
        raise ValueError(f"f must return {n} real values for {n} points, got {got}")
    bad = ~np.isfinite(values)
    n_bad += int(bad.sum())
    if n_bad > _NONFINITE_LIMIT * (n_done + n):
        raise IntegrationError(f"{n_bad} non-finite integrand values in {n_done + n} evaluations")
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.where(bad, 0.0, values) * jac * vol
        e = int(np.frexp(np.abs(w).max())[1])
        w = np.ldexp(w, -e)
        mean, var = float(np.ldexp(w.mean(), e)), float(w.var(ddof=1)) / n
        finite = np.isfinite([mean, np.ldexp(var, 2 * e)]).all()
    if not finite:
        raise ValueError("the weighted integrand values leave the float range")
    return w, e, mean, var, n_bad


@dataclass
class AdaptiveGrid:
    """Per-axis piecewise-uniform sampling grid on [0, 1]^d.

    ``edges[ax]`` holds nbins + 1 strictly increasing values from 0 to 1 on
    every axis.  Sampling maps uniform variates through the grid so that
    each bin receives the same number of points on average; the importance
    update moves bin edges toward regions of large accumulated weight,
    damped by ``damping``.
    """

    edges: list[np.ndarray]
    damping: float = 1.5

    def __post_init__(self):
        self.damping = _real("damping", self.damping)
        if not 0.0 < self.damping <= 2.0:
            raise ValueError("damping must lie in (0, 2]")
        edges = _real_array("edges", self.edges)  # one row per axis
        ends = edges.ndim == 2 and edges.size and (edges[:, [0, -1]] == (0.0, 1.0)).all()
        if not (ends and np.all(np.diff(edges) > 0.0)):
            raise ValueError("edges must be equal-length arrays increasing strictly from 0 to 1")
        self.edges = list(edges)

    @classmethod
    def uniform(cls, dims: int, nbins: int = 50, damping: float = 1.5) -> "AdaptiveGrid":
        nodes = np.linspace(0.0, 1.0, _integer("nbins", nbins, 1) + 1)
        return cls(edges=np.tile(nodes, (_integer("dims", dims, 1), 1)), damping=damping)

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
        t = u * nb
        bins = np.minimum(t.astype(np.intp), nb - 1)
        edges, axes = np.array(self.edges), np.arange(u.shape[1])
        low, width = edges[axes, bins], np.diff(edges)[axes, bins]
        return low + width * (t - bins), np.prod(nb * width, axis=1), bins

    def refine(self, importance: np.ndarray) -> None:
        """Damped importance update from accumulated per-bin weights."""
        for ax in range(self.dims):
            w = np.asarray(importance[:, ax], dtype=float)
            if w.sum() <= 0.0:
                continue
            w = self._smooth(w)
            m = np.clip(w / w.sum(), 1e-12, 1.0 - 1e-12)
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
        """Edges splitting the cumulative weight ``w`` into equal parts: it rises
        linearly across each old bin, so they interpolate its inverse."""
        nb = w.size
        cumulative = np.concatenate(([0.0], np.cumsum(w)))
        new = np.interp(np.arange(nb + 1) * (cumulative[-1] / nb), cumulative, edges)
        new[0], new[-1] = 0.0, 1.0
        new = np.clip(new, 0.0, 1.0)
        for i in range(1, nb):
            if new[i] <= new[i - 1]:
                new[i] = np.nextafter(new[i - 1], 2.0)
        for i in range(nb - 1, 0, -1):  # keep room below the fixed endpoint 1
            if new[i] >= new[i + 1]:
                new[i] = np.nextafter(new[i + 1], -1.0)
        return new


def _combine(estimates: list[tuple[float, float, int]]) -> tuple[float, float, float]:
    """Inverse-variance combination and chi^2/dof; ValueError outside the float range.

    Each estimate is (mean, variance in units of 4**e, e), as from
    :func:`_evaluate`.  All are taken in units of the smallest 2**e, so that
    no variance is squared or inverted outside the float range.
    """
    values, variances, exponents = np.array(estimates).T
    if np.all(variances == 0.0):
        return float(values[-1]), 0.0, 0.0
    e = int(exponents.min())
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.ldexp(values, -e)
        variances = np.ldexp(variances, 2 * (exponents.astype(int) - e))
        # Rare mixed case: treat an exactly-zero sample variance conservatively.
        positive = variances[variances > 0.0]
        variances = np.where(variances == 0.0, positive.min(), variances)
        weights = 1.0 / variances
        scaled_mean = np.sum(weights * values) / np.sum(weights)
        chi2 = float(np.sum(weights * (values - scaled_mean) ** 2))
        mean = float(np.ldexp(scaled_mean, e))
        err = float(np.ldexp(np.sqrt(1.0 / np.sum(weights)), e))
    if not np.isfinite([mean, err, chi2]).all():
        raise ValueError("the combined estimate leaves the float range")
    return mean, err, chi2 / (values.size - 1) if values.size > 1 else 0.0


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
    if they exceed 0.1% of all evaluations.  After each iteration the grid
    takes new edges by interpolating the cumulative damped importance.
    Identical (seed, configuration) reproduce the estimate bit for bit.

    Returns an :class:`McEstimate`, or ``(estimate, grid)`` when
    ``return_grid`` is set (the grid can then be reused through
    :func:`sample_from_grid`).
    """
    lo, width, vol = _check_bounds(bounds)
    iterations = _integer("iterations", iterations, 1)
    evals_per_iter = _integer("evals_per_iter", evals_per_iter, 2)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    grid = AdaptiveGrid.uniform(lo.size, nbins=nbins, damping=damping)

    estimates = []
    n_bad = 0
    for it in range(iterations):
        x01, jac, bin_idx = grid.map_points(rng.random((evals_per_iter, lo.size)))
        w, e, mean, var, n_bad = _evaluate(f, lo + width * x01, jac, vol, n_bad, it * evals_per_iter)
        estimates.append((mean, var, e))
        # Squared in units of a power of two near max |w|: exact, and finite.
        w2 = np.square(w)
        grid.refine(np.array([np.bincount(k, w2, grid.nbins) for k in bin_idx.T]).T)

    est = McEstimate(*_combine(estimates), n_evals=iterations * evals_per_iter)
    return (est, grid) if return_grid else est


def sample_from_grid(grid: AdaptiveGrid, bounds, n: int, seed: int):
    """Draw n points from a frozen grid; returns (points, importance weights).

    The weights are vol / (n * pdf) summands: ``mean(weights * f(points))``
    estimates the integral of f over the box without further adaptation.
    """
    lo, width, vol = _check_bounds(bounds)
    if grid.dims != lo.size:
        raise ValueError("grid dimension does not match the bounds")
    n = _integer("n", n, 0)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    x01, jac, _ = grid.map_points(rng.random((n, grid.dims)))
    with np.errstate(over="ignore"):
        weights = jac * vol
    if not np.isfinite(weights).all():
        raise ValueError("the importance weights leave the float range")
    return lo + width * x01, weights


def plain_integrate(f, bounds, n: int = 10_000, seed: int = 0) -> McEstimate:
    """Uniform-sampling Monte Carlo estimate over a box, with standard error."""
    lo, width, vol = _check_bounds(bounds)
    n = _integer("n", n, 2)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    _, e, mean, var, _ = _evaluate(f, lo + width * rng.random((n, lo.size)), 1.0, vol)
    std_error = float(np.ldexp(np.sqrt(var), e))
    return McEstimate(value=mean, std_error=std_error, chi2_per_dof=0.0, n_evals=n)
