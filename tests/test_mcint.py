import numpy as np
import pytest

from gaussgeom.mcint import (
    AdaptiveGrid,
    IntegrationError,
    plain_integrate,
    sample_from_grid,
    vegas_integrate,
)


def test_constant_integrand():
    est = vegas_integrate(
        lambda x: np.full(len(x), 2.5), [(0, 1), (0, 1)], iterations=4, evals_per_iter=1000, seed=1
    )
    assert abs(est.value - 2.5) < 1e-12
    assert est.std_error < 1e-12
    assert est.n_evals == 4000


def test_separable_polynomial():
    # integral of 3x^2 * 4y^3 over the unit square is 1
    est = vegas_integrate(
        lambda x: 3 * x[:, 0] ** 2 * 4 * x[:, 1] ** 3, [(0, 1), (0, 1)], seed=2
    )
    assert abs(est.value - 1.0) < 3 * est.std_error
    assert est.chi2_per_dof < 2.0


def test_gaussian_with_known_integral():
    from scipy.special import erf

    a = 30.0
    exact = (np.sqrt(np.pi) / (2 * np.sqrt(a)) * (erf(np.sqrt(a) * 0.7) + erf(np.sqrt(a) * 0.3))) * 1.5
    est = vegas_integrate(
        lambda x: np.exp(-a * (x[:, 0] - 0.3) ** 2) * (1.0 + x[:, 1]),
        [(0, 1), (0, 1)],
        seed=3,
    )
    assert abs(est.value - exact) < 3 * est.std_error


def test_adaptive_beats_plain_on_peak():
    def peak(x):
        return np.exp(-((x[:, 0] - 0.5) / 0.02) ** 2 - ((x[:, 1] - 0.5) / 0.02) ** 2)

    ev = vegas_integrate(peak, [(0, 1), (0, 1)], seed=4)
    ep = plain_integrate(peak, [(0, 1), (0, 1)], n=ev.n_evals, seed=4)
    assert ev.std_error**2 * 5 < ep.std_error**2


def test_plain_constant_exact():
    est = plain_integrate(lambda x: np.ones(len(x)), [(0, 1), (0, 1)], n=500, seed=5)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_plain_agrees_with_vegas():
    f = lambda x: np.cos(3 * x[:, 0]) ** 2 + x[:, 1]
    ev = vegas_integrate(f, [(0, 2), (0, 1)], seed=6)
    ep = plain_integrate(f, [(0, 2), (0, 1)], n=40_000, seed=7)
    err = np.hypot(ev.std_error, ep.std_error)
    assert abs(ev.value - ep.value) < 3 * err


def test_plain_error_shrinks_with_sqrt_n():
    f = lambda x: x[:, 0] ** 2
    ratios = []
    for rep in range(100):
        e1 = plain_integrate(f, [(0, 1)], n=400, seed=100 + rep)
        e2 = plain_integrate(f, [(0, 1)], n=800, seed=10_000 + rep)
        ratios.append(e1.std_error / e2.std_error)
    mean_ratio = float(np.mean(ratios))
    assert 1.3 < mean_ratio < 1.6


def test_deterministic_reruns():
    f = lambda x: np.exp(-x[:, 0]) * x[:, 1]
    kw = dict(bounds=[(0, 1), (0, 2)], iterations=5, evals_per_iter=2000, seed=42)
    e1 = vegas_integrate(f, **kw)
    e2 = vegas_integrate(f, **kw)
    assert e1 == e2
    p1 = plain_integrate(f, [(0, 1), (0, 2)], n=5000, seed=42)
    p2 = plain_integrate(f, [(0, 1), (0, 2)], n=5000, seed=42)
    assert p1 == p2


def test_affine_reparametrization():
    c = 1.7
    f = lambda x: np.full(len(x), c)
    e1 = vegas_integrate(f, [(0, 1), (0, 1)], iterations=3, evals_per_iter=500, seed=10)
    e2 = vegas_integrate(f, [(2, 5), (-1, 1)], iterations=3, evals_per_iter=500, seed=10)
    assert e2.value == pytest.approx(6.0 * e1.value, rel=1e-12, abs=0.0)


def test_nonfinite_handling():
    def mostly_bad(x):
        out = np.ones(len(x))
        out[x[:, 0] > 0.5] = np.nan
        return out

    with pytest.raises(IntegrationError, match="non-finite"):
        vegas_integrate(mostly_bad, [(0, 1)], iterations=2, evals_per_iter=1000, seed=11)

    def rarely_bad(x):
        out = np.ones(len(x))
        out[x[:, 0] > 0.99995] = np.inf
        return out

    est = vegas_integrate(rarely_bad, [(0, 1)], iterations=2, evals_per_iter=1000, seed=11)
    assert np.isfinite(est.value)


def test_dimension_limit():
    with pytest.raises(ValueError, match="dimension"):
        vegas_integrate(lambda x: np.ones(len(x)), [(0, 1)] * 5)
    with pytest.raises(ValueError, match="high > low"):
        plain_integrate(lambda x: np.ones(len(x)), [(1, 1)])


def test_grid_validation_and_sampling():
    with pytest.raises(ValueError, match="damping"):
        AdaptiveGrid.uniform(2, damping=3.0)
    grid = AdaptiveGrid.uniform(2, nbins=10)
    pts, w = sample_from_grid(grid, [(0, 2), (0, 1)], 1000, seed=12)
    assert pts.shape == (1000, 2)
    assert np.all((pts[:, 0] >= 0) & (pts[:, 0] <= 2))
    assert np.allclose(w, 2.0)  # uniform grid: weight is the volume


def test_grid_adapts_toward_peak():
    def peak(x):
        return np.exp(-((x[:, 0] - 0.25) / 0.01) ** 2)

    est, grid = vegas_integrate(
        peak, [(0, 1)], iterations=8, evals_per_iter=5000, seed=13, return_grid=True
    )
    edges = grid.edges[0]
    near = np.sum((edges > 0.2) & (edges < 0.3))
    assert near > 0.5 * (len(edges) - 1)  # most bins concentrate near the peak
