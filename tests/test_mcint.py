import warnings

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
    with pytest.raises(ValueError, match="grid dimension does not match the bounds"):
        sample_from_grid(AdaptiveGrid.uniform(2), [(0, 1)], 4, 1)


def test_zero_importance_leaves_the_grid_and_a_zero_integrand_is_exact():
    grid = AdaptiveGrid.uniform(2, nbins=4)
    before = [e.copy() for e in grid.edges]
    grid.refine(np.zeros((4, 2)))
    assert [e.tolist() for e in grid.edges] == [e.tolist() for e in before]
    res = vegas_integrate(lambda x: np.zeros(len(x)), [(0, 1)], iterations=3, evals_per_iter=100)
    assert (res.value, res.std_error) == (0.0, 0.0)


def test_grid_adapts_toward_peak():
    def peak(x):
        return np.exp(-((x[:, 0] - 0.25) / 0.01) ** 2)

    est, grid = vegas_integrate(
        peak, [(0, 1)], iterations=8, evals_per_iter=5000, seed=13, return_grid=True
    )
    edges = grid.edges[0]
    near = np.sum((edges > 0.2) & (edges < 0.3))
    assert near > 0.5 * (len(edges) - 1)  # most bins concentrate near the peak


# ---------------------------------------------------------------------------
# The rebinning, against the accumulate-and-split loop it replaced.


def _redistribute_loop(edges, w):
    """Reference rebinning: walk the bins, splitting off total/nbins at a time."""
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
    for i in range(nb - 1, 0, -1):
        if new[i] >= new[i + 1]:
            new[i] = np.nextafter(new[i + 1], -1.0)
    return new


def _random_edges(rng, nb):
    widths = rng.random(nb) ** 3 + 1e-9
    edges = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
    edges[-1] = 1.0
    return edges


def test_redistribute_matches_the_accumulate_and_split_loop():
    # Both are the same piecewise-linear inverse of the cumulative weight;
    # they differ only in how the running sums round.
    rng = np.random.default_rng(29)
    for trial in range(2000):
        nb = int(rng.integers(1, 80))
        edges = _random_edges(rng, nb)
        if trial % 3 == 0:
            w = rng.random(nb)
        elif trial % 3 == 1:  # the damped weights that refine passes on
            importance = rng.random(nb) ** rng.uniform(1, 30)
            m = np.clip(importance / importance.sum(), 1e-12, 1 - 1e-12)
            w = ((1 - m) / -np.log(m)) ** rng.uniform(0.05, 2.0)
        else:
            w = 10.0 ** rng.uniform(-6, 6, nb)
        got = AdaptiveGrid._redistribute(edges, w)
        np.testing.assert_allclose(got, _redistribute_loop(edges, w), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("tiny", [0.0, 1e-300])
def test_redistribute_keeps_edges_strictly_increasing(tiny):
    rng = np.random.default_rng(7)
    for nb in (1, 2, 3, 5, 20, 50):
        edges = _random_edges(rng, nb)
        cases = [np.full(nb, tiny), rng.random(nb), np.ones(nb)]
        cases[0][rng.integers(nb)] = 1.0  # one live bin
        cases[1][rng.random(nb) < 0.7] = tiny  # scattered dead bins
        cases[2][: nb // 2] = tiny  # a dead half
        for w in cases:
            new = AdaptiveGrid._redistribute(edges, w)
            assert new[0] == 0.0 and new[-1] == 1.0
            assert np.all(np.diff(new) > 0.0), (nb, w, new)


# ---------------------------------------------------------------------------
# The integrand rule and the float range.


_WRONG_INTEGRANDS = {
    "one value too many": lambda x: np.ones(len(x) + 1),
    "a scalar": lambda x: 1.0,
    "a column": lambda x: np.ones((len(x), 1)),
    "complex values": lambda x: x[:, 0] + 1j,
    "strings": lambda x: np.full(len(x), "1"),
}


@pytest.mark.parametrize("f", _WRONG_INTEGRANDS.values(), ids=_WRONG_INTEGRANDS.keys())
@pytest.mark.parametrize("integrate", [plain_integrate, vegas_integrate])
def test_integrand_must_return_one_value_per_point(integrate, f):
    # plain_integrate gave a silently wrong estimate, or warned and gave a
    # NaN error bar; vegas_integrate leaked numpy's broadcast error, took a
    # scalar as n_evals = 2 values, or broadcast a column to (n, n).  Complex
    # values warned and lost their imaginary part; strings were parsed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="f must return 100 real values for 100 points"):
            if integrate is plain_integrate:
                plain_integrate(f, [(0, 1)], n=100)
            else:
                vegas_integrate(f, [(0, 1)], iterations=2, evals_per_iter=100)


def test_vegas_scales_exactly_with_a_power_of_two_beyond_the_square_range():
    # Weights near 2**513 have finite sums of squared deviations, but their
    # squares overflowed into the importance of the grid update.
    def f(x):
        return 1.0 + 0.01 * np.exp(-((x[:, 0] - 0.3) / 0.1) ** 2)

    kw = dict(iterations=1, evals_per_iter=2000, seed=3, return_grid=True)
    base, grid = vegas_integrate(f, [(0, 1)], **kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big, big_grid = vegas_integrate(lambda x: 2.0**513 * f(x), [(0, 1)], **kw)
    assert big.value == 2.0**513 * base.value
    assert big.std_error == 2.0**513 * base.std_error
    assert np.array_equal(big_grid.edges[0], grid.edges[0])


_OUT_OF_RANGE = {
    "plain, volume times f": lambda: plain_integrate(lambda x: x[:, 0], [(0, 1e308)], n=8),
    "plain, volume": lambda: plain_integrate(lambda x: x[:, 0], [(0, 1e200), (0, 1e200)]),
    "vegas, variance": lambda: vegas_integrate(
        lambda x: np.full(len(x), 1e200), [(0, 1)], iterations=2, evals_per_iter=100
    ),
    "sample_from_grid, volume": lambda: sample_from_grid(
        AdaptiveGrid.uniform(2), [(0, 1e200), (0, 1e200)], 4, 1
    ),
    "sample_from_grid, weights": lambda: sample_from_grid(
        AdaptiveGrid([np.array([0.0, 0.9, 1.0])]), [(0, 1.7e308)], 64, 1
    ),
}


@pytest.mark.parametrize("call", _OUT_OF_RANGE.values(), ids=_OUT_OF_RANGE.keys())
def test_results_beyond_the_float_range_raise_value_error(call):
    # Each leaked a numpy overflow RuntimeWarning (and then an inf or NaN).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range|finite"):
            call()


def test_vegas_error_bars_below_the_normal_range():
    # The variance of each iteration (about 1e-323) was subnormal, and its
    # inverse left the float range; the moments are now taken in units of a
    # power of two near the largest value.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = vegas_integrate(lambda x: 1e-160 * x[:, 0], [(0, 1)], iterations=3, evals_per_iter=100)
    assert np.isfinite(est.value) and est.std_error > 0.0
    assert abs(est.value - 5e-161) <= 3.0 * est.std_error


def test_grid_edges_are_read_and_checked():
    # A NaN edge was accepted (its comparisons are all false), and unequal
    # axes indexed past the shorter one.
    for edges in (
        [np.array([0.0, np.nan, 1.0])],
        [np.array([0.0, 1.0, 1.0])],
        [],
        [["0", "1"]],
    ):
        with pytest.raises(ValueError, match="edges must"):
            AdaptiveGrid(edges)
    with pytest.raises(ValueError):
        AdaptiveGrid([np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0])])
    grid = AdaptiveGrid([[0, 0.5, 1]], damping=np.float32(0.5))
    assert grid.edges[0].dtype == np.float64 and type(grid.damping) is float


def test_integrand_may_return_integers_or_bools():
    # An indicator or a count is read as the float it stands for.
    kw = dict(n=400, seed=8)
    want = plain_integrate(lambda x: (x[:, 0] < 0.3).astype(float), [(0, 1)], **kw)
    assert plain_integrate(lambda x: x[:, 0] < 0.3, [(0, 1)], **kw) == want
    doubled = plain_integrate(lambda x: 2 * (x[:, 0] < 0.3).astype(np.int64), [(0, 1)], **kw)
    assert doubled.value == 2 * want.value
