import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from gaussgeom.core import (
    DomainError,
    InvariantCoords,
    cm_from_invariants,
    invariants,
    is_bona_fide,
)
from gaussgeom.correlations import (
    RegionClass,
    delta_bounds,
    delta_bounds_batch,
    log_negativity,
)
from gaussgeom.typicality import (
    EnergyEnsemble,
    LocalSympSample,
    McConfig,
    assemble_covmat,
    energy_constrained_ratio,
    energy_constrained_stats,
    energy_weight,
    mean_logneg_fixed_purities,
    pure_state_endpoint,
    purity_cut,
    sample_energy_constrained,
    scan_purity_plane,
)
from gaussgeom.typicality import _covmats
from conftest import oracle_spectrum

_LN2 = np.log(2.0)


# ---------------------------------------------------------------------------
# Purity-constrained averages


def test_mean_logneg_zero_in_separable_region():
    assert mean_logneg_fixed_purities(0.5, 0.69, 0.69) == 0.0


def test_mean_logneg_unphysical_raises():
    with pytest.raises(DomainError):
        mean_logneg_fixed_purities(0.5, 0.75, 0.75)


def test_mean_logneg_decreasing_on_diagonal():
    mu = 0.45
    ms = np.linspace(0.2, 0.6, 9)
    vals = [mean_logneg_fixed_purities(mu, m, m) for m in ms]
    assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


def test_mean_logneg_matches_uniform_delta_mc():
    mu, m = 0.5, 0.55
    lo, hi = delta_bounds(mu, m, m)
    rng = np.random.default_rng(41)
    n = 200_000
    deltas = rng.uniform(lo, hi, n)
    # Vectorized uniform-seralian oracle built from the raw PPT formulas.
    d_tilde = 2.0 / m**2 + 2.0 / m**2 - deltas
    nu_plus_sq = 0.5 * (d_tilde + np.sqrt(np.maximum(d_tilde**2 - 4.0 / mu**2, 0.0)))
    en = np.maximum(0.5 * np.log2(mu * mu * nu_plus_sq), 0.0)
    se = en.std(ddof=1) / np.sqrt(n)
    quad_val = mean_logneg_fixed_purities(mu, m, m)
    assert abs(quad_val - en.mean()) < 3 * se


@pytest.mark.parametrize("mu", [0.99, 0.999, 0.9999])
def test_mean_logneg_near_pure_matches_quadrature(mu):
    # The seralian window (1 - 1/mu)^2 shrinks to 1e-8 at mu = 0.9999; a
    # closed form that subtracts antiderivative values of order one loses
    # the mean to cancellation there.  Physical diagonal points end at
    # sqrt(mu).
    from scipy.integrate import quad

    for m in np.linspace(mu, np.sqrt(mu), 9)[1:-1]:
        lo, hi = delta_bounds(mu, m, m)

        def en(t):
            # Raw PPT formula at Delta = lo + t (hi - lo).
            d_tilde = 4.0 / m**2 - (lo + t * (hi - lo))
            nu_plus_sq = 0.5 * (d_tilde + np.sqrt(max(d_tilde**2 - 4.0 / mu**2, 0.0)))
            return max(0.5 * np.log2(mu * mu * nu_plus_sq), 0.0)

        t_thr = (4.0 / m**2 - 1.0 - 1.0 / mu**2 - lo) / (hi - lo)
        points = [t_thr] if 0.0 < t_thr < 1.0 else None
        oracle, _ = quad(en, 0.0, 1.0, points=points, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert abs(mean_logneg_fixed_purities(mu, m, m) - oracle) < 1e-9, f"mu_A = mu_B = {m}"


def test_mean_logneg_degenerate_interval():
    # Pure states have a single seralian value; the mean is a point value.
    got = mean_logneg_fixed_purities(1.0, 0.8, 0.8)
    assert got == pytest.approx(log_negativity(InvariantCoords(1.0, 0.8, 0.8, 2.0)), abs=1e-12)


def test_scan_purity_plane_topology_at_half():
    cells = scan_purity_plane(0.5, 40)
    regions = {c.region for c in cells}
    assert {
        RegionClass.UNPHYSICAL,
        RegionClass.ALL_SEPARABLE,
        RegionClass.COEXISTENCE,
        RegionClass.ALL_ENTANGLED,
    } <= regions
    for c in cells:
        if c.region is RegionClass.UNPHYSICAL:
            assert c.prop_entangled is None and c.mean_logneg is None
        else:
            assert 0.0 <= c.prop_entangled <= 1.0
            assert c.mean_logneg >= 0.0


def test_scan_purity_plane_pure_states():
    cells = scan_purity_plane(1.0, 20)
    for c in cells:
        if abs(c.mu_a - c.mu_b) > 1e-12:
            assert c.region is RegionClass.UNPHYSICAL
        elif c.mu_a == 1.0:
            assert c.region is RegionClass.ALL_SEPARABLE
        else:
            assert c.region is RegionClass.ALL_ENTANGLED


def test_purity_cut_rows():
    points = purity_cut(0.5, 20)
    assert len(points) == 20
    assert points[-1].region is RegionClass.UNPHYSICAL
    physical = [p for p in points if p.region is not RegionClass.UNPHYSICAL]
    assert physical and all(p.mean_logneg is not None for p in physical)


# ---------------------------------------------------------------------------
# Energy-constrained ensemble


def test_energy_weight_examples():
    assert energy_weight(0.5, 0.5, 4.0) == 0.0
    assert energy_weight(1.0, 1.0, 4.0) == pytest.approx(2.0, abs=1e-12)
    # Compact support: zero whenever mu_A < 1/(E-1).
    e = 5.0
    mu_a = 1.0 / (e - 1.0) - 1e-6
    assert energy_weight(mu_a, 1.0, e) == 0.0
    assert np.all(energy_weight(np.array([0.3, 0.9]), np.array([0.9, 0.9]), 5.0) > 0.0)


def test_energy_ensemble_validation():
    with pytest.raises(DomainError, match="exceed 2"):
        EnergyEnsemble(0.5, 2.0)
    with pytest.raises(DomainError, match="must lie in"):
        EnergyEnsemble(4.0 / 25.0, 5.0)  # mu exactly at the lower edge
    with pytest.raises(DomainError, match="must lie in"):
        EnergyEnsemble(1.0, 5.0)
    EnergyEnsemble(0.5, 5.0)


def test_energy_constrained_ratio_of_ones_is_exact():
    est = energy_constrained_ratio(
        0.4, 6.0, lambda mu_a, mu_b, lo, hi: hi - lo, McConfig(seed=2, final_evals=5000)
    )
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_energy_stats_basic_properties():
    stats = energy_constrained_stats(0.3, 8.0, McConfig(seed=3, final_evals=30_000))
    for est in (stats.prop_entangled, stats.prop_steerable):
        assert 0.0 <= est.value <= 1.0
    assert stats.prop_steerable.value <= stats.prop_entangled.value
    assert stats.mean_logneg.value > 0.0
    assert stats.mean_steering.value >= 0.0
    assert stats.prop_entangled.std_error > 0.0


def test_energy_stats_deterministic():
    cfg = McConfig(seed=11, adapt_iterations=3, adapt_evals=1000, final_evals=5000)
    s1 = energy_constrained_stats(0.4, 5.0, cfg)
    s2 = energy_constrained_stats(0.4, 5.0, cfg)
    assert s1 == s2


def test_energy_stats_vegas_vs_plain():
    for mu, e in ((0.3, 8.0), (0.5, 40.0)):
        sv = energy_constrained_stats(mu, e, McConfig(seed=5, final_evals=40_000))
        sp = energy_constrained_stats(
            mu, e, McConfig(seed=6, method="plain", final_evals=120_000)
        )
        for a, b in (
            (sv.prop_entangled, sp.prop_entangled),
            (sv.mean_logneg, sp.mean_logneg),
            (sv.prop_steerable, sp.prop_steerable),
            (sv.mean_steering, sp.mean_steering),
        ):
            err = np.hypot(a.std_error, b.std_error)
            assert abs(a.value - b.value) < 3.5 * err


def test_energy_stats_domain_errors():
    with pytest.raises(DomainError):
        energy_constrained_stats(0.1, 5.0)  # below 4/E^2 = 0.16
    with pytest.raises(DomainError):
        energy_constrained_stats(0.5, 1.5)


@pytest.mark.parametrize(
    "mu,e", [(0.5, np.inf), (0.5, np.nan), (np.nan, 5.0), (-np.inf, 5.0)]
)
def test_energy_ensemble_rejects_non_finite(mu, e):
    with pytest.raises(DomainError, match="finite"):
        energy_constrained_stats(mu, e)
    with pytest.raises(DomainError, match="finite"):
        sample_energy_constrained(mu, e, 10)


@pytest.mark.parametrize(
    "field,value",
    [("final_evals", 1), ("adapt_evals", 1), ("adapt_iterations", 0), ("nbins", 0)],
)
def test_mc_config_rejects_degenerate_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        McConfig(**{field: value})


# ---------------------------------------------------------------------------
# Pure-state endpoint


def test_pure_endpoint_vacuum():
    ep = pure_state_endpoint(2.0)
    assert (ep.prop_entangled, ep.mean_logneg, ep.prop_steerable, ep.mean_steering) == (
        0.0, 0.0, 0.0, 0.0,
    )


def test_pure_endpoint_proportions_are_one():
    for e in (3.0, 4.0, 8.0):
        ep = pure_state_endpoint(e)
        assert ep.prop_entangled == 1.0
        assert ep.prop_steerable == 1.0


def test_pure_endpoint_denominator_closed_form():
    # The weight integral of (E - 2 nu) over [1, E/2] is (E/2 - 1)^2; check
    # the quadrature-normalized means against a direct evaluation.
    e = 5.0
    ep = pure_state_endpoint(e)
    from scipy.integrate import quad

    num_g, _ = quad(lambda v: np.log(v) * (e - 2 * v), 1.0, e / 2.0)
    assert ep.mean_steering == pytest.approx(num_g / (e / 2.0 - 1.0) ** 2, rel=1e-10)


def test_pure_endpoint_matches_rejection_sampler():
    e = 4.0
    ep = pure_state_endpoint(e)
    rng = np.random.default_rng(44)
    n = 400_000
    # Joint density over (nu, lambda_A) after the energy delta is
    # proportional to nu on 1 <= lambda_A <= E/nu - 1.
    nu = rng.uniform(1.0, e / 2.0, n)
    lam = rng.uniform(1.0, e - 1.0, n)
    u = rng.random(n)
    accept = (u * (e / 2.0) < nu) & (lam <= e / nu - 1.0)
    nu = nu[accept]
    en = np.arccosh(nu) / _LN2
    g = np.log(nu)
    for value, sample in ((ep.mean_logneg, en), (ep.mean_steering, g)):
        se = sample.std(ddof=1) / np.sqrt(sample.size)
        assert abs(value - sample.mean()) < 3 * se


def test_pure_endpoint_validation():
    with pytest.raises(DomainError):
        pure_state_endpoint(1.5)


# ---------------------------------------------------------------------------
# Energy-constrained sampler


def test_assemble_covmat_energy_identity():
    std = cm_from_invariants(InvariantCoords(0.4, 0.7, 0.5, 6.0))
    sample = LocalSympSample(lambda_a=1.3, lambda_b=1.1, angles=(0.3, 1.2, 4.0, 2.2))
    sigma = assemble_covmat(std, sample)
    want = sample.lambda_a / 0.7 + sample.lambda_b / 0.5
    assert 0.5 * np.trace(sigma) == pytest.approx(want, abs=1e-12)
    assert is_bona_fide(sigma)
    coords, _ = invariants(sigma)
    assert coords.mu == pytest.approx(0.4, abs=1e-9)


def test_local_symp_sample_validation():
    with pytest.raises(ValueError, match=">= 1"):
        LocalSympSample(0.5, 1.0, (0, 0, 0, 0))


def test_sampler_constraints_hold():
    mu, e = 0.3, 8.0
    sigmas = sample_energy_constrained(mu, e, 20_000, seed=7)
    assert sigmas.shape == (20_000, 4, 4)
    traces = 0.5 * np.einsum("nii->n", sigmas)
    assert np.abs(traces - e).max() < 1e-9
    # Vectorized physicality: dets, marginal dets and PPT-style spectra.
    spectra = np.array([oracle_spectrum(s) for s in sigmas[:500]])
    assert spectra.min() >= 1.0 - 1e-9
    mus = 1.0 / np.sqrt(np.linalg.det(sigmas))
    assert np.abs(mus - mu).max() < 1e-8


def test_sampler_deterministic():
    s1 = sample_energy_constrained(0.4, 6.0, 500, seed=9)
    s2 = sample_energy_constrained(0.4, 6.0, 500, seed=9)
    np.testing.assert_array_equal(s1, s2)


@pytest.mark.parametrize("mu,e,seed", [(0.3, 8.0, 10), (0.45, 5.0, 20), (0.6, 12.0, 30)])
def test_sampler_matches_integrator(mu, e, seed):
    n = 25_000
    sigmas = sample_energy_constrained(mu, e, n, seed=seed)
    det_a = np.linalg.det(sigmas[:, :2, :2])
    det_b = np.linalg.det(sigmas[:, 2:, 2:])
    mu_a = 1.0 / np.sqrt(det_a)
    mu_b = 1.0 / np.sqrt(det_b)
    nus = np.array([oracle_spectrum(s) for s in sigmas])
    deltas = (nus**2).sum(axis=1)

    d_tilde = 2.0 / mu_a**2 + 2.0 / mu_b**2 - deltas
    nu_plus_sq = 0.5 * (d_tilde + np.sqrt(np.maximum(d_tilde**2 - 4.0 / mu**2, 0.0)))
    en = np.maximum(0.5 * np.log2(mu * mu * nu_plus_sq), 0.0)
    g = np.maximum(np.log(mu / np.minimum(mu_a, mu_b)), 0.0)

    stats = energy_constrained_stats(mu, e, McConfig(seed=seed + 1, final_evals=60_000))
    for est, sample in (
        (stats.prop_entangled, (en > 1e-12).astype(float)),
        (stats.mean_logneg, en),
        (stats.prop_steerable, (g > 1e-12).astype(float)),
        (stats.mean_steering, g),
    ):
        se = np.hypot(est.std_error, sample.std(ddof=1) / np.sqrt(n))
        assert abs(est.value - sample.mean()) < 3.5 * se


def test_mean_logneg_is_a_pure_seralian_integral():
    # The local-group volumes cancel exactly, so the computation path takes
    # no group parameters, no seed and no regularization knobs.
    import inspect

    params = set(inspect.signature(mean_logneg_fixed_purities).parameters)
    assert params == {"mu", "mu_a", "mu_b"}
    a = mean_logneg_fixed_purities(0.5, 0.55, 0.55)
    b = mean_logneg_fixed_purities(0.5, 0.55, 0.55)
    assert a == b


def test_sampler_marginal_distribution_ks():
    from scipy.integrate import trapezoid
    from scipy.stats import ks_1samp

    mu, e = 0.3, 8.0
    n = 20_000
    sigmas = sample_energy_constrained(mu, e, n, seed=12)
    mu_a = 1.0 / np.sqrt(np.linalg.det(sigmas[:, :2, :2]))

    # Numeric marginal density of mu_A: integrate weight * interval length
    # over mu_B, then build the CDF on a fine grid.
    grid = np.linspace(1.0 / (e - 1.0), 1.0, 401)
    dens = np.empty_like(grid)
    for i, ma in enumerate(grid):
        mb = np.linspace(1.0 / (e - 1.0), 1.0, 401)
        w = energy_weight(np.full_like(mb, ma), mb, e)
        lo, hi, valid = delta_bounds_batch(mu, np.full_like(mb, ma), mb)
        length = np.where(valid, np.nan_to_num(hi - lo), 0.0)
        dens[i] = trapezoid(w * length, mb)
    cdf_grid = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(grid))])
    cdf_grid /= cdf_grid[-1]

    def cdf(x):
        return np.interp(x, grid, cdf_grid)

    result = ks_1samp(mu_a, cdf)
    assert result.pvalue > 0.01


def test_sampler_validation():
    with pytest.raises(DomainError):
        sample_energy_constrained(0.1, 5.0, 10)
    with pytest.raises(ValueError, match="count"):
        sample_energy_constrained(0.5, 5.0, 0)


@pytest.mark.parametrize("count", [2.5, 10.0, "10", None])
def test_sampler_rejects_non_integer_count(count):
    with pytest.raises(ValueError, match="count must be an integer"):
        sample_energy_constrained(0.3, 8.0, count)


def test_sampler_covers_energy_curve_grid():
    # Every point of the criterion-7 energy curves, the first of them right
    # next to the support edge mu = 4/E^2, and the boundary point that the
    # whole-window proposal could not reach.
    start = time.time()
    count = 200
    points = [(0.45, 3.0), (0.4445, 3.0)]
    for e in (3.0, 5.0, 8.0, 12.0):
        mu_min = 4.0 / e**2
        spacing = (1.0 - mu_min) / 50
        points += [(mu_min + (j + 0.5) * spacing, e) for j in range(50)]
    for k, (mu, e) in enumerate(points):
        sigmas = sample_energy_constrained(mu, e, count, seed=k)
        assert sigmas.shape == (count, 4, 4)
        assert np.abs(0.5 * np.einsum("nii->n", sigmas) - e).max() < 1e-9
        assert np.abs(1.0 / np.sqrt(np.linalg.det(sigmas)) - mu).max() < 1e-9
        assert all(is_bona_fide(s) for s in sigmas)
    assert time.time() - start < 60.0


def _brute_force_sample(mu, e, count, seed):
    """Invariants drawn by the whole-window rejection scheme.

    (mu_A, mu_B, Delta) uniform on [1/(E-1), 1]^2 x [2/mu, 1 + 1/mu^2],
    accepted against the energy weight and the seralian interval.  The
    weight (E - x - y) x^2 y^2 (x = 1/mu_A, y = 1/mu_B) is at most
    (E - s) s^4 / 16 with s = x + y, whose maximum is 16 E^5 / 3125.
    """
    rng = np.random.default_rng(seed)
    w_max = 16.0 * e**5 / 3125.0
    parts = []
    n_acc = 0
    while n_acc < count:
        mu_a = rng.uniform(1.0 / (e - 1.0), 1.0, 65_536)
        mu_b = rng.uniform(1.0 / (e - 1.0), 1.0, 65_536)
        delta = rng.uniform(2.0 / mu, 1.0 + 1.0 / mu**2, 65_536)
        weight = energy_weight(mu_a, mu_b, e)
        assert weight.max() <= w_max
        lo, hi, valid = delta_bounds_batch(mu, mu_a, mu_b)
        lo, hi = np.where(valid, lo, np.inf), np.where(valid, hi, -np.inf)
        ok = (rng.random(65_536) * w_max < weight) & (lo <= delta) & (delta <= hi)
        parts.append(np.stack([mu_a[ok], mu_b[ok], delta[ok]], axis=1))
        n_acc += int(ok.sum())
    return np.concatenate(parts)[:count]


@pytest.mark.parametrize("mu,e,seed", [(0.3, 8.0, 40), (0.47, 3.0, 41)])
def test_sampler_matches_brute_force_oracle(mu, e, seed):
    n = 3000
    want = _brute_force_sample(mu, e, n, seed)
    sigmas = sample_energy_constrained(mu, e, n, seed=seed + 100)
    det_a = np.linalg.det(sigmas[:, :2, :2])
    det_b = np.linalg.det(sigmas[:, 2:, 2:])
    got = np.stack(
        [
            1.0 / np.sqrt(det_a),
            1.0 / np.sqrt(det_b),
            det_a + det_b + 2.0 * np.linalg.det(sigmas[:, :2, 2:]),  # seralian
        ],
        axis=1,
    )
    for k in range(3):
        assert ks_2samp(got[:, k], want[:, k]).pvalue > 0.01


def _reference_covmat(std, lam_a, lam_b, angles):
    """(S_A + S_B)^T sigma_std (S_A + S_B) by explicit 4x4 matrix products."""

    def rot(t):
        return np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])

    def local(lam, inner, outer):
        w = np.sqrt(lam + np.sqrt(lam * lam - 1.0))
        return rot(outer) @ np.diag([w, 1.0 / w]) @ rot(inner)

    s = np.zeros((4, 4))
    s[:2, :2] = local(lam_a, angles[0], angles[1])
    s[2:, 2:] = local(lam_b, angles[2], angles[3])
    return s.T @ std.matrix() @ s


_angle = st.floats(0.0, 2.0 * np.pi)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    mu=st.floats(0.05, 0.99),
    mu_a=st.floats(0.05, 1.0),
    mu_b=st.floats(0.05, 1.0),
    frac=st.floats(0.0, 1.0),
    lam_a=st.floats(1.0, 30.0),
    lam_b=st.floats(1.0, 30.0),
    angles=st.tuples(_angle, _angle, _angle, _angle),
    row=st.integers(0, 2),
)
def test_assemble_covmat_is_a_row_of_the_batched_builder(
    mu, mu_a, mu_b, frac, lam_a, lam_b, angles, row
):
    bounds = delta_bounds(mu, mu_a, mu_b)
    assume(bounds is not None)
    delta = bounds[0] + frac * (bounds[1] - bounds[0])
    std = cm_from_invariants(InvariantCoords(mu, mu_a, mu_b, delta))
    sigma = assemble_covmat(std, LocalSympSample(lam_a, lam_b, angles))

    # The same sample as one row of a batch of three.
    lam_a_all, lam_b_all = np.array([1.5, 2.5, 3.5]), np.array([3.5, 2.5, 1.5])
    all_angles = np.full((3, 4), 0.25)
    lam_a_all[row], lam_b_all[row], all_angles[row] = lam_a, lam_b, angles
    batch = _covmats(std.a, std.b, std.c_plus, std.c_minus, lam_a_all, lam_b_all, all_angles)
    scale = np.abs(sigma).max()
    np.testing.assert_allclose(sigma, batch[row], rtol=0.0, atol=1e-13 * scale)
    np.testing.assert_array_equal(sigma, sigma.T)
    ref = _reference_covmat(std, lam_a, lam_b, angles)
    np.testing.assert_allclose(sigma, ref, rtol=0.0, atol=1e-12 * scale)
    want = lam_a / mu_a + lam_b / mu_b
    assert 0.5 * np.trace(sigma) == pytest.approx(want, rel=1e-12)
