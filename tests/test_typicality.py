import numpy as np
import pytest

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
