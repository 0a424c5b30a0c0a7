"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every test also enforces its runtime budget.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

from gaussgeom.core import (
    DomainError,
    InvariantCoords,
    cm_from_invariants,
    invariants,
    two_mode_squeezed,
)
from gaussgeom.correlations import (
    RegionClass,
    classify_region,
    delta_bounds,
    log_negativity,
    ppt_spectrum,
)
from gaussgeom.measures import (
    FISHER_RAO,
    HILBERT_SCHMIDT,
    REDUCED_PURE,
    density_fr,
    density_hs,
    density_ratio,
    hs_density_std_form,
    numeric_metric_density,
    numeric_std_form_density,
)
from gaussgeom.mcint import plain_integrate, vegas_integrate
from gaussgeom.typicality import (
    McConfig,
    energy_constrained_stats,
    mean_logneg_fixed_purities,
    pure_state_endpoint,
    purity_cut,
    sample_energy_constrained,
)
from conftest import random_feasible_coords_batch

_LN2 = np.log(2.0)


def _batched_spectrum(sigmas):
    """Vectorized symplectic spectra of a stack of 4x4 matrices."""
    omega = np.zeros((4, 4))
    omega[0, 1] = omega[2, 3] = 1.0
    omega[1, 0] = omega[3, 2] = -1.0
    eigs = np.linalg.eigvals(omega @ sigmas)
    mods = np.sort(np.abs(eigs.imag), axis=1)
    return 0.5 * (mods[:, 0::2] + mods[:, 1::2])


def _equal_product_pair(rng, n):
    """Two spectra with identical prod(nu) and well-separated entries."""
    log_total = rng.uniform(0.5, 1.5)
    pair = []
    for _ in range(2):
        while True:
            parts = rng.uniform(0.1, 1.0, n)
            logs = log_total * parts / parts.sum()
            nu = np.sort(np.exp(logs))
            if n == 1 or np.diff(nu).min() > 0.02:
                pair.append(nu)
                break
    return pair


def test_criterion_1_measure_equivalence():
    start = time.time()
    rng = np.random.default_rng(101)
    for n in (1, 2, 3, 4):
        for _ in range(250):
            nu1, nu2 = _equal_product_pair(rng, n)
            for kind in (HILBERT_SCHMIDT, REDUCED_PURE):
                r1 = density_ratio(kind, FISHER_RAO, nu1)
                r2 = density_ratio(kind, FISHER_RAO, nu2)
                assert abs(r1 - r2) < 1e-9 * abs(r1)
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"\n[PASS] criterion 1: fixed-purity measure equivalence ({elapsed:.1f}s)")


def test_criterion_2_metric_density_validation():
    start = time.time()
    rng = np.random.default_rng(102)
    for kind, closed in ((FISHER_RAO, density_fr), (HILBERT_SCHMIDT, density_hs)):
        ratios = []
        for _ in range(20):
            while True:
                nu = np.sort(rng.uniform(1.05, 3.0, 2))
                if np.diff(nu).min() > 0.1:
                    break
            ratios.append(numeric_metric_density(nu, kind) / closed(nu))
        ratios = np.array(ratios)
        spread = (ratios.max() - ratios.min()) / ratios.mean()
        assert spread < 1e-12, f"{kind.tag}: relative spread {spread:.2e}"
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 2: numeric metric densities match closed forms ({elapsed:.1f}s)")


def test_criterion_3_std_form_density_validation():
    start = time.time()
    rng = np.random.default_rng(103)
    ratios = []
    while len(ratios) < 100:
        mu = rng.uniform(0.3, 0.9)
        ma = rng.uniform(0.4, 0.9)
        mb = rng.uniform(0.4, 0.9)
        bounds = delta_bounds(mu, ma, mb)
        if bounds is None or bounds[1] - bounds[0] < 0.1:
            continue
        width = bounds[1] - bounds[0]
        delta = rng.uniform(bounds[0] + 0.2 * width, bounds[1] - 0.2 * width)
        std = cm_from_invariants(InvariantCoords(mu, ma, mb, delta))
        if std.c_plus - abs(std.c_minus) < 0.05 or std.a * std.b - std.c_plus**2 < 0.05:
            continue
        ratios.append(numeric_std_form_density(std) / hs_density_std_form(std))
    ratios = np.array(ratios)
    spread = (ratios.max() - ratios.min()) / ratios.mean()
    assert spread < 1e-12, f"relative spread {spread:.2e}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 3: standard-form volume density validated ({elapsed:.1f}s)")


def test_criterion_4_ppt_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(104)
    coords_list = random_feasible_coords_batch(rng, 10_000)
    sigmas = np.array([cm_from_invariants(c).matrix() for c in coords_list])
    pt = np.diag([1.0, 1.0, 1.0, -1.0])
    oracle = _batched_spectrum(pt @ sigmas @ pt)
    for coords, want in zip(coords_list, oracle):
        got = ppt_spectrum(coords)
        assert abs(got.nu_tilde_minus - want[0]) < 1e-8
        assert abs(got.nu_tilde_plus - want[1]) < 1e-8
    for r in np.linspace(0.1, 1.0, 10):
        coords, _ = invariants(two_mode_squeezed(r))
        assert abs(log_negativity(coords) - 2 * r / _LN2) < 1e-9
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 4: PPT invariant formula matches matrix oracle ({elapsed:.1f}s)")


def test_criterion_5_purity_plane_cut():
    start = time.time()
    points = purity_cut(0.5, 100)
    physical = [p for p in points if p.region is not RegionClass.UNPHYSICAL]
    boundary = max(p.mu_ab for p in physical) + 0.5 / 100
    assert abs(boundary - np.sqrt(0.5)) < 0.005

    coex = [p for p in points if p.region is RegionClass.COEXISTENCE]
    assert len(coex) >= 3
    x = np.array([p.mu_ab for p in coex])
    y = np.array([p.prop_entangled for p in coex])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    assert np.abs(residuals).max() < 0.02
    assert slope < 0.0
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 5: physical boundary at sqrt(mu) and linear "
          f"coexistence cut ({elapsed:.1f}s)")


def test_criterion_6_mean_logneg_cuts():
    start = time.time()
    for mu in (0.1, 0.45, 0.8):
        sep_lo = 2.0 * mu / (1.0 + mu)
        top = np.sqrt(mu)
        ms = np.linspace(0.35 * top, 0.98 * sep_lo, 10)
        vals = [mean_logneg_fixed_purities(mu, m, m) for m in ms]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:])), f"not decreasing at mu={mu}"
        # Inside the separable band the average reaches exactly zero.
        m_band = 0.5 * (sep_lo + top)
        region, _ = classify_region(mu, m_band, m_band)
        assert region is RegionClass.ALL_SEPARABLE
        assert mean_logneg_fixed_purities(mu, m_band, m_band) == 0.0

    rng = np.random.default_rng(106)
    spots = [
        (0.5, 0.55),
        (0.45, 0.5),
        (0.1, 0.15),
        (0.8, 0.85),
        (0.3, 0.4),
    ]
    n = 1_000_000
    for mu, m in spots:
        lo, hi = delta_bounds(mu, m, m)
        deltas = rng.uniform(lo, hi, n)
        d_tilde = 4.0 / m**2 - deltas
        nu_plus_sq = 0.5 * (d_tilde + np.sqrt(np.maximum(d_tilde**2 - 4.0 / mu**2, 0.0)))
        en = np.maximum(0.5 * np.log2(mu * mu * nu_plus_sq), 0.0)
        se = en.std(ddof=1) / np.sqrt(n)
        quad_val = mean_logneg_fixed_purities(mu, m, m)
        assert abs(quad_val - en.mean()) < 3 * se, f"spot ({mu}, {m})"
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 6: mean E_N decreases along the cut and matches "
          f"uniform-seralian MC ({elapsed:.1f}s)")


def _endpoint_probe_mu(energy):
    # As close to mu = 1 as the double-precision seralian window allows: the
    # window is (1 - 1/mu)^2 while the feasibility boundary carries rounding
    # noise of order 1e-16 * (ab)^2, which grows with the energy.
    return 1.0 - max(1e-5, 1e-6 * (energy - 1.0) ** 2)


def test_criterion_7_energy_curves():
    start = time.time()
    energies = (3.0, 5.0, 8.0, 12.0)
    n_grid = 50
    for i, e in enumerate(energies):
        mu_min = 4.0 / e**2
        spacing = (1.0 - mu_min) / n_grid
        with pytest.raises(DomainError):
            energy_constrained_stats(mu_min * (1.0 - 1e-9), e)
        prev = None
        for j in range(n_grid):
            mu = mu_min + (j + 0.5) * spacing
            seed = int(np.random.SeedSequence([107, i, j]).generate_state(1)[0])
            st = energy_constrained_stats(mu, e, McConfig(seed=seed, final_evals=80_000))
            cur = [
                (x.value, x.std_error)
                for x in (st.prop_entangled, st.mean_logneg, st.prop_steerable, st.mean_steering)
            ]
            assert cur[2][0] <= cur[0][0] + 1e-12  # steerable <= entangled, pointwise
            assert 0.0 <= cur[0][0] <= 1.0 and 0.0 <= cur[2][0] <= 1.0
            if prev is not None:
                for k in range(4):
                    allowance = np.hypot(cur[k][1], prev[k][1])
                    assert cur[k][0] - prev[k][0] >= -allowance - 1e-12, (
                        f"E={e}, mu={mu}: statistic {k} decreased beyond 1 sigma"
                    )
            prev = cur
        # The curve support starts at 4/E^2 (first grid point is within one
        # spacing of it and evaluates fine; below the edge it is a domain error).
        assert mu_min + 0.5 * spacing - mu_min <= spacing

        # mu -> 1 endpoint against the pure-state quadrature.
        ep = pure_state_endpoint(e)
        st = energy_constrained_stats(
            _endpoint_probe_mu(e), e, McConfig(seed=1000 + i, final_evals=100_000)
        )
        assert ep.prop_entangled == 1.0 and ep.prop_steerable == 1.0
        for est, want in (
            (st.prop_entangled, ep.prop_entangled),
            (st.mean_logneg, ep.mean_logneg),
            (st.prop_steerable, ep.prop_steerable),
            (st.mean_steering, ep.mean_steering),
        ):
            assert abs(est.value - want) <= 3.0 * est.std_error + 1e-9
    elapsed = time.time() - start
    assert elapsed < 600.0
    print(f"\n[PASS] criterion 7: energy-curve monotonicity, ordering, support "
          f"and pure endpoint ({elapsed:.1f}s)")


def test_criterion_8_sampler_self_consistency():
    start = time.time()
    mu, e = 0.3, 8.0
    n = 100_000
    sigmas = sample_energy_constrained(mu, e, n, seed=108)

    traces = 0.5 * np.einsum("nii->n", sigmas)
    assert np.abs(traces - e).max() < 1e-9

    nus = _batched_spectrum(sigmas)
    assert nus.min() >= 1.0 - 1e-9  # bona fide (construction keeps them symmetric)

    mu_a = 1.0 / np.sqrt(np.linalg.det(sigmas[:, :2, :2]))
    mu_b = 1.0 / np.sqrt(np.linalg.det(sigmas[:, 2:, 2:]))
    deltas = (nus**2).sum(axis=1)
    d_tilde = 2.0 / mu_a**2 + 2.0 / mu_b**2 - deltas
    nu_plus_sq = 0.5 * (d_tilde + np.sqrt(np.maximum(d_tilde**2 - 4.0 / mu**2, 0.0)))
    en = np.maximum(0.5 * np.log2(mu * mu * nu_plus_sq), 0.0)
    g = np.maximum(np.log(mu / np.minimum(mu_a, mu_b)), 0.0)

    stats = energy_constrained_stats(mu, e, McConfig(seed=109, final_evals=100_000))
    for est, sample in (
        (stats.prop_entangled, (en > 1e-12).astype(float)),
        (stats.mean_logneg, en),
        (stats.prop_steerable, (g > 1e-12).astype(float)),
        (stats.mean_steering, g),
    ):
        se = np.hypot(est.std_error, sample.std(ddof=1) / np.sqrt(n))
        assert abs(est.value - sample.mean()) < 3 * se
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 8: sampler agrees with the integrator ({elapsed:.1f}s)")


def _exact_sampler_moments(mu, e):
    """Exact <Delta>, <1/mu_A + 1/mu_B> and <v^2> of the (mu, E) ensemble, v = 1/mu_A - 1/mu_B.

    With u = 1/mu_A + 1/mu_B and B(u) = min(u^2 - 4/mu, (1/mu - 1)^2), the
    ensemble weight in u is (E - u)(4/3) B^{3/2} on [2/sqrt(mu), E]; the
    v- and seralian averages leave (E - u)[(8/(3 mu)) B^{3/2} + (4/5) B^{5/2}]
    for Delta and (E - u)(4/15) B^{5/2} for v^2.  B has a kink at
    u = 1 + 1/mu, where the quadrature is split.
    """
    u_lo = 2.0 / np.sqrt(mu)
    kink = [1.0 + 1.0 / mu] if u_lo < 1.0 + 1.0 / mu < e else None

    def integral(g):
        def integrand(u):
            b = min(u * u - 4.0 / mu, (1.0 / mu - 1.0) ** 2)
            return (e - u) * g(u, b)

        return quad(integrand, u_lo, e, points=kink, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    norm = integral(lambda u, b: 4.0 / 3.0 * b**1.5)
    return (
        integral(lambda u, b: 8.0 / (3.0 * mu) * b**1.5 + 0.8 * b**2.5) / norm,
        integral(lambda u, b: u * 4.0 / 3.0 * b**1.5) / norm,
        integral(lambda u, b: 4.0 / 15.0 * b**2.5) / norm,
    )


@pytest.mark.parametrize(
    "mu, e, want",
    [
        (0.3, 8.0, (9.8043617, 5.3696603, 1.0458983)),
        (0.47, 3.0, (4.4178890, 2.9633227, 0.0541900)),
        (0.9, 12.0, (2.2296291, 5.4066273, 0.0024690)),
    ],
)
def test_sampler_moments_match_the_exact_ensemble_averages(mu, e, want):
    # The quadrature is pinned to 1e-7 at values from a separate 1-D quadrature;
    # the sampled <Delta>, <u> and <v^2> must lie within 3 standard errors of it.
    exact = _exact_sampler_moments(mu, e)
    assert np.allclose(exact, want, rtol=0.0, atol=1e-7)
    n = 200_000
    sigmas = sample_energy_constrained(mu, e, n, seed=1)
    det_a = np.linalg.det(sigmas[:, :2, :2])
    det_b = np.linalg.det(sigmas[:, 2:, 2:])
    delta = det_a + det_b + 2.0 * np.linalg.det(sigmas[:, :2, 2:])
    u = np.sqrt(det_a) + np.sqrt(det_b)
    v = np.sqrt(det_a) - np.sqrt(det_b)
    for sample, mean in zip((delta, u, v * v), exact):
        assert abs(sample.mean() - mean) < 3.0 * sample.std(ddof=1) / np.sqrt(n)


def test_criterion_9_integrator_soundness():
    start = time.time()
    cases = []

    cases.append((lambda x: 3 * x[:, 0] ** 2 * 4 * x[:, 1] ** 3, [(0, 1), (0, 1)], 1.0))

    a = 30.0
    gauss_exact = np.sqrt(np.pi / a) / 2 * (erf(np.sqrt(a) * 0.7) + erf(np.sqrt(a) * 0.3)) * 1.5
    cases.append(
        (lambda x: np.exp(-a * (x[:, 0] - 0.3) ** 2) * (1.0 + x[:, 1]), [(0, 1), (0, 1)], gauss_exact)
    )

    cos_exact = (1.0 + np.sin(12.0) / 12.0) + 1.0
    cases.append((lambda x: np.cos(3 * x[:, 0]) ** 2 + x[:, 1], [(0, 2), (0, 1)], cos_exact))

    for idx, (f, bounds, exact) in enumerate(cases):
        est = vegas_integrate(f, bounds, seed=200 + idx)
        assert abs(est.value - exact) < 3 * est.std_error, f"case {idx}"
        assert est.chi2_per_dof < 2.0, f"case {idx}: chi2/dof {est.chi2_per_dof}"
        rerun = vegas_integrate(f, bounds, seed=200 + idx)
        assert rerun == est
        cross = plain_integrate(f, bounds, n=est.n_evals, seed=300 + idx)
        err = np.hypot(est.std_error, cross.std_error)
        assert abs(est.value - cross.value) < 3.5 * err
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 9: adaptive integrator sound and deterministic ({elapsed:.1f}s)")
