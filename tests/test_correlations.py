import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from gaussgeom.core import (
    DomainError,
    InvariantCoords,
    StdForm,
    cm_from_invariants,
    invariants,
    is_bona_fide,
    random_local_symplectic,
    two_mode_squeezed,
)
from gaussgeom.correlations import (
    RegionClass,
    classify_region,
    delta_bounds,
    delta_bounds_batch,
    delta_threshold,
    log_negativity,
    logneg_average,
    partial_transpose,
    ppt_spectrum,
    steerability,
    steerability_a_to_b,
    steerability_b_to_a,
)
from conftest import (
    feasible_coords,
    local_symplectics,
    oracle_spectrum,
    random_feasible_coords_batch,
)

_LN2 = np.log(2.0)


def test_partial_transpose_examples():
    diag = np.diag([2.0, 2.0, 3.0, 3.0])
    np.testing.assert_array_equal(partial_transpose(diag), diag)
    std = StdForm(1.3, 1.5, 0.4, -0.2)
    got = partial_transpose(std.matrix())
    np.testing.assert_array_equal(got, StdForm(1.3, 1.5, 0.4, 0.2).matrix())
    rng = np.random.default_rng(31)
    sigma = rng.normal(size=(4, 4))
    sigma = sigma + sigma.T
    np.testing.assert_array_equal(partial_transpose(partial_transpose(sigma)), sigma)


def test_ppt_spectrum_examples():
    ps = ppt_spectrum(InvariantCoords(1.0, 0.8, 0.8, 2.0))
    assert ps.nu_tilde_minus == pytest.approx(0.5, abs=1e-12)
    assert ps.nu_tilde_plus == pytest.approx(2.0, abs=1e-12)
    # Matrix-level oracle for the same state.
    pt = partial_transpose(StdForm(1.25, 1.25, 0.75, -0.75).matrix())
    np.testing.assert_allclose(oracle_spectrum(pt), [0.5, 2.0], atol=1e-9)

    ps = ppt_spectrum(InvariantCoords(1 / 6, 1 / 2, 1 / 3, 13.0))
    assert (ps.nu_tilde_minus, ps.nu_tilde_plus) == pytest.approx((2.0, 3.0), abs=1e-12)
    np.testing.assert_allclose(
        oracle_spectrum(partial_transpose(np.diag([2.0, 2.0, 3.0, 3.0]))), [2.0, 3.0]
    )

    ps = ppt_spectrum(InvariantCoords(1.0, 1.0, 1.0, 2.0))
    assert (ps.nu_tilde_minus, ps.nu_tilde_plus) == pytest.approx((1.0, 1.0), abs=1e-12)


def test_ppt_matches_matrix_oracle_on_random_states():
    rng = np.random.default_rng(32)
    for coords in random_feasible_coords_batch(rng, 500):
        sigma = cm_from_invariants(coords).matrix()
        got = ppt_spectrum(coords)
        want = oracle_spectrum(partial_transpose(sigma))
        assert abs(got.nu_tilde_minus - want[0]) < 1e-8
        assert abs(got.nu_tilde_plus - want[1]) < 1e-8
        assert abs(got.nu_tilde_minus * got.nu_tilde_plus - 1.0 / coords.mu) < 1e-9 / coords.mu


def test_log_negativity_examples():
    assert log_negativity(InvariantCoords(1.0, 0.8, 0.8, 2.0)) == pytest.approx(1.0, abs=1e-12)
    assert log_negativity(InvariantCoords(1 / 6, 1 / 2, 1 / 3, 13.0)) == 0.0
    for r in np.arange(0.1, 1.05, 0.1):
        coords, _ = invariants(two_mode_squeezed(r))
        assert log_negativity(coords) == pytest.approx(2 * r / _LN2, abs=1e-9)


@pytest.mark.parametrize("v", [2.0, 3.0, 4.0, 5.0, 7.0, 9.0])
def test_log_negativity_of_symmetric_thermal_states(v):
    # Delta~ = 2/mu here, so nu~_+ = nu~_- = v and rounding decides their order.
    coords, _ = invariants(np.diag([v, v, v, v]))
    assert ppt_spectrum(coords).nu_tilde_minus <= ppt_spectrum(coords).nu_tilde_plus
    assert log_negativity(coords) == 0.0


def test_steerability_examples():
    assert steerability(InvariantCoords(0.5, 0.4, 0.6, 3.0)) == pytest.approx(
        np.log(1.25), abs=1e-12
    )
    assert steerability(InvariantCoords(0.4, 0.5, 0.6, 3.0)) == 0.0
    pure = InvariantCoords(1.0, 0.5, 0.5, 2.0)
    assert steerability(pure) == pytest.approx(np.log(2.0), abs=1e-12)
    assert steerability_a_to_b(pure) == pytest.approx(np.log(2.0), abs=1e-12)
    assert steerability_b_to_a(InvariantCoords(0.5, 0.5, 0.4, 3.0)) == pytest.approx(
        np.log(1.25), abs=1e-12
    )


def test_correlations_invariant_under_local_symplectics():
    rng = np.random.default_rng(33)
    for coords in random_feasible_coords_batch(rng, 50):
        sigma = cm_from_invariants(coords).matrix()
        en0 = log_negativity(coords)
        g0 = steerability(coords)
        s = random_local_symplectic(rng)
        moved, _ = invariants(s.T @ sigma @ s, warn_nonphysical=False)
        assert log_negativity(moved) == pytest.approx(en0, abs=1e-8)
        assert steerability(moved) == pytest.approx(g0, abs=1e-8)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coords=feasible_coords(), s=local_symplectics)
def test_correlations_are_local_symplectic_invariant(coords, s):
    sigma = cm_from_invariants(coords).matrix()
    moved, _ = invariants(s.T @ sigma @ s, warn_nonphysical=False)
    assert log_negativity(moved) == pytest.approx(log_negativity(coords), abs=1e-8)
    assert steerability(moved) == pytest.approx(steerability(coords), abs=1e-8)


def test_steering_vs_logneg_claim_logged(caplog):
    # The cross-measure bound uses ambiguous log bases; log the empirical
    # violation rate of G <= E_N * ln 2 instead of asserting it.
    rng = np.random.default_rng(34)
    violations = 0
    total = 0
    for coords in random_feasible_coords_batch(rng, 500):
        g = steerability(coords)
        en = log_negativity(coords)
        total += 1
        if g > en * _LN2 + 1e-12:
            violations += 1
    logging.getLogger(__name__).info(
        "G <= E_N*ln2 violated for %d of %d random states", violations, total
    )


def test_delta_bounds_examples():
    assert delta_bounds(1.0, 1.0, 1.0) == pytest.approx((2.0, 2.0), abs=1e-9)
    assert delta_bounds(0.5, 0.75, 0.75) is None
    lo, hi = delta_bounds(0.5, 0.6, 0.6)
    assert lo == pytest.approx(4.0, abs=1e-8)
    assert hi == pytest.approx(5.0, abs=1e-8)


def test_delta_bounds_against_brute_force():
    # Scan standard-form matrices on a (c+, c-) grid, keep the bona fide ones
    # near the target purity, and compare the seralian range.
    mu, mu_ab = 0.5, 0.6
    a = 1.0 / mu_ab
    step = 1e-3
    c_max = np.sqrt(a * a) - step
    cp = np.arange(0.0, c_max, step)
    cm = np.arange(-c_max, c_max, step)
    gp, gm = np.meshgrid(cp, cm, indexing="ij")
    keep = np.abs(gm) <= gp
    gp, gm = gp[keep], gm[keep]

    mats = np.zeros((gp.size, 4, 4))
    mats[:, 0, 0] = mats[:, 1, 1] = a
    mats[:, 2, 2] = mats[:, 3, 3] = a
    mats[:, 0, 2] = mats[:, 2, 0] = gp
    mats[:, 1, 3] = mats[:, 3, 1] = gm
    dets = np.linalg.det(mats)
    shell = np.abs(1.0 / np.sqrt(np.maximum(dets, 1e-12)) - mu) < 1e-3
    gp, gm = gp[shell], gm[shell]

    deltas = []
    for c_plus, c_minus in zip(gp, gm):
        sigma = StdForm(a, a, c_plus, c_minus).matrix()
        if is_bona_fide(sigma, tol=1e-6):
            deltas.append(2 * a * a + 2 * c_plus * c_minus)
    lo, hi = delta_bounds(mu, mu_ab, mu_ab)
    # The shell thickness in mu smears the endpoints by |dDelta/dmu| ~ 2/mu^3.
    assert min(deltas) == pytest.approx(lo, abs=0.02)
    assert max(deltas) == pytest.approx(hi, abs=0.02)


def test_delta_bounds_interval_is_sharp():
    # Inside: constructible and physical.  Outside: construction fails or the
    # state is not bona fide.
    rng = np.random.default_rng(35)
    for _ in range(200):
        mu = rng.uniform(0.1, 1.0)
        ma = rng.uniform(0.1, 1.0)
        mb = rng.uniform(0.1, 1.0)
        bounds = delta_bounds(mu, ma, mb)
        if bounds is None:
            continue
        lo, hi = bounds
        if hi - lo < 1e-6:
            continue
        for delta in rng.uniform(lo, hi, 3):
            sigma = cm_from_invariants(InvariantCoords(mu, ma, mb, delta)).matrix()
            assert is_bona_fide(sigma)
        width = hi - lo
        for delta in (lo - 0.05 * width - 1e-6, hi + 0.05 * width + 1e-6):
            try:
                sigma = cm_from_invariants(InvariantCoords(mu, ma, mb, delta)).matrix()
            except DomainError:
                continue
            assert not is_bona_fide(sigma, tol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coords=feasible_coords())
def test_seralian_bounds_are_sharp(coords):
    # Both ends and an interior point give bona fide states, pure-state
    # corners included; a relative 1e-6 beyond either end gives none.
    mu, mu_a, mu_b = coords.mu, coords.mu_a, coords.mu_b
    lo, hi = delta_bounds(mu, mu_a, mu_b)
    for delta in (lo, coords.delta, hi):
        assert is_bona_fide(cm_from_invariants(InvariantCoords(mu, mu_a, mu_b, delta)).matrix())
    for delta in (lo * (1.0 - 1e-6), hi * (1.0 + 1e-6)):
        with pytest.raises(DomainError):
            cm_from_invariants(InvariantCoords(mu, mu_a, mu_b, delta))


def test_classify_region_examples():
    region, prop = classify_region(0.5, 0.75, 0.75)
    assert region is RegionClass.UNPHYSICAL
    assert np.isnan(prop)

    region, prop = classify_region(1.0, 0.8, 0.8)
    assert region is RegionClass.ALL_ENTANGLED
    assert prop == 1.0

    region, prop = classify_region(0.5, 0.65, 0.65)
    assert region is RegionClass.COEXISTENCE
    assert 0.0 < prop < 1.0

    region, prop = classify_region(0.5, 0.69, 0.69)
    assert region is RegionClass.ALL_SEPARABLE
    assert prop == 0.0


def test_classify_region_linear_cut():
    # Proportion decreases (close to linearly) along mu_A = mu_B at mu = 0.5.
    props = []
    for m in np.linspace(0.635, 0.665, 7):
        region, prop = classify_region(0.5, m, m)
        assert region is RegionClass.COEXISTENCE
        props.append(prop)
    assert all(p1 > p2 for p1, p2 in zip(props, props[1:]))


def test_delta_threshold_consistency():
    # States right below the threshold are entangled, right above separable.
    coords = InvariantCoords(0.5, 0.65, 0.65, 0.0)
    thr = delta_threshold(0.5, 0.65, 0.65)
    lo, hi = delta_bounds(0.5, 0.65, 0.65)
    assert lo < thr < hi
    below = InvariantCoords(0.5, 0.65, 0.65, thr - 1e-6)
    above = InvariantCoords(0.5, 0.65, 0.65, thr + 1e-6)
    assert log_negativity(below) > 0.0
    assert log_negativity(above) == 0.0


def test_batched_kernels_reject_bad_marginals():
    with pytest.raises(DomainError, match="mu_a = 0.0 must lie in"):
        delta_bounds_batch(0.5, [0.0, 0.5], [0.5, 0.5])
    with pytest.raises(DomainError, match="mu_b = 1.5 must lie in"):
        delta_bounds_batch(0.5, [0.5, 0.5], [0.5, 1.5])
    with pytest.raises(DomainError, match="mu_b = nan"):
        delta_bounds_batch(0.5, 0.5, np.nan)
    d_min = np.array([4.0, 4.0])
    with pytest.raises(DomainError, match="mu_a = -0.5 must lie in"):
        logneg_average(0.5, np.array([-0.5, 0.6]), np.array([0.6, 0.6]), d_min, d_min + 1.0)


def test_batched_kernels_reject_bad_marginals_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            delta_bounds_batch(0.5, [0.0, 0.5], [0.5, 0.5])
        with pytest.raises(DomainError):
            logneg_average(0.5, np.array([0.0]), np.array([0.5]), np.array([4.0]), np.array([5.0]))
