import itertools
import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from gaussgeom import core
from gaussgeom.core import (
    BONA_FIDE_TOL,
    DomainError,
    InvariantCoords,
    StdForm,
    cm_from_invariants,
    invariants,
    is_bona_fide,
    random_local_symplectic,
    symplectic_spectrum,
    two_mode_squeezed,
    validate_covmat,
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
    _entangled_mean,
    _region_codes,
)
from gaussgeom.measures import FISHER_RAO, HILBERT_SCHMIDT, density_ratio
from gaussgeom.typicality import mean_logneg_fixed_purities, sample_energy_constrained
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


def test_partial_transpose_takes_two_modes_only():
    with pytest.raises(ValueError, match="defined here for two-mode matrices"):
        partial_transpose(np.eye(6))


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


_PER_STATE = (ppt_spectrum, log_negativity, steerability, steerability_a_to_b, steerability_b_to_a)


@pytest.mark.parametrize(
    "fn, coords, match",
    [
        # Delta~ < 0: numpy's sqrt used to warn, then PptSpectrum raised ValueError.
        (log_negativity, InvariantCoords(0.5, 0.9, 0.9, 50.0), "Delta~ = -4.506e\\+01 must be"),
        (ppt_spectrum, InvariantCoords(0.5, 0.9, 0.9, 50.0), "Delta~"),
        (log_negativity, InvariantCoords(0.5, 0.6, 0.6, math.nan), "Delta~ = nan"),
        (log_negativity, InvariantCoords(0.0, 0.6, 0.6, 5.0), "mu = 0.0 must be positive"),
        # mu_A = 0 used to raise ZeroDivisionError, a negative purity to warn in log.
        (steerability, InvariantCoords(0.5, 0.0, 0.6, 3.0), "mu_a = 0.0 must be positive"),
        (steerability_a_to_b, InvariantCoords(0.5, 0.0, 0.6, 3.0), "mu_a = 0.0"),
        (steerability, InvariantCoords(-0.5, 0.4, 0.6, 3.0), "mu = -0.5 must be positive"),
        (steerability_b_to_a, InvariantCoords(0.5, 0.4, -0.6, 3.0), "mu_b = -0.6"),
        (steerability, InvariantCoords(0.5, math.inf, 0.6, 3.0), "mu_a = inf"),
        (steerability, InvariantCoords(1e-300, 1e300, 1e300, 3.0), "outside the float range"),
        (log_negativity, InvariantCoords(0.5, 1e-200, 0.6, 3.0), "float range"),
    ],
)
def test_invalid_coordinates_raise_domain_error(fn, coords, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            fn(coords)


def test_per_state_measures_are_finite_or_raise_domain_error():
    values = (-1.0, 0.0, 5e-324, 1e-200, 1e-160, 0.3, 1.0, 1.7, 1e160, 1e200, math.inf, math.nan)
    deltas = (-1e300, -2.0, 0.0, 2.0, 13.0, 1e300, math.inf, math.nan)
    finite = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu, mu_a, mu_b, delta in itertools.product(values, values, values, deltas):
            coords = InvariantCoords(mu, mu_a, mu_b, delta)
            for fn in _PER_STATE:
                try:
                    out = fn(coords)
                except DomainError:
                    continue
                finite += 1
                if fn is ppt_spectrum:
                    assert 0.0 < out.nu_tilde_minus <= out.nu_tilde_plus < math.inf
                else:
                    assert 0.0 <= out < math.inf
    assert finite > 0


def _numpy_log_negativity(coords):
    """E_N by the numpy scalar formulas that log_negativity used before it moved to math."""
    d_tilde = 2.0 / coords.mu_a**2 + 2.0 / coords.mu_b**2 - coords.delta
    disc = d_tilde * d_tilde - 4.0 / coords.mu**2
    nu_plus = float(np.sqrt(0.5 * (d_tilde + np.sqrt(max(disc, 0.0)))))
    nu_minus = min(1.0 / (coords.mu * nu_plus), nu_plus)
    return max(0.0, -float(np.log2(nu_minus)))


def _numpy_steerability(coords):
    """G as the larger of the two directional numpy logarithms."""
    return max(
        0.0, float(np.log(coords.mu / coords.mu_a)), float(np.log(coords.mu / coords.mu_b))
    )


def test_per_state_analysis_matches_the_numpy_formulas_on_sampler_states():
    # numpy's log/log2 and libm's differ by one ulp on about 0.2 % of inputs,
    # so the values agree to 1e-15, not bit for bit.
    points = ((0.3, 8.0), (0.05, 12.0), (0.9, 12.0), (0.47, 3.0), (0.4445, 3.0))
    checked = 0
    for k, (mu, e) in enumerate(points):
        for sigma in sample_energy_constrained(mu, e, 200, seed=40 + k):
            validate_covmat(sigma)
            nu_minus, _ = core._two_mode_nu(sigma.tolist())
            assert is_bona_fide(sigma) == (nu_minus >= 1.0 - BONA_FIDE_TOL)
            coords, _ = invariants(sigma)
            nu = symplectic_spectrum(sigma)
            for got, want in (
                (log_negativity(coords), _numpy_log_negativity(coords)),
                (steerability(coords), _numpy_steerability(coords)),
                (density_ratio(HILBERT_SCHMIDT, FISHER_RAO, nu), float(np.prod(nu)) ** -5.0),
            ):
                assert abs(got - want) <= 1e-15 * max(abs(want), 1.0)
            checked += 1
    assert checked == 1000


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


_PINNED_PROPORTIONS = [
    (math.nan, RegionClass.UNPHYSICAL),
    (-0.0, RegionClass.ALL_SEPARABLE),
    (0.0, RegionClass.ALL_SEPARABLE),
    (5e-324, RegionClass.COEXISTENCE),
    (0.5, RegionClass.COEXISTENCE),
    (1.0 - 2.0**-53, RegionClass.COEXISTENCE),
    (1.0, RegionClass.ALL_ENTANGLED),
    (1.5, RegionClass.ALL_ENTANGLED),
]


def test_region_classification_batched_and_scalar():
    props = np.array([prop for prop, _ in _PINNED_PROPORTIONS])
    expected = [region for _, region in _PINNED_PROPORTIONS]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes = _region_codes(props)
        assert [tuple(RegionClass)[code] for code in codes.tolist()] == expected
        assert [RegionClass.of_proportion(prop) for prop in props.tolist()] == expected
    assert _region_codes(props.reshape(2, 4)).shape == (2, 4)


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
    with pytest.raises(DomainError, match="mu_a = -0.5 must lie in"):
        logneg_average(0.5, np.array([-0.5, 0.6]), np.array([0.6, 0.6]))


def test_batched_kernels_reject_bad_marginals_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            delta_bounds_batch(0.5, [0.0, 0.5], [0.5, 0.5])
        with pytest.raises(DomainError):
            logneg_average(0.5, np.array([0.0]), np.array([0.5]))


@pytest.mark.parametrize(
    "call",
    [
        lambda: delta_threshold(1e-200, 0.5, 0.5),
        lambda: delta_threshold(0.5, 1e-200, 0.5),
        lambda: logneg_average(1e-200, np.array([0.5]), np.array([0.5])),
        lambda: logneg_average(0.5, np.array([0.5]), np.array([1e-200])),
        lambda: delta_bounds(0.5, 1e-200, 1.0),
        lambda: delta_bounds_batch(0.5, [0.5, 0.5], [0.5, 1e-200]),
        lambda: cm_from_invariants(InvariantCoords(1e-200, 1e-100, 1e-100, 2e200)),
        lambda: cm_from_invariants(InvariantCoords(0.5, 1e-200, 0.5, 4.5)),
    ],
)
def test_purities_below_the_float_range_raise_domain_error(call):
    # Below 2**-511 the inverse square of mu or of a marginal purity leaves
    # the float range: a DomainError, not a ZeroDivisionError or a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="float range"):
            call()


def _mp_mean_logneg(mu, mu_a, mu_b):
    """Mean E_N over the seralian interval: 50-digit quadrature of -log2 nu~_-."""
    import mpmath

    with mpmath.workdps(50):
        mu, a, b = mpmath.mpf(mu), 1 / mpmath.mpf(mu_a), 1 / mpmath.mpf(mu_b)
        lo = 2 / mu + (a - b) ** 2
        hi = min((a + b) ** 2 - 2 / mu, 1 + 1 / mu**2)

        def e_n(delta):
            # nu~_-^2 nu~_+^2 = 1/mu^2, and nu~_+^2 has no cancellation.
            d_tilde = 2 * a**2 + 2 * b**2 - delta
            nu_sq = (2 / mu**2) / (d_tilde + mpmath.sqrt(d_tilde**2 - 4 / mu**2))
            return max(-mpmath.log(nu_sq, 2) / 2, 0)

        thr = 2 * a**2 + 2 * b**2 - 1 - 1 / mu**2
        if lo == hi:
            return float(e_n(lo))
        return float(mpmath.quad(e_n, [lo, *([thr] if lo < thr < hi else []), hi]) / (hi - lo))


@pytest.mark.parametrize(
    "mu, mu_a",
    [(0.9, 1e-77), (0.9, 1e-100), (0.9, 1e-150), (0.3, 1e-120), (0.5, 2.0**-510)]
    + [(mu, 2.0**-511) for mu in (2.0**-511, 1e-100, 0.5, 0.9, 1.0)],
)
def test_mean_logneg_at_tiny_marginal_purities(mu, mu_a):
    # t (2 + t) in the E_N antiderivative leaves the float range here, and
    # at 2**-511 2/mu_A^2 + 2/mu_B^2 too; the mean is still finite and
    # matches a 50-digit quadrature.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mean_logneg_fixed_purities(mu, mu_a, mu_a)
    assert got == pytest.approx(_mp_mean_logneg(mu, mu_a, mu_a), rel=1e-14, abs=0.0)


def test_overflowing_marginal_sum_leaves_the_other_cells_bit_identical():
    mu_a = np.array([2.0**-511, 1e-100, 0.5, 0.6])
    mu_b = np.array([2.0**-511, 1e-100, 0.5, 0.62])
    d_min, d_max, valid = delta_bounds_batch(0.9, mu_a, mu_b)
    assert valid.all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        thr = delta_threshold(0.9, mu_a, mu_b)
        prop, mean = logneg_average(0.9, mu_a, mu_b)
        region = classify_region(0.9, mu_a[0], mu_b[0])
    # The capped threshold still lies above the whole interval.
    assert np.isfinite(thr).all() and thr[0] > d_max[0]
    assert region == (RegionClass.ALL_ENTANGLED, 1.0)
    assert mean[0] == mean_logneg_fixed_purities(0.9, 2.0**-511, 2.0**-511)
    for k in range(1, 4):
        assert thr[k] == delta_threshold(0.9, mu_a[k], mu_b[k])
        one = logneg_average(0.9, mu_a[k : k + 1], mu_b[k : k + 1])
        assert (prop[k], mean[k]) == (one[0][0], one[1][0])


def test_tiny_marginal_purities_leave_the_other_cells_bit_identical():
    # A cell whose t (2 + t) would overflow leaves the other cells' values as
    # they are alone.
    mu_a = np.array([1e-100, 0.5, 0.6, 0.9])
    mu_b = np.array([1e-100, 0.5, 0.62, 0.95])
    d_min, d_max, valid = delta_bounds_batch(0.9, mu_a, mu_b)
    assert valid.all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prop, mean = logneg_average(0.9, mu_a, mu_b)
    assert np.isfinite(mean).all()
    for k in range(1, 4):
        one = logneg_average(0.9, mu_a[k : k + 1], mu_b[k : k + 1])
        assert (prop[k], mean[k]) == (one[0][0], one[1][0])


def test_product_of_thermal_state_and_vacuum_is_separable():
    # (mu_A, mu_B) = (mu, 1) is the single state thermal x vacuum: its
    # seralian interval has zero width and E_N = 0 there.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify_region(0.7, 0.7, 1.0) == (RegionClass.ALL_SEPARABLE, 0.0)
        assert classify_region(0.7, 1.0, 0.7) == (RegionClass.ALL_SEPARABLE, 0.0)
        assert mean_logneg_fixed_purities(0.7, 0.7, 1.0) == 0.0


@pytest.mark.parametrize(
    "mu, mu_a, mu_b",
    [
        # thermal x vacuum (zero width) next to ordinary and unphysical cells
        (0.5, [0.5, 1.0, 0.6, 0.7, 0.65, 0.9], [1.0, 0.5, 0.62, 0.7, 0.65, 0.95]),
        # pure states: an entangled point, the vacuum and an unphysical cell
        (1.0, [0.5, 1.0, 0.5], [0.5, 1.0, 1.0]),
    ],
)
def test_zero_width_cells_leave_the_other_cells_bit_identical(mu, mu_a, mu_b):
    mu_a, mu_b = np.array(mu_a), np.array(mu_b)
    d_min, d_max, valid = delta_bounds_batch(mu, mu_a, mu_b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prop, mean = logneg_average(mu, mu_a, mu_b)
        alone = [logneg_average(mu, mu_a[k : k + 1], mu_b[k : k + 1]) for k in range(mu_a.size)]
    assert np.array_equal(np.isnan(prop), ~valid) and np.array_equal(np.isnan(mean), ~valid)
    for k in range(mu_a.size):
        np.testing.assert_array_equal([prop[k], mean[k]], [alone[k][0][0], alone[k][1][0]])
        if valid[k] and d_min[k] == d_max[k]:
            # A zero-width interval gives the values at its single state.
            e_n = log_negativity(InvariantCoords(mu, mu_a[k], mu_b[k], d_min[k]))
            assert prop[k] == (e_n > 0.0)
            assert mean[k] == pytest.approx(e_n, rel=1e-14, abs=0.0)
    assert (d_min == d_max).sum() >= 2 and (valid & (d_min < d_max)).any() == (mu < 1.0)


def test_entangled_mean_takes_the_wide_root_without_being_told():
    # Any caller of the shared antiderivative step, not only logneg_average,
    # gets a finite mean where tau (1 + tau) would overflow, and the other
    # cells keep the values they have alone.  tau1, dtau and span are in tau.
    mu, tau1 = 0.9, np.array([1e200, 3.0, 0.25])
    dtau = np.array([1.5, 0.5, 0.1])
    span = np.array([2.0, 0.75, 0.1])
    prop = dtau / span
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean = _entangled_mean(mu, prop, tau1, dtau, span)
    assert np.isfinite(mean).all() and mean[0] > 0.0
    plain = _entangled_mean(mu, prop[1:], tau1[1:], dtau[1:], span[1:])
    assert np.array_equal(mean[1:], plain)


def test_seralian_edges_are_the_plain_formulas_below_the_cap():
    # Capping a + b changes the upper edge only where (a + b)^2 overflows.
    rng = np.random.default_rng(5)
    a = np.append(2.0 ** rng.uniform(0.0, 511.0, 2000), [2.0**511, np.nextafter(2.0**511, 0.0)])
    b = np.append(2.0 ** rng.uniform(0.0, 511.0, 2000), [2.0**511, 2.0**511])
    mu = 0.37
    lo, hi = core._seralian_edges(mu, a, b)
    with np.errstate(over="ignore"):
        want_hi = (a + b) ** 2 - 2.0 / mu
    finite = np.isfinite(want_hi)
    assert finite[:-2].all() and not finite[-2:].any()
    assert np.array_equal(lo, 2.0 / mu + (a - b) ** 2)
    assert np.array_equal(hi[finite], want_hi[finite])
    assert np.isfinite(hi).all() and (hi[~finite] > 1.0 + 1.0 / mu**2).all()
    for x, y in zip(a[:200].tolist(), b[:200].tolist()):
        assert core._seralian_edges(mu, x, y) == (2.0 / mu + (x - y) ** 2, (x + y) ** 2 - 2.0 / mu)


def test_delta_bounds_where_the_upper_edge_overflows():
    # (1/mu_A + 1/mu_B)^2 = 2^1024 leaves the float range; the cap 1 + 1/mu^2
    # is the upper bound anyway.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert delta_bounds(0.5, 2.0**-511, 2.0**-511) == (4.0, 5.0)
        d_min, d_max, valid = delta_bounds_batch(0.5, [2.0**-511, 0.5], [2.0**-511, 0.5])
    assert valid.all()
    assert d_min.tolist() == [4.0, 4.0] and d_max.tolist() == [5.0, 5.0]


@pytest.mark.parametrize("scale", [1e80, 1e150])
def test_log_negativity_of_thermal_states_with_large_entries(scale):
    # Delta~^2 and 4/mu^2 overflow here; their difference, a product, does not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coords, _ = core.invariants(scale * np.eye(4))
        nu = ppt_spectrum(coords)
        assert log_negativity(coords) == 0.0 and steerability(coords) == 0.0
    assert nu.nu_tilde_minus == pytest.approx(scale, rel=1e-15, abs=0.0)
    assert nu.nu_tilde_plus == pytest.approx(scale, rel=1e-15, abs=0.0)
