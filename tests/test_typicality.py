import collections
import itertools
import math
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from gaussgeom.core import (
    DomainError,
    InvariantCoords,
    StdForm,
    cm_from_invariants,
    invariants,
    is_bona_fide,
)
from gaussgeom.correlations import (
    RegionClass,
    classify_region,
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
from gaussgeom import typicality
from gaussgeom.correlations import logneg_average
from gaussgeom.typicality import (
    _BLOCK,
    _accepted_uv,
    _covmats,
    _draw_intervals,
    _uv_statistics,
    _UVSupport,
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


@pytest.mark.parametrize("grid_size", [3.0, 2.5, True, False, 0, -1, None, "3"])
@pytest.mark.parametrize("scan", [scan_purity_plane, purity_cut])
def test_purity_scans_reject_a_grid_size_that_is_not_a_positive_integer(scan, grid_size):
    # 3.0 leaked numpy's TypeError, purity_cut(0.5, 2.5) raised a DomainError
    # about mu_a = 1.2, and True was taken as a grid of one.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="grid_size must be a positive integer") as info:
            scan(0.5, grid_size)
    assert type(info.value) is ValueError
    assert str(info.value).endswith(f"got {grid_size!r}")


@pytest.mark.parametrize("scan", [scan_purity_plane, purity_cut])
def test_purity_scans_take_numpy_integer_grid_sizes(scan):
    want = scan(0.5, 6)
    for grid_size in (np.int64(6), np.int32(6), np.uint8(6)):
        assert scan(0.5, grid_size) == want
    # grid_size + 1 would wrap at the top of a small integer type.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(scan(0.5, np.int8(127))) == (127**2 if scan is scan_purity_plane else 127)
        assert len(purity_cut(0.5, np.uint8(255))) == 255


@pytest.mark.parametrize("mu", [0.1, 0.5, 0.9, 1.0])
def test_purity_scans_match_the_per_point_functions(mu):
    cells = scan_purity_plane(mu, 9)
    assert [(c.mu_a, c.mu_b) for c in cells] == [
        ((i + 1) / 9, (j + 1) / 9) for i in range(9) for j in range(9)
    ]
    points = purity_cut(mu, 9)
    assert [p.mu_ab for p in points] == [(i + 1) / 9 for i in range(9)]
    records = [(c.mu_a, c.mu_b, c) for c in cells] + [(p.mu_ab, p.mu_ab, p) for p in points]
    for mu_a, mu_b, rec in records:
        region, prop = classify_region(mu, mu_a, mu_b)
        assert rec.region is region
        if region is RegionClass.UNPHYSICAL:
            assert rec.prop_entangled is None and rec.mean_logneg is None
        else:
            assert rec.prop_entangled == pytest.approx(prop, abs=1e-15)
            mean = mean_logneg_fixed_purities(mu, mu_a, mu_b)
            assert rec.mean_logneg == pytest.approx(mean, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("mu", [1e-200, 1e-320, 5e-324])
def test_tiny_global_purity_raises_domain_error(mu):
    # Below 2**-511, 1/mu^2 leaves the float range; every entry point says so.
    calls = [
        lambda: delta_bounds(mu, 0.5, 0.5),
        lambda: delta_bounds(mu, 1e-100, 1e-100),
        lambda: delta_bounds_batch(mu, [0.5], [0.5]),
        lambda: classify_region(mu, 0.5, 0.5),
        lambda: mean_logneg_fixed_purities(mu, 0.5, 0.5),
        lambda: scan_purity_plane(mu, 3),
        lambda: purity_cut(mu, 3),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainError, match="float range"):
                call()


def test_smallest_global_purity_gives_finite_results():
    mu, m = 2.0**-511, 2.0**-256  # mu_A mu_B = mu / 2: physical
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d_min, d_max = delta_bounds(mu, m, m)
        assert np.isfinite([d_min, d_max]).all() and d_min <= d_max
        assert classify_region(mu, m, m) == (RegionClass.ALL_SEPARABLE, 0.0)
        assert mean_logneg_fixed_purities(mu, m, m) == 0.0
        assert {c.region for c in scan_purity_plane(mu, 3)} == {RegionClass.UNPHYSICAL}
        assert {p.region for p in purity_cut(mu, 3)} == {RegionClass.UNPHYSICAL}


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


@pytest.mark.parametrize(
    "call",
    [
        lambda e: EnergyEnsemble(0.5, e),
        lambda e: energy_constrained_stats(0.5, e),
        lambda e: energy_constrained_ratio(0.5, e, lambda a, b, lo, hi: hi - lo),
        lambda e: sample_energy_constrained(0.5, e, 3),
    ],
)
@pytest.mark.parametrize("energy", [2.0**512, 1.4e154, 1e300, np.float64(1.7e308)])
def test_energies_whose_square_overflows_raise_domain_error(call, energy):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="float range"):
            call(energy)


def test_energy_ensemble_accepts_the_largest_energy_in_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        EnergyEnsemble(0.5, float(np.nextafter(2.0**512, 0.0)))


_SAMPLER_ENTRY_POINTS = [
    lambda mu, e: energy_constrained_stats(mu, e, McConfig(final_evals=500)),
    lambda mu, e: energy_constrained_ratio(
        mu, e, lambda a, b, lo, hi: hi - lo, McConfig(final_evals=500)
    ),
    lambda mu, e: sample_energy_constrained(mu, e, 50),
]


@pytest.mark.parametrize("call", _SAMPLER_ENTRY_POINTS)
@pytest.mark.parametrize("energy", [1e65, 1e100, 2.0**511])
def test_sampler_energies_whose_weight_overflows_raise_domain_error(call, energy):
    # The sampler's weight (E - u)(xy)^2 peaks at (16/3125) E^5, past the
    # float range above E = 1.29e62, although E^2 is still finite here.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="float range"):
            call(0.5, energy)


@pytest.mark.parametrize("mu", [4.0 / 2.0**400 * (1.0 + 1e-4), 1e-30, 0.5, 0.999])
def test_sampler_at_its_largest_energy_is_finite(mu):
    e = 2.0**200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stats, ratio, sigmas = (call(mu, e) for call in _SAMPLER_ENTRY_POINTS)
    values = [v for est in vars(stats).values() for v in (est.value, est.std_error)]
    assert np.isfinite(values).all()
    assert ratio.value == 1.0
    assert np.isfinite(sigmas).all()
    energies = 0.5 * np.trace(sigmas, axis1=1, axis2=2)
    np.testing.assert_allclose(energies, e, rtol=1e-12, atol=0.0)


def test_energy_weight_divides_only_on_its_support():
    # Off the support (mu_A^2 mu_B^2 underflows to 0 here) the weight is
    # 0.0 without a division, so no divide-by-zero warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert energy_weight(1e-200, 1e-200, 5.0) == 0.0
        w = energy_weight(np.array([1e-200, 0.5, 1.0]), np.array([1e-200, 0.5, 1.0]), 5.0)
    np.testing.assert_array_equal(w, [0.0, 1.0 / 0.0625, 3.0])


def test_energy_constrained_ratio_of_ones_is_exact():
    est = energy_constrained_ratio(
        0.4, 6.0, lambda mu_a, mu_b, lo, hi: hi - lo, McConfig(seed=2, final_evals=5000)
    )
    assert est.value == 1.0
    assert est.std_error == 0.0


@pytest.mark.parametrize(
    "inner",
    [
        lambda mu_a, mu_b, lo, hi: np.where(mu_a > 0.3, np.nan, hi - lo),
        lambda mu_a, mu_b, lo, hi: np.full(mu_a.shape, np.inf),
        lambda mu_a, mu_b, lo, hi: 1.0,
        lambda mu_a, mu_b, lo, hi: (hi - lo)[:-1],
        lambda mu_a, mu_b, lo, hi: np.stack([hi - lo, hi - lo]),
    ],
)
def test_energy_constrained_ratio_rejects_inner_results_that_are_not_one_finite_value_per_point(
    inner,
):
    with pytest.raises(ValueError, match="one finite value per point"):
        energy_constrained_ratio(0.4, 6.0, inner, McConfig(seed=2, final_evals=500))


def test_energy_stats_basic_properties():
    stats = energy_constrained_stats(0.3, 8.0, McConfig(seed=3, final_evals=30_000))
    for est in (stats.prop_entangled, stats.prop_steerable):
        assert 0.0 <= est.value <= 1.0
    assert stats.prop_steerable.value <= stats.prop_entangled.value
    assert stats.mean_logneg.value > 0.0
    assert stats.mean_steering.value >= 0.0
    assert stats.prop_entangled.std_error > 0.0


def test_energy_stats_deterministic():
    cfg = McConfig(seed=11, final_evals=5000)
    s1 = energy_constrained_stats(0.4, 5.0, cfg)
    s2 = energy_constrained_stats(0.4, 5.0, cfg)
    assert s1 == s2


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
    [
        ("final_evals", 1),
        ("final_evals", 2.5),
        ("final_evals", 10.0),
        ("final_evals", np.nan),
        ("final_evals", np.inf),
        ("final_evals", True),
        ("final_evals", "100"),
        ("seed", 1.5),
        ("seed", -1),
        ("seed", True),
        ("seed", None),
    ],
)
def test_mc_config_rejects_degenerate_sizes(field, value):
    with pytest.raises(ValueError, match=field):
        McConfig(**{field: value})


def test_mc_config_accepts_numpy_integers():
    mc = McConfig(seed=np.int64(3), final_evals=np.int32(50))
    stats = energy_constrained_stats(0.5, 5.0, mc)
    assert stats.mean_logneg.n_evals == 50


def _stats_tuple(stats):
    return (stats.prop_entangled, stats.mean_logneg, stats.prop_steerable, stats.mean_steering)


@pytest.mark.parametrize("e", [3.0, 5.0, 8.0, 12.0])
def test_energy_stats_next_to_the_support_edge(e):
    start = time.time()
    stats = energy_constrained_stats(4.0 / e**2 * (1.0 + 1e-4), e, McConfig(seed=4))
    for est in _stats_tuple(stats):
        assert np.isfinite(est.value) and np.isfinite(est.std_error)
        assert est.std_error >= 0.0
    assert time.time() - start < 5.0


def test_energy_stats_error_bars_at_two_draws():
    stats = energy_constrained_stats(0.5, 5.0, McConfig(seed=0, final_evals=2))
    assert np.isfinite(stats.mean_logneg.std_error)
    assert stats.mean_logneg.std_error > 0.0
    assert all(est.n_evals == 2 for est in _stats_tuple(stats))


def _shifted_sums(*blocks):
    sums = typicality._ShiftedSums(len(blocks[0]))
    for block in blocks:
        sums.add(np.array(block, dtype=float))
    return sums.estimates()


def test_shifted_sums_match_numpy_on_offset_data():
    # Offset by 1e8, unshifted sums of squares would lose every digit of the
    # spread.  The first block is empty: the shift is the first draw of the
    # second.
    rng = np.random.default_rng(12)
    data = 1e8 + rng.normal(size=(3, 5000)) * np.array([[1.0], [1e-3], [1e3]])
    got = _shifted_sums(data[:, :0], data[:, :1234], data[:, 1234:4321], data[:, 4321:])
    for est, row in zip(got, data):
        assert est.value == pytest.approx(row.mean(), rel=1e-15, abs=0.0)
        want = row.std(ddof=1) / np.sqrt(row.size)
        assert est.std_error == pytest.approx(want, rel=1e-9, abs=0.0)
        assert (est.n_evals, est.chi2_per_dof) == (row.size, 0.0)


def test_shifted_sums_of_constant_rows_are_exact():
    rows = np.array([[0.1] * 7, [3.0] * 7, [-1e300] * 7])
    for est, value in zip(_shifted_sums(rows[:, :0], rows[:, :3], rows[:, 3:]), rows[:, 0]):
        assert est.value == value
        assert est.std_error == 0.0


def test_shifted_sums_of_two_draws():
    (est,) = _shifted_sums([[1.0]], [[3.0]])
    row = np.array([1.0, 3.0])
    assert est.value == row.mean() == 2.0
    assert est.std_error == row.std(ddof=1) / np.sqrt(2.0) == 1.0
    assert est.n_evals == 2


def _traced_peak(call):
    """Peak bytes traced by tracemalloc during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_energy_stats_memory_does_not_grow_with_the_draws():
    # A warm call leaves a draw buffer on the free list for the traced ones.
    energy_constrained_stats(0.5, 8.0, McConfig(seed=1, final_evals=1000))
    small, large = (
        _traced_peak(lambda: energy_constrained_stats(0.5, 8.0, McConfig(seed=1, final_evals=n)))
        for n in (80_000, 400_000)
    )
    assert large < 3e6
    assert abs(large - small) <= 0.1 * small


def test_energy_ratio_memory_does_not_grow_with_the_draws():
    inner = lambda mu_a, mu_b, lo, hi: hi - lo  # noqa: E731
    # A warm call leaves a draw buffer on the free list for the traced ones.
    energy_constrained_ratio(0.5, 8.0, inner, McConfig(seed=1, final_evals=1000))
    small, large = (
        _traced_peak(
            lambda: energy_constrained_ratio(0.5, 8.0, inner, McConfig(seed=1, final_evals=n))
        )
        for n in (80_000, 400_000)
    )
    assert max(small, large) <= 1.5e6
    assert abs(large - small) <= 0.1 * small


# Values recorded before the sampler read one stream per call: the same
# seeds must give the same draws, bit for bit.
_PINNED_STATS = {
    (0.53125, 8.0, 5, 20_000): (
        (0.9570523066058751, 0.0013108553966779386),
        (0.9866332335783061, 0.0037493155574938298),
        (0.7822, 0.0029186613248536495),
        (0.2514357466663602, 0.0015600019881221719),
    ),
    (0.7222222222222222, 3.0, 7, 3): (
        (1.0, 0.0),
        (0.6084582436565313, 0.13478717291417405),
        (1.0, 0.0),
        (0.07701354579479104, 0.02687841371169582),
    ),
}


@pytest.mark.parametrize("key, want", _PINNED_STATS.items(), ids=str)
def test_energy_stats_unchanged_at_fixed_seeds(key, want):
    mu, e, seed, evals = key
    stats = energy_constrained_stats(mu, e, McConfig(seed=seed, final_evals=evals))
    got = [(est.value, est.std_error, est.n_evals) for est in vars(stats).values()]
    assert got == [(value, error, evals) for value, error in want]


@pytest.mark.parametrize(
    "mu, e, seed, evals, inner, want",
    [
        (
            0.53125, 8.0, 5, 20_000, lambda a, b, lo, hi: (hi - lo) * (a + b),
            (0.9501266202681686, 0.0017581976254151845),
        ),
        (
            4.0 / 144.0 * (1.0 + 1e-4), 12.0, 123, 30_000,
            lambda a, b, lo, hi: 0.5 * (hi * hi - lo * lo),
            (71.99756797042534, 1.1768532877073105e-05),
        ),
    ],
)
def test_energy_ratio_unchanged_at_fixed_seeds(mu, e, seed, evals, inner, want):
    est = energy_constrained_ratio(mu, e, inner, McConfig(seed=seed, final_evals=evals))
    assert (est.value, est.std_error, est.n_evals) == (*want, evals)


def test_energy_ratio_calls_inner_once_per_accepted_block():
    sizes = []

    def inner(mu_a, mu_b, lo, hi):
        sizes.append(mu_a.size)
        return hi - lo

    est = energy_constrained_ratio(0.3, 8.0, inner, McConfig(seed=5, final_evals=40_000))
    assert est.value == 1.0 and est.n_evals == 40_000
    assert sizes == [u.size for u, _ in _uv_blocks(0.3, 8.0, 40_000, 5)]
    assert max(sizes) <= typicality._BLOCK


def test_sampler_memory_is_its_output_and_one_input_row_per_state():
    states = []
    peak = _traced_peak(lambda: states.append(sample_energy_constrained(0.3, 8.0, 100_000, seed=1)))
    assert peak <= 2 * states[0].nbytes


def _gauss_legendre(lo, hi, n):
    """n-point Gauss-Legendre nodes and weights on each panel [lo, hi], along a new last axis."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = (0.5 * (hi + lo))[..., None], (0.5 * (hi - lo))[..., None]
    return mid + half * x, half * w


def _energy_stats_reference(mu, e, n=32):
    """The four energy-constrained statistics by deterministic quadrature.

    In u = 1/mu_A + 1/mu_B, v = 1/mu_A - 1/mu_B the marginal purities have
    density (E - u) L on 2/sqrt(mu) <= u <= E, with the seralian interval
    [2/mu + v^2, min(u^2 - 2/mu, 1 + 1/mu^2)] of length L; every statistic
    is even in v.  Composite Gauss-Legendre in u, v >= 0 and the seralian,
    split where an integrand has a kink: u = 1/mu + 1 (the interval's upper
    end switches and entangled seralians appear), u = sqrt(2 + 2/mu^2) and
    v = sqrt(2 + 2/mu^2 - u^2) (every seralian entangled beyond), u = 2/mu
    and v = 2/mu - u (steerable beyond).  E_N comes from the raw PPT
    formula at each seralian node.  Agrees with a 4x refinement to 2e-9 at
    the points used below.
    """
    k = 1.0 / mu
    u_lo = 2.0 * np.sqrt(k)
    u_breaks = np.unique(np.clip([u_lo, 1.0 + k, np.sqrt(2.0 + 2.0 * k * k), 2.0 * k, e], u_lo, e))
    u, wu = (x.ravel() for x in _gauss_legendre(u_breaks[:-1], u_breaks[1:], n))
    v_max = np.sqrt(np.minimum(u * u - 4.0 * k, (k - 1.0) ** 2))
    v_steer = np.clip(2.0 * k - u, 0.0, v_max)
    v_ent = np.clip(np.sqrt(np.maximum(2.0 + 2.0 * k * k - u * u, 0.0)), 0.0, v_max)
    v_breaks = np.sort(np.stack([np.zeros_like(u), v_steer, v_ent, v_max], axis=1), axis=1)
    v, wv = _gauss_legendre(v_breaks[:, :-1], v_breaks[:, 1:], n)
    u = u[:, None, None]
    weight = (e - u) * wu[:, None, None] * wv
    d_min = 2.0 * k + v * v
    d_max = np.minimum(u * u - 2.0 * k, 1.0 + k * k)
    length = d_max - d_min
    # Seralians below 2/mu_A^2 + 2/mu_B^2 - 1 - 1/mu^2 are entangled.
    d_ent = np.clip(u * u + v * v - 1.0 - k * k, d_min, d_max)
    delta, wd = _gauss_legendre(d_min, d_ent, n)
    d_tilde = (u * u + v * v)[..., None] - delta
    nu_plus_sq = 0.5 * (d_tilde + np.sqrt(np.maximum(d_tilde**2 - 4.0 * k * k, 0.0)))
    en = np.maximum(0.5 * np.log2(mu * mu * nu_plus_sq), 0.0)
    x_max = 0.5 * (u + v)  # 1 / min(mu_A, mu_B)
    norm = np.sum(weight * length)
    return (
        np.sum(weight * (d_ent - d_min)) / norm,
        np.sum(weight * np.sum(en * wd, axis=-1)) / norm,
        np.sum(weight * length * (x_max > k)) / norm,
        np.sum(weight * length * np.maximum(np.log(mu * x_max), 0.0)) / norm,
    )


@pytest.mark.parametrize("mu,e", [(0.3, 8.0), (0.5, 40.0)])
def test_energy_stats_reference_is_converged(mu, e):
    # The coverage test below needs a reference far more accurate than the
    # Monte Carlo error bars (about 1e-3).
    ref = _energy_stats_reference(mu, e)
    assert ref == pytest.approx(_energy_stats_reference(mu, e, n=64), abs=1e-8)


def test_energy_stats_error_bars_cover_reference():
    # Calibrated error bars put about 95 % of seeds within 2 sigma of the
    # reference and 68 % within 1 sigma.  Over 120 z-scores per statistic,
    # at least 90 % within 2 sigma rejects bars 1.6x too narrow and at most
    # 85 % within 1 sigma rejects bars 1.5x too wide.
    points = [((1.0 + 4.0 / e**2) / 2.0, e) for e in (3.0, 5.0, 8.0, 12.0)]
    points += [(0.3, 8.0), (0.5, 40.0)]
    seeds = 20
    within = np.zeros((2, 4))
    for i, (mu, e) in enumerate(points):
        ref = _energy_stats_reference(mu, e)
        for seed in range(seeds):
            stats = energy_constrained_stats(mu, e, McConfig(seed=100 * i + seed, final_evals=20_000))
            for k, (est, want) in enumerate(zip(_stats_tuple(stats), ref)):
                dev = abs(est.value - want) - 1e-12
                within[:, k] += (dev <= est.std_error, dev <= 2.0 * est.std_error)
    frac = within / (seeds * len(points))
    assert np.all(frac[1] >= 0.9) and np.all(frac[0] <= 0.85), frac


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
    # the closed-form mean G against a direct evaluation.
    e = 5.0
    ep = pure_state_endpoint(e)
    from scipy.integrate import quad

    num_g, _ = quad(lambda v: np.log(v) * (e - 2 * v), 1.0, e / 2.0)
    assert ep.mean_steering == pytest.approx(num_g / (e / 2.0 - 1.0) ** 2, rel=1e-10, abs=0.0)


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


@pytest.mark.parametrize("energy", [float("nan"), float("inf"), -float("inf")])
def test_pure_endpoint_rejects_non_finite_energy(energy):
    with pytest.raises(DomainError, match="finite"):
        pure_state_endpoint(energy)


def _pure_endpoint_oracle(energy):
    """Weighted means of arccosh(nu)/ln 2 and ln(nu) by tight quadrature.

    With nu = 1 + t s (t = E/2 - 1) the weight (E - 2 nu) / (E/2 - 1)^2
    becomes 2 (1 - s) on s in [0, 1]; log1p keeps f(1 + t s) accurate for
    tiny t, and s = r^2 removes the sqrt(s) endpoint behaviour of arccosh.
    """
    from scipy.integrate import quad

    t = energy / 2.0 - 1.0
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)

    def acosh1p(x):  # arccosh(1 + x)
        return np.log1p(x + np.sqrt(x * (2.0 + x)))

    en, _ = quad(lambda r: 4.0 * r * (1.0 - r * r) * acosh1p(t * r * r), 0.0, 1.0, **opts)
    g, _ = quad(lambda s: 2.0 * (1.0 - s) * np.log1p(t * s), 0.0, 1.0, **opts)
    return en / _LN2, g


@pytest.mark.parametrize(
    "energy",
    [2 + 1e-10, 2 + 1e-8, 2 + 1e-6, 2 + 1e-4, 2.01, 2.5, 3.0, 4.0, 8.0, 12.0, 40.0, 1000.0],
)
def test_pure_endpoint_matches_quadrature(energy):
    # The closed form cancels near E = 2 (the naive mean G is 0.0 at
    # E = 2 + 1e-8, against 1.667e-9); the series branch must not.
    ep = pure_state_endpoint(energy)
    en, g = _pure_endpoint_oracle(energy)
    assert ep.mean_logneg == pytest.approx(en, rel=1e-10, abs=0.0)
    assert ep.mean_steering == pytest.approx(g, rel=1e-10, abs=0.0)


def test_pure_endpoint_small_t_limits():
    energy = 2.0 + 2e-9
    t = energy / 2.0 - 1.0  # not 1e-9 exactly: 2 + 2e-9 is rounded
    ep = pure_state_endpoint(energy)
    assert ep.mean_steering == pytest.approx(t / 3.0, rel=1e-8, abs=0.0)
    assert ep.mean_logneg == pytest.approx(8.0 * np.sqrt(2.0 * t) / 15.0 / _LN2, rel=1e-8, abs=0.0)


def test_pure_endpoint_means_nondecreasing_across_series_switch():
    # The series branch ends at t = E/2 - 1 = 0.1, at E = 2.2.
    for energies in (np.linspace(2.19, 2.21, 4001), np.linspace(2.0 + 1e-9, 6.0, 4001)):
        eps = [pure_state_endpoint(float(e)) for e in energies]
        assert np.all(np.diff([ep.mean_logneg for ep in eps]) >= 0.0)
        assert np.all(np.diff([ep.mean_steering for ep in eps]) >= 0.0)


@pytest.mark.parametrize("energy", [1e150, 2.7e154, 1e300, 1.7e308])
def test_pure_endpoint_matches_mpmath_up_to_the_top_of_the_float_range(energy):
    # The closed form in h = E/2 and t = h - 1, where h^2 and t^2 overflow.
    import mpmath

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ep = pure_state_endpoint(energy)
    with mpmath.workdps(60):
        h = mpmath.mpf(energy) / 2
        t = h - 1
        root = mpmath.sqrt(h * h - 1)
        en = ((h * h + 0.5) * mpmath.acosh(h) - 1.5 * h * root) / (t * t) / mpmath.log(2)
        g = (h * h * mpmath.log(h) - 1.5 * h * h + 2 * h - 0.5) / (t * t)
    assert ep.mean_logneg == pytest.approx(float(en), rel=1e-15, abs=0.0)
    assert ep.mean_steering == pytest.approx(float(g), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("energy", [2.0 - 1e-12, 2.0 - 5e-13, 2.0 + 5e-13, 2.0 + 1e-12])
def test_pure_endpoint_vacuum_window(energy):
    ep = pure_state_endpoint(energy)
    assert (ep.prop_entangled, ep.mean_logneg, ep.prop_steerable, ep.mean_steering) == (
        0.0, 0.0, 0.0, 0.0,
    )


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


@pytest.mark.parametrize(
    "lam_a,lam_b,angles",
    [
        (np.nan, 1.0, (0, 0, 0, 0)),
        (1.0, np.nan, (0, 0, 0, 0)),
        (np.inf, 1.0, (0, 0, 0, 0)),
        (1.0, 1.0, (0, np.nan, 0, 0)),
        (1.0, 1.0, (0, 0, -np.inf, 0)),
    ],
)
def test_local_symp_sample_rejects_non_finite_parameters(lam_a, lam_b, angles):
    # Each of these made assemble_covmat return a non-finite matrix.
    with pytest.raises(ValueError, match="must be finite"):
        LocalSympSample(lam_a, lam_b, angles)


@pytest.mark.parametrize(
    "std,sample",
    [
        (StdForm(2, 2, 1, -1), LocalSympSample(1e308, 1e308, (0, 0, 0, 0))),
        (StdForm(1e300, 1e300, 0, 0), LocalSympSample(1e10, 1.0, (0, 0, 0, 0))),
    ],
)
def test_assemble_covmat_outside_the_float_range_raises_domain_error(std, sample):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="float range"):
            assemble_covmat(std, sample)


@pytest.mark.parametrize("lam", [1.3e154, 1.4e154, 1e160, 1e300])
def test_assemble_covmat_with_lambda_beyond_the_range_of_its_square(lam):
    # From lambda = 1.34e154 on, (lambda - 1)(lambda + 1) overflowed and the
    # finite matrix raised DomainError.  With a = b = 2, c = (1, -1) and no
    # rotation, S_A = diag(w, 1/w) with w^2 = lambda + sqrt(lambda^2 - 1).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sigma = assemble_covmat(StdForm(2, 2, 1, -1), LocalSympSample(lam, 1.0, (0, 0, 0, 0)))
    w2 = lam + math.sqrt(lam - 1.0) * math.sqrt(lam + 1.0)
    want = np.diag([2.0 * w2, 2.0 / w2, 2.0, 2.0])
    want[0, 2] = want[2, 0] = math.sqrt(w2)
    want[1, 3] = want[3, 1] = -1.0 / math.sqrt(w2)
    np.testing.assert_allclose(sigma, want, rtol=1e-15, atol=0.0)
    assert 0.5 * np.trace(sigma) == pytest.approx(2.0 * lam + 2.0, rel=1e-15)


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


@pytest.mark.parametrize("mu,e", [(0.72, 3.0), (0.58, 5.0), (0.53, 8.0), (0.51, 12.0), (0.02, 40.0)])
def test_uv_support_length_is_the_seralian_interval(mu, e):
    box = _UVSupport.of(mu, e)
    rng = np.random.default_rng(17)
    v_max = np.sqrt(box.v_sq)
    u = rng.uniform(box.u_lo, e, 20_000)
    v = rng.uniform(-v_max, v_max, 20_000)
    x, y = 0.5 * (u + v), 0.5 * (u - v)
    length = box.length(u, v)
    inside = (x >= 1.0) & (y >= 1.0)
    mu_a, mu_b = 1.0 / x[inside], 1.0 / y[inside]
    lo, hi, valid = delta_bounds_batch(mu, mu_a, mu_b)
    nonempty = np.zeros(u.size, dtype=bool)
    nonempty[inside] = valid & (hi > lo)
    np.testing.assert_array_equal(length > 0.0, nonempty)
    assert 0.5 < nonempty.mean() < 1.0
    # (E - u) L is the proposal density of the sampler.  Both sides subtract
    # nearly equal terms next to the support edges, so they agree relative
    # to the size of those terms, E (u^2 + v^2).
    keep = length[inside] > 0.0
    u, v = u[inside][keep], v[inside][keep]
    mu_a, mu_b = mu_a[keep], mu_b[keep]
    lhs = (e - u) * box.length(u, v)
    rhs = energy_weight(mu_a, mu_b, e) * (mu_a * mu_b) ** 2 * (hi[keep] - lo[keep])
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * e * (u * u + v * v))
    assert np.all(lhs <= box.rho_max)


def test_sampler_at_a_box_reaching_past_the_pure_marginals():
    # Below mu = 3 - 2 sqrt(2) with E^2 >= 8/mu the proposal box reaches
    # 1/mu_A <= 0; those proposals must be rejected without a warning.
    mu, e = 0.02, 40.0
    box = _UVSupport.of(mu, e)
    assert box.u_lo - np.sqrt(box.v_sq) <= 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b, d_min, length = _draw_intervals(mu, e, 5_000, np.random.default_rng(3))
        sigmas = sample_energy_constrained(mu, e, 2_000, seed=3)
    for x in (a, b):
        assert np.all(x >= 1.0)
    assert np.all(np.isfinite(d_min) & np.isfinite(length) & (length > 0.0))
    assert np.abs(0.5 * np.einsum("nii->n", sigmas) - e).max() < 1e-9
    assert all(is_bona_fide(s) for s in sigmas)


def test_sampler_deterministic():
    s1 = sample_energy_constrained(0.4, 6.0, 500, seed=9)
    s2 = sample_energy_constrained(0.4, 6.0, 500, seed=9)
    np.testing.assert_array_equal(s1, s2)


def _unblocked_draws(mu, e, count, rng):
    """Reference acceptance loop: whole batches, boolean-mask selection.

    The same proposals, batch sizes and acceptance test as the blocked
    sampler, evaluated on every proposal of every batch drawn.  Returns the
    purities and :func:`delta_bounds_batch` bounds (mu_a, mu_b, delta_min,
    delta_max) of the first ``count`` accepted proposals and the proposals
    (u, v, accepted) of all batches.
    """
    box = _UVSupport.of(mu, e)
    v_max = np.sqrt(box.v_sq)
    draws, proposals = [], []
    n_acc = n_drawn = 0
    while n_acc < count:
        rate = n_acc / n_drawn if n_acc else (0.03 if n_drawn else 0.25)
        batch = min(65_536, max(1024, int(1.1 * (count - n_acc) / rate)))
        u = rng.uniform(box.u_lo, e, batch)
        v = rng.uniform(-v_max, v_max, batch)
        r = rng.random(batch)
        n_drawn += batch
        mu_a = 1.0 / np.maximum(0.5 * (u + v), 1.0)
        mu_b = 1.0 / np.maximum(0.5 * (u - v), 1.0)
        excess = energy_weight(mu_a, mu_b, e) * (mu_a * mu_b) ** 2
        ok = r * box.rho_max < excess * box.length(u, v)
        proposals.append((u, v, ok))
        mu_a, mu_b = mu_a[ok], mu_b[ok]
        lo, hi, _ = delta_bounds_batch(mu, mu_a, mu_b)
        draws.append((mu_a, mu_b, lo, hi))
        n_acc += int(ok.sum())
    return (
        tuple(np.concatenate(parts)[:count] for parts in zip(*draws)),
        tuple(np.concatenate(parts) for parts in zip(*proposals)),
    )


# The four benchmark energy-curve points, two points next to the support
# edge mu = 4/E^2 and a box that reaches past the pure marginals.
_ORACLE_POINTS = [
    (0.7222222222222222, 3.0),
    (0.58, 5.0),
    (0.53125, 8.0),
    (0.5138888888888888, 12.0),
    (4.0 / 9.0 * (1.0 + 1e-4), 3.0),
    (4.0 / 144.0 * (1.0 + 1e-4), 12.0),
    (0.02, 40.0),
]


@pytest.mark.parametrize("mu,e", _ORACLE_POINTS)
@pytest.mark.parametrize("count,seed", [(1, 3), (777, 4), (30_000, 5)])
def test_draw_purities_matches_the_unblocked_loop(mu, e, count, seed):
    ref_rng = np.random.default_rng(seed)
    (mu_a, mu_b, lo, hi), (u, v, ok) = _unblocked_draws(mu, e, count, ref_rng)
    u, v = u[ok][:count], v[ok][:count]
    with typicality._stream(np.random.default_rng(seed)) as stream:
        got = _accepted_uv(_UVSupport.of(mu, e), count, stream)
        for g, w in zip((np.concatenate(parts) for parts in zip(*got)), (u, v)):
            np.testing.assert_array_equal(g, w)
    # The stream ends where the unblocked loop leaves its generator.
    assert stream.end == 3 * ok.size
    # The draws' standard form and seralian interval come from (u, v), not
    # from the purities and their seralian bounds, so the two agree to
    # rounding: a and b to 2 eps, the interval ends to 4 eps relative to
    # the terms of size u^2 + 1/mu^2 that the edges subtract.
    eps = np.finfo(float).eps
    a, b, d_min, length = _draw_intervals(mu, e, count, np.random.default_rng(seed))
    np.testing.assert_allclose(a, 1.0 / mu_a, rtol=2.0 * eps, atol=0.0)
    np.testing.assert_allclose(b, 1.0 / mu_b, rtol=2.0 * eps, atol=0.0)
    edge_terms = u * u + 1.0 / mu**2
    assert np.all(np.abs(d_min - lo) <= 4.0 * eps * edge_terms)
    assert np.all(np.abs(d_min + length - hi) <= 4.0 * eps * edge_terms)


def _uv_blocks(mu, e, count, seed):
    with typicality._stream(np.random.default_rng(seed)) as stream:
        yield from _accepted_uv(_UVSupport.of(mu, e), count, stream)


def test_stream_runs_read_the_doubles_drawn_in_order():
    ref = np.random.default_rng(4)
    lengths = (5, 0, 1000, 3)
    cursors = [np.random.Generator(np.random.PCG64(0)) for _ in lengths]
    stream = typicality._Stream(None, cursors, np.random.default_rng(4).bit_generator.state)
    stream.runs(lengths)
    for cursor, length in zip(cursors, lengths):
        np.testing.assert_array_equal(cursor.random(length), ref.random(length))
    assert stream.end == sum(lengths)


class _CountingPCG64(np.random.PCG64):
    """PCG64 that counts its state reads and writes and its advances into ``counts``."""

    def __init__(self, seed, counts):
        super().__init__(seed)
        self.counts = counts

    @property
    def state(self):
        self.counts["read"] += 1
        return np.random.PCG64.state.__get__(self)

    @state.setter
    def state(self, value):
        self.counts["write"] += 1
        # PCG64 takes only a state that names its own class.
        np.random.PCG64.state.__set__(self, {**value, "bit_generator": type(self).__name__})

    def advance(self, delta):
        self.counts["advance"] += 1
        return super().advance(delta)


@pytest.mark.parametrize("mu,e,count", [(0.7222222222222222, 3.0, 20_000), (0.53125, 8.0, 1)])
def test_sampler_copies_the_generator_state_once_per_call(monkeypatch, mu, e, count):
    # Each state read or write is a Python-level 128-bit conversion: the
    # cursors take the seeded generator's state once for all proposal
    # batches and the state uniforms, and are otherwise moved by advance
    # alone, at most three cursor advances per run of proposals or states.
    # The seeded generator itself is never advanced.
    rng_counts, cursor_counts = collections.Counter(), collections.Counter()
    cursors = tuple(np.random.Generator(_CountingPCG64(0, cursor_counts)) for _ in range(3))
    monkeypatch.setattr(typicality, "_DRAW_BUFFERS", [(np.empty((3, _BLOCK)), cursors)])
    runs = []
    stream_runs = typicality._Stream.runs

    def counting_runs(self, lengths):
        runs.append(lengths)
        stream_runs(self, lengths)

    def counting_rng(seed):
        return np.random.Generator(_CountingPCG64(seed, rng_counts))

    monkeypatch.setattr(typicality._Stream, "runs", counting_runs)
    want = sample_energy_constrained(mu, e, count, seed=6)
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    runs.clear()
    cursor_counts.clear()
    np.testing.assert_array_equal(sample_energy_constrained(mu, e, count, seed=6), want)
    assert len(runs) >= 2  # the proposal batches, then the state uniforms
    assert rng_counts == {"read": 1}
    assert cursor_counts["write"] == 3 and cursor_counts["read"] == 0
    assert cursor_counts["advance"] <= 3 * len(runs)


@pytest.mark.parametrize("count", [1, 4097, 30_000])
def test_draw_intervals_leave_the_generator_state_of_the_unblocked_loop(count):
    mu, e = 0.53125, 8.0
    rng, ref = np.random.default_rng(count), np.random.default_rng(count)
    _unblocked_draws(mu, e, count, ref)
    _draw_intervals(mu, e, count, rng)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_warm_sampler_builds_no_generator(monkeypatch):
    buffers = []
    monkeypatch.setattr(typicality, "_DRAW_BUFFERS", buffers)
    sample_energy_constrained(0.3, 8.0, 5_000, seed=1)
    (entry,) = buffers

    def no_new_generator(*args, **kwargs):
        raise AssertionError("a warm call built a generator")

    # default_rng, which seeds each call's own generator, does not look these up.
    monkeypatch.setattr(np.random, "Generator", no_new_generator)
    monkeypatch.setattr(np.random, "PCG64", no_new_generator)
    sample_energy_constrained(0.3, 8.0, 5_000, seed=2)
    energy_constrained_stats(0.3, 8.0, McConfig(seed=2, final_evals=5_000))
    assert len(buffers) == 1 and buffers[0] is entry


def test_sampler_working_memory_is_two_floats_per_state():
    # Beyond its output, the sampler keeps the accepted (u, v) and one
    # chunk's temporaries: at most 32 B per state at 200 000 states.
    count = 200_000
    states = []
    peak = _traced_peak(lambda: states.append(sample_energy_constrained(0.3, 8.0, count)))
    assert (peak - states[0].nbytes) / count <= 32.0


def test_interleaved_samplers_yield_what_each_yields_alone():
    # Both run over several batches, each into its own draw buffer.
    runs = [(0.53125, 8.0, 30_000, 1), (4.0 / 9.0 * (1.0 + 1e-4), 3.0, 20_000, 2)]
    alone = [list(_uv_blocks(*run)) for run in runs]
    interleaved = [[], []]
    for pair in itertools.zip_longest(*(_uv_blocks(*run) for run in runs)):
        for blocks, block in zip(interleaved, pair):
            if block is not None:
                blocks.append(block)
    for want, got in zip(alone, interleaved):
        assert len(got) == len(want)
        for (u_g, v_g), (u_w, v_w) in zip(got, want):
            np.testing.assert_array_equal(u_g, u_w)
            np.testing.assert_array_equal(v_g, v_w)


def test_samplers_in_threads_give_the_serial_arrays():
    # More threads than cores, switching often: a draw buffer shared by two
    # running samplers would mix their proposals.
    jobs = [
        (0.53125, 8.0, 20_000, 1),
        (0.58, 5.0, 20_000, 2),
        (0.72, 3.0, 5_000, 3),
        (0.02, 40.0, 20_000, 4),
    ]
    serial = [sample_energy_constrained(*job) for job in jobs]
    start = threading.Barrier(len(jobs), timeout=60)

    def repeat(job):
        start.wait()
        return [sample_energy_constrained(*job) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(repeat, job) for job in jobs]
            threaded = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for want, runs in zip(serial, threaded):
        for got in runs:
            np.testing.assert_array_equal(got, want)


def test_free_list_holds_one_buffer_per_running_sampler(monkeypatch):
    buffers = []
    monkeypatch.setattr(typicality, "_DRAW_BUFFERS", buffers)
    for seed in range(50):
        early = _uv_blocks(0.53125, 8.0, 30_000, seed)
        next(early)
        assert len(buffers) <= 1  # the one the previous round left, if any
        energy_constrained_stats(0.53125, 8.0, McConfig(seed=seed, final_evals=1000))
        _uv_blocks(0.58, 5.0, 10, seed)  # never started: takes no buffer
        early.close()
        assert len(buffers) == 2
        assert buffers[0] is not buffers[1]


def test_warm_sampler_allocates_no_batch_arrays(monkeypatch):
    # At (0.72, 3) a request for 20 000 draws takes full 65 536-proposal
    # batches.  Once a call has left its buffer on the free list, no block
    # larger than one acceptance slice's temporaries is alive at any yield.
    monkeypatch.setattr(typicality, "_DRAW_BUFFERS", [])
    mu, e, count = 0.7222222222222222, 3.0, 20_000
    for _ in _uv_blocks(mu, e, count, 0):
        pass
    large = []
    tracemalloc.start()
    try:
        for _ in _uv_blocks(mu, e, count, 1):
            traces = tracemalloc.take_snapshot().traces
            large += [trace.size for trace in traces if trace.size > 8 * _BLOCK]
    finally:
        tracemalloc.stop()
    assert large == []


@pytest.mark.parametrize("mu,e", _ORACLE_POINTS)
def test_uv_statistics_match_logneg_average_on_oracle_draws(mu, e):
    (mu_a, mu_b, d_min, d_max), (u, v, ok) = _unblocked_draws(
        mu, e, 20_000, np.random.default_rng(8)
    )
    u, v = u[ok][: mu_a.size], v[ok][: mu_a.size]
    box = _UVSupport.of(mu, e)
    got = np.empty((4, u.size))
    _uv_statistics(box, u, v, got)
    prop, mean_en = logneg_average(mu, mu_a, mu_b)
    mu_min = np.minimum(mu_a, mu_b)
    np.testing.assert_array_equal(got[2], (mu_min < mu).astype(float))
    # Relative to the terms that cancel: the entangled length is a
    # difference of terms of size u^2, divided by L, and G is a log near 1.
    interval_scale = u * u / box.length(u, v)
    for g, w, scale in (
        (got[0], prop, interval_scale),
        (got[1], mean_en, interval_scale),
        (got[3], np.maximum(np.log(mu / mu_min), 0.0), 1.0),
    ):
        assert np.all(np.abs(g - w) <= 1e-13 * (np.abs(w) + scale))


@pytest.mark.parametrize("mu,e", _ORACLE_POINTS)
def test_draw_intervals_are_nonempty(mu, e):
    # The acceptance test L(u, v) > 0 is the sampler's only support test,
    # so every draw has a seralian interval of positive length.
    a, b, d_min, length = _draw_intervals(mu, e, 30_000, np.random.default_rng(6))
    assert np.all(length > 0.0)
    assert np.all(d_min <= d_min + length)
    assert np.all((a >= 1.0) & (b >= 1.0) & (a + b < e))


def test_sampler_states_unchanged_at_fixed_seeds(monkeypatch):
    # Values of the unblocked sampler loop.
    s = sample_energy_constrained(0.4, 6.0, 3, seed=9)
    np.testing.assert_allclose(
        s[0],
        [
            [1.5228498323264417, 2.19307205365422, -0.970463005323499, 0.606802057899927],
            [2.19307205365422, 5.717990516089023, -0.3066551209359495, 0.6633455234187228],
            [-0.970463005323499, -0.3066551209359495, 3.6288161911692627, 0.3073799417337889],
            [0.606802057899927, 0.6633455234187228, 0.3073799417337889, 1.1303434604152713],
        ],
        rtol=1e-12,
    )
    s = sample_energy_constrained(0.53125, 8.0, 20_000, seed=5)
    np.testing.assert_allclose(
        s[-1],
        [
            [2.067796604023561, 1.4605951189992066, -1.9229015077140925, -1.1600046211485606],
            [1.4605951189992066, 7.34016276934661, -3.3014193126067983, 3.093790410442045],
            [-1.9229015077140925, -3.3014193126067983, 2.7923782118736273, -0.2718724992211661],
            [-1.1600046211485606, 3.093790410442045, -0.2718724992211661, 3.7996624147562033],
        ],
        rtol=1e-12,
    )
    # Bit for bit against the sampler run on the unblocked loop.
    def unblocked_uv(box, count, stream):
        _, (u, v, ok) = _unblocked_draws(0.53125, box.energy, count, np.random.default_rng(5))
        stream.runs((3 * ok.size,))
        yield u[ok][:count], v[ok][:count]

    monkeypatch.setattr(typicality, "_accepted_uv", unblocked_uv)
    np.testing.assert_array_equal(sample_energy_constrained(0.53125, 8.0, 20_000, seed=5), s)


def _exact_covmat(std, lam_a_m1, lam_b_m1, angles):
    """(S_A + S_B)^T sigma_std (S_A + S_B) from exact lambda - 1, at the working precision."""
    import mpmath

    def local(lam_m1, inner, outer):
        w = mpmath.sqrt(1 + lam_m1 + mpmath.sqrt(lam_m1 * (lam_m1 + 2)))
        rot = [mpmath.matrix([[mpmath.cos(t), mpmath.sin(t)], [-mpmath.sin(t), mpmath.cos(t)]])
               for t in (inner, outer)]
        return rot[1] * mpmath.diag([w, 1 / w]) * rot[0]

    sa, sb = local(lam_a_m1, *angles[:2]), local(lam_b_m1, *angles[2:])
    s = mpmath.zeros(4, 4)
    for i in range(2):
        for j in range(2):
            s[i, j], s[2 + i, 2 + j] = sa[i, j], sb[i, j]
    return s.T * mpmath.matrix(std.matrix().tolist()) * s


def test_sampled_state_next_to_lambda_one_keeps_its_digits():
    # Replays the draw of sample_energy_constrained(0.4445, 3, 1000, seed=8)
    # and evaluates its state nearest lambda_B = 1 at 50 digits.
    import mpmath

    mu, e, count = 0.4445, 3.0, 1000
    rng = np.random.default_rng(8)
    a, b, d_min, length = _draw_intervals(mu, e, count, rng)
    delta = d_min + rng.random(count) * length
    r = rng.random(count)
    angles = rng.uniform(0.0, 2.0 * np.pi, (count, 4))
    c_plus, c_minus = typicality._std_form_c(mu, a, b, delta)
    k = int(np.argmin((e - b - a) * (1.0 - r) / b))
    with mpmath.workdps(50):
        spare = mpmath.mpf(e) - mpmath.mpf(a[k]) - mpmath.mpf(b[k])
        lam_a_m1 = spare * mpmath.mpf(r[k]) / mpmath.mpf(a[k])
        lam_b_m1 = spare * (1 - mpmath.mpf(r[k])) / mpmath.mpf(b[k])
        assert 1e-10 < lam_b_m1 < 1e-9
        std = StdForm(a[k], b[k], c_plus[k], c_minus[k])
        want = _exact_covmat(std, lam_a_m1, lam_b_m1, [mpmath.mpf(t) for t in angles[k]])
        want = np.array(want.tolist(), dtype=float)
    got = sample_energy_constrained(mu, e, count, seed=8)[k]
    error = np.abs(got - want).max() / np.abs(want).max()
    assert error <= 1e-14, error


def test_half_angle_rotation_matches_libm():
    theta = np.concatenate([
        [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, np.nextafter(2.0 * np.pi, 0.0)],
        np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, 10_000),
    ])
    # At theta = pi the half-angle tangent is about 1.6e16: no overflow, no warning.
    assert np.tan(0.5 * np.pi) > 1e16
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c, s = typicality._rotation(theta)
    assert np.abs(c - np.cos(theta)).max() <= 2e-15
    assert np.abs(s - np.sin(theta)).max() <= 2e-15
    assert np.abs(c * c + s * s - 1.0).max() <= 4.0 * np.finfo(float).eps


def _libm_states(mu, e, count, seed):
    """The draws of sample_energy_constrained replayed, each state a matrix product with libm trig."""
    rng = np.random.default_rng(seed)
    a, b, d_min, length = _draw_intervals(mu, e, count, rng)
    delta = d_min + rng.random(count) * length
    r = rng.random(count)
    angles = rng.uniform(0.0, 2.0 * np.pi, (count, 4))
    c_plus, c_minus = typicality._std_form_c(mu, a, b, delta)

    def local(lam_m1, inner, outer):
        w = np.sqrt(1.0 + lam_m1 + np.sqrt(lam_m1 * (lam_m1 + 2.0)))
        rot = [np.moveaxis(np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]]), -1, 0)
               for t in (inner, outer)]
        squeeze = np.zeros((count, 2, 2))
        squeeze[:, 0, 0], squeeze[:, 1, 1] = w, 1.0 / w
        return rot[1] @ squeeze @ rot[0]

    s = np.zeros((count, 4, 4))
    lam_a_m1, lam_b_m1 = typicality._squeezings(e, a, b, r)
    s[:, :2, :2] = local(lam_a_m1, angles[:, 0], angles[:, 1])
    s[:, 2:, 2:] = local(lam_b_m1, angles[:, 2], angles[:, 3])
    std = np.zeros((count, 4, 4))
    std[:, 0, 0] = std[:, 1, 1] = a
    std[:, 2, 2] = std[:, 3, 3] = b
    std[:, 0, 2] = std[:, 2, 0] = c_plus
    std[:, 1, 3] = std[:, 3, 1] = c_minus
    return np.swapaxes(s, 1, 2) @ std @ s


# The five benchmark sampler points, with their state counts, and a low-purity
# point at high energy.
@pytest.mark.parametrize(
    "mu,e,count",
    [(0.3, 8.0, 20_000), (0.05, 12.0, 400), (0.9, 12.0, 3_000), (0.47, 3.0, 280),
     (0.4445, 3.0, 1_000), (0.02, 40.0, 3_000)],
)
def test_sampled_states_match_a_libm_trig_reference(mu, e, count):
    got = sample_energy_constrained(mu, e, count, seed=11)
    want = _libm_states(mu, e, count, 11)
    error = np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))
    assert error.max() <= 4e-15, error.max()
    energy = np.trace(got, axis1=1, axis2=2) / 2.0
    np.testing.assert_allclose(energy, np.trace(want, axis1=1, axis2=2) / 2.0, rtol=1e-14)


def _whole_count_states(mu, e, count, seed):
    """The draws of sample_energy_constrained replayed, every state built in one batch."""
    rng = np.random.default_rng(seed)
    a, b, d_min, length = _draw_intervals(mu, e, count, rng)
    delta = d_min + rng.random(count) * length
    r = rng.random(count)
    angles = rng.uniform(0.0, 2.0 * np.pi, (count, 4))
    c_plus, c_minus = typicality._std_form_c(mu, a, b, delta)
    return _covmats(a, b, c_plus, c_minus, *typicality._squeezings(e, a, b, r), angles)


@pytest.mark.parametrize("mu,e", [(0.4445, 3.0), (0.02, 40.0)])
@pytest.mark.parametrize("chunks,extra", [(1, -1), (1, 0), (1, 1), (2, 3)])
def test_states_assembled_in_chunks_equal_the_whole_count_replay(mu, e, chunks, extra):
    count = chunks * typicality._STATE_CHUNK + extra
    np.testing.assert_array_equal(
        sample_energy_constrained(mu, e, count, seed=count),
        _whole_count_states(mu, e, count, count),
    )


@pytest.mark.parametrize("mu,e", [(0.53125, 8.0), (4.0 / 9.0 * (1.0 + 1e-4), 3.0)])
@pytest.mark.parametrize("count", [5, 10_000, 30_000])
def test_energy_weight_sees_each_evaluated_proposal_once(monkeypatch, mu, e, count):
    calls = []

    def recording_weight(mu_a, mu_b, energy):
        calls.append(np.array(mu_a))
        return energy_weight(mu_a, mu_b, energy)

    monkeypatch.setattr(typicality, "energy_weight", recording_weight)
    runs = (
        lambda seed: energy_constrained_stats(mu, e, McConfig(seed=seed, final_evals=count)),
        lambda seed: sample_energy_constrained(mu, e, count, seed=seed),
    )
    for seed, run in enumerate(runs):
        calls.clear()
        run(seed)
        _, (u, v, ok) = _unblocked_draws(mu, e, count, np.random.default_rng(seed))
        sizes = [c.size for c in calls]
        evaluated = sum(sizes)
        assert max(sizes) <= _BLOCK
        # Every evaluated proposal, in order, each once ...
        np.testing.assert_array_equal(
            np.concatenate(calls), 1.0 / np.maximum(0.5 * (u + v), 1.0)[:evaluated]
        )
        # ... and evaluation stops at the slice that completes the count.
        assert ok[:evaluated].sum() >= count > ok[: evaluated - sizes[-1]].sum()


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


@pytest.mark.parametrize("count", [2.5, 10.0, "10", None, True])
def test_sampler_rejects_non_integer_count(count):
    with pytest.raises(ValueError, match="count must be an integer"):
        sample_energy_constrained(0.3, 8.0, count)


@pytest.mark.parametrize("count_type", [np.int64, np.int32, np.uint8, np.uint64])
@pytest.mark.parametrize("count", [1, 3, 100])
def test_sampler_takes_numpy_integer_counts(count_type, count):
    # A numpy integer count reached PCG64.advance, which raised
    # OverflowError; an np.uint8 count also wrapped the 4 * count angles.
    want = sample_energy_constrained(0.5, 8.0, count, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sample_energy_constrained(0.5, 8.0, count_type(count), seed=3)
    np.testing.assert_array_equal(got, want)


def test_energy_stats_take_numpy_integer_draw_counts():
    want = energy_constrained_stats(0.5, 5.0, McConfig(seed=3, final_evals=200))
    for final_evals in (np.int64(200), np.int32(200), np.uint8(200)):
        got = energy_constrained_stats(0.5, 5.0, McConfig(seed=np.uint8(3), final_evals=final_evals))
        assert got == want


@pytest.mark.parametrize("seed", [1.5, None, True, -1])
def test_sampler_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # 1.5 used to leak numpy's TypeError; None and True were accepted, None
    # with a draw that cannot be reproduced.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            sample_energy_constrained(0.3, 8.0, 10, seed=seed)


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
    batch = _covmats(
        std.a, std.b, std.c_plus, std.c_minus, lam_a_all - 1.0, lam_b_all - 1.0, all_angles
    )
    scale = np.abs(sigma).max()
    np.testing.assert_allclose(sigma, batch[row], rtol=0.0, atol=1e-13 * scale)
    np.testing.assert_array_equal(sigma, sigma.T)
    ref = _reference_covmat(std, lam_a, lam_b, angles)
    np.testing.assert_allclose(sigma, ref, rtol=0.0, atol=1e-12 * scale)
    want = lam_a / mu_a + lam_b / mu_b
    assert 0.5 * np.trace(sigma) == pytest.approx(want, rel=1e-12, abs=0.0)
