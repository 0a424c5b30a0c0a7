import math
import sys
import warnings

import numpy as np
import pytest

from gaussgeom import measures
from gaussgeom.core import (
    DomainError,
    InvariantCoords,
    StdForm,
    cm_from_invariants,
    random_symplectic,
    symplectic_form,
)
from gaussgeom.correlations import delta_bounds
from gaussgeom.measures import (
    FISHER_RAO,
    HILBERT_SCHMIDT,
    REDUCED_PURE,
    MeasureKind,
    density,
    density_fr,
    density_hs,
    density_ratio,
    density_reduced_pure,
    fixed_purity,
    hs_density_invariant_coords,
    hs_density_std_form,
    line_element_fr,
    line_element_hs,
    numeric_metric_density,
    numeric_std_form_density,
)


def _well_separated_spectrum(rng, n, lo=1.05, hi=3.0, gap=0.05):
    while True:
        nu = np.sort(rng.uniform(lo, hi, n))
        if n == 1 or np.diff(nu).min() > gap:
            return nu


def test_density_hs_examples():
    assert density_hs([1.0]) == 1.0
    assert density_hs([1.0, 1.0]) == 0.0
    assert density_hs([1.0, 2.0]) == pytest.approx(9 / 256, rel=1e-14, abs=0.0)


def test_density_fr_examples():
    assert density_fr([2.0]) == pytest.approx(0.5, rel=1e-14, abs=0.0)
    assert density_fr([1.0, 1.0]) == 0.0
    assert density_fr([1.0, 2.0]) == pytest.approx(9 / 8, rel=1e-14, abs=0.0)


def test_density_reduced_pure_examples():
    assert density_reduced_pure([3.0]) == pytest.approx(9.0, rel=1e-14, abs=0.0)
    assert density_reduced_pure([1.0, 1.0]) == 0.0
    assert density_reduced_pure([1.0, 2.0]) == pytest.approx(36.0, rel=1e-14, abs=0.0)


def test_density_rejects_unphysical_spectrum():
    with pytest.raises(ValueError, match=">= 1"):
        density_hs([0.5])
    # An infinite eigenvalue is no state, and the density has no value there
    # (at [inf, 2.0] the power of prod(nu_k) is 0 and the repulsion inf).
    for kind in (HILBERT_SCHMIDT, FISHER_RAO, REDUCED_PURE, fixed_purity(0.25)):
        for nu in ([math.inf, 2.0], [math.inf, math.inf], [1.5, math.inf, math.inf], [math.inf]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="must be finite"):
                    density(kind, nu)


def test_density_ratio_examples():
    assert density_ratio(HILBERT_SCHMIDT, FISHER_RAO, [1.0, 2.0]) == pytest.approx(
        1 / 32, rel=1e-12, abs=0.0
    )
    assert density_ratio(FISHER_RAO, FISHER_RAO, [1.0, 1.0]) == 1.0
    # Equal kinds need equal purities too: [1, 2] lies on the mu = 0.5 shell,
    # where the mu = 0.3 numerator vanishes.
    assert density_ratio(fixed_purity(0.5), MeasureKind("fixed-purity", 0.5), [1.0, 1.0]) == 1.0
    assert density_ratio(fixed_purity(0.3), fixed_purity(0.5), [1.0, 2.0]) == 0.0
    r1 = density_ratio(HILBERT_SCHMIDT, FISHER_RAO, [1.0, 4.0])
    r2 = density_ratio(HILBERT_SCHMIDT, FISHER_RAO, [np.sqrt(2.0), 2.0 * np.sqrt(2.0)])
    assert abs(r1 - r2) < 1e-9 * abs(r1)


def test_density_ratio_power_laws():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 4):
        for _ in range(250):
            nu = _well_separated_spectrum(rng, n)
            prod = np.prod(nu)
            r = density_ratio(HILBERT_SCHMIDT, FISHER_RAO, nu)
            expect = prod ** (-n * n - n / 2)
            assert abs(r - expect) < 1e-9 * abs(expect)
            r = density_ratio(REDUCED_PURE, FISHER_RAO, nu)
            expect = prod ** (2 * n + 1)
            assert abs(r - expect) < 1e-9 * abs(expect)


def test_density_ratio_is_the_quotient_of_the_densities():
    rng = np.random.default_rng(26)
    for n in (1, 2, 3):
        for _ in range(40):
            nu = _well_separated_spectrum(rng, n)
            kinds = (HILBERT_SCHMIDT, FISHER_RAO, REDUCED_PURE, fixed_purity(np.prod(1.0 / nu)))
            for kind_a in kinds:
                for kind_b in kinds:
                    want = density(kind_a, nu) / density(kind_b, nu)
                    assert density_ratio(kind_a, kind_b, nu) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_density_ratio_undefined_where_the_denominator_vanishes():
    with pytest.raises(ValueError, match="vanishes"):
        density_ratio(HILBERT_SCHMIDT, FISHER_RAO, [1.5, 1.5])
    with pytest.raises(ValueError, match="vanishes"):
        density_ratio(HILBERT_SCHMIDT, fixed_purity(0.5), [1.2, 2.0])
    assert density_ratio(fixed_purity(0.5), HILBERT_SCHMIDT, [1.2, 2.0]) == 0.0
    with pytest.raises(ValueError, match=">= 1"):
        density_ratio(HILBERT_SCHMIDT, FISHER_RAO, [0.5, 2.0])
    with pytest.raises(ValueError, match="unknown"):
        density_ratio(MeasureKind("bogus"), FISHER_RAO, [1.2, 2.0])



@pytest.mark.parametrize("mu", [None, 0.0, -0.5, 1.5, math.nan, math.inf])
def test_measure_kind_rejects_a_fixed_purity_outside_the_unit_interval(mu):
    # Built by hand, such a kind reached float - None (or NaN) in the densities.
    with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
        MeasureKind("fixed-purity", mu)
    with pytest.raises(ValueError, match="unknown measure kind 'bogus'"):
        MeasureKind("bogus", mu)

@pytest.mark.parametrize("kind", [HILBERT_SCHMIDT, FISHER_RAO, REDUCED_PURE], ids=lambda k: k.tag)
def test_measure_kind_takes_a_mu_for_the_fixed_purity_kind_only(kind):
    # MeasureKind("hilbert-schmidt", mu=0.3) was kept, unequal to
    # HILBERT_SCHMIDT, and density ignored its mu.
    with pytest.raises(ValueError, match="only set for the fixed-purity kind"):
        MeasureKind(kind.tag, 0.3)
    assert MeasureKind(kind.tag, None) == kind


def test_density_ratio_rejects_nan_and_overflows_to_inf():
    for nu in ([np.nan, 2.0], [2.0, np.nan]):
        with pytest.raises(ValueError, match=">= 1"):
            density_ratio(HILBERT_SCHMIDT, FISHER_RAO, nu)
    assert density_ratio(REDUCED_PURE, HILBERT_SCHMIDT, [1e20, 2e20]) == np.inf
    assert density_reduced_pure([1.0, 1e160]) == np.inf


@pytest.mark.parametrize("n", [1, 2, 3])
def test_density_ratio_is_the_same_for_lists_tuples_and_arrays(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(30):
        nu = _well_separated_spectrum(rng, n)
        kinds = (HILBERT_SCHMIDT, FISHER_RAO, REDUCED_PURE, fixed_purity(np.prod(1.0 / nu)),
                 fixed_purity(0.5))
        for kind_a in kinds:
            for kind_b in kinds:
                try:
                    want = density_ratio(kind_a, kind_b, nu)
                except ValueError as exc:
                    want = str(exc)
                for same in (nu.tolist(), tuple(nu.tolist()), list(nu), nu.reshape(1, n)[0]):
                    try:
                        got = density_ratio(kind_a, kind_b, same)
                    except ValueError as exc:
                        got = str(exc)
                    assert got == want and type(got) is type(want)
    # A scalar and a 0-d array are a one-mode spectrum; integers are floats.
    want = density_ratio(HILBERT_SCHMIDT, FISHER_RAO, [2.5])
    for one_mode in (2.5, np.float64(2.5), np.array(2.5), (2.5,), np.array([2.5])):
        assert density_ratio(HILBERT_SCHMIDT, FISHER_RAO, one_mode) == want
    want = density_ratio(HILBERT_SCHMIDT, FISHER_RAO, [2.0, 3.0])
    for ints in ([2, 3], (2, 3), np.array([2, 3])):
        assert density_ratio(HILBERT_SCHMIDT, FISHER_RAO, ints) == want


_BAD_SPECTRA = [
    ([math.nan, 2.0], "symplectic eigenvalues must be >= 1, got min nan"),
    ([2.0, math.nan], "symplectic eigenvalues must be >= 1, got min nan"),
    ([2.0, 3.0, math.nan], "symplectic eigenvalues must be >= 1, got min nan"),
    ([0.5, math.nan], "symplectic eigenvalues must be >= 1, got min nan"),
    ([math.nan, 0.5], "symplectic eigenvalues must be >= 1, got min nan"),
    ([math.inf, math.nan], "symplectic eigenvalues must be >= 1, got min nan"),
    ([-math.inf, math.inf], "symplectic eigenvalues must be >= 1, got min -inf"),
    ([math.inf, -math.inf], "symplectic eigenvalues must be >= 1, got min -inf"),
    ([0.5, 2.0], "symplectic eigenvalues must be >= 1, got min 0.5"),
    ([2.0, 1.0 - 1e-8], "symplectic eigenvalues must be >= 1, got min 0.99999999"),
    ([1.5, 1.5], "density ratio undefined: denominator density vanishes"),
    ([2.0, 1.5, 2.0], "density ratio undefined: denominator density vanishes"),
    ([], "spectrum must be a non-empty 1D sequence"),
    ([[1.5, 2.0]], "spectrum must be a non-empty 1D sequence"),
    ([[1.5], [2.0]], "spectrum must be a non-empty 1D sequence"),
]


@pytest.mark.parametrize("nu,message", _BAD_SPECTRA)
@pytest.mark.parametrize("container", [list, tuple, np.array])
def test_density_ratio_errors_are_the_same_for_every_input_kind(nu, message, container):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            density_ratio(HILBERT_SCHMIDT, FISHER_RAO, container(nu))
    assert str(info.value) == message
    assert type(info.value) is ValueError


def test_density_ratio_checks_the_spectrum_for_every_pair_of_kinds():
    # Equal kinds returned 1.0 before reading the spectrum, NaN included.
    with pytest.raises(ValueError, match="got min nan"):
        density_ratio(FISHER_RAO, FISHER_RAO, [math.nan, 0.5])
    with pytest.raises(ValueError, match="got min 0.5"):
        density_ratio(HILBERT_SCHMIDT, HILBERT_SCHMIDT, [0.5])
    assert density_ratio(FISHER_RAO, FISHER_RAO, [1.0, 1.0]) == 1.0
    with pytest.raises(ValueError, match="got min 0.5"):
        density_ratio(fixed_purity(0.5), fixed_purity(0.3), (0.5, 2.0))
    with pytest.raises(ValueError, match="got min nan"):
        density_ratio(fixed_purity(0.5), HILBERT_SCHMIDT, np.array([2.0, math.nan]))


def _mp_density(kind, nu):
    """prod(nu_k)^exponent times the repulsion factor in 40-digit mpmath, exponent not bounded."""
    import mpmath

    with mpmath.workdps(40):
        n = len(nu)
        exponent = {"hilbert-schmidt": -n * (n + 2.5) + 1, "fisher-rao": -2 * n + 1,
                    "reduced-pure": 2}[kind.tag]
        x = [mpmath.mpf(v) for v in nu]
        value = mpmath.fprod(x) ** exponent
        for l in range(n):
            for m in range(l):
                value *= (x[l] ** 2 - x[m] ** 2) ** 2
        return value


@pytest.mark.parametrize("kind", [HILBERT_SCHMIDT, FISHER_RAO, REDUCED_PURE])
@pytest.mark.parametrize(
    "nu",
    [[1e77, 2e77], [3.0, 1e160], [1e20, 2e20], [1e200, 2e200], [1.0, 1.7e308], [1e300],
     [1.5, 2e100, 3e100], [1.0, 1.0 + 2e-16, 1e160]],
)
def test_density_at_spectra_beyond_the_float_range_of_its_factors(kind, nu):
    # The power of prod(nu_k) underflows or overflows here, or the repulsion
    # factor does: the density is the true value where it is a float, 0.0
    # below the float range and inf above it, never NaN.
    import mpmath

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = density(kind, nu)
    want = _mp_density(kind, nu)
    if want > sys.float_info.max:
        assert got == math.inf
    elif want < sys.float_info.min * sys.float_info.epsilon:
        assert got == 0.0
    else:
        assert got == pytest.approx(float(want), rel=1e-15, abs=0.0), mpmath.nstr(want, 20)


def _zero_test_spectra() -> list[list[float]]:
    """Spectra for the repulsion zero test: random, degenerate, near overflow, underflowing."""
    rng = np.random.default_rng(17)
    spectra = []
    for n in (1, 2, 3, 4):
        for _ in range(150):
            nu = rng.uniform(1.0, 10.0, n).tolist()
            spectra.append(nu)
            if n > 1:
                j, k = rng.choice(n, 2, replace=False)
                spectra.append(nu[:j] + [nu[k]] + nu[j + 1 :])  # an equal pair
            spectra.append([1.0 + x * 1e-15 for x in rng.integers(0, 4, n).tolist()])
    # v**2 overflows from v = 1.3407807929942597e154 on.
    for big in (1e154, 1.3407807929942596e154, 1.3407807929942597e154, 1.4e154, 1e200):
        spectra += [[big, big], [big, 2.0 * big], [1.5, big, big], [big, big, 1.5, 2.5]]
    spectra += [
        [1.0, 1e100],  # a factor overflows
        [1.0, 1e70, 1e70],  # the product overflows before the zero factor: NaN
        [1.0, 1e70, 1e70, 3.0],
        [math.inf, 2.0],
        [math.inf, math.inf],
        [1.5, math.inf, math.inf],
        [1.5, 2.5, math.inf],
        [1.0 - 1e-10, 1.0 - 1e-10],
        [1.0 - 1e-10, 1.0],
    ]
    # Many modes close together: the product underflows without an equal pair.
    for n in (5, 8, 12, 20, 40):
        spectra.append([1.0 + k * 1e-12 for k in range(n)])
        spectra.append([1.0 + k * 1e-3 for k in range(n)])
        spectra.append(list(range(1, n + 1)))
        spectra.append(sorted(rng.uniform(1.0, 1.001, n).tolist()))
    return spectra


def test_density_ratio_denominator_vanishes_exactly_at_an_equal_pair():
    verdicts = set()
    for nu in _zero_test_spectra():
        want = len(set(nu)) < len(nu)  # the repulsion factor is exactly 0
        verdicts.add((len(nu) > 2, want))
        if want:
            with pytest.raises(ValueError, match="vanishes"):
                density_ratio(HILBERT_SCHMIDT, FISHER_RAO, nu)
        else:
            density_ratio(HILBERT_SCHMIDT, FISHER_RAO, nu)
    assert verdicts == {(False, False), (False, True), (True, False), (True, True)}


def test_fixed_purity_density():
    nu = np.array([1.2, 2.0])
    kind = fixed_purity(float(np.prod(1.0 / nu)))
    on_shell = density(kind, nu)
    assert on_shell == pytest.approx((nu[1] ** 2 - nu[0] ** 2) ** 2, rel=1e-12, abs=0.0)
    assert density(kind, [1.0, 2.0]) == 0.0
    # On its shell the ratio to any other kind is a power of the purity.
    r = density_ratio(HILBERT_SCHMIDT, kind, nu)
    assert r == pytest.approx(np.prod(nu) ** (-2 * (2 + 2.5) + 1), rel=1e-12, abs=0.0)


def test_line_element_hs_examples():
    eps = 0.1
    assert line_element_hs(np.eye(2), eps * np.eye(2)) == pytest.approx(eps**2 / 2, rel=1e-12, abs=0.0)
    assert line_element_hs(np.eye(2), np.zeros((2, 2))) == 0.0
    sigma = np.array([[2.0, 0.3], [0.3, 1.5]])
    d = np.array([[0.1, -0.2], [-0.2, 0.4]])
    base = line_element_hs(sigma, d)
    assert line_element_hs(sigma, 3.0 * d) == pytest.approx(9.0 * base, rel=1e-12, abs=0.0)


def test_line_element_fr_examples():
    eps = 0.1
    assert line_element_fr(np.eye(2), eps * np.eye(2)) == pytest.approx(eps**2, rel=1e-12, abs=0.0)
    assert line_element_fr(np.eye(2), np.zeros((2, 2))) == 0.0


def test_line_elements_reject_what_they_cannot_take():
    with pytest.raises(ValueError, match="d_sigma must have the same shape as sigma"):
        line_element_hs(np.eye(4), np.eye(2))
    # sigma^-1 d_sigma = 1e600 I: its square leaves the float range.
    with pytest.raises(ValueError, match="ds\\^2 leaves the float range"):
        line_element_fr(1e-300 * np.eye(2), 1e300 * np.eye(2))
    with pytest.raises(ValueError, match="at most 3 modes"):
        numeric_metric_density([1.0, 2.0, 3.0, 4.0], HILBERT_SCHMIDT)



@pytest.mark.parametrize("line_element", [line_element_hs, line_element_fr])
@pytest.mark.parametrize(
    "sigma", [np.diag([1.0, 1.0, 1.0, 0.0]), np.ones((2, 2)), np.diag([1.0, -1.0])],
    ids=["zero", "rank1", "negative"],
)
def test_line_elements_reject_a_sigma_without_positive_determinant(line_element, sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positive determinant"):
            line_element(sigma, np.eye(sigma.shape[0]))


@pytest.mark.parametrize("line_element", [line_element_hs, line_element_fr])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_line_elements_reject_a_non_finite_displacement(line_element, bad):
    d_sigma = np.zeros((4, 4))
    d_sigma[1, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in (d_sigma, np.full((4, 4), bad)):
            with pytest.raises(ValueError, match="non-finite"):
                line_element(np.eye(4), d)


def test_line_element_fr_where_det_sigma_overflows():
    # det(1e80 I_4) = 1e320 is inf in floats but positive, so the check passes quietly.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert line_element_fr(1e80 * np.eye(4), 1e80 * np.eye(4)) == 2.0


def test_line_element_hs_where_det_sigma_leaves_the_float_range():
    # 1/sqrt(det) of 1e80 I_4 is 1e-160, well inside the float range, and
    # ds^2 = (4^2 + 2*4) / 16 * 1e-160.  det(1e-100 I_4) = 1e-400 underflows
    # but is positive; below det 1e-616, 1/sqrt(det) itself overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = line_element_hs(1e80 * np.eye(4), 1e80 * np.eye(4))
        assert got == pytest.approx(1.5e-160, rel=1e-12, abs=0.0)
        assert line_element_hs(1e-100 * np.eye(4), 1e-100 * np.eye(4)) == pytest.approx(
            1.5e200, rel=1e-12, abs=0.0
        )
        assert line_element_fr(1e-200 * np.eye(4), 1e-200 * np.eye(4)) == 2.0
        with pytest.raises(ValueError, match="float range"):
            line_element_hs(1e-200 * np.eye(4), np.eye(4))


@pytest.mark.parametrize(
    "line_element,d_sigma,message",
    [
        (line_element_hs, [[0.0, 1e308], [-1e308, 0.0]], "symmetric"),
        (line_element_fr, 1e308 * np.eye(2), "float range"),
        (line_element_hs, 1e308 * np.eye(2), "float range"),
    ],
    ids=["antisymmetric", "fr-overflows", "hs-overflows"],
)
def test_line_elements_with_a_huge_finite_displacement(line_element, d_sigma, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            line_element(np.eye(2), d_sigma)


@pytest.mark.parametrize(
    "scale,step,want",
    [
        # det = 1e800: 1/sqrt(det) = 1e-400 underflows, ds^2 = 1.5e200 * 1e-400 does not.
        (1e200, 1e300, 1.5e-200),
        # det = 1e-640: 1/sqrt(det) = 1e320 overflows, ds^2 = 1.5e-20 * 1e320 does not.
        (1e-160, 1e-170, 1.5e300),
    ],
)
def test_line_element_hs_in_range_where_one_over_root_det_is_not(scale, step, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = line_element_hs(scale * np.eye(4), step * np.eye(4))
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_line_element_hs_in_range_where_its_squared_trace_is_not():
    # ds^2 = (4e308 + 2 * 2e308) / 16 = 5e307, although (tr x)^2 = 4e308 overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = line_element_hs(np.eye(2), 1e154 * np.eye(2))
    assert got == pytest.approx(5e307, rel=1e-12, abs=0.0)


def test_line_element_fr_symplectic_invariance():
    rng = np.random.default_rng(22)
    sigma = np.array([[2.0, 0.3, 0.1, 0.0],
                      [0.3, 1.5, 0.0, -0.2],
                      [0.1, 0.0, 1.8, 0.1],
                      [0.0, -0.2, 0.1, 2.2]])
    d = rng.normal(size=(4, 4))
    d = 0.1 * (d + d.T)
    base = line_element_fr(sigma, d)
    for _ in range(5):
        s = random_symplectic(2, rng)
        moved = line_element_fr(s @ sigma @ s.T, s @ d @ s.T)
        assert moved == pytest.approx(base, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generators_are_hamiltonian_and_span_the_tangent_space(n):
    omega = symplectic_form(n)
    for block in "xyz":
        for i in range(n):
            for j in range(n):
                h = measures._generator(n, block, i, j)
                np.testing.assert_array_equal(h.T @ omega + omega @ h, 0.0)
    # A positive sqrt(det g) at a non-degenerate spectrum means the oracle's
    # N + 2N^2 tangents are independent there.
    nu = np.arange(1.0, n + 1.0) + 0.5
    assert numeric_metric_density(nu, HILBERT_SCHMIDT) > 0.0
    assert numeric_metric_density(nu, FISHER_RAO) > 0.0


def test_local_generators_are_the_per_mode_x_y_z():
    x = np.array([[1.0, 0.0], [0.0, -1.0]])
    y = np.array([[0.0, 1.0], [0.0, 0.0]])
    z = np.array([[0.0, 0.0], [1.0, 0.0]])
    expected = []
    for mode in range(2):
        for block in (x, y, z):
            g = np.zeros((4, 4))
            g[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = block
            expected.append(g)
    assert len(measures._LOCAL_GENERATORS) == 6
    for got, want in zip(measures._LOCAL_GENERATORS, expected):
        np.testing.assert_array_equal(got, want)


def test_numeric_metric_density_constancy_fr():
    rng = np.random.default_rng(23)
    ratios = []
    for _ in range(5):
        nu = _well_separated_spectrum(rng, 2)
        ratios.append(numeric_metric_density(nu, FISHER_RAO) / density_fr(nu))
    ratios = np.array(ratios)
    assert (ratios.max() - ratios.min()) / ratios.mean() < 1e-12


# fr and hs: numeric sqrt(det g) over density_fr and density_hs on n modes.
@pytest.mark.parametrize(
    "n, fr, hs",
    [(1, 2.0, 2.0**-1.5), (2, 4.0, math.sqrt(3.0) / 256.0), (3, 8.0, 2.0**-17)],
    ids=["1", "2", "3"],
)
def test_numeric_metric_density_constants(n, fr, hs):
    rng = np.random.default_rng(25 + n)
    for _ in range(3):
        nu = _well_separated_spectrum(rng, n, gap=0.3)
        assert numeric_metric_density(nu, FISHER_RAO) / density_fr(nu) == pytest.approx(
            fr, rel=1e-12, abs=0.0
        )
        assert numeric_metric_density(nu, HILBERT_SCHMIDT) / density_hs(nu) == pytest.approx(
            hs, rel=1e-12, abs=0.0
        )


@pytest.mark.parametrize(
    "kind, closed_form", [(HILBERT_SCHMIDT, density_hs), (FISHER_RAO, density_fr)], ids=["hs", "fr"]
)
def test_numeric_metric_density_ratio_holds_where_det_g_leaves_the_float_range(kind, closed_form):
    # det g of the HS metric at [1e20, 2e20] is about 6e-488: np.linalg.det
    # returned 0.0 there, where density_hs is 3.5e-242.
    def ratio(nu):
        return numeric_metric_density(nu, kind) / closed_form(nu)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ratio([1e20, 2e20]) == pytest.approx(ratio([1.5, 2.0]), rel=1e-12, abs=0.0)


def test_numeric_metric_density_edge_cases():
    assert numeric_metric_density([1.0], HILBERT_SCHMIDT) > 0.0
    assert numeric_metric_density([1.5, 1.5], FISHER_RAO) == 0.0
    for nu in ([2.0, 2.0, 3.0], [1.2, 1.2, 1.2]):
        assert numeric_metric_density(nu, FISHER_RAO) == 0.0
        assert numeric_metric_density(nu, HILBERT_SCHMIDT) == 0.0
    with pytest.raises(ValueError, match="line element"):
        numeric_metric_density([1.5], REDUCED_PURE)



@pytest.mark.parametrize("kind", [HILBERT_SCHMIDT, FISHER_RAO])
@pytest.mark.parametrize("nu", [[1.0, math.inf], [math.inf], [1.5, 2.0, math.inf]])
def test_numeric_metric_density_rejects_an_infinite_eigenvalue(kind, nu):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            numeric_metric_density(nu, kind)

def test_hs_density_invariant_coords():
    c = InvariantCoords(1.0, 1.0, 1.0, 2.0)
    assert hs_density_invariant_coords(c) == pytest.approx(np.sqrt(3) / 512, rel=1e-14, abs=0.0)
    half = InvariantCoords(1.0, 0.5, 1.0, 2.0)
    assert hs_density_invariant_coords(half) == pytest.approx(
        8 * hs_density_invariant_coords(c), rel=1e-12, abs=0.0
    )
    assert hs_density_invariant_coords(InvariantCoords(0.0, 1.0, 1.0, 2.0)) == 0.0


@pytest.mark.parametrize(
    "coords,match",
    [
        ((0.5, 1e-150, 1e-150), "float range"),  # 0.5^7 / 1e-900 overflows
        ((2.0**-511, 1.0, 1.0), "float range"),  # 2^-3577 underflows
        ((0.5, -0.5, 0.5), "must lie in"),
        ((0.5, 0.5, 0.0), "must lie in"),
        ((0.5, 0.5, 1.5), "must lie in"),
        ((2.0**-600, 0.5, 0.5), "must lie in"),
        ((np.nan, 0.5, 0.5), "must lie in"),
        ((0.5, np.nan, 0.5), "must lie in"),
    ],
)
def test_hs_density_invariant_coords_outside_its_domain(coords, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            hs_density_invariant_coords(InvariantCoords(*coords, 2.0))


def test_hs_density_invariant_coords_where_its_factors_leave_the_float_range():
    # (mu_A mu_B)^3 = 1e-360 underflows, but the density sqrt(3)/512 * 1e290 does not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hs_density_invariant_coords(InvariantCoords(1e-10, 1e-60, 1e-60, 2.0))
    assert got == pytest.approx(math.sqrt(3.0) / 512.0 * 1e290, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "std,match",
    [
        (StdForm(2.0, 2.0, 1.0, 2.0), "needs a > 0"),  # c-^2 = ab: 1/0
        (StdForm(1.0, 1.0, 1.0, 0.0), "needs a > 0"),  # c+^2 = ab: 1/0
        (StdForm(1.0, 1.0, 2.0, 0.5), "needs a > 0"),  # not positive definite
        (StdForm(-3.0, -3.0, 1.0, 0.0), "needs a > 0"),
        (StdForm(np.nan, 1.0, 0.0, 0.0), "finite"),
        (StdForm(2.0, 2.0, 1.0, np.inf), "finite"),
        # ab - c+^2 = 2e-76 and ab - c-^2 = 1e-60: 1e-180 over about 3e-679.
        (StdForm(1e-30, 1e-30, 1e-30 * (1.0 - 2.0**-53), 0.0), "float range"),
        (StdForm(1e100, 1e100, 1.0, 0.0), "float range"),  # about 1e-1600
    ],
)
def test_hs_density_std_form_outside_its_domain(std, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=match):
            hs_density_std_form(std)


def test_hs_density_std_form_where_its_factors_leave_the_float_range():
    # a^2 b^2 (c+^2 - c-^2) = 1e118 over (0.99e40)^5 (1e40)^5, past the float range.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hs_density_std_form(StdForm(1e20, 1e20, 1e19, 0.0))
        assert got == pytest.approx(1e-282 / 0.99**5, rel=1e-14, abs=0.0)
        # c+ = c- = 0: the numerator vanishes while (ab)^10 = 1e2000 is out of range.
        assert hs_density_std_form(StdForm(1e100, 1e100, 0.0, 0.0)) == 0.0


def _random_interior_std_form(rng):
    while True:
        mu = rng.uniform(0.3, 0.9)
        ma = rng.uniform(0.4, 0.9)
        mb = rng.uniform(0.4, 0.9)
        bounds = delta_bounds(mu, ma, mb)
        if bounds is None or bounds[1] - bounds[0] < 0.1:
            continue
        width = bounds[1] - bounds[0]
        delta = rng.uniform(bounds[0] + 0.2 * width, bounds[1] - 0.2 * width)
        std = cm_from_invariants(InvariantCoords(mu, ma, mb, delta))
        if std.c_plus - abs(std.c_minus) > 0.05 and std.a * std.b - std.c_plus**2 > 0.05:
            return std


def test_numeric_std_form_density_proportional():
    rng = np.random.default_rng(24)
    ratios = []
    for _ in range(10):
        std = _random_interior_std_form(rng)
        ratios.append(numeric_std_form_density(std) / hs_density_std_form(std))
    ratios = np.array(ratios)
    assert (ratios.max() - ratios.min()) / ratios.mean() < 1e-12
    # The two-mode Hilbert-Schmidt constant of numeric_metric_density.
    np.testing.assert_allclose(ratios, math.sqrt(3.0) / 256.0, rtol=1e-12, atol=0.0)


def test_numeric_std_form_density_ratio_is_scale_free():
    # det g underflowed (0.0 at s >= 1e12) or overflowed, and the polarization
    # mixed unit tangents with group tangents of size s, off by -9.1e-9 at 1e8.
    def ratio(s):
        std = StdForm(s, s, s / 2, -3 * s / 10)
        return numeric_std_form_density(std) / hs_density_std_form(std)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = ratio(1.0)
        for s in (1e-20, 1e-8, 1e-4, 1e4, 1e8, 1e12, 1e16, 1e20):
            assert ratio(s) == pytest.approx(unit, rel=1e-12, abs=0.0), s
