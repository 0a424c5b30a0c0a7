import dataclasses
import pickle
import re
import sys
import threading
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings

from gaussgeom import core
from gaussgeom.core import (
    BONA_FIDE_TOL,
    SYMMETRY_RTOL,
    DomainError,
    InvariantCoords,
    NonPhysicalWarning,
    StdForm,
    cm_from_invariants,
    energy,
    invariants,
    is_bona_fide,
    purity,
    random_covmat,
    random_local_symplectic,
    random_symplectic,
    read_covmat,
    standard_form,
    symplectic_form,
    symplectic_spectrum,
    thermal,
    two_mode_squeezed,
    vacuum,
    validate_covmat,
    write_covmat,
)
from gaussgeom.correlations import delta_bounds, delta_bounds_batch
from gaussgeom.typicality import _draw_intervals, sample_energy_constrained
from conftest import feasible_coords, local_symplectics, oracle_spectrum


def test_symplectic_form_properties():
    for n in (1, 2, 3):
        omega = symplectic_form(n)
        assert np.array_equal(omega.T, -omega)
        assert np.array_equal(omega @ omega, -np.eye(2 * n))


def test_spectrum_vacuum_and_thermal():
    np.testing.assert_array_equal(symplectic_spectrum(np.eye(4)), [1.0, 1.0])
    np.testing.assert_array_equal(symplectic_spectrum(thermal([2.0, 3.0])), [2.0, 3.0])
    np.testing.assert_array_equal(symplectic_spectrum(np.diag([2.0, 2.0, 3.0, 3.0])), [2.0, 3.0])


def test_spectrum_two_mode_squeezed():
    sigma = StdForm(1.25, 1.25, 0.75, -0.75).matrix()
    assert abs(np.linalg.det(sigma) - 1.0) < 1e-12
    np.testing.assert_allclose(symplectic_spectrum(sigma), [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(oracle_spectrum(sigma), [1.0, 1.0], atol=1e-9)


def test_spectrum_rejects_bad_input():
    with pytest.raises(ValueError, match="symmetric"):
        symplectic_spectrum(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="2N"):
        symplectic_spectrum(np.eye(3))
    with pytest.raises(ValueError):
        symplectic_spectrum(np.diag([1.0, -1.0]))  # indefinite, eigenvalues real


@pytest.mark.parametrize(
    "sigma",
    [
        -np.eye(4),
        np.diag([-1.0, -1.0, 2.0, 2.0]),
        np.diag([1.0, 0.0, 1.0, 1.0]),
        -two_mode_squeezed(0.5),
        StdForm(1.0, 1.0, 2.0, 0.5).matrix(),  # indefinite
    ],
)
def test_spectrum_rejects_non_positive_definite_input(sigma):
    with pytest.raises(ValueError, match="positive definite"):
        symplectic_spectrum(sigma)
    assert not is_bona_fide(sigma)


def test_invariants_flag_negative_definite_input():
    with pytest.warns(NonPhysicalWarning):
        coords, e = invariants(-np.eye(4))
    assert (coords.mu, coords.delta, e) == (1.0, 2.0, -2.0)


def _degenerate_spectrum_states():
    """Two-mode squeezed vacua and symmetric thermal states, plain and locally squeezed."""
    rng = np.random.default_rng(21)
    cases = [(two_mode_squeezed(r), 1.0) for r in np.linspace(0.05, 3.0, 60)]
    cases += [(thermal([v, v]), v) for v in (1.0, 1.5, 2.0, 4.0, 5.0, 7.0, 30.0)]
    for sigma, nu in list(cases):
        s = random_local_symplectic(rng)
        cases.append((s.T @ sigma @ s, nu))
    return cases


@pytest.mark.parametrize("sigma, nu", _degenerate_spectrum_states())
def test_degenerate_spectrum(sigma, nu):
    np.testing.assert_allclose(symplectic_spectrum(sigma), [nu, nu], rtol=1e-9, atol=0.0)
    assert is_bona_fide(sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coords, _ = invariants(sigma)
    np.testing.assert_allclose([coords.mu, coords.delta], [nu**-2, 2.0 * nu**2], rtol=1e-9)


def test_is_bona_fide_matches_oracle_spectrum():
    rng = np.random.default_rng(23)
    verdicts = set()
    for n in (1, 2, 3):
        for _ in range(200):
            nu = rng.uniform(0.5, 3.0, n)
            nu[0] = rng.choice([1.0, 1.0 - 1e-12, 1.0 + 1e-7, 1.0 - 1e-7, nu[0]])
            s = random_symplectic(n, rng)
            sigma = s.T @ thermal(nu) @ s
            want = bool(oracle_spectrum(sigma).min() >= 1.0 - BONA_FIDE_TOL)
            assert is_bona_fide(sigma) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_is_bona_fide_on_and_beyond_the_pure_edge():
    # On Delta_max = 1 + 1/mu^2 the state has nu_- = 1; scaling Sigma by
    # 1 - eps moves nu_- to 1 - eps, inside the tolerance for eps = 1e-11
    # and just beyond it for eps = 1e-7.
    rng = np.random.default_rng(25)
    done = 0
    while done < 200:
        mu, mu_a, mu_b = rng.uniform(0.1, 1.0, 3)
        bounds = delta_bounds(mu, mu_a, mu_b)
        if bounds is None or bounds[1] < 1.0 + 1.0 / mu**2:
            continue
        sigma = cm_from_invariants(InvariantCoords(mu, mu_a, mu_b, bounds[1])).matrix()
        s = random_local_symplectic(rng)
        for scale, want in ((1.0, True), (1.0 - 1e-11, True), (1.0 - 1e-7, False)):
            for m in (scale * sigma, scale * (s.T @ sigma @ s)):
                assert bool(oracle_spectrum(m).min() >= 1.0 - BONA_FIDE_TOL) == want
                assert is_bona_fide(m) == want
        done += 1


def test_is_bona_fide_rejects_tolerance_of_one():
    for tol in (1.0, 2.0, np.nan):
        with pytest.raises(ValueError, match="tol"):
            is_bona_fide(np.eye(2), tol=tol)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tol", [-np.inf, np.inf])
def test_is_bona_fide_rejects_a_non_finite_tolerance(n, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            is_bona_fide(np.eye(2 * n), tol=tol)


def test_two_modes_take_no_linalg_call_other_sizes_one_eigen_solve(monkeypatch):
    calls = []

    def counting(name):
        routine = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return routine(*args, **kwargs)

        return wrapper

    for name in ("eigvalsh", "eigvals", "cholesky", "det"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    two_mode = StdForm(1.5, 1.3, 0.4, -0.2).matrix()
    for fn in (
        symplectic_spectrum,
        is_bona_fide,
        invariants,
        lambda m: invariants(m, warn_nonphysical=False),
    ):
        calls.clear()
        fn(two_mode)
        assert calls == []
    rng = np.random.default_rng(31)
    for n_modes in (1, 3):
        sigma = random_covmat(n_modes, rng)
        for fn in (symplectic_spectrum, is_bona_fide):
            calls.clear()
            fn(sigma)
            assert calls.count("eigvalsh") == 1
            assert "eigvals" not in calls


#: (mu, E) of the benchmark's sampler points.
_SAMPLER_POINTS = ((0.3, 8.0), (0.05, 12.0), (0.9, 12.0), (0.47, 3.0), (0.4445, 3.0))


def _two_mode_oracle_cases():
    """Two-mode states for comparing the closed form with the N-mode Hermitian path."""
    rng = np.random.default_rng(33)
    cases = [random_covmat(2, rng) for _ in range(200)]
    cases += [scale * sigma for scale in (0.5, 0.9) for sigma in cases[:50]]  # not bona fide
    cases += [scale * cases[0] for scale in (1e-300, 1e-160, 1e160, 1e300)]  # float range
    for k, (mu, e) in enumerate(_SAMPLER_POINTS):
        cases += list(sample_energy_constrained(mu, e, 60, seed=k))
    cases += [sigma for sigma, _ in _degenerate_spectrum_states()]
    for r in np.linspace(0.05, 3.5, 70):
        s = random_local_symplectic(rng)
        cases.append(s.T @ two_mode_squeezed(r) @ s)
    return cases


def test_two_mode_spectrum_and_verdict_match_the_hermitian_path():
    # Both paths agree to 1e-12 relative; for strongly squeezed input no
    # float64 method does better than eps * cond(Sigma), and the two paths
    # were measured within 0.56 eps * cond(Sigma) of each other.
    eps = np.finfo(float).eps
    verdicts = set()
    for sigma in _two_mode_oracle_cases():
        want = core._spectrum(sigma)
        rtol = max(1e-12, 2.0 * eps * np.linalg.cond(sigma))
        np.testing.assert_allclose(symplectic_spectrum(sigma), want, rtol=rtol, atol=0.0)
        verdict = is_bona_fide(sigma)
        assert verdict == core._bona_fide(sigma)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "std",
    [
        StdForm(2.0**26, 1.5, 0.5, 0.25),
        StdForm(2.0**20, 3.0, 1.0, -0.5),
        StdForm(1e6, 1.25, 0.75, -0.5),
        StdForm(2.0**30, 1.0, 0.5, 0.5),
    ],
)
def test_two_mode_spectrum_with_far_apart_eigenvalues(std):
    # nu_+/nu_- up to 1e9: (|a| - |b|)/2 would lose up to 1e-9 of nu_-.
    # Reference: nu^2 = (Delta -+ sqrt(Delta^2 - 4 det Sigma))/2 in 60 digits.
    with localcontext() as ctx:
        ctx.prec = 60
        a, b, cp, cm = (Decimal(v) for v in (std.a, std.b, std.c_plus, std.c_minus))
        delta = a * a + b * b + 2 * cp * cm
        root = (delta * delta - 4 * (a * b - cp * cp) * (a * b - cm * cm)).sqrt()
        want = [float(((delta - root) / 2).sqrt()), float(((delta + root) / 2).sqrt())]
    np.testing.assert_allclose(symplectic_spectrum(std.matrix()), want, rtol=1e-15, atol=0.0)


def test_is_bona_fide_accepts_strongly_squeezed_pure_states():
    # Locally squeezed two-mode squeezed vacua at r = 3.5 (largest entries
    # about 4e3): the pencil eigen-solve rejected the first of these, the
    # closed form keeps nu_- within 2e-10 of 1.  Over 8 seeds of 10 states
    # per r (step 0.05), its first false negative is at r = 3.8-3.95.
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = random_local_symplectic(rng)
        sigma = s.T @ two_mode_squeezed(3.5) @ s
        assert is_bona_fide(sigma)
        np.testing.assert_allclose(symplectic_spectrum(sigma), [1.0, 1.0], rtol=0.0, atol=5e-10)


def _validation_outcome(validate, sigma):
    """The message of the ValueError that ``validate`` raises on ``sigma``, or None."""
    try:
        validate(sigma)
    except ValueError as exc:
        return str(exc)
    return None


_FIRST_INDICES = [(0, 1), (3, 2), (0, 0), (3, 3)]
_ALL_INDICES = _FIRST_INDICES + [
    (i, j) for i in range(4) for j in range(4) if (i, j) not in _FIRST_INDICES
]


@pytest.mark.parametrize("index", _ALL_INDICES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_two_mode_single_non_finite_entry_rejected(index, bad):
    sigma = StdForm(1.5, 1.3, 0.4, -0.2).matrix()
    sigma[index] = bad
    outcome = _validation_outcome(core._two_mode_rows, sigma)
    assert outcome == _validation_outcome(validate_covmat, sigma)
    for fn in (validate_covmat, symplectic_spectrum, is_bona_fide, invariants):
        with pytest.raises(ValueError, match="non-finite"):
            fn(sigma)


@pytest.mark.parametrize("largest", [0.5, 1.0, 40.0])
def test_two_mode_symmetry_tolerance(largest):
    base = StdForm(largest, 0.6 * largest, 0.2 * largest, -0.1 * largest).matrix()
    step = SYMMETRY_RTOL * max(largest, 1.0)
    assert _validation_outcome(core._two_mode_rows, base) is None
    for index in ((3, 1), (1, 0), (2, 0), (0, 3), (2, 1), (3, 2)):
        for factor, symmetric in ((0.5, True), (1.5, False)):
            sigma = base.copy()
            sigma[index] += factor * step
            outcome = _validation_outcome(core._two_mode_rows, sigma)
            assert outcome == _validation_outcome(validate_covmat, sigma)
            assert (outcome is None) == symmetric
            for fn in (symplectic_spectrum, is_bona_fide, lambda m: invariants(m, False)):
                if symmetric:
                    fn(sigma)
                else:
                    with pytest.raises(ValueError, match="not symmetric"):
                        fn(sigma)


@pytest.mark.parametrize(
    "rows",
    [
        [[1e308, 0, 0, 0], [0, 1e308, 0, 0], [0, 0, 1e308, 0], [0, 0, 0, 1e308]],
        [[1e308, -1e308, 0, 0], [-1e308, 1e308, 0, 0], [0, 0, 1e308, 1e308], [0, 0, 1e308, 1e308]],
        [[-1e308, 0, 1e308, 0], [0, -1e308, 0, -1e308], [1e308, 0, -1e308, 0], [0, -1e308, 0, 1]],
    ],
)
def test_two_mode_finite_entries_whose_sum_overflows_are_accepted(rows):
    sigma = np.array(rows, dtype=float)
    assert not np.isfinite(sum(sigma.ravel().tolist()))  # the sum overflows
    assert _validation_outcome(validate_covmat, sigma) is None
    assert core._two_mode_rows(sigma) == rows


def test_two_mode_list_and_integer_input():
    rows = [[3, 0, 1, 0], [0, 2, 0, -1], [1, 0, 4, 0], [0, -1, 0, 2]]
    sigma = np.array(rows, dtype=float)
    for given in (rows, np.array(rows)):
        np.testing.assert_array_equal(symplectic_spectrum(given), symplectic_spectrum(sigma))
        assert is_bona_fide(given) == is_bona_fide(sigma)
        assert invariants(given) == invariants(sigma)


@pytest.mark.parametrize(
    "rows, invariants_outcome",
    [
        # Pivot 0: a negative definite block A with positive det A and det Sigma.
        ([[-1, 0.5, 0, 0], [0.5, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "warns"),
        # Pivot 1, negative and exactly zero: det A is not positive.
        ([[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], DomainError),
        ([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], DomainError),
        # Pivot 2: two negative eigenvalues, so det Sigma = 9 is positive.
        ([[1, 0, 2, 0], [0, 1, 0, 2], [2, 0, 1, 0], [0, 2, 0, 1]], "warns"),
        # Pivot 3: three positive pivots before it make det Sigma negative.
        ([[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0], [2, 0, 0, 1]], "determinant"),
    ],
)
def test_two_mode_non_positive_pivot(rows, invariants_outcome):
    sigma = np.array(rows, dtype=float)
    for spectrum in (symplectic_spectrum, core._spectrum):
        with pytest.raises(ValueError, match="^covariance matrix is not positive definite$"):
            spectrum(sigma)
    assert not is_bona_fide(sigma) and not core._bona_fide(sigma)
    if invariants_outcome == "warns":
        with pytest.warns(NonPhysicalWarning):
            coords, _ = invariants(sigma)
        assert coords.mu == pytest.approx(1.0 / np.sqrt(np.linalg.det(sigma)), rel=1e-14, abs=0.0)
    elif invariants_outcome == "determinant":
        with pytest.raises(ValueError, match="determinant must be positive"):
            invariants(sigma)
    else:
        with pytest.raises(DomainError, match="positive determinant"):
            invariants(sigma)


def test_invariants_of_a_matrix_below_the_float_range():
    # nu_- nu_+ is about 1e-320, so 1/(nu_- nu_+) overflows and det Sigma underflows.
    with pytest.raises(ValueError, match="determinant must be positive"):
        invariants(1e-160 * StdForm(1.5, 1.3, 0.4, -0.2).matrix())


@pytest.mark.parametrize(
    "sigma, nu, physical",
    [
        (1e160 * np.eye(4), [1e160, 1e160], True),
        (1e-170 * np.eye(4), [1e-170, 1e-170], False),
        (np.diag([1e200, 1e180, 3.0, 2.0]), [6.0**0.5, 1e190], True),
        (np.diag([1e-200, 1e-180, 3.0, 2.0]), [1e-190, 6.0**0.5], False),
        (1e160 * np.eye(2), [1e160], True),
        (1e-170 * np.eye(2), [1e-170], False),
        (1e160 * np.eye(6), [1e160, 1e160, 1e160], True),
        (1e-170 * np.eye(6), [1e-170, 1e-170, 1e-170], False),
    ],
)
def test_diagonal_spectrum_whose_products_leave_the_float_range(sigma, nu, physical):
    # d_0 d_1 overflows or underflows; sqrt(d_0) sqrt(d_1) does not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_array_equal(symplectic_spectrum(sigma), nu)
        assert is_bona_fide(sigma) is physical


# ---------------------------------------------------------------------------
# One read per two-mode matrix: back-to-back calls share the validated rows
# and (nu_-, nu_+) of the last 4x4 matrix.


def _reads(sigma) -> tuple:
    """Every per-state two-mode call on sigma, back to back, as comparable values."""
    coords, energy_ = invariants(sigma, warn_nonphysical=False)
    return (
        symplectic_spectrum(sigma).tobytes(),
        is_bona_fide(sigma),
        is_bona_fide(sigma, tol=0.5),
        coords,
        energy_,
        purity(sigma),
        energy(sigma),
    )


def _fresh_reads(sigma) -> tuple:
    """:func:`_reads` with the kept read emptied before every call: the uncached path."""

    def fresh(fn, *args, **kwargs):
        core._last_read = (b"", [], None)
        return fn(sigma, *args, **kwargs)

    coords, energy_ = fresh(invariants, warn_nonphysical=False)
    return (
        fresh(symplectic_spectrum).tobytes(),
        fresh(is_bona_fide),
        fresh(is_bona_fide, tol=0.5),
        coords,
        energy_,
        fresh(purity),
        fresh(energy),
    )


def _counting_two_mode_nu(monkeypatch) -> list:
    """Record every :func:`core._two_mode_nu` call, starting from an empty kept read."""
    calls = []
    two_mode_nu = core._two_mode_nu

    def counting(rows):
        calls.append(rows)
        return two_mode_nu(rows)

    monkeypatch.setattr(core, "_two_mode_nu", counting)
    monkeypatch.setattr(core, "_last_read", (b"", [], None))
    return calls


def test_two_mode_calls_on_one_matrix_factor_it_once(monkeypatch):
    calls = _counting_two_mode_nu(monkeypatch)
    sigma = StdForm(1.5, 1.3, 0.4, -0.2).matrix()
    _reads(sigma)
    _reads(sigma.copy())
    assert len(calls) == 1
    # Other sizes are not factored in closed form.
    symplectic_spectrum(np.eye(2))
    assert len(calls) == 1
    # The standard form factors a new matrix once and keeps it for the next call.
    other = StdForm(1.7, 1.2, 0.3, 0.1).matrix()
    standard_form(other)
    assert len(calls) == 2
    invariants(other)
    assert len(calls) == 2


@pytest.mark.parametrize("mu, e", _SAMPLER_POINTS)
def test_two_mode_read_matches_the_uncached_path_on_sampler_states(mu, e):
    for sigma in sample_energy_constrained(mu, e, 150, seed=13):
        assert _reads(sigma) == _fresh_reads(sigma)


def test_two_mode_read_sees_a_matrix_changed_in_place():
    sigma = StdForm(1.5, 1.3, 0.4, -0.2).matrix()
    before = _reads(sigma)
    sigma[1, 1] = 1.75
    sigma[0, 3] = sigma[3, 0] = 0.125
    after = _reads(sigma)
    assert after != before
    assert after == _fresh_reads(sigma)
    sigma *= 0.5  # no longer a physical state
    assert is_bona_fide(sigma) is False
    assert _reads(sigma) == _fresh_reads(sigma)
    sigma[0, 1] += 1.0  # no longer symmetric
    with pytest.raises(ValueError, match="not symmetric"):
        symplectic_spectrum(sigma)


def test_two_mode_read_of_list_and_array_input(monkeypatch):
    calls = _counting_two_mode_nu(monkeypatch)
    sigma = StdForm(1.5, 1.3, 0.4, -0.2).matrix()
    want = _fresh_reads(sigma)
    core._last_read = (b"", [], None)
    calls.clear()
    assert _reads(sigma.tolist()) == want
    assert _reads(sigma) == want
    assert _reads(tuple(map(tuple, sigma.tolist()))) == want
    assert len(calls) == 1


@pytest.mark.parametrize(
    "bad, message",
    [
        ([[1.0, np.nan, 0, 0], [np.nan, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
         "covariance matrix has non-finite entries"),
        ([[1.0, 0.5, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
         "covariance matrix is not symmetric (max asymmetry 5.000e-01)"),
        (np.eye(3), "covariance matrix must be 2N x 2N, got 3 rows"),
        (np.ones((4, 2)), "covariance matrix must be square, got shape (4, 2)"),
    ],
)
def test_invalid_matrix_right_after_a_valid_one(bad, message):
    good = StdForm(1.5, 1.3, 0.4, -0.2).matrix()
    want = _fresh_reads(good)
    for fn in (symplectic_spectrum, is_bona_fide, purity, energy, invariants):
        fn(good)
        kept = core._last_read
        for _ in range(2):  # a failed validation is not kept
            with pytest.raises(ValueError, match=re.escape(message)):
                fn(bad)
            assert core._last_read is kept
    assert _reads(good) == want


def test_non_positive_definite_matrix_right_after_a_valid_one():
    good, bad = StdForm(1.5, 1.3, 0.4, -0.2).matrix(), -np.eye(4)
    for _ in range(2):
        assert is_bona_fide(good) is True
        with pytest.raises(ValueError, match="not positive definite"):
            symplectic_spectrum(bad)
        assert is_bona_fide(bad) is False
        with pytest.warns(NonPhysicalWarning):
            coords, _ = invariants(bad)
        assert coords == InvariantCoords(1.0, 1.0, 1.0, 2.0)


def test_two_matrices_called_alternately():
    rng = np.random.default_rng(43)
    first, second = random_covmat(2, rng), 0.3 * random_covmat(2, rng)
    wants = _fresh_reads(first), _fresh_reads(second)
    assert wants[0][1] is True and wants[1][1] is False
    for _ in range(3):
        assert (_reads(first), _reads(second)) == wants
    # Call by call, each call switching the kept read.
    calls = (
        (lambda m: symplectic_spectrum(m).tobytes(), 0),
        (is_bona_fide, 1),
        (lambda m: invariants(m, warn_nonphysical=False), slice(3, 5)),
        (purity, 5),
        (energy, 6),
    )
    for fn, field in calls:
        for sigma, want in zip((first, second, first), (wants[0], wants[1], wants[0])):
            assert fn(sigma) == want[field]


def test_two_mode_read_from_several_threads():
    # More threads than cores, switching inside the calls; each checks its own
    # matrices against values computed beforehand.
    n_threads = 4
    rng = np.random.default_rng(47)
    groups = [[random_covmat(2, rng, nu_max=5.0) for _ in range(30)] for _ in range(n_threads)]
    groups[1] = [0.3 * sigma for sigma in groups[1]]  # mostly not bona fide
    groups[2] = groups[0][::-1]  # the same matrices in another order
    wants = [[_fresh_reads(sigma) for sigma in group] for group in groups]
    barrier = threading.Barrier(n_threads)
    checked = [0] * n_threads
    mismatches = []

    def work(k):
        barrier.wait()
        for _ in range(150):
            for sigma, want in zip(groups[k], wants[k]):
                if _reads(sigma) != want:
                    mismatches.append(k)
                checked[k] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert checked == [4500] * n_threads
    assert mismatches == []


def test_spectrum_invariant_under_congruence():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        for _ in range(10):
            nu = np.sort(rng.uniform(1.0, 4.0, n))
            s = random_symplectic(n, rng)
            got = symplectic_spectrum(s.T @ thermal(nu) @ s)
            np.testing.assert_allclose(got, nu, atol=1e-8, rtol=1e-8)


def test_is_bona_fide_examples():
    assert is_bona_fide(np.eye(4))
    assert not is_bona_fide(np.diag([0.5, 0.5]))
    tms = StdForm(1.25, 1.25, 0.75, -0.75).matrix()
    pt = np.diag([1.0, 1.0, 1.0, -1.0])
    transposed = pt @ tms @ pt
    assert not is_bona_fide(transposed)
    assert abs(oracle_spectrum(transposed).min() - 0.5) < 1e-9


def test_purity_invariant_under_symplectic():
    rng = np.random.default_rng(3)
    for _ in range(20):
        sigma = random_covmat(2, rng)
        s = random_symplectic(2, rng)
        assert abs(purity(s.T @ sigma @ s) - purity(sigma)) < 1e-9 * purity(sigma) + 1e-9


@pytest.mark.parametrize(
    "scale, n_modes, mu",
    [(1e80, 1, 1e-80), (1e80, 2, 1e-160), (1e150, 2, 1e-300), (1e80, 3, 1e-240), (1e100, 3, 1e-300)],
)
def test_purity_of_thermal_states_with_large_entries(scale, n_modes, mu):
    # det Sigma = scale^(2N) overflows; the purity scale^-N is still a float.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert purity(scale * np.eye(2 * n_modes)) == pytest.approx(mu, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("sigma", [1e300 * np.eye(4), 1e110 * np.eye(6), 1e-100 * np.eye(4)])
def test_purity_outside_the_float_range_raises(sigma):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="float range"):
            purity(sigma)


def test_det_equals_product_of_squared_eigenvalues():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3):
        for _ in range(10):
            sigma = random_covmat(n, rng)
            nu = symplectic_spectrum(sigma)
            det = np.linalg.det(sigma)
            assert abs(det - np.prod(nu**2)) < 1e-9 * abs(det)


def test_invariants_examples():
    coords, e = invariants(np.diag([2.0, 2.0, 3.0, 3.0]))
    np.testing.assert_allclose(
        [coords.mu, coords.mu_a, coords.mu_b, coords.delta],
        [1 / 6, 1 / 2, 1 / 3, 13.0],
        rtol=1e-14,
    )
    assert e == 5.0

    coords, e = invariants(np.eye(4))
    assert (coords.mu, coords.mu_a, coords.mu_b, coords.delta) == (1, 1, 1, 2)
    assert e == 2.0

    coords, e = invariants(StdForm(1.25, 1.25, 0.75, -0.75).matrix())
    np.testing.assert_allclose(
        [coords.mu, coords.mu_a, coords.mu_b, coords.delta, e],
        [1.0, 0.8, 0.8, 2.0, 2.5],
        atol=1e-12,
    )


@pytest.mark.parametrize(
    "sigma",
    [StdForm(1.5, 1.3, 0.4, -0.2).matrix(), np.eye(4), np.diag([0.5, 0.5, 1.0, 1.0]), -np.eye(4)],
)
def test_invariants_record_is_the_record_of_the_constructor(sigma):
    # invariants fills its frozen record without the generated __init__.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonPhysicalWarning)
        coords, _ = invariants(sigma)
    built = InvariantCoords(coords.mu, coords.mu_a, coords.mu_b, coords.delta)
    assert type(coords) is InvariantCoords
    assert coords == built and built == coords
    assert hash(coords) == hash(built)
    assert repr(coords) == repr(built)
    assert vars(coords) == vars(built)
    assert list(vars(coords)) == [f.name for f in dataclasses.fields(InvariantCoords)]
    assert dataclasses.astuple(coords) == dataclasses.astuple(built)
    assert pickle.loads(pickle.dumps(coords)) == built
    assert dataclasses.replace(coords, mu=0.5) == dataclasses.replace(built, mu=0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        coords.mu = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        del coords.delta
    assert coords == built


def test_invariants_flags_nonphysical():
    with pytest.warns(NonPhysicalWarning):
        coords, _ = invariants(np.diag([0.5, 0.5, 1.0, 1.0]))
    assert coords.mu == pytest.approx(2.0)


def test_energy_not_locally_invariant():
    # Local squeezing changes the trace while the four invariants stay put.
    rng = np.random.default_rng(5)
    sigma = StdForm(1.5, 1.3, 0.4, -0.2).matrix()
    coords0, e0 = invariants(sigma)
    found = False
    for _ in range(10):
        s = random_local_symplectic(rng)
        coords1, e1 = invariants(s.T @ sigma @ s)
        np.testing.assert_allclose(
            [coords1.mu, coords1.mu_a, coords1.mu_b, coords1.delta],
            [coords0.mu, coords0.mu_a, coords0.mu_b, coords0.delta],
            rtol=1e-9,
            atol=1e-9,
        )
        if abs(e1 - e0) > 1e-6:
            found = True
    assert found


def test_standard_form_idempotent_and_diagonal():
    for std in (StdForm(1.4, 1.2, 0.3, -0.1), StdForm(1.4, 1.2, 0.3, 0.1)):
        got = standard_form(std.matrix())
        np.testing.assert_allclose(
            [got.a, got.b, got.c_plus, got.c_minus],
            [std.a, std.b, std.c_plus, std.c_minus],
            atol=1e-12,
        )
    got = standard_form(np.diag([2.0, 2.0, 3.0, 3.0]))
    assert [got.a, got.b, got.c_plus, got.c_minus] == [2.0, 3.0, 0.0, 0.0]


def test_standard_form_local_invariance():
    rng = np.random.default_rng(6)
    std = StdForm(1.5, 1.2, 0.45, -0.3)
    sigma = std.matrix()
    for _ in range(20):
        s = random_local_symplectic(rng)
        got = standard_form(s.T @ sigma @ s)
        np.testing.assert_allclose(
            [got.a, got.b, got.c_plus, got.c_minus],
            [std.a, std.b, std.c_plus, std.c_minus],
            atol=1e-9,
        )


def test_standard_form_of_locally_squeezed_pure_states_is_bona_fide():
    # Pure states sit on the edge c+ = |c-|; a split of c+ and |c-| by the
    # square root of a rounding error leaves nu_- about 1e-8 below 1.
    rng = np.random.default_rng(4)
    bad, gap = 0, 0.0
    for r in np.linspace(0.05, 3.0, 4800):
        s = random_local_symplectic(rng)
        std = standard_form(s.T @ two_mode_squeezed(r) @ s)
        bad += not is_bona_fide(std.matrix())
        gap = max(gap, abs(std.c_plus + std.c_minus) / std.c_plus)
    assert bad == 0
    assert gap <= 1e-12


def test_standard_form_rejects_negative_definite_blocks():
    for sigma in (-np.eye(4), np.diag([2.0, 2.0, -3.0, -3.0])):
        with pytest.raises(DomainError, match="positive definite"):
            standard_form(sigma)


def test_cm_from_invariants_examples():
    std = cm_from_invariants(InvariantCoords(1.0, 0.8, 0.8, 2.0))
    np.testing.assert_allclose(
        [std.a, std.b, std.c_plus, std.c_minus], [1.25, 1.25, 0.75, -0.75], atol=1e-9
    )
    std = cm_from_invariants(InvariantCoords(1 / 6, 1 / 2, 1 / 3, 13.0))
    np.testing.assert_allclose([std.a, std.b, std.c_plus, std.c_minus], [2, 3, 0, 0], atol=1e-9)
    for delta in (2.0, 3.0, 4.5, 5.0, 8.0):
        with pytest.raises(DomainError):
            cm_from_invariants(InvariantCoords(0.5, 0.75, 0.75, delta))


#: Triples at which the scalar interval of cm_from_invariants and the one of
#: delta_bounds_batch differed in the last bit (libm pow against x*x): the
#: first at its lower edge, the others at an upper edge below 1 + 1/mu^2.
_EDGE_TRIPLES = [
    (0.13208741331046195, 0.14057562938394458, 0.5568969427995657),
    (0.44017165155083104, 0.8100091641331658, 0.5390022418650732),
    (0.06960793809548645, 0.49539517491149554, 0.11284216061252765),
    (0.31492841053138587, 0.4109400831542467, 0.7577308876773218),
    (0.43293509946338965, 0.5061146293896884, 0.8133108386850717),
    (0.15381025674278875, 0.8968743692694732, 0.15907757026469727),
    (0.2627781677287924, 0.48373034005489524, 0.3763119185241991),
]


def _edge_triples(n):
    """The pinned triples, then ``n`` random ones in [0.05, 1)^3, as rows (mu, mu_A, mu_B)."""
    rng = np.random.default_rng(30)
    return np.concatenate([_EDGE_TRIPLES, rng.uniform(0.05, 1.0, (n, 3))])


def test_cm_from_invariants_checks_the_interval_of_delta_bounds_bit_for_bit():
    # Delta = 0 and inf fail the two checks, whose messages give the ends
    # that cm_from_invariants tested; they were those of delta_bounds_batch
    # only up to the last bit.
    triples = _edge_triples(3000)
    checked = 0
    for mu, mu_a, mu_b in triples.tolist():
        d_min, d_max, valid = delta_bounds_batch(mu, mu_a, mu_b)
        if not valid[0]:
            continue
        ends = []
        for delta in (0.0, np.inf):
            with pytest.raises(DomainError) as err:
                cm_from_invariants(InvariantCoords(mu, mu_a, mu_b, delta))
            ends.append(float(str(err.value).rsplit("= ", 1)[1]))
        assert ends == [d_min[0], d_max[0]], (mu, mu_a, mu_b)
        checked += 1
    assert checked > 500


def test_cm_from_invariants_lands_on_the_edges_that_delta_bounds_returns():
    # At an edge c+ = |c-|.  At the pinned triples the scalar edge differed
    # from the returned one in the last bit, and c+ - |c-| was 4e-8 to 1.1e-7.
    eps = np.finfo(float).eps
    for mu, mu_a, mu_b in _edge_triples(3000).tolist():
        bounds = delta_bounds(mu, mu_a, mu_b)
        if bounds is None:
            continue
        # The upper end is an edge unless it is the cap 1 + 1/mu^2 (nu_- = 1).
        edges = bounds if bounds[1] < 1.0 + 1.0 / mu**2 else bounds[:1]
        for delta in edges:
            std = cm_from_invariants(InvariantCoords(mu, mu_a, mu_b, delta))
            assert abs(std.c_plus - abs(std.c_minus)) <= 4 * eps * std.c_plus, (mu, mu_a, mu_b)


def test_cm_from_invariants_rejects_a_standard_form_that_is_not_positive_definite():
    # A delta up to 1e-9 relative below the lower edge is taken, with c+^2 =
    # |c+ c-| = ab - 1/mu + 0.5e-9 Delta_min.  With a near 1/mu and b near 1,
    # Delta_min is near 1/mu^2, and c+^2 exceeds ab once mu is below 5e-10.
    mu, mu_b = 1e-10, 0.999999
    low, _ = delta_bounds(mu, mu, mu_b)
    with pytest.raises(DomainError, match="would not be positive definite"):
        cm_from_invariants(InvariantCoords(mu, mu, mu_b, low * (1.0 - 1e-9)))


def test_two_mode_calls_reject_other_sizes():
    for call in (invariants, standard_form):
        with pytest.raises(ValueError, match=r"expected a two-mode \(4x4\) covariance matrix"):
            call(np.eye(6))


def test_read_covmat_rejects_a_mode_number_below_one(tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("0\n")
    with pytest.raises(ValueError, match="mode number must be positive, got 0"):
        read_covmat(path)


def test_cm_from_invariants_round_trip():
    from conftest import random_feasible_coords_batch

    rng = np.random.default_rng(7)
    for coords in random_feasible_coords_batch(rng, 10_000):
        sigma = cm_from_invariants(coords).matrix()
        assert is_bona_fide(sigma)
        back, _ = invariants(sigma, warn_nonphysical=False)
        np.testing.assert_allclose(
            [back.mu, back.mu_a, back.mu_b, back.delta],
            [coords.mu, coords.mu_a, coords.mu_b, coords.delta],
            rtol=1e-9,
            atol=1e-9,
        )


def test_cm_from_invariants_round_trip_down_to_the_matrix_range():
    # StdForm.matrix holds ab - c+^2 only to about eps ab, so its invariants
    # return the coordinates to about 2 eps/(mu_A mu_B) relative.  Checked with
    # a factor 2 to spare, and at 1e-6 down to mu_A mu_B = 5e-10, the range
    # that the docstrings and the README give.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(3_000):
        mu = 10.0 ** rng.uniform(-4.0, 0.0)
        a = 10.0 ** rng.uniform(0.0, np.log10(1.0 / np.sqrt(5e-10)))
        b = a + rng.uniform(-1.0, 1.0) * (1.0 / mu - 1.0)
        if not 1.0 <= b <= 1.0 / (5e-10 * a):
            continue
        bounds = delta_bounds(mu, 1.0 / a, 1.0 / b)
        if bounds is None:
            continue
        f = rng.choice([0.0, 1.0, rng.uniform()])
        coords = InvariantCoords(mu, 1.0 / a, 1.0 / b, bounds[0] + f * (bounds[1] - bounds[0]))
        back, _ = invariants(cm_from_invariants(coords).matrix(), warn_nonphysical=False)
        rtol = min(1e-9 + 4.0 * eps * a * b, 1e-6)
        np.testing.assert_allclose(
            [back.mu, back.mu_a, back.mu_b, back.delta],
            [coords.mu, coords.mu_a, coords.mu_b, coords.delta],
            rtol=rtol,
            atol=0.0,
        )
        checked += 1
    assert checked > 2_000


def _discriminant_c(mu, a, b, delta):
    """The standard form's (c+, c-) from the discriminant t^2 - 4p^2.

    The library's earlier sampler formula, kept as a control: on an edge
    the discriminant is a difference of nearly equal terms, so its square
    root splits c+ from |c-| by about the square root of a rounding error.
    """
    ab = a * b
    p = 0.5 * (delta - a * a - b * b)
    t = np.maximum((ab * ab + p * p - 1.0 / mu**2) / ab, 0.0)
    disc = np.maximum(t * t - 4.0 * p * p, 0.0)
    c_plus = np.sqrt(0.5 * (t + np.sqrt(disc)))
    return c_plus, np.where(c_plus > 0.0, p / np.where(c_plus > 0.0, c_plus, 1.0), 0.0)


def _edge_split(c_of):
    """Largest (c+ - |c-|)/c+ of ``c_of`` with the seralian exactly on an edge.

    Over 60 purities mu and 4 000 random marginal pairs each, on the lower
    edge 2/mu + (a - b)^2 and on the upper edge (a + b)^2 - 2/mu wherever
    each is an end of the physical interval (about 50 000 points).
    """
    rng = np.random.default_rng(0)
    worst, points = 0.0, 0
    for mu in rng.uniform(0.02, 1.0, 60):
        a, b = 1.0 / rng.uniform(0.02, 1.0, (2, 4_000))
        lo, hi = core._seralian_edges(mu, a, b)
        top = np.minimum(hi, 1.0 + 1.0 / mu**2)
        for delta, on_edge in ((lo, lo <= top), (hi, (lo <= hi) & (hi == top))):
            c_plus, c_minus = c_of(mu, a[on_edge], b[on_edge], delta[on_edge])
            worst = max(worst, ((c_plus - np.abs(c_minus)) / c_plus).max(initial=0.0))
            points += on_edge.sum()
    assert points > 40_000
    return worst


def test_std_form_c_keeps_c_plus_equal_to_abs_c_minus_on_both_edges():
    eps = np.finfo(float).eps
    assert _edge_split(core._std_form_c) <= 4.0 * eps
    # The discriminant form misses the same bound by far more than rounding.
    assert _edge_split(_discriminant_c) > 1e-6


def _mp_std_form_c(mu, a, b, delta):
    """(c+, c-) at 1000 digits: c+ c- = p and c+^2 + c-^2 = (a^2 b^2 + p^2 - 1/mu^2)/(ab)."""
    import mpmath

    with mpmath.workdps(1000):
        mu, a, b, delta = (mpmath.mpf(x) for x in (mu, a, b, delta))
        p = (delta - a**2 - b**2) / 2
        s = (a**2 * b**2 + p**2 - 1 / mu**2) / (a * b)
        c_plus = mpmath.sqrt((s + mpmath.sqrt(s**2 - 4 * p**2)) / 2)
        return float(c_plus), float(p / c_plus)


@pytest.mark.parametrize(
    "mu, mu_ab, delta",
    [
        (0.5, 2.0**-511, 4.5),
        (0.5, 1.0001 * 2.0**-511, 4.5),
        (2.0**-300, 2.0**-300, 2.0**599),
        (2.0**-511, 2.0**-511, 2.0**1021),
    ],
)
def test_cm_from_invariants_where_the_plain_products_overflow(mu, mu_ab, delta):
    # Here the plain products 4|p| or gap (gap + 4|p|) would leave the float range.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        std = cm_from_invariants(InvariantCoords(mu, mu_ab, mu_ab, delta))
    c_plus, c_minus = _mp_std_form_c(mu, 1.0 / mu_ab, 1.0 / mu_ab, delta)
    assert std.c_plus == pytest.approx(c_plus, rel=1e-12, abs=0.0)
    assert std.c_minus == pytest.approx(c_minus, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "mu, energy", [(0.3, 8.0), (0.05, 12.0), (0.9, 12.0), (0.47, 3.0), (0.4445, 3.0)]
)
def test_std_form_c_matches_mpmath_on_sampler_draws(mu, energy):
    # The sampler's own draws at the benchmark points.  p = (delta - a^2 - b^2)/2
    # cancels, so its rounding alone moves c+ and c- by eps (a^2 + b^2)/|p|
    # relative.  _discriminant_c exceeds the bound below about elevenfold at mu = 0.9.
    rng = np.random.default_rng(11)
    a, b, lo, length = _draw_intervals(mu, energy, 300, rng)
    delta = lo + rng.random(a.size) * length
    c_plus, c_minus = core._std_form_c(mu, a, b, delta)
    cond = (a * a + b * b) / np.abs(0.5 * (delta - a * a - b * b))
    bound = 16.0 * np.finfo(float).eps * cond
    for k in range(a.size):
        want_plus, want_minus = _mp_std_form_c(mu, a[k], b[k], delta[k])
        assert abs(c_plus[k] - want_plus) <= bound[k] * abs(want_plus)
        assert abs(c_minus[k] - want_minus) <= bound[k] * abs(want_minus)


def test_std_form_c_chooses_the_factored_products_per_element():
    # Each element's (c+, c-) is the same alone as in a batch, also next to an
    # element where the plain product gap (gap + 4|p|) would overflow.
    rng = np.random.default_rng(7)
    mu = rng.uniform(0.2, 0.9, 200)
    a, b = 1.0 / rng.uniform(mu, 1.0, (2, 200))
    lo, hi = core._seralian_edges(mu, a, b)
    delta = lo + rng.uniform(0.0, 1.0, 200) * (np.minimum(hi, 1.0 + 1.0 / mu**2) - lo)
    wide = (0.5, 2.0**511, 2.0**511, 4.5)
    args = [np.append(x, w) for x, w in zip((mu, a, b, delta), wide)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c_plus, c_minus = core._std_form_c(*args)
        for k in range(201):
            one = core._std_form_c(*(x[k : k + 1] for x in args))
            assert (c_plus[k], c_minus[k]) == (one[0][0], one[1][0])
    assert (c_plus[-1], c_minus[-1]) == pytest.approx(_mp_std_form_c(*wide), rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coords=feasible_coords(), s=local_symplectics)
def test_invariants_are_local_symplectic_invariant(coords, s):
    sigma = cm_from_invariants(coords).matrix()
    want, _ = invariants(sigma, warn_nonphysical=False)
    got, _ = invariants(s.T @ sigma @ s, warn_nonphysical=False)
    np.testing.assert_allclose(
        [got.mu, got.mu_a, got.mu_b, got.delta],
        [want.mu, want.mu_a, want.mu_b, want.delta],
        rtol=1e-9,
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(coords=feasible_coords(), s=local_symplectics)
def test_cm_from_invariants_inverts_invariants(coords, s):
    # cm_from_invariants o invariants maps any state to its standard form.
    std = cm_from_invariants(coords)
    back, _ = invariants(s.T @ std.matrix() @ s, warn_nonphysical=False)
    got = cm_from_invariants(back)
    np.testing.assert_allclose(
        [got.a, got.b, got.c_plus, got.c_minus],
        [std.a, std.b, std.c_plus, std.c_minus],
        rtol=0.0,
        atol=1e-6 * std.a * std.b,
    )


def test_two_mode_squeezed_constructor():
    sigma = two_mode_squeezed(0.4)
    coords, _ = invariants(sigma)
    assert coords.mu == pytest.approx(1.0, abs=1e-12)
    assert coords.mu_a == pytest.approx(1 / np.cosh(0.8), abs=1e-12)



def test_two_mode_squeezed_up_to_the_top_of_the_float_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (355.0, -355.0, core._SQUEEZING_MAX, -core._SQUEEZING_MAX):
            assert np.isfinite(two_mode_squeezed(r)).all()
        for r in (np.nextafter(core._SQUEEZING_MAX, np.inf), 400.0, -400.0, 1e300):
            with pytest.raises(core.DomainError, match="float range"):
                two_mode_squeezed(r)
        for r in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="must be finite"):
                two_mode_squeezed(r)


def test_thermal_rejects_non_finite_eigenvalues_only():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for nus in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf]):
            with pytest.raises(ValueError, match="must be finite"):
                thermal(nus)
        # Finite values below 1 give no state but are accepted.
        np.testing.assert_array_equal(thermal([0.5, 2.0]), np.diag([0.5, 0.5, 2.0, 2.0]))

def test_random_symplectic_is_symplectic():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        s = random_symplectic(n, rng)
        omega = symplectic_form(n)
        np.testing.assert_allclose(s.T @ omega @ s, omega, atol=1e-10)


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda rng: random_covmat(2, rng, nu_max=np.inf), "nu_max"),
        (lambda rng: random_covmat(2, rng, nu_max=np.nan), "nu_max"),
        (lambda rng: random_covmat(2, rng, nu_max=0.5), "nu_max"),
        (lambda rng: random_covmat(2, rng, scale=np.inf), "scale"),
        (lambda rng: random_symplectic(2, rng, scale=np.nan), "scale"),
        (lambda rng: random_symplectic(1, rng, scale=np.inf), "scale"),
    ],
)
def test_random_constructors_reject_bad_parameters(make, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            make(np.random.default_rng(0))


@pytest.mark.parametrize("scale", [1e10, 1e300])
@pytest.mark.parametrize(
    "make",
    [
        lambda rng, scale: random_symplectic(2, rng, scale),
        lambda rng, scale: random_symplectic(1, rng, scale),
        lambda rng, scale: random_local_symplectic(rng, scale),
        lambda rng, scale: random_covmat(2, rng, scale=scale),
    ],
)
def test_random_constructors_beyond_the_float_range_raise_domain_error(make, scale):
    # exp(Omega H) overflowed in scipy's expm: a RuntimeWarning and a
    # non-finite matrix.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="random symplectic matrix .* leaves the float range"):
            make(np.random.default_rng(0), scale)


def test_random_covmat_whose_product_overflows_raises_domain_error():
    # At this draw S is finite and S^T D S is not.
    rng = np.random.default_rng(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="random covariance matrix .* leaves the float range"):
            random_covmat(2, rng, scale=500.0)


def test_random_constructors_at_scale_50_are_finite():
    rng = np.random.default_rng(10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (
            random_symplectic(2, rng, 50.0),
            random_symplectic(1, rng, 50.0),
            random_local_symplectic(rng, 50.0),
            random_covmat(2, rng, scale=50.0),
        ):
            assert np.isfinite(m).all()


def test_covmat_file_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    sigma = random_covmat(2, rng)
    path = tmp_path / "state.txt"
    write_covmat(path, sigma)
    np.testing.assert_array_equal(read_covmat(path), sigma)


def test_covmat_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        read_covmat(path)
    path.write_text("x\n1 0\n0 1\n")
    with pytest.raises(ValueError, match="mode number"):
        read_covmat(path)
    path.write_text("1\n1 0\n")
    with pytest.raises(ValueError, match="rows"):
        read_covmat(path)
    path.write_text("1\n1 oops\n0 1\n")
    with pytest.raises(ValueError, match="parse"):
        read_covmat(path)
    path.write_text("1\n1 0 0\n0 1 0\n")
    with pytest.raises(ValueError, match="entries"):
        read_covmat(path)


def test_energy_of_vacuum():
    assert energy(vacuum(2)) == 2.0


def test_energy_where_the_trace_overflows_but_e_does_not():
    # A physical, strongly squeezed product state: tr Sigma = 2e308 overflows, E = 1e308.
    sigma = np.diag([1e308, 1e-308, 1e308, 1e-308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert energy(sigma) == 1e308
        assert invariants(sigma)[1] == 1e308
        assert energy(np.kron(np.eye(3), np.diag([1e308, 1e-308]))) == 1.5e308


def test_energy_outside_the_float_range_raises():
    # E = 2e308 for both; the second has a finite global purity 1/1.5e308.
    hot = 1e308 * np.eye(4)
    mixed = np.diag([1.5e308, 1.5e308, 1.5e308, 1.0 / 1.5e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="energy .* leaves the float range"):
            energy(hot)
        with pytest.raises(ValueError, match="energy .* leaves the float range"):
            invariants(mixed, warn_nonphysical=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_rejected(bad):
    entry = np.eye(4)
    entry[0, 2] = entry[2, 0] = bad
    for sigma in (np.full((4, 4), bad), entry):
        for fn in (validate_covmat, symplectic_spectrum, is_bona_fide, purity, energy, invariants):
            with pytest.raises(ValueError, match="non-finite"):
                fn(sigma)
