import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from gaussgeom.core import (
    BONA_FIDE_TOL,
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
from gaussgeom.correlations import delta_bounds
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


def test_one_hermitian_eigen_solve_per_call(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a):
        calls.append("eigvalsh")
        return eigvalsh(a)

    def no_eigvals(a):
        raise AssertionError("general eigensolver called")

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    sigma = StdForm(1.5, 1.3, 0.4, -0.2).matrix()
    for fn, want in (
        (symplectic_spectrum, 1),
        (is_bona_fide, 1),
        (invariants, 1),
        (lambda m: invariants(m, warn_nonphysical=False), 0),
    ):
        calls.clear()
        fn(sigma)
        assert len(calls) == want


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
    std = StdForm(1.4, 1.2, 0.3, -0.1)
    got = standard_form(std.matrix())
    np.testing.assert_allclose(
        [got.a, got.b, got.c_plus, got.c_minus],
        [std.a, std.b, std.c_plus, std.c_minus],
        atol=1e-12,
    )
    # c near zero is only determined to sqrt(det cancellation) ~ 1e-8.
    got = standard_form(np.diag([2.0, 2.0, 3.0, 3.0]))
    np.testing.assert_allclose([got.a, got.b, got.c_plus, got.c_minus], [2, 3, 0, 0], atol=1e-7)


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


def test_random_symplectic_is_symplectic():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        s = random_symplectic(n, rng)
        omega = symplectic_form(n)
        np.testing.assert_allclose(s.T @ omega @ s, omega, atol=1e-10)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_rejected(bad):
    entry = np.eye(4)
    entry[0, 2] = entry[2, 0] = bad
    for sigma in (np.full((4, 4), bad), entry):
        for fn in (validate_covmat, symplectic_spectrum, is_bona_fide, purity, energy, invariants):
            with pytest.raises(ValueError, match="non-finite"):
                fn(sigma)
