"""Covariance-matrix algebra for N-mode Gaussian states.

Conventions used throughout the package: canonical operators are ordered
(q1, p1, ..., qN, pN), the commutator is normalized so that [q, p] = 2i,
and the vacuum covariance matrix is the identity.  A real symmetric matrix
is the covariance matrix of a physical state iff Sigma + i*Omega >= 0,
which is equivalent to all symplectic eigenvalues being >= 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.linalg import expm

__all__ = [
    "BONA_FIDE_TOL",
    "DomainError",
    "NonPhysicalWarning",
    "InvariantCoords",
    "StdForm",
    "symplectic_form",
    "validate_covmat",
    "symplectic_spectrum",
    "is_bona_fide",
    "purity",
    "energy",
    "invariants",
    "standard_form",
    "cm_from_invariants",
    "vacuum",
    "thermal",
    "two_mode_squeezed",
    "random_symplectic",
    "random_local_symplectic",
    "random_covmat",
    "read_covmat",
    "write_covmat",
]

#: Default tolerance on nu_min >= 1 - tol for the physicality test.  The
#: integration domains used elsewhere touch the boundary nu = 1, so boundary
#: states are treated as physical.
BONA_FIDE_TOL = 1e-9

#: Symmetry tolerance, relative to the largest entry.
SYMMETRY_RTOL = 1e-12

#: Tolerance for pairing the eigenvalues of Omega @ Sigma.
PAIRING_TOL = 1e-8


class DomainError(ValueError):
    """Requested parameters lie outside the physical state space."""


class NonPhysicalWarning(UserWarning):
    """Invariants were computed for a matrix that is not a valid state."""


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form for the (q1, p1, ...) ordering.

    Omega is block diagonal with 2x2 blocks [[0, 1], [-1, 0]]; it satisfies
    Omega.T = -Omega and Omega @ Omega = -identity.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be a positive integer")
    return _omega(n_modes).copy()


@lru_cache(maxsize=8)
def _omega(n_modes: int) -> np.ndarray:
    """Read-only symplectic form, built once per mode count."""
    omega = np.kron(np.eye(n_modes), [[0.0, 1.0], [-1.0, 0.0]])
    omega.setflags(write=False)
    return omega


def validate_covmat(sigma, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    """Check shape and symmetry of a candidate covariance matrix.

    Returns the input as a float array.  Raises ValueError for non-square,
    odd-dimensional, non-finite or non-symmetric (relative to the largest
    entry) input.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"covariance matrix must be square, got shape {sigma.shape}")
    if sigma.shape[0] % 2 != 0 or sigma.shape[0] == 0:
        raise ValueError(f"covariance matrix must be 2N x 2N, got {sigma.shape[0]} rows")
    largest = float(np.abs(sigma).max())  # NaN or inf with any non-finite entry
    if not np.isfinite(largest):
        raise ValueError("covariance matrix has non-finite entries")
    scale = max(largest, 1.0)
    asym = float(np.abs(sigma - sigma.T).max())
    if asym > rtol * scale:
        raise ValueError(f"covariance matrix is not symmetric (max asymmetry {asym:.3e})")
    return sigma


def symplectic_spectrum(sigma, pairing_tol: float = PAIRING_TOL) -> np.ndarray:
    """Symplectic eigenvalues of a symmetric matrix, sorted ascending.

    The values are the moduli of the (purely imaginary) eigenvalue pairs of
    Omega @ Sigma.  For positive definite Sigma these always exist; input
    whose eigenvalues fail to pair up within ``pairing_tol`` is rejected.
    Exact for diagonal input, where nu_i = sqrt(d_{2i} * d_{2i+1}).
    """
    return _spectrum(validate_covmat(sigma), pairing_tol)


def _spectrum(sigma: np.ndarray, pairing_tol: float = PAIRING_TOL) -> np.ndarray:
    """:func:`symplectic_spectrum` of an already validated matrix."""
    d = np.diagonal(sigma)
    if np.count_nonzero(sigma) == np.count_nonzero(d):  # diagonal input
        prod = d[0::2] * d[1::2]
        if np.any(prod < 0.0):
            raise ValueError(
                "eigenvalues of Omega @ Sigma are not purely imaginary; "
                "the matrix is too far from positive definite"
            )
        return np.sort(np.sqrt(prod))
    eigs = np.linalg.eigvals(_omega(sigma.shape[0] // 2) @ sigma)
    scale = max(1.0, float(np.abs(eigs).max()))
    if float(np.abs(eigs.real).max()) > pairing_tol * scale:
        raise ValueError(
            "eigenvalues of Omega @ Sigma are not purely imaginary; "
            "the matrix is too far from positive definite"
        )
    mods = np.sort(np.abs(eigs.imag))
    lo, hi = mods[0::2], mods[1::2]
    if float(np.abs(hi - lo).max()) > pairing_tol * scale:
        raise ValueError("failed to pair the eigenvalues of Omega @ Sigma")
    return 0.5 * (lo + hi)


def is_bona_fide(sigma, tol: float = BONA_FIDE_TOL) -> bool:
    """True iff Sigma is the covariance matrix of a physical Gaussian state.

    Tests Sigma + i*Omega >= 0 through positive definiteness together with
    min(nu) >= 1 - tol.
    """
    sigma = validate_covmat(sigma)
    if float(np.linalg.eigvalsh(sigma).min()) <= 0.0:
        return False
    return float(_spectrum(sigma).min()) >= 1.0 - tol


def purity(sigma) -> float:
    """Global purity mu = 1/sqrt(det Sigma) = prod(1/nu_k)."""
    return _purity(validate_covmat(sigma))


def _purity(sigma: np.ndarray) -> float:
    det = float(np.linalg.det(sigma))
    if det <= 0.0:
        raise ValueError("determinant must be positive to define a purity")
    return 1.0 / np.sqrt(det)


def energy(sigma) -> float:
    """Mean energy E = tr(Sigma)/2 of the quadratic Hamiltonian (zero displacement).

    E is proportional to the number of excitations.  Unlike the purities and
    the seralian it is not invariant under local symplectic transformations.
    """
    return 0.5 * float(np.trace(validate_covmat(sigma)))


@dataclass(frozen=True)
class InvariantCoords:
    """Local-symplectic invariants (mu, mu_A, mu_B, Delta) of a two-mode state.

    mu is the global purity, mu_a and mu_b the marginal purities and delta
    the seralian, the sum of the squared symplectic eigenvalues.  No range
    validation happens here: coordinates of non-physical matrices are useful
    when probing the boundary of the physical region.
    """

    mu: float
    mu_a: float
    mu_b: float
    delta: float


@dataclass(frozen=True)
class StdForm:
    """Two-mode standard-form parameters (a, b, c_plus, c_minus).

    Convention: c_plus >= |c_minus|.  The corresponding matrix has diagonal
    blocks a*I and b*I and off-diagonal block diag(c_plus, c_minus).
    """

    a: float
    b: float
    c_plus: float
    c_minus: float

    def matrix(self) -> np.ndarray:
        m = np.diag([self.a, self.a, self.b, self.b])
        m[0, 2] = m[2, 0] = self.c_plus
        m[1, 3] = m[3, 1] = self.c_minus
        return m


def _require_two_mode(sigma) -> np.ndarray:
    sigma = validate_covmat(sigma)
    if sigma.shape[0] != 4:
        raise ValueError(f"expected a two-mode (4x4) covariance matrix, got {sigma.shape}")
    return sigma


def invariants(sigma, warn_nonphysical: bool = True) -> tuple[InvariantCoords, float]:
    """Invariant coordinates and energy of a two-mode covariance matrix.

    Returns ``(InvariantCoords(mu, mu_a, mu_b, delta), energy)`` with
    mu = 1/sqrt(det Sigma), the marginal purities from the diagonal blocks,
    delta = nu_1^2 + nu_2^2 and energy = tr(Sigma)/2.  Non-physical input is
    flagged with NonPhysicalWarning but the invariants are still returned,
    which is needed when probing the boundary of the physical region.
    """
    sigma = _require_two_mode(sigma)
    nu = _spectrum(sigma)
    det_a = float(np.linalg.det(sigma[:2, :2]))
    det_b = float(np.linalg.det(sigma[2:, 2:]))
    if det_a <= 0.0 or det_b <= 0.0:
        raise ValueError("diagonal blocks must have positive determinant")
    coords = InvariantCoords(
        mu=_purity(sigma),
        mu_a=1.0 / np.sqrt(det_a),
        mu_b=1.0 / np.sqrt(det_b),
        delta=float(np.sum(nu**2)),
    )
    if warn_nonphysical and float(nu.min()) < 1.0 - BONA_FIDE_TOL:
        warnings.warn(
            f"matrix is not a physical state (nu_min = {nu.min():.6g} < 1)",
            NonPhysicalWarning,
            stacklevel=2,
        )
    return coords, 0.5 * float(np.trace(sigma))


def _solve_offdiag(ab: float, p: float, t: float) -> tuple[float, float]:
    """Solve c+^2 + c-^2 = t, c+ * c- = p with the c+ >= |c-| convention."""
    scale = max(1.0, abs(t), 2.0 * abs(p))
    if t < -1e-10 * scale:
        raise DomainError("no real standard-form solution: c+^2 + c-^2 < 0")
    t = max(t, 0.0)
    disc = t * t - 4.0 * p * p
    if disc < -1e-9 * scale * scale:
        raise DomainError("no real standard-form solution: (c+^2 - c-^2)^2 < 0")
    x_plus = 0.5 * (t + np.sqrt(max(disc, 0.0)))
    c_plus = float(np.sqrt(x_plus))
    c_minus = p / c_plus if c_plus > 0.0 else 0.0
    return c_plus, c_minus


def standard_form(sigma) -> StdForm:
    """Reduce a two-mode covariance matrix to its standard form.

    a and b are fixed by the marginal purities, while (c_plus, c_minus) is
    the solution of c+ c- = det C and (ab - c+^2)(ab - c-^2) = det Sigma
    with c_plus >= |c_minus|.  The result is invariant under local
    symplectic conjugation of the input.
    """
    sigma = _require_two_mode(sigma)
    det_a = float(np.linalg.det(sigma[:2, :2]))
    det_b = float(np.linalg.det(sigma[2:, 2:]))
    if det_a <= 0.0 or det_b <= 0.0:
        raise DomainError("diagonal blocks must have positive determinant")
    a, b = np.sqrt(det_a), np.sqrt(det_b)
    ab = a * b
    p = float(np.linalg.det(sigma[:2, 2:]))
    t = (ab * ab + p * p - float(np.linalg.det(sigma))) / ab
    c_plus, c_minus = _solve_offdiag(ab, p, t)
    return StdForm(a=float(a), b=float(b), c_plus=c_plus, c_minus=c_minus)


def cm_from_invariants(coords: InvariantCoords) -> StdForm:
    """Reconstruct the standard form from invariant coordinates.

    Inverts the map behind :func:`invariants`: a = 1/mu_a, b = 1/mu_b,
    c+ c- = (delta - a^2 - b^2)/2 and c+^2 + c-^2 fixed by det Sigma = 1/mu^2.
    Raises DomainError when the coordinates admit no physical state, i.e.
    when no real (c+, c-) exist, when the reconstructed matrix would not be
    positive definite, or when delta is incompatible with a symplectic
    spectrum with nu >= 1.
    """
    mu, mu_a, mu_b, delta = coords.mu, coords.mu_a, coords.mu_b, coords.delta
    slack = 1e-9
    for name, val in (("mu", mu), ("mu_a", mu_a), ("mu_b", mu_b)):
        if not (0.0 < val <= 1.0 + slack):
            raise DomainError(f"{name} = {val} must lie in (0, 1]")
    mu = min(mu, 1.0)
    if delta < 2.0 / mu - slack:
        raise DomainError(f"delta = {delta} below the minimum 2/mu = {2.0 / mu}")
    if delta > 1.0 + 1.0 / mu**2 + slack:
        raise DomainError(f"delta = {delta} above the maximum 1 + 1/mu^2 = {1.0 + 1.0 / mu**2}")
    a, b = 1.0 / mu_a, 1.0 / mu_b
    ab = a * b
    p = 0.5 * (delta - a * a - b * b)
    t = (ab * ab + p * p - 1.0 / mu**2) / ab
    c_plus, c_minus = _solve_offdiag(ab, p, t)
    if c_plus * c_plus > ab * (1.0 + 1e-12):
        raise DomainError("reconstructed matrix would not be positive definite")
    return StdForm(a=a, b=b, c_plus=c_plus, c_minus=c_minus)


# ---------------------------------------------------------------------------
# State constructors and random sampling helpers


def vacuum(n_modes: int) -> np.ndarray:
    """Covariance matrix of the N-mode vacuum (identity)."""
    return np.eye(2 * n_modes)


def thermal(nus) -> np.ndarray:
    """Product of thermal states with symplectic eigenvalues ``nus``."""
    nus = np.asarray(nus, dtype=float)
    return np.diag(np.repeat(nus, 2))


def two_mode_squeezed(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum with squeezing parameter r.

    Standard form a = b = cosh(2r), c_plus = -c_minus = sinh(2r); the state
    is pure with log-negativity 2r/ln 2.
    """
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    return StdForm(ch, ch, sh, -sh).matrix()


def random_symplectic(n_modes: int, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Random symplectic matrix exp(Omega @ H) with H symmetric Gaussian.

    ``scale`` sets the standard deviation of H and thereby the typical
    amount of squeezing.
    """
    n = 2 * n_modes
    h = rng.normal(scale=scale, size=(n, n))
    h = 0.5 * (h + h.T)
    return expm(symplectic_form(n_modes) @ h)


def random_local_symplectic(rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Random S_A + S_B direct sum acting locally on a two-mode state."""
    s = np.zeros((4, 4))
    s[:2, :2] = random_symplectic(1, rng, scale)
    s[2:, 2:] = random_symplectic(1, rng, scale)
    return s


def random_covmat(
    n_modes: int,
    rng: np.random.Generator,
    nu_max: float = 3.0,
    scale: float = 0.5,
) -> np.ndarray:
    """Random bona fide covariance matrix S^T D S with nu ~ U[1, nu_max]."""
    nu = rng.uniform(1.0, nu_max, size=n_modes)
    s = random_symplectic(n_modes, rng, scale)
    return s.T @ thermal(nu) @ s


# ---------------------------------------------------------------------------
# Plain-text covariance matrix files


def write_covmat(path, sigma) -> None:
    """Write a covariance matrix as text: first line N, then 2N rows of 2N values."""
    sigma = validate_covmat(sigma)
    n = sigma.shape[0] // 2
    lines = [str(n)]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in sigma]
    Path(path).write_text("\n".join(lines) + "\n")


def read_covmat(path) -> np.ndarray:
    """Read a covariance matrix written by :func:`write_covmat`.

    Raises ValueError with a parse diagnostic for malformed files.
    """
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty covariance matrix file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"first line must be the mode number, got {lines[0]!r}") from exc
    if n < 1:
        raise ValueError(f"mode number must be positive, got {n}")
    if len(lines) != 1 + 2 * n:
        raise ValueError(f"expected {2 * n} matrix rows, found {len(lines) - 1}")
    rows = []
    for k, ln in enumerate(lines[1:]):
        try:
            row = [float(tok) for tok in ln.split()]
        except ValueError as exc:
            raise ValueError(f"row {k + 1}: could not parse entries: {ln!r}") from exc
        if len(row) != 2 * n:
            raise ValueError(f"row {k + 1}: expected {2 * n} entries, found {len(row)}")
        rows.append(row)
    return validate_covmat(np.array(rows))
