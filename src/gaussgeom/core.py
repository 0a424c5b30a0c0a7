"""Covariance-matrix algebra for N-mode Gaussian states.

Conventions used throughout the package: canonical operators are ordered
(q1, p1, ..., qN, pN), the commutator is normalized so that [q, p] = 2i,
and the vacuum covariance matrix is the identity.  A real symmetric matrix
is the covariance matrix of a physical state iff Sigma + i*Omega >= 0,
which is equivalent to all symplectic eigenvalues being >= 1.

Every analysis runs through Hermitian eigenproblems, whose eigenvalues are
well conditioned and come in exact +- pairs: the physicality test is one
eigen-solve of Sigma + i*(1 - tol)*Omega, the symplectic spectrum one
eigen-solve of L^T (i Omega) L for the Cholesky factor Sigma = L L^T, and
the two-mode invariants need no spectrum at all (the seralian is
det A + det B + 2 det C).  A symplectic spectrum is defined only for
positive definite input; anything else raises ValueError.
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

_NOT_POSITIVE_DEFINITE = "covariance matrix is not positive definite"


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


def symplectic_spectrum(sigma) -> np.ndarray:
    """Symplectic eigenvalues of a positive definite matrix, sorted ascending.

    With the Cholesky factor Sigma = L L^T, the Hermitian matrix
    L^T (i Omega) L is similar to i Omega Sigma; its eigenvalues are the
    exact pairs +-nu_k, so the nu are read off its positive half with one
    Hermitian eigen-solve and no pairing step.  Exact for diagonal input,
    where nu_i = sqrt(d_{2i} * d_{2i+1}).  Raises ValueError unless Sigma is
    positive definite.
    """
    return _spectrum(validate_covmat(sigma))


def _spectrum(sigma: np.ndarray) -> np.ndarray:
    """:func:`symplectic_spectrum` of an already validated matrix."""
    n = sigma.shape[0] // 2
    d = np.diagonal(sigma)
    if np.count_nonzero(sigma) == np.count_nonzero(d):  # diagonal input
        d = d.tolist()
        if min(d) <= 0.0:
            raise ValueError(_NOT_POSITIVE_DEFINITE)
        return np.sqrt(np.sort(np.multiply(d[0::2], d[1::2])))
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError(_NOT_POSITIVE_DEFINITE) from None
    # eigvalsh sorts ascending: -nu_N <= ... <= -nu_1 < nu_1 <= ... <= nu_N.
    return np.linalg.eigvalsh(1j * (chol.T @ _omega(n) @ chol))[n:]


def is_bona_fide(sigma, tol: float = BONA_FIDE_TOL) -> bool:
    """True iff Sigma is the covariance matrix of a physical Gaussian state.

    Tests Sigma + i*(1 - tol)*Omega >= 0 with one Hermitian eigen-solve.  By
    scaling, this holds exactly when Sigma is positive definite and
    min(nu) >= 1 - tol.  Raises ValueError unless tol < 1.
    """
    return _bona_fide(validate_covmat(sigma), tol)


def _bona_fide(sigma: np.ndarray, tol: float = BONA_FIDE_TOL) -> bool:
    """:func:`is_bona_fide` of an already validated matrix."""
    if not tol < 1.0:  # also rejects NaN
        raise ValueError(f"tol = {tol} must be below 1")
    pencil = sigma + 1j * (1.0 - tol) * _omega(sigma.shape[0] // 2)
    return float(np.linalg.eigvalsh(pencil)[0]) >= 0.0


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


def _block_dets(sigma: np.ndarray) -> tuple[float, float, float]:
    """det A, det B and det C of a two-mode matrix [[A, C], [C^T, B]], from its entries.

    Raises DomainError unless det A and det B are positive.
    """
    (a00, a01, c00, c01), (a10, a11, c10, c11), (_, _, b00, b01), (_, _, b10, b11) = (
        sigma.tolist()
    )
    det_a = a00 * a11 - a01 * a10
    det_b = b00 * b11 - b01 * b10
    if det_a <= 0.0 or det_b <= 0.0:
        raise DomainError("diagonal blocks must have positive determinant")
    return det_a, det_b, c00 * c11 - c01 * c10


def invariants(sigma, warn_nonphysical: bool = True) -> tuple[InvariantCoords, float]:
    """Invariant coordinates and energy of a two-mode covariance matrix.

    Returns ``(InvariantCoords(mu, mu_a, mu_b, delta), energy)`` with
    mu = 1/sqrt(det Sigma), the marginal purities 1/sqrt(det A) and
    1/sqrt(det B) of the diagonal blocks, the seralian
    delta = det A + det B + 2 det C = nu_1^2 + nu_2^2 and energy = tr(Sigma)/2,
    all from determinants; no symplectic spectrum is computed.  Input that is
    not a physical state, positive definite or not, is flagged with
    NonPhysicalWarning by the test of :func:`is_bona_fide` but the
    invariants are still returned, which is needed when probing the
    boundary of the physical region.  Raises ValueError (DomainError for
    blocks with non-positive determinant) when they are undefined.
    """
    sigma = _require_two_mode(sigma)
    det_a, det_b, det_c = _block_dets(sigma)
    coords = InvariantCoords(
        mu=_purity(sigma),
        mu_a=1.0 / np.sqrt(det_a),
        mu_b=1.0 / np.sqrt(det_b),
        delta=det_a + det_b + 2.0 * det_c,
    )
    if warn_nonphysical and not _bona_fide(sigma):
        warnings.warn(
            "matrix is not a physical state (Sigma + i*Omega is not positive semidefinite)",
            NonPhysicalWarning,
            stacklevel=2,
        )
    return coords, 0.5 * float(np.trace(sigma))


def _solve_offdiag(p: float, t: float, disc: float) -> tuple[float, float]:
    """Solve c+ c- = p and c+^2 + c-^2 = t with the c+ >= |c-| convention.

    ``disc`` = t^2 - 4 p^2 = (c+^2 - c-^2)^2, passed in so that each caller
    can form it with the least cancellation.
    """
    scale = max(1.0, abs(t), 2.0 * abs(p))
    if t < -1e-10 * scale:
        raise DomainError("no real standard-form solution: c+^2 + c-^2 < 0")
    if disc < -1e-9 * scale * scale:
        raise DomainError("no real standard-form solution: (c+^2 - c-^2)^2 < 0")
    x_plus = 0.5 * (max(t, 0.0) + np.sqrt(max(disc, 0.0)))
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
    det_a, det_b, p = _block_dets(sigma)
    a, b = np.sqrt(det_a), np.sqrt(det_b)
    ab = a * b
    t = (ab * ab + p * p - float(np.linalg.det(sigma))) / ab
    c_plus, c_minus = _solve_offdiag(p, t, t * t - 4.0 * p * p)
    return StdForm(a=float(a), b=float(b), c_plus=c_plus, c_minus=c_minus)


def _seralian_edges(mu, a, b):
    """Seralian edges 2/mu + (a - b)^2 and (a + b)^2 - 2/mu of the standard form.

    a = 1/mu_A and b = 1/mu_B; elementwise on arrays.  A real standard form
    exists between the two edges, and c+^2 = c-^2 on both.  The physical
    interval is [2/mu + (a - b)^2, min((a + b)^2 - 2/mu, 1 + 1/mu^2)], where
    1 + 1/mu^2 is the seralian at nu_- = 1.
    """
    return 2.0 / mu + (a - b) ** 2, (a + b) ** 2 - 2.0 / mu


def cm_from_invariants(coords: InvariantCoords) -> StdForm:
    """Reconstruct the standard form from invariant coordinates.

    Inverts the map behind :func:`invariants`: a = 1/mu_a, b = 1/mu_b,
    c+ c- = (delta - a^2 - b^2)/2 and c+^2 + c-^2 fixed by det Sigma = 1/mu^2.
    Raises DomainError when the coordinates admit no physical state: when
    delta lies outside the closed-form seralian interval of the purities
    by more than a relative 1e-9, or when the reconstructed matrix would
    not be positive definite.  On the edges of the interval c+ = |c-|.
    """
    mu, mu_a, mu_b, delta = coords.mu, coords.mu_a, coords.mu_b, coords.delta
    slack = 1e-9
    for name, val in (("mu", mu), ("mu_a", mu_a), ("mu_b", mu_b)):
        if not (0.0 < val <= 1.0 + slack):
            raise DomainError(f"{name} = {val} must lie in (0, 1]")
    mu = min(mu, 1.0)
    a, b = 1.0 / mu_a, 1.0 / mu_b
    lo, hi = _seralian_edges(mu, a, b)
    if not delta >= lo * (1.0 - slack):  # also rejects NaN
        raise DomainError(f"delta = {delta} below the minimum 2/mu + (1/mu_a - 1/mu_b)^2 = {lo}")
    top = min(hi, 1.0 + 1.0 / mu**2)
    if not delta <= top * (1.0 + slack):
        raise DomainError(
            f"delta = {delta} above the maximum min((1/mu_a + 1/mu_b)^2 - 2/mu, 1 + 1/mu^2) = {top}"
        )
    ab = a * b
    p = 0.5 * (delta - a * a - b * b)
    # ab - |p| - 1/mu is half the distance from delta to the nearer edge, so
    # gap = t - 2|p| = (ab - |p| - 1/mu)(ab - |p| + 1/mu)/ab and
    # (c+^2 - c-^2)^2 = gap (gap + 4|p|) have no cancellation and vanish on
    # an edge.
    half = 0.5 * max(min(delta - lo, hi - delta), 0.0)
    gap = half * (half + 2.0 / mu) / ab
    c_plus, c_minus = _solve_offdiag(p, 2.0 * abs(p) + gap, gap * (gap + 4.0 * abs(p)))
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
