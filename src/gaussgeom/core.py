"""Covariance-matrix algebra for N-mode Gaussian states.

Conventions used throughout the package: canonical operators are ordered
(q1, p1, ..., qN, pN), the commutator is normalized so that [q, p] = 2i,
and the vacuum covariance matrix is the identity.  A real symmetric matrix
is the covariance matrix of a physical state iff Sigma + i*Omega >= 0,
which is equivalent to all symplectic eigenvalues being >= 1.

Two-mode (4x4) input, the case every analysis here is about, is read once
into Python floats and handled in closed form from one scalar Cholesky
factor Sigma = L L^T: the symplectic spectrum, the physicality test and the
purity all follow from L with no eigen-solve (see :func:`_two_mode_nu`),
and the seralian is det A + det B + 2 det C.  The last such read is kept
(:func:`_two_mode_read`), so back-to-back calls on one matrix convert,
validate and factor it once.  Other sizes run through one Hermitian
eigenproblem, whose eigenvalues are well conditioned and come in exact +-
pairs: the physicality test is one eigen-solve of
Sigma + i*(1 - tol)*Omega, the symplectic spectrum one eigen-solve of
L^T (i Omega) L.  A symplectic spectrum is defined only for positive
definite input; anything else raises ValueError.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import reprlib
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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

_FLOAT_MIN = sys.float_info.min  # smallest normal float

_SQUARE_MAX = float(np.nextafter(2.0**512, 0.0))  # the largest float whose square is finite
#: Smallest purity of the seralian geometry: 1/mu^2 = 2**1022 stays finite.
_MU_MIN = 2.0**-511


class DomainError(ValueError):
    """Requested parameters lie outside the physical state space."""


class NonPhysicalWarning(UserWarning):
    """Invariants were computed for a matrix that is not a valid state."""


def _real(name: str, value) -> float:
    """``value`` as a Python float: the one reader of the real scalar arguments.

    ValueError naming ``name`` unless ``value`` is a real number (numpy's
    too; not a bool, a string or an array).  A Python int beyond the float
    range reads as +-inf, for the caller's range check to reject.  A float
    is tested first: the per-state calls read their arguments here.
    """
    if type(value) is float:
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    raise ValueError(f"{name} must be a real number, got {value!r}")


def _real_array(name: str, value) -> np.ndarray:
    """``value`` as a float64 array: the one reader of the real array arguments.

    ValueError naming ``name`` unless ``value`` holds real numbers (numpy's
    too) in the float range: not bools, strings, None, complex or objects.
    Input that is not an ndarray is read element by element, so that a bool
    inside a list of floats, or a ragged row, raises too.
    """
    if isinstance(value, np.ndarray):
        array = value
    else:
        try:
            array = np.array(value, dtype=object)
        except ValueError:  # rows that numpy cannot hold even as objects
            array = np.array(None)  # no real number: the error below
    kind = array.dtype.kind
    if kind in "fiu":
        return array.astype(float, copy=False)
    if kind == "O" and all(isinstance(x, numbers.Real) and type(x) is not bool for x in array.flat):
        with contextlib.suppress(OverflowError):  # raised by an int beyond the float range
            return array.astype(float)
    raise ValueError(f"{name} must be real numbers in the float range, got {reprlib.repr(value)}")


def _integer(name: str, value, minimum: int | None) -> int:
    """``value`` as a Python int: the one reader of the integer arguments.

    ValueError naming ``name`` unless ``value`` is an integer (numpy's too;
    not a bool) of at least ``minimum`` (None: no minimum).  As an int, a
    small numpy integer cannot wrap later, nor reach ``PCG64.advance``.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if minimum is None or value >= minimum:
            return int(value)
    what = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}.get(
        minimum, f"an integer of at least {minimum}"
    )
    raise ValueError(f"{name} must be {what}, got {value!r}")


def _random_generator(rng) -> np.random.Generator:
    """``rng``: the one reader of the random-generator arguments.

    ValueError naming ``rng`` unless it is a numpy.random.Generator.
    """
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator, got {rng!r}")
    return rng


def symplectic_form(n_modes: int) -> np.ndarray:
    """Return the 2N x 2N symplectic form for the (q1, p1, ...) ordering.

    Omega is block diagonal with 2x2 blocks [[0, 1], [-1, 0]]; it satisfies
    Omega.T = -Omega and Omega @ Omega = -identity.
    """
    return np.kron(np.eye(_integer("n_modes", n_modes, 1)), [[0.0, 1.0], [-1.0, 0.0]])


def validate_covmat(sigma) -> np.ndarray:
    """Check shape and symmetry of a candidate covariance matrix.

    Returns the input as a float array.  Raises ValueError for non-square,
    odd-dimensional, non-finite or non-symmetric input: an asymmetry above
    ``SYMMETRY_RTOL`` times max(1, largest entry), inf where it leaves the
    float range.
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
    with np.errstate(over="ignore"):  # an asymmetry beyond the float range reads as inf
        asym = float(np.abs(sigma - sigma.T).max())
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(f"covariance matrix is not symmetric (max asymmetry {asym:.3e})")
    return sigma


def _two_mode_rows(sigma: np.ndarray) -> list[list[float]]:
    """The rows of a 4x4 float array as Python floats, validated as :func:`validate_covmat` does.

    The matrix is read once with ``tolist`` and checked on those scalars,
    with the verdicts and messages of :func:`validate_covmat`.  A finite sum
    of the entries proves every entry finite; only a sum that is not (a
    non-finite entry, or finite entries that overflow it) takes the
    per-entry test.  The largest asymmetry and the scale max(1, |entries|)
    are computed only for input that is not exactly symmetric.
    """
    rows = sigma.tolist()
    (_, s01, s02, s03), (s10, _, s12, s13), (s20, s21, _, s23), (s30, s31, s32, _) = rows
    entries = rows[0] + rows[1] + rows[2] + rows[3]
    if not math.isfinite(sum(entries)) and not all(map(math.isfinite, entries)):
        raise ValueError("covariance matrix has non-finite entries")
    if s01 != s10 or s02 != s20 or s03 != s30 or s12 != s21 or s13 != s31 or s23 != s32:
        asym = max(
            abs(s01 - s10), abs(s02 - s20), abs(s03 - s30),
            abs(s12 - s21), abs(s13 - s31), abs(s23 - s32),
        )
        if asym > SYMMETRY_RTOL * max(1.0, *map(abs, entries)):
            raise ValueError(f"covariance matrix is not symmetric (max asymmetry {asym:.3e})")
    return rows


#: The last two-mode read (key, rows, nu) of :func:`_two_mode_read`.  It is
#: replaced whole, so that a thread sees one read or the next, never a mix.
_last_read: tuple[bytes, list[list[float]], tuple[float, float] | None] = (b"", [], None)


def _two_mode_read(sigma):
    """:func:`validate_covmat`, and for 4x4 input the rows and :func:`_two_mode_nu`: (sigma, rows, nu).

    The input is converted and its shape tested once.  The last 4x4 read is
    kept under the float64 bytes of the matrix, so that the per-state calls
    on one matrix, the standard form and partial transpose too, validate and
    factor it once.  A matrix changed in place has other bytes and is read
    again (:func:`_two_mode_rows`); input that fails validation raises and
    is not kept.  The kept rows are shared and only read.  Other sizes give
    (sigma, None, None).
    """
    global _last_read
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (4, 4):
        return validate_covmat(sigma), None, None
    key = sigma.tobytes()
    last = _last_read
    if last[0] == key:
        return sigma, last[1], last[2]
    rows = _two_mode_rows(sigma)
    nu = _two_mode_nu(rows)
    _last_read = (key, rows, nu)
    return sigma, rows, nu


def _two_mode_nu(rows: list[list[float]]) -> tuple[float, float] | None:
    """(nu_-, nu_+) of a validated 4x4 matrix given as rows; None unless it is positive definite.

    Diagonal input gives exactly sqrt(d_0 d_1) and sqrt(d_2 d_3), or
    sqrt(d_0) sqrt(d_1) where the product is not a normal float.  Otherwise
    Sigma = L L^T is factored in scalars (a pivot that is not positive means
    not positive definite), and the antisymmetric M = L^T Omega L, similar
    to Omega Sigma, has eigenvalues +-i nu_+ and +-i nu_-.  Its self-dual and
    anti-self-dual parts a and b give nu_+ = (|a| + |b|)/2, and since
    nu_+ nu_- = Pf M = det L, nu_- = det L / nu_+ avoids the cancellation in
    (|a| - |b|)/2.  This is the closed form of two-mode spectra in Delta and
    det Sigma (Serafini, Illuminati & De Siena, J. Phys. B 37, L21 (2004)).
    """
    # Only the lower triangle is read, as np.linalg.cholesky reads it.
    (s00, _, _, _), (s10, s11, _, _), (s20, s21, s22, _), (s30, s31, s32, s33) = rows
    if not (s10 or s20 or s21 or s30 or s31 or s32):
        if min(s00, s11, s22, s33) <= 0.0:
            return None
        nu_a, nu_b = _sqrt_product(s00, s11), _sqrt_product(s22, s33)
        return (nu_a, nu_b) if nu_a <= nu_b else (nu_b, nu_a)
    if not s00 > 0.0:
        return None
    l00 = math.sqrt(s00)
    l10, l20, l30 = s10 / l00, s20 / l00, s30 / l00
    pivot = s11 - l10 * l10
    if not pivot > 0.0:
        return None
    l11 = math.sqrt(pivot)
    l21, l31 = (s21 - l20 * l10) / l11, (s31 - l30 * l10) / l11
    pivot = s22 - (l20 * l20 + l21 * l21)
    if not pivot > 0.0:
        return None
    l22 = math.sqrt(pivot)
    l32 = (s32 - (l30 * l20 + l31 * l21)) / l22
    pivot = s33 - (l30 * l30 + l31 * l31 + l32 * l32)
    if not pivot > 0.0:
        return None
    l33 = math.sqrt(pivot)
    m01 = l00 * l11 + l20 * l31 - l30 * l21
    m02 = l20 * l32 - l30 * l22
    m03 = l20 * l33
    m12 = l21 * l32 - l31 * l22
    m13 = l21 * l33
    m23 = l22 * l33
    nu_plus = 0.5 * (
        math.hypot(m01 + m23, m02 - m13, m03 + m12) + math.hypot(m01 - m23, m02 + m13, m03 - m12)
    )
    # Grouped so that no intermediate leaves the range of the entries.
    return l00 * l11 * (l22 * l33 / nu_plus), nu_plus


def _sqrt_product(x: float, y: float) -> float:
    """sqrt(x y) of positive floats; sqrt(x) sqrt(y) where x y under- or overflows."""
    product = x * y
    if _FLOAT_MIN <= product < math.inf:
        return math.sqrt(product)
    return math.sqrt(x) * math.sqrt(y)


def symplectic_spectrum(sigma) -> np.ndarray:
    """Symplectic eigenvalues of a positive definite matrix, sorted ascending.

    Two modes: closed form from one scalar Cholesky factor, with no
    eigen-solve (:func:`_two_mode_nu`), read once for all the per-state
    calls on the same matrix (:func:`_two_mode_read`).  Other sizes: with
    Sigma = L L^T, the Hermitian matrix L^T (i Omega) L is similar to i Omega Sigma; its
    eigenvalues are the exact pairs +-nu_k, so the nu are read off its
    positive half with one Hermitian eigen-solve and no pairing step.
    Diagonal input of any size is exact, by the two-mode rule:
    nu_i = sqrt(d_{2i} d_{2i+1}), or sqrt(d_{2i}) sqrt(d_{2i+1}) where the
    product is not a normal float.  Raises ValueError unless Sigma is
    positive definite.
    """
    sigma, rows, nu = _two_mode_read(sigma)
    if rows is None:
        return _spectrum(sigma)
    if nu is None:
        raise ValueError(_NOT_POSITIVE_DEFINITE)
    return np.array(nu)


def _spectrum(sigma: np.ndarray) -> np.ndarray:
    """Symplectic spectrum of an already validated matrix, any size, by one eigen-solve.

    Diagonal input takes :func:`_sqrt_product` per mode, as two-mode input does.
    """
    n = sigma.shape[0] // 2
    d = np.diagonal(sigma)
    if np.count_nonzero(sigma) == np.count_nonzero(d):  # diagonal input
        d = d.tolist()
        if min(d) <= 0.0:
            raise ValueError(_NOT_POSITIVE_DEFINITE)
        return np.array(sorted(map(_sqrt_product, d[0::2], d[1::2])))
    try:
        chol = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError(_NOT_POSITIVE_DEFINITE) from None
    # eigvalsh sorts ascending: -nu_N <= ... <= -nu_1 < nu_1 <= ... <= nu_N.
    return np.linalg.eigvalsh(1j * (chol.T @ symplectic_form(n) @ chol))[n:]


def is_bona_fide(sigma, tol: float = BONA_FIDE_TOL) -> bool:
    """True iff Sigma is the covariance matrix of a physical Gaussian state.

    Tests Sigma + i*(1 - tol)*Omega >= 0.  By scaling, this holds exactly
    when Sigma is positive definite and min(nu) >= 1 - tol, which is how
    two-mode input is tested: the scalar Cholesky factor of
    :func:`_two_mode_nu` exists and its nu_- >= 1 - tol, with no
    eigen-solve and from the same read as the other per-state calls on the
    matrix (:func:`_two_mode_read`).  Other sizes take one Hermitian
    eigen-solve of the pencil.
    Raises ValueError unless tol is a finite real number below 1.

    In float64 the verdict is only as good as the rounding of the input
    allows: once that moves nu_min by more than ``tol``, physical states
    are rejected.  For locally squeezed two-mode squeezed vacua this starts
    between r = 3.8 and 3.95, where the largest entries are 4e3 to 1e4; the
    library's energy grids (E <= 40) stay far below that.
    """
    sigma, rows, nu = _two_mode_read(sigma)
    tol = _real("tol", tol)
    if not -math.inf < tol < 1.0:  # also rejects NaN
        raise ValueError(f"tol = {tol} must be finite and below 1")
    if rows is None:
        return _bona_fide(sigma, tol)
    return nu is not None and nu[0] >= 1.0 - tol


def _bona_fide(sigma: np.ndarray, tol: float = BONA_FIDE_TOL) -> bool:
    """Sigma + i*(1 - tol)*Omega >= 0 for an already validated matrix, by one eigen-solve."""
    pencil = sigma + 1j * (1.0 - tol) * symplectic_form(sigma.shape[0] // 2)
    return float(np.linalg.eigvalsh(pencil)[0]) >= 0.0


def purity(sigma) -> float:
    """Global purity mu = 1/sqrt(det Sigma) = prod(1/nu_k); see :func:`_purity`."""
    sigma, _, nu = _two_mode_read(sigma)
    return _purity(sigma, nu)


def _purity(sigma: np.ndarray, nu: tuple[float, float] | None) -> float:
    """1/sqrt(det Sigma) from the two-mode (nu_-, nu_+) if given, else from a log-determinant.

    det Sigma, which overflows for large physical states (1e80 * I, say), is never
    formed.  Raises ValueError unless it is positive and does not under- or overflow.
    """
    if nu is None:
        sign, log_det = np.linalg.slogdet(sigma)
        if not sign > 0.0:
            raise ValueError("determinant must be positive to define a purity")
        nu_prod = math.exp(0.5 * log_det) if log_det < 1419.0 else math.inf  # exp overflow
    else:
        nu_prod = nu[0] * nu[1]
    if not 2.0**-511 <= nu_prod < math.inf:  # det Sigma = nu_prod^2 a normal float or above
        raise ValueError("determinant must be positive and in the float range to define a purity")
    return 1.0 / nu_prod


def energy(sigma) -> float:
    """Mean energy E = tr(Sigma)/2 of the quadratic Hamiltonian (zero displacement).

    E is proportional to the number of excitations.  Unlike the purities and
    the seralian it is not invariant under local symplectic transformations.
    E is summed from the halved diagonal, so it stays right where tr Sigma
    leaves the float range; raises ValueError where E itself does.
    """
    with np.errstate(over="ignore"):
        return _finite_energy(float(np.sum(0.5 * np.diagonal(_two_mode_read(sigma)[0]))))


def _finite_energy(e: float) -> float:
    """``e``; ValueError unless it is finite."""
    if not math.isfinite(e):
        raise ValueError("the energy E = tr(Sigma)/2 leaves the float range")
    return e


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
        """The 4x4 covariance matrix of these parameters, in float64.

        Its determinant 1/mu^2 rests on ab - c_plus^2, which the entries hold
        only to about eps*ab.  The invariants of the matrix therefore match
        the state of the parameters to about 2 eps/(mu_A mu_B) relative:
        within 1e-6 while mu_A mu_B >= 5e-10 (both marginal purities above
        about 2.2e-5), and from mu_A mu_B near 1e-16 the matrix may not be
        positive definite at all.  The fields are read by :func:`_real`;
        ValueError unless they are finite real numbers.
        """
        a, b, c_plus, c_minus = _std_params(self)
        m = np.diag([a, a, b, b])
        m[0, 2] = m[2, 0] = c_plus
        m[1, 3] = m[3, 1] = c_minus
        return m


def _std_params(std: StdForm) -> list[float]:
    """(a, b, c_plus, c_minus) of ``std`` read by :func:`_real`; ValueError unless all are finite."""
    params = [_real(k, v) for k, v in vars(std).items()]
    if not all(map(math.isfinite, params)):
        raise ValueError(f"standard form {params} must be finite")
    return params


def _block_dets(sigma: np.ndarray, rows: list[list[float]] | None) -> list:
    """(det A', k_A, det B', k_B, det C) of a two-mode matrix [[A, C], [C^T, B]], from its rows.

    det A = 4**k_A det A': det A as computed, k_A = 0, where that is a normal float,
    else det(A/2**k_A) with k_A the mean binary exponent of A's diagonal rounded
    down, normal for any positive definite A.  B likewise; det C as computed.  Raises
    ValueError unless the matrix has rows (is two-mode), DomainError unless det A', det B' > 0.
    """
    if rows is None:
        raise ValueError(f"expected a two-mode (4x4) covariance matrix, got {sigma.shape}")
    (a00, a01, c00, c01), (a10, a11, c10, c11), (_, _, b00, b01), (_, _, b10, b11) = rows
    dets = [a00 * a11 - a01 * a10, 0, b00 * b11 - b01 * b10, 0, c00 * c11 - c01 * c10]
    if not (_FLOAT_MIN <= dets[0] < math.inf and _FLOAT_MIN <= dets[2] < math.inf):
        for i, block in ((0, (a00, a01, a10, a11)), (2, (b00, b01, b10, b11))):
            if not _FLOAT_MIN <= dets[i] < math.inf:
                k = int(np.frexp(block[::3])[1].sum()) // 2
                with np.errstate(over="ignore"):  # off-diagonals overflow only where det < 0
                    x00, x01, x10, x11 = np.ldexp(block, -k).tolist()
                if not (det := x00 * x11 - x01 * x10) > 0.0:  # also rejects NaN
                    raise DomainError("diagonal blocks must have positive determinant")
                dets[i : i + 2] = det, k
    return dets


def invariants(sigma, warn_nonphysical: bool = True) -> tuple[InvariantCoords, float]:
    """Invariant coordinates and energy of a two-mode covariance matrix.

    Returns ``(InvariantCoords(mu, mu_a, mu_b, delta), energy)`` with the
    marginal purities 1/sqrt(det A) and 1/sqrt(det B) of the diagonal
    blocks (each read at its own scale by :func:`_block_dets`), the seralian
    delta = det A + det B + 2 det C = nu_1^2 + nu_2^2 and energy = tr(Sigma)/2.
    The global purity mu = 1/(nu_- nu_+) and the physicality verdict come
    from the scalar Cholesky factor of :func:`_two_mode_nu`, with no
    eigen-solve and from the same read as the other per-state calls on the
    matrix (:func:`_two_mode_read`); only input that is not positive
    definite takes mu = 1/sqrt(det Sigma) from a log-determinant.
    Input that is not a physical state, positive definite or not, is
    flagged with NonPhysicalWarning by the test of :func:`is_bona_fide`
    but the invariants are still returned, which is needed when probing the
    boundary of the physical region.  Raises DomainError for a block with
    non-positive determinant and where the seralian or a marginal purity
    leaves the float range, ValueError where mu or the energy is undefined or does.
    """
    sigma, rows, nu = _two_mode_read(sigma)
    det_a, k_a, det_b, k_b, det_c = _block_dets(sigma, rows)
    mu, mu_a, mu_b = _purity(sigma, nu), 1.0 / math.sqrt(det_a), 1.0 / math.sqrt(det_b)
    e = _finite_energy(0.5 * rows[0][0] + 0.5 * rows[1][1] + 0.5 * rows[2][2] + 0.5 * rows[3][3])
    if k_a or k_b:  # det A = 4**k_A det A' and mu_A = 2**-k_A/sqrt(det A')
        with np.errstate(over="ignore"):
            scaled = np.ldexp([mu_a, mu_b, det_a, det_b], [-k_a, -k_b, 2 * k_a, 2 * k_b])
        mu_a, mu_b, det_a, det_b = scaled.tolist()
    delta = det_a + det_b + 2.0 * det_c
    if not (math.isfinite(delta) and mu_a < math.inf and mu_b < math.inf):
        raise DomainError(f"mu_a = {mu_a}, mu_b = {mu_b} or delta = {delta} leaves the float range")
    # The record is filled with one __dict__ write: the generated __init__ of
    # a frozen dataclass sets each field through object.__setattr__, and took
    # 0.9 us against 0.4 us for this write.  Equality, hash, repr and the
    # frozen assignment check are those of InvariantCoords(...).
    coords = object.__new__(InvariantCoords)
    coords.__dict__.update(mu=mu, mu_a=mu_a, mu_b=mu_b, delta=delta)
    if warn_nonphysical and not (nu is not None and nu[0] >= 1.0 - BONA_FIDE_TOL):
        warnings.warn(
            "matrix is not a physical state (Sigma + i*Omega is not positive semidefinite)",
            NonPhysicalWarning,
            stacklevel=2,
        )
    return coords, e


def _unit_sqrt_inverse(block: np.ndarray, scale: float) -> np.ndarray:
    """Inverse of the square root of the unit-determinant 2x2 matrix M = block/scale.

    For symmetric positive M with det M = 1, sqrt(M) = (M + I)/sqrt(tr M + 2),
    and the inverse of that unit-determinant matrix is its adjugate.
    Raises DomainError unless M is positive definite.
    """
    m = block / scale
    tr = m[0, 0] + m[1, 1]
    if not tr > 0.0:
        raise DomainError("diagonal blocks must be positive definite")
    return np.array([[m[1, 1] + 1.0, -m[0, 1]], [-m[1, 0], m[0, 0] + 1.0]]) / np.sqrt(tr + 2.0)


def standard_form(sigma) -> StdForm:
    """Reduce a two-mode covariance matrix to its standard form.

    a and b are fixed by the marginal purities.  A diagonal block is
    A = a S_A^T S_A with S_A = O_A P_A, O_A a rotation and P_A the
    unit-determinant square root of A/a, so the normalised off-diagonal
    block P_A^-1 C P_B^-1 = O_A^T diag(c+, c-) O_B has the singular values
    c+ >= |c-|, and det C carries the sign of c-.  No step subtracts
    nearly equal terms, so states on the edge c+ = |c-| (pure states among
    them) keep it to rounding.  The result is invariant under local
    symplectic conjugation of the input.  Raises DomainError unless both
    diagonal blocks are positive definite.  Read by :func:`_two_mode_read`.

    The form is homogeneous of degree one: a = 2**k_A sqrt(det A') and b likewise
    (:func:`_block_dets`), and c+, c- and the sign of det C come from C/2**k_C with
    k_C = (k_A + k_B)//2, all k being 0 where det A and det B are normal floats.
    Raises DomainError naming the float range where a field is not finite (a, b: not normal).
    """
    sigma, rows, _ = _two_mode_read(sigma)
    det_a, k_a, det_b, k_b, _ = _block_dets(sigma, rows)
    a, b, k_c = math.sqrt(det_a), math.sqrt(det_b), (k_a + k_b) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        unit = np.ldexp(sigma, [[-k_a, -k_a, -k_c, -k_c]] * 2 + [[-k_c, -k_c, -k_b, -k_b]] * 2)
        (n00, n01), (n10, n11) = (
            _unit_sqrt_inverse(unit[:2, :2], a) @ unit[:2, 2:] @ _unit_sqrt_inverse(unit[2:, 2:], b)
        ).tolist()
        # The singular values of a 2x2 matrix are (q + r)/2 and |q - r|/2.
        q = np.hypot(n00 + n11, n01 - n10)
        r = np.hypot(n00 - n11, n01 + n10)
        c_minus = np.copysign(0.5 * abs(q - r), unit[0, 2] * unit[1, 3] - unit[0, 3] * unit[1, 2])
        fields = np.ldexp([a, b, 0.5 * (q + r), c_minus], [k_a, k_b, k_c, k_c])
    if not (np.isfinite(fields).all() and min(fields[0], fields[1]) >= _FLOAT_MIN):
        raise DomainError(f"standard form {fields.tolist()} leaves the float range")
    return StdForm(*fields.tolist())


def _require_purities(mu, mu_a, mu_b):
    """(mu, mu_a, mu_b); DomainError unless each lies in [2**-511, 1] (to 1e-9).

    By role, not by type: mu by :func:`_real` into a Python float, the marginals
    by :func:`_real_array` into float64 arrays, so that a point and a batch share
    the arithmetic.  Scalar entry points read their marginals by :func:`_real` first.
    """
    values = [_real("mu", mu), _real_array("mu_a", mu_a), _real_array("mu_b", mu_b)]
    for name, val in zip(("mu", "mu_a", "mu_b"), values):
        ok = (val >= _MU_MIN) & (val <= 1.0 + 1e-9)  # False for NaN
        if not np.all(ok):
            value = np.asarray(val)[np.logical_not(ok)].flat[0]
            why = "must lie in (0, 1]"
            if 0.0 < value < 1.0:
                why = f"is below {_MU_MIN:.3g}: 1/{name}^2 leaves the float range"
            raise DomainError(f"{name} = {value} {why}")
    return values


def _seralian_edges(mu, a, b):
    """Seralian edges 2/mu + (a - b)^2 and (a + b)^2 - 2/mu of the standard form.

    a = 1/mu_A and b = 1/mu_B; elementwise on arrays.  A real standard form
    exists between the two edges, and c+^2 = c-^2 on both.  a + b is capped
    at the largest float whose square is finite, which it reaches only at
    purities next to 2**-511; the upper edge then stays finite and, like its
    exact value, above 1 + 1/mu^2.  Below the cap both edges are the
    formulas above.
    """
    return 2.0 / mu + (a - b) ** 2, np.minimum(a + b, _SQUARE_MAX) ** 2 - 2.0 / mu


def _seralian_interval(mu, mu_a, mu_b):
    """(mu, a, b, lower, upper): the one physical seralian interval at (mu, mu_A, mu_B).

    The purities are read once (:func:`_require_purities`), mu is capped at 1,
    and a = 1/mu_A, b = 1/mu_B are float64 arrays, so that scalar and batched
    callers share the arithmetic.  The upper end is capped at 1 + 1/mu^2, the
    seralian at nu_- = 1; lower > upper where no physical state exists.
    """
    mu, mu_a, mu_b = _require_purities(mu, mu_a, mu_b)
    mu = min(mu, 1.0)
    a, b = 1.0 / np.atleast_1d(mu_a), 1.0 / np.atleast_1d(mu_b)
    lower, upper = _seralian_edges(mu, a, b)
    return mu, a, b, lower, np.minimum(upper, 1.0 + 1.0 / mu**2)


def _std_form_c(mu, a, b, delta):
    """(c+, c-) of the standard form (a, b) at purity mu and a seralian between the edges.

    Elementwise.  With p = c+ c- = (delta - a^2 - b^2)/2, ab - |p| - 1/mu is half the
    distance from delta to the nearer edge, so gap = c+^2 + c-^2 - 2|p| =
    (ab - |p| - 1/mu)(ab - |p| + 1/mu)/ab and (c+^2 - c-^2)^2 = gap (gap + 4|p|)
    have no cancellation and vanish on an edge, where c+ = |c-| to rounding.
    Every element takes gap = half ((half + 2/mu)/ab) and the root as
    2 sqrt(gap) sqrt(gap/4 + |p|), whose factors stay finite also where ab or
    |p| is near the top of the float range (purities near 2**-511 or a wide
    seralian interval).
    """
    lo, hi = _seralian_edges(mu, a, b)
    p = 0.5 * (delta - a * a - b * b)
    half = 0.5 * np.maximum(np.minimum(delta - lo, hi - delta), 0.0)
    abs_p = np.abs(p)
    gap = half * ((half + 2.0 / mu) / (a * b))
    root = 2.0 * np.sqrt(gap) * np.sqrt(0.25 * gap + abs_p)
    c_plus = np.sqrt(0.5 * (2.0 * abs_p + gap + root))
    return c_plus, p / np.where(c_plus > 0.0, c_plus, 1.0)


def cm_from_invariants(coords: InvariantCoords) -> StdForm:
    """Reconstruct the standard form from invariant coordinates.

    Inverts the map behind :func:`invariants`: a = 1/mu_a, b = 1/mu_b,
    c+ c- = (delta - a^2 - b^2)/2 and c+^2 + c-^2 fixed by det Sigma = 1/mu^2.
    Each coordinate is one real number (ValueError otherwise).  Raises
    DomainError when a purity lies outside [2**-511, 1], the range in which
    its inverse square stays finite, and when the coordinates admit no
    physical state: when delta lies outside the closed-form
    seralian interval of the purities by more than a relative 1e-9, or when
    the reconstructed matrix would not be positive definite.  The interval
    is the one :func:`~gaussgeom.correlations.delta_bounds` returns, bit for
    bit; on its edges 2/mu + (a - b)^2 and (a + b)^2 - 2/mu c+ = |c-|.
    The parameters are accurate to rounding for marginal purities down to
    2**-511 and are returned without an error there, but their float64
    :meth:`StdForm.matrix` holds the state to 1e-6 only while
    mu_A mu_B >= 5e-10.
    """
    mu_a, mu_b = _real("mu_a", coords.mu_a), _real("mu_b", coords.mu_b)
    mu, a, b, lo, top = _seralian_interval(coords.mu, mu_a, mu_b)
    delta = _real("delta", coords.delta)
    slack = 1e-9
    lo, top = float(lo[0]), float(top[0])
    if not delta >= lo * (1.0 - slack):  # also rejects NaN
        raise DomainError(f"delta = {delta} below the minimum 2/mu + (1/mu_a - 1/mu_b)^2 = {lo}")
    if not delta <= top * (1.0 + slack):
        raise DomainError(
            f"delta = {delta} above the maximum min((1/mu_a + 1/mu_b)^2 - 2/mu, 1 + 1/mu^2) = {top}"
        )
    c_plus, c_minus = (float(c[0]) for c in _std_form_c(mu, a, b, delta))
    a, b = float(a[0]), float(b[0])
    if c_plus * c_plus > a * b * (1.0 + 1e-12):
        raise DomainError("reconstructed matrix would not be positive definite")
    return StdForm(a=a, b=b, c_plus=c_plus, c_minus=c_minus)


# ---------------------------------------------------------------------------
# State constructors and random sampling helpers


def vacuum(n_modes: int) -> np.ndarray:
    """Covariance matrix of the N-mode vacuum (identity)."""
    return np.eye(2 * _integer("n_modes", n_modes, 1))


def thermal(nus) -> np.ndarray:
    """Product of thermal states with symplectic eigenvalues ``nus``.

    Raises ValueError unless the eigenvalues are finite real numbers (see
    :func:`_real_array`) in a non-empty sequence of at most one dimension; a
    scalar is one mode.  Finite values below 1, which give no state, are
    accepted.
    """
    nus = _real_array("nus", nus)
    if nus.ndim > 1 or nus.size == 0:
        raise ValueError(f"nus must be a non-empty 1D sequence, got shape {nus.shape}")
    if not np.isfinite(nus).all():
        raise ValueError("symplectic eigenvalues must be finite")
    return np.diag(np.repeat(nus, 2))


#: Largest |r| whose cosh(2r) and sinh(2r) lie in the float range (about 355.24).
_SQUEEZING_MAX = math.acosh(sys.float_info.max) / 2.0


def two_mode_squeezed(r: float) -> np.ndarray:
    """Two-mode squeezed vacuum with squeezing parameter r.

    Standard form a = b = cosh(2r), c_plus = -c_minus = sinh(2r); the state
    is pure with log-negativity 2r/ln 2.  Raises ValueError unless r is a
    real number, and DomainError unless it is finite with |r| at most
    ``_SQUEEZING_MAX``.
    """
    r = _real("r", r)
    if not abs(r) <= _SQUEEZING_MAX:  # also rejects NaN
        raise DomainError(
            f"squeezing parameter r = {r} must be finite with |r| at most "
            f"{_SQUEEZING_MAX:.8g}: cosh(2r) leaves the float range"
        )
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    return StdForm(ch, ch, sh, -sh).matrix()


def random_symplectic(n_modes: int, rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Random symplectic matrix exp(Omega @ H) with H symmetric Gaussian.

    ``scale`` sets the standard deviation of H and thereby the typical
    amount of squeezing.  The matrix exponential is scipy's; scipy is
    loaded on the first call, not on import, so only the random-state
    constructors pay for it.  Raises ValueError for a non-finite ``scale``
    or an ``rng`` that is not a numpy.random.Generator, and DomainError
    where the matrix leaves the float range, as a scale of a few hundred
    or more can make it.
    """
    n_modes, scale = _integer("n_modes", n_modes, 1), _real("scale", scale)
    rng = _random_generator(rng)
    if not math.isfinite(scale):
        raise ValueError(f"scale = {scale} must be finite")
    from scipy.linalg import expm

    n = 2 * n_modes
    h = rng.normal(scale=scale, size=(n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        h = 0.5 * (h + h.T)
        s = expm(symplectic_form(n_modes) @ h)
    return _in_float_range(s, f"the random symplectic matrix at scale = {scale}")


def _in_float_range(m: np.ndarray, what: str) -> np.ndarray:
    """``m``; DomainError, naming ``what``, unless every entry is finite."""
    if not np.isfinite(m).all():
        raise DomainError(f"{what} leaves the float range")
    return m


def random_local_symplectic(rng: np.random.Generator, scale: float = 0.5) -> np.ndarray:
    """Random S_A + S_B direct sum acting locally on a two-mode state.

    Raises ValueError and DomainError where :func:`random_symplectic` does.
    """
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
    """Random bona fide covariance matrix S^T D S with nu ~ U[1, nu_max].

    Raises ValueError unless ``nu_max`` is finite and at least 1, for a
    non-finite ``scale`` and for an ``rng`` that is not a
    numpy.random.Generator; DomainError where S or the matrix leaves the
    float range (see :func:`random_symplectic`).
    """
    n_modes, nu_max = _integer("n_modes", n_modes, 1), _real("nu_max", nu_max)
    if not 1.0 <= nu_max < math.inf:  # also rejects NaN
        raise ValueError(f"nu_max = {nu_max} must be finite and at least 1")
    nu = _random_generator(rng).uniform(1.0, nu_max, size=n_modes)
    s = random_symplectic(n_modes, rng, scale)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = s.T @ thermal(nu) @ s
    return _in_float_range(sigma, f"the random covariance matrix at scale = {scale}")


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
