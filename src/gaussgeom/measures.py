"""Invariant measure densities over symplectic spectra and metric line elements.

Three invariant measures on mixed Gaussian states are supported through
their eigenvalue densities: the one induced by the Hilbert-Schmidt metric,
the Fisher-Rao one, and the measure obtained by reducing Haar-random pure
states on twice the mode number.  Overall normalization constants are
dropped; only the shapes and ratios of the densities are meaningful here.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass

import numpy as np

from .core import _MU_MIN, DomainError, InvariantCoords, StdForm, _real, _real_array, validate_covmat

__all__ = [
    "MeasureKind",
    "HILBERT_SCHMIDT",
    "FISHER_RAO",
    "REDUCED_PURE",
    "fixed_purity",
    "density_hs",
    "density_fr",
    "density_reduced_pure",
    "density",
    "density_ratio",
    "line_element_hs",
    "line_element_fr",
    "numeric_metric_density",
    "hs_density_invariant_coords",
    "hs_density_std_form",
    "numeric_std_form_density",
]

_SPECTRUM_TOL = 1e-9

#: 40-digit decimal arithmetic whose exponent range holds every density
#: here, so that only the final rounding to a float meets the float range.
_WIDE = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


#: Exponent of prod(nu_k) in the eigenvalue density of each kind on N modes;
#: every density is this power times the repulsion factor (and, for the
#: fixed-purity kind, the shell factor of :func:`_off_shell`).
_PROD_EXPONENTS = {
    "hilbert-schmidt": lambda n: -n * (n + 2.5) + 1.0,
    "fisher-rao": lambda n: -2.0 * n + 1.0,
    "reduced-pure": lambda n: 2.0,
    "fixed-purity": lambda n: 0.0,
}


@dataclass(frozen=True)
class MeasureKind:
    """Tag selecting one of the invariant measures.

    ``mu`` is only set for the fixed-purity measure, whose eigenvalue
    density is supported on the shell prod(1/nu_k) = mu.  Raises
    ValueError for an unknown tag, a ``mu`` with any other tag, and a
    fixed-purity ``mu`` that is not a real number in (0, 1], kept as a float.
    """

    tag: str
    mu: float | None = None

    def __post_init__(self):
        if self.tag not in _PROD_EXPONENTS:
            raise ValueError(f"unknown measure kind {self.tag!r}")
        if self.tag == "fixed-purity":
            mu = math.nan if self.mu is None else _real("mu", self.mu)
            if not 0.0 < mu <= 1.0:  # also rejects NaN
                raise ValueError(f"mu = {self.mu} must lie in (0, 1]")
            self.__dict__["mu"] = mu
        elif self.mu is not None:
            raise ValueError(f"mu = {self.mu!r} is only set for the fixed-purity kind")


HILBERT_SCHMIDT = MeasureKind("hilbert-schmidt")
FISHER_RAO = MeasureKind("fisher-rao")
REDUCED_PURE = MeasureKind("reduced-pure")


def fixed_purity(mu: float) -> MeasureKind:
    """Fixed-purity measure on the shell of global purity ``mu``."""
    return MeasureKind("fixed-purity", mu=mu)


def _spectrum(nu) -> list[float]:
    """The validated spectrum as Python floats: non-empty, 1D, every nu >= 1 (up to rounding).

    Every input kind (list, tuple, array, scalar) takes one read by
    :func:`~gaussgeom.core._real_array`, which raises ValueError for bool,
    string and other non-real input, and its ``tolist``, then one ``min``
    and one NaN test.
    ``min`` passes over a NaN that is not first, so the test is on the sum,
    which any NaN makes NaN; the one other NaN sum, inf + -inf, has a -inf
    that ``min`` returns (or a NaN first), and that fails already.
    """
    nu = _real_array("nu", nu).tolist()
    if not isinstance(nu, list):  # a 0-d array
        nu = [nu]
    elif not nu or isinstance(nu[0], list):
        raise ValueError("spectrum must be a non-empty 1D sequence")
    lowest = min(nu)
    if not lowest >= 1.0 - _SPECTRUM_TOL or math.isnan(sum(nu)):  # also rejects NaN
        if any(map(math.isnan, nu)):
            lowest = math.nan
        raise ValueError(f"symplectic eigenvalues must be >= 1, got min {lowest}")
    return nu


def _finite_spectrum(nu) -> list[float]:
    """:func:`_spectrum` with every eigenvalue finite; no density has a value at inf."""
    nu = _spectrum(nu)
    if math.inf in nu:
        raise ValueError("symplectic eigenvalues must be finite")
    return nu


def _pow(base: float, exponent: float) -> float:
    """base**exponent for base >= 0 on Python floats; inf where it overflows, as in numpy."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def _off_shell(kind: MeasureKind, nu: list[float]) -> bool:
    """True iff ``kind`` is the fixed-purity measure and nu lies off its shell."""
    return kind.tag == "fixed-purity" and abs(math.prod([1.0 / v for v in nu]) - kind.mu) > 1e-9


def density_hs(nu) -> float:
    """Hilbert-Schmidt eigenvalue density (up to a constant).

    (prod nu_k)^(-N(N+5/2)+1) * prod_{l>m} (nu_l^2 - nu_m^2)^2.
    """
    return density(HILBERT_SCHMIDT, nu)


def density_fr(nu) -> float:
    """Fisher-Rao eigenvalue density: (prod nu_k)^(-2N+1) * repulsion."""
    return density(FISHER_RAO, nu)


def density_reduced_pure(nu) -> float:
    """Density from reduced Haar-random pure states: (prod nu_k)^2 * repulsion.

    The exponent 2 on the product is independent of the mode number.
    """
    return density(REDUCED_PURE, nu)


def density(kind: MeasureKind, nu) -> float:
    """Evaluate the eigenvalue density of the given measure kind.

    For the fixed-purity kind the value is the repulsion factor on the
    purity shell and zero off the shell (the delta factor cannot be
    evaluated pointwise).  The value comes from :func:`_decimal_density`:
    it is 0.0 or inf only where the true value lies outside the float
    range, and never NaN.  Raises ValueError for an infinite eigenvalue,
    where the density has no value.
    """
    nu = _finite_spectrum(nu)
    if _off_shell(kind, nu):
        return 0.0
    return _decimal_density(nu, _PROD_EXPONENTS[kind.tag](len(nu)))


def _decimal_density(nu: list[float], exponent: float) -> float:
    """(prod nu_k)^exponent times the repulsion factor, rounded once to a float.

    Taken in 40-digit decimal arithmetic, whose exponent range holds every
    such value, so only the final rounding meets the float range: 0.0 below
    it, inf above it, and the correctly rounded value inside it (subnormals
    included).  Each factor of the repulsion is formed as
    ((nu_l - nu_m)(nu_l + nu_m))^2.
    """
    with decimal.localcontext(_WIDE):
        d = [decimal.Decimal(v) for v in nu]
        value = math.prod(d) ** decimal.Decimal(exponent)
        for l in range(len(d)):
            for m in range(l):
                value *= ((d[l] - d[m]) * (d[l] + d[m])) ** 2
        return float(value)


def density_ratio(kind_a: MeasureKind, kind_b: MeasureKind, nu) -> float:
    """Ratio of two eigenvalue densities at the same spectrum.

    The repulsion factors cancel, so the ratio is a power of prod(nu_k);
    in particular HS over FR equals (prod nu_k)^(-N^2 - N/2).  Raises
    ValueError when the denominator density vanishes: at a degenerate
    spectrum, one with two equal eigenvalues (except for equal kinds), or
    off the shell of a fixed-purity denominator.  Off the shell of a
    fixed-purity numerator the ratio is 0.
    Lists, tuples and arrays take the one validation of :func:`_spectrum`,
    equal kinds too, and the exponents are selected by the kinds' tags.
    """
    nu = _spectrum(nu)
    if kind_a.tag == kind_b.tag and kind_a.mu == kind_b.mu:
        return 1.0
    n = len(nu)
    exponent = _PROD_EXPONENTS[kind_a.tag](n) - _PROD_EXPONENTS[kind_b.tag](n)
    # The repulsion factor of the denominator is 0 exactly at an equal pair.
    if _off_shell(kind_b, nu) or len(set(nu)) < n:
        raise ValueError("density ratio undefined: denominator density vanishes")
    if _off_shell(kind_a, nu):
        return 0.0
    return _pow(math.prod(nu), exponent)


# ---------------------------------------------------------------------------
# Metric line elements


def _sym_pair(sigma, d_sigma) -> tuple[np.ndarray, np.ndarray, float]:
    """The validated sigma and d_sigma, and ln det sigma; det sigma must be positive."""
    sigma = validate_covmat(sigma)
    d_sigma = np.asarray(d_sigma, dtype=float)
    if d_sigma.shape != sigma.shape:
        raise ValueError("d_sigma must have the same shape as sigma")
    if not np.isfinite(d_sigma).all():
        raise ValueError("d_sigma has non-finite entries")
    # Scaled by its largest entry, d_sigma - d_sigma^T stays in the float range.
    unit = d_sigma / max(1.0, float(np.abs(d_sigma).max()))
    if float(np.abs(unit - unit.T).max()) > 1e-10:
        raise ValueError("d_sigma must be symmetric")
    # The log-determinant stays in range where det sigma itself overflows or
    # underflows; a singular sigma has sign 0.
    sign, log_det = np.linalg.slogdet(sigma)
    if not sign > 0.0:
        raise ValueError("sigma must have positive determinant")
    return sigma, d_sigma, float(log_det)


def _traces(sigma: np.ndarray, d_sigma: np.ndarray) -> tuple[decimal.Decimal, decimal.Decimal]:
    """(tr x, tr x^2) of x = sigma^-1 d_sigma, as decimals in the current context.

    x = 2**k y with y's entries below 1 in size, so that y @ y stays in the
    float range.  Raises ValueError where x itself leaves it.
    """
    x = np.linalg.solve(sigma, d_sigma)
    if not np.isfinite(x).all():
        raise ValueError("ds^2 leaves the float range")
    k = math.frexp(float(np.abs(x).max()))[1]
    y = np.ldexp(x, -k)
    tr1, tr2 = map(decimal.Decimal, (float(np.trace(y)), float(np.trace(y @ y))))
    scale = decimal.Decimal(2) ** k
    return tr1 * scale, tr2 * scale * scale


def _ds2(value: decimal.Decimal) -> float:
    """``value`` rounded once to a float: 0.0 below the float range, ValueError above it."""
    out = float(value)
    if out == math.inf:
        raise ValueError("ds^2 leaves the float range")
    return out


def line_element_hs(sigma, d_sigma) -> float:
    """Squared Hilbert-Schmidt length of the displacement d_sigma at sigma.

    ds^2 = ((tr(Sigma^-1 dSigma))^2 + 2 tr((Sigma^-1 dSigma)^2)) / (16 sqrt(det Sigma)).

    The traces and 1/sqrt(det Sigma) = exp(-ln det Sigma / 2) are combined in
    40 digits and rounded once (:func:`_ds2`), so ds^2 is right wherever it
    is in the float range, whatever det Sigma is.
    """
    sigma, d_sigma, log_det = _sym_pair(sigma, d_sigma)
    with decimal.localcontext(_WIDE):
        tr1, tr2 = _traces(sigma, d_sigma)
        return _ds2((tr1 * tr1 + 2 * tr2) / 16 * (decimal.Decimal(log_det) / -2).exp())


def line_element_fr(sigma, d_sigma) -> float:
    """Squared Fisher-Rao length: tr((Sigma^-1 dSigma)^2) / 2.

    Rounded once from 40 digits, as :func:`line_element_hs` is.
    """
    sigma, d_sigma, _ = _sym_pair(sigma, d_sigma)
    with decimal.localcontext(_WIDE):
        return _ds2(_traces(sigma, d_sigma)[1] / 2)


# ---------------------------------------------------------------------------
# Numerical validation of the eigenvalue densities


def _generator(n: int, block: str, i: int, j: int) -> np.ndarray:
    """Elementary generator of sp(2N) on ``n`` modes, in the (q1, p1, ..., qN, pN) ordering.

    In 2x2 blocks [[X_ij, Y_ij], [Z_ij, -X_ji]] a matrix H lies in sp(2N),
    H^T Omega + Omega H = 0, exactly when Y and Z are symmetric.  ``block``
    "x" gives the unit X_ij (with its -X_ji entry), "y" the unit
    Y_ij = Y_ji and "z" the unit Z_ij = Z_ji.  X_ij, Y_{i<=j} and Z_{i<j}
    are the 2N^2 group directions of :func:`numeric_metric_density`: at a
    Williamson point Z_ii moves Sigma as Y_ii does, since their difference
    generates the rotation of mode i, which leaves the point fixed.
    """
    h = np.zeros((2 * n, 2 * n))
    if block == "x":
        h[2 * i, 2 * j] = 1.0
        h[2 * j + 1, 2 * i + 1] = -1.0
    elif block == "y":
        h[2 * i, 2 * j + 1] = h[2 * j, 2 * i + 1] = 1.0
    else:
        h[2 * i + 1, 2 * j] = h[2 * j + 1, 2 * i] = 1.0
    return h


def _group_tangent(base: np.ndarray, gen: np.ndarray) -> np.ndarray:
    """d/dt of S(t)^T Sigma S(t) at t = 0 for S(t) = exp(t G): G^T Sigma + Sigma G."""
    return gen.T @ base + base @ gen


def _gram_sqrt_det(base: np.ndarray, tangents: list[np.ndarray], quad) -> float:
    """sqrt(det g) of a quadratic form via the polarization identity, rounded once to a float.

    The Gram matrix g' is taken of the tangents t_i / 2**e_i, with entries
    below 1 in size, so the polarization mixes tangents of one size; then
    sqrt(det g) = exp(ln det g' / 2) * 2**sum(e_i) in 40 digits: 0.0 below the
    float range, inf above it, and 0.0 where g is singular.
    """
    exponents = [math.frexp(float(np.abs(t).max()))[1] for t in tangents]
    units = [np.ldexp(t, -e) for t, e in zip(tangents, exponents)]
    k = len(units)
    g = np.empty((k, k))
    for i in range(k):
        g[i, i] = quad(base, units[i])
        for j in range(i):
            plus = quad(base, units[i] + units[j])
            minus = quad(base, units[i] - units[j])
            g[i, j] = g[j, i] = 0.25 * (plus - minus)
    sign, log_det = np.linalg.slogdet(g)
    if not sign > 0.0:
        return 0.0
    with decimal.localcontext(_WIDE):
        root = (decimal.Decimal(float(log_det)) / 2).exp()
        return float(root * decimal.Decimal(2) ** sum(exponents))


def numeric_metric_density(nu, kind: MeasureKind) -> float:
    """Numerically computed sqrt(det g) over the N + 2N^2 coordinate directions.

    The coordinates are the N symplectic eigenvalues and the group
    directions of :func:`_generator`.  The tangent vectors are exact: along
    Sigma(t) = S(t)^T D(t) S(t) with S(t) = exp(t H) and
    D = diag(nu_1, nu_1, ..., nu_N, nu_N), the derivative at t = 0 is
    dD + H^T D + D H.  The metric comes from the line elements alone, so
    this validates the closed-form densities without re-deriving them: for
    a fixed mode number the ratio to :func:`density_hs` or
    :func:`density_fr` is constant over spectra, also where det g leaves
    the float range (see :func:`_gram_sqrt_det`).  A degenerate spectrum
    gives a singular metric and the value 0.
    """
    nu = np.array(_finite_spectrum(nu))
    n = nu.size
    if n > 3:
        raise ValueError("numeric metric density supports at most 3 modes")
    if kind.tag == "hilbert-schmidt":
        quad = line_element_hs
    elif kind.tag == "fisher-rao":
        quad = line_element_fr
    else:
        raise ValueError(f"no line element available for measure kind {kind.tag!r}")
    base = np.diag(np.repeat(nu, 2))
    gens = [_generator(n, "x", i, j) for i in range(n) for j in range(n)]
    gens += [_generator(n, "y", i, j) for i in range(n) for j in range(i, n)]
    gens += [_generator(n, "z", i, j) for i in range(n) for j in range(i + 1, n)]
    tangents = [np.diag(np.repeat(e, 2)) for e in np.eye(n)]
    tangents += [_group_tangent(base, gen) for gen in gens]
    return _gram_sqrt_det(base, tangents, quad)


# ---------------------------------------------------------------------------
# Two-mode volume densities in standard-form and invariant coordinates


def hs_density_invariant_coords(coords: InvariantCoords) -> float:
    """Hilbert-Schmidt volume density in (mu_A, mu_B, mu, Delta) coordinates.

    sqrt(3)/512 * mu^7 / (mu_A^3 mu_B^3); the local-group directions have
    been separated off and Delta does not appear.  Raises DomainError for
    purities outside [2**-511, 1], except a global purity mu = 0, where the
    density is its limit 0, and where the value leaves the float range.
    """
    mus = (_real("mu", coords.mu), _real("mu_a", coords.mu_a), _real("mu_b", coords.mu_b))
    in_range = [_MU_MIN <= m <= 1.0 for m in mus]  # False for NaN
    if not ((in_range[0] or mus[0] == 0.0) and in_range[1] and in_range[2]):
        raise DomainError(f"purities (mu, mu_A, mu_B) = {mus} must lie in [2**-511, 1]")
    with decimal.localcontext(_WIDE):
        mu, mu_a, mu_b = map(decimal.Decimal, mus)
        return _to_float(decimal.Decimal(3).sqrt() / 512 * mu**7 / (mu_a * mu_b) ** 3)


def hs_density_std_form(std: StdForm) -> float:
    """Closed-form HS volume density in (a, b, c+, c-) coordinates, up to a constant.

    a^2 b^2 (c+^2 - c-^2) / |c+^2 - ab|^5 / |c-^2 - ab|^5, nonnegative under
    the c+ >= |c-| convention for physical states (where c^2 < ab).  Raises
    DomainError unless the parameters are finite with a > 0, c+ >= |c-| and
    c+^2 < ab (a positive definite matrix), and where the value leaves the
    float range.
    """
    params = tuple(map(_real, ("a", "b", "c+", "c-"), (std.a, std.b, std.c_plus, std.c_minus)))
    if not all(map(math.isfinite, params)):
        raise DomainError(f"standard form {params} must be finite")
    with decimal.localcontext(_WIDE):
        a, b, c_plus, c_minus = map(decimal.Decimal, params)
        ab = a * b
        if not (a > 0 and c_plus >= abs(c_minus) and c_plus * c_plus < ab):
            raise DomainError(f"standard form {params} needs a > 0, c+ >= |c-| and c+^2 < ab")
        num = ab * ab * (c_plus - c_minus) * (c_plus + c_minus)
        return _to_float(num / ((ab - c_plus * c_plus) * (ab - c_minus * c_minus)) ** 5)


def _to_float(value: decimal.Decimal) -> float:
    """``value`` rounded to a float; DomainError where a nonzero value leaves the float range."""
    out = float(value)
    if value and not 0.0 < abs(out) < math.inf:
        raise DomainError(f"the density {value:.6e} leaves the float range")
    return out


#: The local symplectic algebra sp(2) + sp(2) on two modes: X, Y and Z of each mode.
_LOCAL_GENERATORS = [_generator(2, b, k, k) for k in range(2) for b in "xyz"]


def numeric_std_form_density(std: StdForm) -> float:
    """Numeric sqrt(det g) of the HS metric in standard-form coordinates.

    The ten coordinates are (a, b, c+, c-) plus the six local symplectic
    group directions around the identity, with exact tangent vectors: the
    matrix is linear in (a, b, c+, c-), and a local generator G moves it by
    G^T Sigma + Sigma G.  Proportional to :func:`hs_density_std_form` with
    a spectrum-independent constant, at every scale of the standard form
    (see :func:`_gram_sqrt_det`).
    """
    base = std.matrix()
    tangents = [StdForm(*unit).matrix() for unit in np.eye(4)]
    tangents += [_group_tangent(base, gen) for gen in _LOCAL_GENERATORS]
    return _gram_sqrt_det(base, tangents, line_element_hs)
