"""Entanglement and steering of two-mode Gaussian states.

Everything here works on the local-symplectic invariants (mu, mu_A, mu_B,
Delta); matrix-level operations are limited to the partial transpose, which
serves as the independent oracle for the invariant formulas.  The allowed
seralian interval at fixed purities and the averages of E_N over it are
closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DomainError,
    InvariantCoords,
    _real,
    _require_purities,
    _seralian_interval,
    _two_mode_read,
)

__all__ = [
    "PptSpectrum",
    "RegionClass",
    "partial_transpose",
    "ppt_spectrum",
    "log_negativity",
    "steerability",
    "steerability_a_to_b",
    "steerability_b_to_a",
    "delta_threshold",
    "delta_bounds",
    "delta_bounds_batch",
    "logneg_average",
    "classify_region",
]

_LN2 = float(np.log(2.0))

#: 2/mu_A^2 + 2/mu_B^2 is twice 1/mu_A^2 + 1/mu_B^2, which is at most 2**1023
#: for purities in range; the doubling leaves the float range only above this
#: value, where both purities lie within an ulp of 2**-511.
_HALF_MAX = float(np.nextafter(2.0**1023, 0.0))  # twice this is the largest float

#: Momentum inversion of the second mode.
_PT = np.diag([1.0, 1.0, 1.0, -1.0])


@dataclass(frozen=True)
class PptSpectrum:
    """Symplectic spectrum (nu~_-, nu~_+) after partial transposition.

    nu~_- < 1 signals entanglement; the product nu~_+ nu~_- equals 1/mu.
    """

    nu_tilde_minus: float
    nu_tilde_plus: float

    def __post_init__(self):
        self.__dict__.update({name: _real(name, value) for name, value in vars(self).items()})
        if not self.nu_tilde_minus > 0.0:
            raise ValueError("nu_tilde_minus must be positive")
        if self.nu_tilde_plus < self.nu_tilde_minus:
            raise ValueError("nu_tilde_plus must be >= nu_tilde_minus")


class RegionClass(Enum):
    """Classification of a point (mu, mu_A, mu_B) of the purity space."""

    UNPHYSICAL = "Unphysical"
    ALL_SEPARABLE = "AllSeparable"
    COEXISTENCE = "Coexistence"
    ALL_ENTANGLED = "AllEntangled"

    @classmethod
    def of_proportion(cls, prop: float) -> "RegionClass":
        """Class of a point from its entangled proportion (NaN: no physical states)."""
        return tuple(cls)[int(_region_codes(_real("prop", prop)))]


def _region_codes(prop) -> np.ndarray:
    """Positions in ``tuple(RegionClass)`` of entangled proportions, elementwise.

    The one classification rule: NaN (no physical states) is Unphysical,
    code 0; a proportion >= 1 is AllEntangled, <= 0 AllSeparable, and
    anything in between Coexistence.
    """
    prop = np.asarray(prop, dtype=float)
    return np.where(np.isnan(prop), 0, 2 + (prop >= 1.0) - (prop <= 0.0))


def partial_transpose(sigma) -> np.ndarray:
    """Partial transpose of a two-mode covariance matrix.

    Flips the sign of the second mode's momentum: Lambda @ Sigma @ Lambda
    with Lambda = diag(1, 1, 1, -1).  Applying it twice returns the input
    bit-exactly.  Read as every per-state call reads it (``core._two_mode_read``).
    """
    sigma, rows, _ = _two_mode_read(sigma)
    if rows is None:
        raise ValueError("partial transpose is defined here for two-mode matrices")
    return _PT @ sigma @ _PT


def _purities(coords: InvariantCoords) -> tuple[float, float, float]:
    """(mu, mu_A, mu_B) read by :func:`_real`; DomainError unless each is positive and finite."""
    mu, mu_a, mu_b = _real("mu", coords.mu), _real("mu_a", coords.mu_a), _real("mu_b", coords.mu_b)
    if not (0.0 < mu < math.inf and 0.0 < mu_a < math.inf and 0.0 < mu_b < math.inf):
        for name, value in (("mu", mu), ("mu_a", mu_a), ("mu_b", mu_b)):
            if not 0.0 < value < math.inf:
                raise DomainError(f"{name} = {value} must be positive and finite")
    return mu, mu_a, mu_b


def _ppt_nu(coords: InvariantCoords) -> tuple[float, float]:
    """(nu~_-, nu~_+) from invariants on Python floats; see :func:`ppt_spectrum`."""
    mu, mu_a, mu_b = _purities(coords)
    try:
        d_tilde = 2.0 / mu_a**2 + 2.0 / mu_b**2 - _real("delta", coords.delta)
    except ArithmeticError:  # a purity whose square leaves the float range
        raise DomainError("purities too far from 1 for the float range") from None
    if not 0.0 < d_tilde < math.inf:  # also rejects NaN
        raise DomainError(
            f"PPT seralian Delta~ = {d_tilde:.3e} must be positive and finite; "
            "coordinates do not describe a physical state"
        )
    # Delta~^2 - 4/mu^2 = low * high, kept as factors because Delta~^2
    # overflows for large states; disc >= -1e-9 max(1, Delta~)^2 over high.
    low, high = d_tilde - 2.0 / mu, d_tilde + 2.0 / mu
    span = max(1.0, d_tilde)
    if not low >= -1e-9 * span * (span / high):  # also rejects NaN
        raise DomainError(
            f"PPT discriminant is negative ({low * high:.3e}); "
            "coordinates do not describe a physical state"
        )
    nu_plus = math.sqrt(0.5 * (d_tilde + math.sqrt(max(low, 0.0)) * math.sqrt(high)))
    # The stable root: enforces nu~_+ nu~_- = 1/mu instead of subtracting;
    # at a zero discriminant (nu~_+ = nu~_-) rounding may leave it above nu~_+.
    nu_minus = min(1.0 / (mu * nu_plus), nu_plus)
    if not nu_minus > 0.0:  # 1/(mu nu~_+) underflows
        raise DomainError("nu_tilde_minus underflows: coordinates outside the float range")
    return nu_minus, nu_plus


def ppt_spectrum(coords: InvariantCoords) -> PptSpectrum:
    """Symplectic spectrum of the partially transposed state from invariants.

    Uses Delta~ = 2/mu_A^2 + 2/mu_B^2 - Delta, the seralian of the partially
    transposed standard form (a, b, c+, -c-).  For physical coordinates
    Delta~ is positive and the discriminant Delta~^2 - 4/mu^2, formed as
    (Delta~ - 2/mu)(Delta~ + 2/mu), nonnegative.
    Raises DomainError unless the purities are positive and finite, when
    Delta~ is not positive or the discriminant is clearly negative, and
    when an intermediate value leaves the float range.
    """
    return PptSpectrum(*_ppt_nu(coords))


def log_negativity(coords: InvariantCoords) -> float:
    """Logarithmic negativity E_N = max(0, -log2(nu~_-)).

    Raises DomainError where :func:`ppt_spectrum` does.
    """
    return max(0.0, -math.log2(_ppt_nu(coords)[0]))


def _steering(mu: float, marginal: float) -> float:
    """max(0, ln(mu/marginal)) of positive purities.

    Raises DomainError when the ratio leaves the float range.
    """
    ratio = mu / marginal
    if not 0.0 < ratio < math.inf:
        raise DomainError(f"mu/marginal purity = {mu}/{marginal} is outside the float range")
    return max(0.0, math.log(ratio))


def steerability_a_to_b(coords: InvariantCoords) -> float:
    """Directional Gaussian steering measure max(0, ln(mu/mu_A)).

    Raises DomainError unless the purities are positive and finite.
    """
    mu, mu_a, _ = _purities(coords)
    return _steering(mu, mu_a)


def steerability_b_to_a(coords: InvariantCoords) -> float:
    """Directional Gaussian steering measure max(0, ln(mu/mu_B)).

    Raises DomainError unless the purities are positive and finite.
    """
    mu, _, mu_b = _purities(coords)
    return _steering(mu, mu_b)


def steerability(coords: InvariantCoords) -> float:
    """Steerability G = max(0, ln(mu/mu_A), ln(mu/mu_B)) in natural log units.

    Positive iff the state is steerable in at least one direction, which
    happens iff mu exceeds the smaller marginal purity; since ln is
    monotone, G = max(0, ln(mu/min(mu_A, mu_B))).  Raises DomainError
    unless the purities are positive and finite.
    """
    mu, mu_a, mu_b = _purities(coords)
    return _steering(mu, min(mu_a, mu_b))


def delta_threshold(mu: float, mu_a: float, mu_b: float) -> float:
    """Seralian value below which states at these purities are entangled.

    From nu~_- < 1: Delta < 2/mu_A^2 + 2/mu_B^2 - 1 - 1/mu^2.  Where
    2/mu_A^2 + 2/mu_B^2 leaves the float range (both purities at 2**-511)
    it is capped at the largest float, which is still above every allowed
    seralian (at most 1 + 1/mu^2 <= 1 + 2**1022).  Raises DomainError
    where :func:`delta_bounds_batch` does.
    """
    mu, mu_a, mu_b = _require_purities(mu, mu_a, mu_b)
    return 2.0 * np.minimum(1.0 / mu_a**2 + 1.0 / mu_b**2, _HALF_MAX) - 1.0 - 1.0 / mu**2


def delta_bounds_batch(mu: float, mu_a, mu_b):
    """Vectorized seralian bounds; see :func:`delta_bounds`.

    Returns ``(delta_min, delta_max, valid)`` arrays; entries where ``valid``
    is False carry NaN bounds.  The interval is ``core._seralian_interval``,
    the one :func:`~gaussgeom.core.cm_from_invariants` checks.  Raises
    DomainError when mu or any marginal purity lies outside (0, 1], and when
    one is below 2**-511 (about 1.5e-154), where its inverse square leaves
    the float range.
    """
    _, _, _, d_min, d_max = _seralian_interval(mu, mu_a, mu_b)
    valid = d_min <= d_max
    return np.where(valid, d_min, np.nan), np.where(valid, d_max, np.nan), valid


def delta_bounds(mu: float, mu_a: float, mu_b: float) -> tuple[float, float] | None:
    """Range of the seralian allowed by the physicality condition.

    Returns the closed interval (Delta_min, Delta_max) of seralian values for
    which a physical state with the given purities exists, or None when no
    physical state exists (for instance when the marginal purities exceed
    sqrt(mu) on the symmetric cut).  With a = 1/mu_A and b = 1/mu_B the
    interval is closed form: Delta_min = 2/mu + (a - b)^2 and
    Delta_max = min((a + b)^2 - 2/mu, 1 + 1/mu^2).  Raises DomainError
    where :func:`delta_bounds_batch` does, so also for mu below 2**-511.
    """
    d_min, d_max, valid = delta_bounds_batch(mu, mu_a, mu_b)
    if not bool(valid[0]):
        return None
    return float(d_min[0]), float(d_max[0])


def logneg_average(mu: float, mu_a, mu_b):
    """Entangled proportion and mean E_N of a uniform seralian over its physical interval.

    Vectorized over the marginal purities; returns ``(prop_entangled,
    mean_logneg)`` arrays, NaN where no physical state exists.  The purities
    are read once, with the interval of :func:`delta_bounds_batch`
    (``core._seralian_interval``), and both statistics come from the one
    kernel :func:`_seralian_average` in h = (1/mu_A + 1/mu_B)/2 and the
    interval length, which the energy-constrained averages use too.  A
    zero-width interval gives the values at its single point.
    Raises DomainError where :func:`delta_bounds_batch` does.
    """
    mu, a, b, d_min, d_max = _seralian_interval(mu, mu_a, mu_b)
    length = np.where(d_min <= d_max, d_max - d_min, np.nan)
    return _seralian_average(mu, 0.5 * (a + b), length)


def _seralian_average(mu: float, h, length):
    """(entangled proportion, mean E_N) of a uniform seralian on an interval of length ``length``.

    Elementwise in h = (1/mu_A + 1/mu_B)/2.  The interval starts at
    Delta_min = 2/mu + (1/mu_A - 1/mu_B)^2, and the entanglement threshold
    (:func:`delta_threshold`) lies 4 (h^2 - ((1 + 1/mu)/2)^2) above it, so the
    entangled part has length 4 clip(h^2 - ((1 + 1/mu)/2)^2, 0, L/4).  At
    Delta_min, E_N is set by tau1 = mu h^2 - 1 (see :func:`_entangled_mean`).
    A zero-width interval is one state, entangled iff the threshold lies
    above it; a NaN length gives NaN statistics.
    """
    h_sq = h * h
    excess = h_sq - (0.5 + 0.5 / mu) ** 2
    quarter = 0.25 * length
    # A quarter of the entangled length; np.clip does the same, more slowly.
    ent_quarter = np.minimum(np.maximum(excess, 0.0), quarter)
    point = np.greater(excess, 0.0, out=np.empty_like(excess))
    prop = np.divide(ent_quarter, quarter, out=point, where=quarter != 0.0)
    tau1 = np.maximum(mu * h_sq - 1.0, 0.0)
    return prop, _entangled_mean(mu, prop, tau1, mu * ent_quarter, mu * quarter)


def _entangled_mean(mu: float, prop, tau1, dtau, span):
    """Mean E_N of a uniform seralian on an interval whose length is ``span`` in tau.

    With u = (2/mu_A^2 + 2/mu_B^2 - Delta)/(2/mu) the logarithmic negativity
    below the threshold is (arccosh(u) + ln mu)/(2 ln 2), and the integral
    over the entangled part follows from the antiderivative
    u arccosh(u) - sqrt(u^2 - 1).  Everything is taken in halves:
    tau = (u - 1)/2, which falls by mu/4 per unit of seralian, and
    sigma = sqrt(u^2 - 1)/2 = sqrt(tau) sqrt(1 + tau), so that
    arccosh(u) = 2 asinh(sqrt(tau)).  The entangled part (the fraction
    ``prop`` of the interval) starts at the interval's lower end, where tau
    is ``tau1``, and tau falls by ``dtau`` along it.  The difference of the
    antiderivative between its ends is formed without cancellation (through
    log1p and a difference of squares), so the narrow intervals near mu = 1
    keep full accuracy, and in halves no sum leaves the float range for
    purities down to 2**-511.  A zero-width interval (``dtau`` and ``span``
    zero) contributes only its point value.
    """
    # tau and sigma at both ends of the entangled part.
    tau2 = np.maximum(tau1 - dtau, 0.0)
    root1 = np.sqrt(tau1)
    sig1, sig2 = root1 * np.sqrt(1.0 + tau1), np.sqrt(tau2) * np.sqrt(1.0 + tau2)
    # sigma1 - sigma2 and arccosh(u1) - arccosh(u2); sigma1 + sigma2 vanishes only with dtau.
    tiny = np.finfo(float).tiny
    dsig = dtau * ((1.0 + tau1 + tau2) / np.maximum(sig1 + sig2, tiny))
    half_u2 = 0.5 + tau2
    dphi = np.log1p((dtau + dsig) / (half_u2 + sig2))
    # Half the integral of arccosh(u1) - arccosh(u) over [u2, u1]; nonnegative,
    # and zero over a zero-width interval, whose span the floor keeps nonzero.
    gap = dsig - half_u2 * dphi
    mean = prop * (2.0 * np.arcsinh(root1) + np.log(mu)) - gap / np.maximum(span, tiny)
    # Without entangled states prop, dtau and gap are exactly zero, so the
    # mean is +-0 and adding 0.0 makes it 0.0; NaN stays NaN, and the clamp
    # only absorbs rounding at the threshold.
    return (np.maximum(mean, 0.0) + 0.0) / (2.0 * _LN2)


def classify_region(mu: float, mu_a: float, mu_b: float) -> tuple[RegionClass, float]:
    """Region class of (mu, mu_A, mu_B) and the proportion of entangled states.

    The proportion is the fraction of the allowed seralian interval below the
    entanglement threshold.  Points with an empty interval are Unphysical and
    carry proportion NaN; proportions strictly between 0 and 1 classify as
    Coexistence.
    """
    prop = float(logneg_average(mu, mu_a, mu_b)[0][0])
    return RegionClass.of_proportion(prop), prop
