"""Entanglement and steering of two-mode Gaussian states.

Everything here works on the local-symplectic invariants (mu, mu_A, mu_B,
Delta); matrix-level operations are limited to the partial transpose, which
serves as the independent oracle for the invariant formulas.  The allowed
seralian interval at fixed purities and the averages of E_N over it are
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DomainError, InvariantCoords, _seralian_edges, validate_covmat

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
        if np.isnan(prop):
            return cls.UNPHYSICAL
        if prop >= 1.0:
            return cls.ALL_ENTANGLED
        if prop <= 0.0:
            return cls.ALL_SEPARABLE
        return cls.COEXISTENCE


def partial_transpose(sigma) -> np.ndarray:
    """Partial transpose of a two-mode covariance matrix.

    Flips the sign of the second mode's momentum: Lambda @ Sigma @ Lambda
    with Lambda = diag(1, 1, 1, -1).  Applying it twice returns the input
    bit-exactly.
    """
    sigma = validate_covmat(sigma)
    if sigma.shape[0] != 4:
        raise ValueError("partial transpose is defined here for two-mode matrices")
    return _PT @ sigma @ _PT


def ppt_spectrum(coords: InvariantCoords) -> PptSpectrum:
    """Symplectic spectrum of the partially transposed state from invariants.

    Uses Delta~ = 2/mu_A^2 + 2/mu_B^2 - Delta, the seralian of the partially
    transposed standard form (a, b, c+, -c-).  For physical coordinates the
    discriminant Delta~^2 - 4/mu^2 is nonnegative; a clearly negative value
    raises DomainError.
    """
    mu = coords.mu
    d_tilde = 2.0 / coords.mu_a**2 + 2.0 / coords.mu_b**2 - coords.delta
    disc = d_tilde * d_tilde - 4.0 / mu**2
    scale = max(1.0, d_tilde * d_tilde)
    if disc < -1e-9 * scale:
        raise DomainError(
            f"PPT discriminant is negative ({disc:.3e}); "
            "coordinates do not describe a physical state"
        )
    nu_plus = float(np.sqrt(0.5 * (d_tilde + np.sqrt(max(disc, 0.0)))))
    # The stable root: enforces nu~_+ nu~_- = 1/mu instead of subtracting;
    # at a zero discriminant (nu~_+ = nu~_-) rounding may leave it above nu~_+.
    nu_minus = min(1.0 / (mu * nu_plus), nu_plus)
    return PptSpectrum(nu_tilde_minus=nu_minus, nu_tilde_plus=nu_plus)


def log_negativity(coords: InvariantCoords) -> float:
    """Logarithmic negativity E_N = max(0, -log2(nu~_-))."""
    return max(0.0, -float(np.log2(ppt_spectrum(coords).nu_tilde_minus)))


def steerability_a_to_b(coords: InvariantCoords) -> float:
    """Directional Gaussian steering measure max(0, ln(mu/mu_A))."""
    return max(0.0, float(np.log(coords.mu / coords.mu_a)))


def steerability_b_to_a(coords: InvariantCoords) -> float:
    """Directional Gaussian steering measure max(0, ln(mu/mu_B))."""
    return max(0.0, float(np.log(coords.mu / coords.mu_b)))


def steerability(coords: InvariantCoords) -> float:
    """Steerability G = max(0, ln(mu/mu_A), ln(mu/mu_B)) in natural log units.

    Positive iff the state is steerable in at least one direction, which
    happens iff mu exceeds the smaller marginal purity.
    """
    return max(steerability_a_to_b(coords), steerability_b_to_a(coords))


def delta_threshold(mu: float, mu_a: float, mu_b: float) -> float:
    """Seralian value below which states at these purities are entangled.

    From nu~_- < 1: Delta < 2/mu_A^2 + 2/mu_B^2 - 1 - 1/mu^2.
    """
    return 2.0 / mu_a**2 + 2.0 / mu_b**2 - 1.0 - 1.0 / mu**2


def _require_marginals(mu_a: np.ndarray, mu_b: np.ndarray) -> None:
    """Raise DomainError unless every marginal purity lies in (0, 1]."""
    for name, val in (("mu_a", mu_a), ("mu_b", mu_b)):
        bad = ~((val > 0.0) & (val <= 1.0 + 1e-9))
        if np.any(bad):
            raise DomainError(f"{name} = {val[bad].flat[0]} must lie in (0, 1]")


def delta_bounds_batch(mu: float, mu_a, mu_b):
    """Vectorized seralian bounds; see :func:`delta_bounds`.

    Returns ``(delta_min, delta_max, valid)`` arrays; entries where ``valid``
    is False carry NaN bounds.  Raises DomainError when mu or any marginal
    purity lies outside (0, 1].
    """
    if not 0.0 < mu <= 1.0 + 1e-9:
        raise DomainError(f"mu = {mu} must lie in (0, 1]")
    mu = min(mu, 1.0)
    mu_a = np.atleast_1d(np.asarray(mu_a, dtype=float))
    mu_b = np.atleast_1d(np.asarray(mu_b, dtype=float))
    _require_marginals(mu_a, mu_b)
    a, b = 1.0 / mu_a, 1.0 / mu_b
    d_min, d_max = _seralian_edges(mu, a, b)
    d_max = np.minimum(d_max, 1.0 + 1.0 / mu**2)
    valid = d_min <= d_max
    return np.where(valid, d_min, np.nan), np.where(valid, d_max, np.nan), valid


def delta_bounds(mu: float, mu_a: float, mu_b: float) -> tuple[float, float] | None:
    """Range of the seralian allowed by the physicality condition.

    Returns the closed interval (Delta_min, Delta_max) of seralian values for
    which a physical state with the given purities exists, or None when no
    physical state exists (for instance when the marginal purities exceed
    sqrt(mu) on the symmetric cut).  With a = 1/mu_A and b = 1/mu_B the
    interval is closed form: Delta_min = 2/mu + (a - b)^2 and
    Delta_max = min((a + b)^2 - 2/mu, 1 + 1/mu^2).
    """
    d_min, d_max, valid = delta_bounds_batch(mu, mu_a, mu_b)
    if not bool(valid[0]):
        return None
    return float(d_min[0]), float(d_max[0])


def logneg_average(mu: float, mu_a, mu_b, d_min, d_max):
    """Entangled proportion and mean E_N of a uniform seralian on [d_min, d_max].

    Vectorized over the marginal purities and interval ends; returns
    ``(prop_entangled, mean_logneg)`` arrays (NaN where the bounds are NaN).
    A zero-width interval gives the values at its single point.

    With x = 2/mu_A^2 + 2/mu_B^2 - Delta, c = 2/mu and u = x/c, the
    logarithmic negativity below the threshold is
    (arccosh(u) + ln mu) / (2 ln 2), and the integral over the entangled part
    follows from the antiderivative u arccosh(u) - sqrt(u^2 - 1).  The
    difference of that antiderivative between the ends is formed without
    cancellation (through log1p and a difference of squares), so the
    narrow intervals near mu = 1 keep full accuracy.  Raises DomainError
    when any marginal purity lies outside (0, 1].
    """
    _require_marginals(np.asarray(mu_a, dtype=float), np.asarray(mu_b, dtype=float))
    width = d_max - d_min
    point = width == 0.0
    span = np.where(point, 1.0, width)  # divisor; a point has no width to divide by
    thr = delta_threshold(mu, mu_a, mu_b)
    ent_len = np.clip(np.minimum(d_max, thr) - d_min, 0.0, width)
    prop = np.where(point, np.where(d_min < thr, 1.0, 0.0), ent_len / span)

    c = 2.0 / mu
    # t = u - 1 and s = sqrt(u^2 - 1) at both ends of the entangled part
    # [d_min, d_min + ent_len], along which u falls by dt.
    t1 = np.maximum((2.0 / mu_a**2 + 2.0 / mu_b**2 - c - d_min) / c, 0.0)
    dt = ent_len / c
    t2 = np.maximum(t1 - dt, 0.0)
    s1, s2 = np.sqrt(t1 * (2.0 + t1)), np.sqrt(t2 * (2.0 + t2))
    # s1 - s2 and arccosh(u1) - arccosh(u2); s1 + s2 vanishes only with dt.
    ds = dt * (2.0 + t1 + t2) / np.maximum(s1 + s2, np.finfo(float).tiny)
    dphi = np.log1p((dt + ds) / (1.0 + t2 + s2))
    # Integral of arccosh(u1) - arccosh(u) over [u2, u1]; nonnegative.
    gap = ds - (1.0 + t2) * dphi
    mean = prop * (np.log1p(t1 + s1) + np.log(mu)) - c * gap / span
    # Exactly zero without entangled states (NaN stays NaN); the clamp only
    # absorbs rounding at the threshold.
    mean = np.where(prop > 0.0, np.maximum(mean, 0.0), 0.0 * prop)
    return prop, mean / (2.0 * _LN2)


def classify_region(mu: float, mu_a: float, mu_b: float) -> tuple[RegionClass, float]:
    """Region class of (mu, mu_A, mu_B) and the proportion of entangled states.

    The proportion is the fraction of the allowed seralian interval below the
    entanglement threshold.  Points with an empty interval are Unphysical and
    carry proportion NaN; proportions strictly between 0 and 1 classify as
    Coexistence.
    """
    bounds = delta_bounds(mu, mu_a, mu_b)
    prop = float("nan") if bounds is None else float(logneg_average(mu, mu_a, mu_b, *bounds)[0])
    return RegionClass.of_proportion(prop), prop
