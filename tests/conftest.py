"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from gaussgeom.core import InvariantCoords
from gaussgeom.correlations import delta_bounds, delta_bounds_batch


def oracle_spectrum(sigma):
    """Independent symplectic spectrum: generic eigensolver on Omega @ Sigma."""
    n = sigma.shape[0] // 2
    omega = np.zeros((2 * n, 2 * n))
    for i in range(n):
        omega[2 * i, 2 * i + 1] = 1.0
        omega[2 * i + 1, 2 * i] = -1.0
    eigs = np.linalg.eigvals(omega @ sigma)
    mods = np.sort(np.abs(eigs.imag))
    return 0.5 * (mods[0::2] + mods[1::2])


def random_feasible_coords(rng, mu_range=(0.08, 1.0), marg_range=(0.08, 1.0),
                           interior=0.0):
    """Random invariant coordinates with a physical seralian.

    ``interior`` > 0 keeps delta away from the interval endpoints by that
    fraction of the width.
    """
    while True:
        mu = rng.uniform(*mu_range)
        mu_a = rng.uniform(*marg_range)
        mu_b = rng.uniform(*marg_range)
        bounds = delta_bounds(mu, mu_a, mu_b)
        if bounds is None:
            continue
        d_min, d_max = bounds
        width = d_max - d_min
        if width <= 1e-9:
            continue
        lo = d_min + interior * width
        hi = d_max - interior * width
        return InvariantCoords(mu, mu_a, mu_b, rng.uniform(lo, hi))


def random_feasible_coords_batch(rng, count, mu_range=(0.08, 1.0),
                                 marg_range=(0.08, 1.0), interior=0.0):
    """Vectorized version of :func:`random_feasible_coords`.

    The global purity varies per point (delta_bounds_batch is called per
    candidate value of mu through a small loop over a shuffled partition).
    """
    out = []
    while len(out) < count:
        mu = rng.uniform(*mu_range)
        n = max(64, (count - len(out)) * 2)
        mu_a = rng.uniform(*marg_range, n)
        mu_b = rng.uniform(*marg_range, n)
        d_min, d_max, valid = delta_bounds_batch(mu, mu_a, mu_b)
        keep = valid & (np.nan_to_num(d_max - d_min) > 1e-9)
        if not np.any(keep):
            continue
        width = d_max[keep] - d_min[keep]
        lo = d_min[keep] + interior * width
        delta = lo + rng.random(keep.sum()) * (1.0 - 2.0 * interior) * width
        for ma, mb, d in zip(mu_a[keep], mu_b[keep], delta):
            out.append(InvariantCoords(mu, float(ma), float(mb), float(d)))
    return out[:count]


def local_symplectic(lam_a, lam_b, angles):
    """S_A + S_B with S = O(outer) diag(w, 1/w) O(inner) and lambda = (w^2 + 1/w^2)/2.

    ``angles`` holds (inner A, outer A, inner B, outer B).
    """

    def rot(t):
        return np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])

    def block(lam, inner, outer):
        w = np.sqrt(lam + np.sqrt(lam * lam - 1.0))
        return rot(outer) @ np.diag([w, 1.0 / w]) @ rot(inner)

    s = np.zeros((4, 4))
    s[:2, :2] = block(lam_a, *angles[:2])
    s[2:, 2:] = block(lam_b, *angles[2:])
    return s


_unit = st.floats(0.0, 1.0)
_angle = st.floats(0.0, 2.0 * np.pi)

#: Local symplectics with squeezing up to lambda = 5 (w^2 about 10).
local_symplectics = st.builds(
    local_symplectic,
    st.floats(1.0, 5.0),
    st.floats(1.0, 5.0),
    st.tuples(_angle, _angle, _angle, _angle),
)


@st.composite
def feasible_coords(draw):
    """Invariant coordinates of a physical two-mode state.

    States exist iff mu_A mu_B <= mu <= 1 / (1 + |1/mu_A - 1/mu_B|); mu is
    drawn inside that range and the seralian inside its closed-form interval.
    """
    mu_a = draw(st.floats(0.05, 1.0))
    mu_b = draw(st.floats(0.05, 1.0))
    lo = mu_a * mu_b
    mu = lo + draw(_unit) * (1.0 / (1.0 + abs(1.0 / mu_a - 1.0 / mu_b)) - lo)
    bounds = delta_bounds(mu, mu_a, mu_b)
    assume(bounds is not None)
    return InvariantCoords(mu, mu_a, mu_b, bounds[0] + draw(_unit) * (bounds[1] - bounds[0]))
