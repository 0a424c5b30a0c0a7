"""Typical values of entanglement and steering under purity and energy constraints.

Two strategies make the averages finite.  At fixed (mu, mu_A, mu_B) the
divergent local-group volumes cancel between numerator and denominator, so
typical values reduce to one-dimensional averages over the allowed seralian
interval.  At fixed (mu, E) the integration over the local groups against
the energy constraint leaves a compact two-dimensional integral over the
marginal purities with the weight of :func:`energy_weight`, which is
treated with the adaptive Monte Carlo integrator from :mod:`.mcint`.  The
exact sampler of that ensemble draws the marginal purities against the same
density, weight times seralian-interval length, and then the seralian
uniformly inside its closed-form interval.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .core import DomainError, StdForm
from .correlations import (
    RegionClass,
    delta_bounds,
    delta_bounds_batch,
    log_negativity,  # noqa: F401  (re-exported: callers import it from here)
    logneg_average,
)
from .mcint import (
    AdaptiveGrid,
    IntegrationError,
    McEstimate,
    sample_from_grid,
    vegas_integrate,
)

__all__ = [
    "McConfig",
    "EnergyEnsemble",
    "EnergyStats",
    "LocalSympSample",
    "PureEndpoint",
    "PurityPlaneCell",
    "PurityCutPoint",
    "mean_logneg_fixed_purities",
    "scan_purity_plane",
    "purity_cut",
    "energy_weight",
    "energy_constrained_stats",
    "energy_constrained_ratio",
    "pure_state_endpoint",
    "sample_energy_constrained",
    "assemble_covmat",
]

logger = logging.getLogger(__name__)

_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class McConfig:
    """Configuration of the Monte Carlo stage of the energy-constrained averages."""

    seed: int = 0
    method: str = "vegas"
    adapt_iterations: int = 6
    adapt_evals: int = 4000
    final_evals: int = 80_000
    damping: float = 1.5
    nbins: int = 50

    def __post_init__(self):
        if self.method not in ("vegas", "plain"):
            raise ValueError(f"method must be 'vegas' or 'plain', got {self.method!r}")
        # Error bars need two samples per estimate, VEGAS one iteration and
        # the grid one bin.
        for name, least in (
            ("final_evals", 2),
            ("adapt_evals", 2),
            ("adapt_iterations", 1),
            ("nbins", 1),
        ):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")


@dataclass(frozen=True)
class EnergyEnsemble:
    """Ensemble of two-mode states with fixed global purity and energy.

    The weight support requires E > 1/mu_A + 1/mu_B, and states with purity
    mu exist at energy E only for mu > 4/E^2 (the symmetric thermal state
    nu_1 = nu_2 = E/2 maximizes det Sigma at fixed trace).
    """

    mu: float
    energy: float
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.energy)):
            raise DomainError(f"(mu, E) = ({self.mu}, {self.energy}) must be finite")
        if self.energy <= 2.0:
            raise DomainError(f"energy = {self.energy} must exceed 2 for a two-mode ensemble")
        mu_min = 4.0 / self.energy**2
        if not mu_min < self.mu < 1.0:
            raise DomainError(
                f"mu = {self.mu} must lie in ({mu_min}, 1) at energy {self.energy}"
            )


@dataclass(frozen=True)
class LocalSympSample:
    """Local symplectic group element in Euler form: rotations around squeezing.

    lambda = (w^2 + 1/w^2)/2 >= 1 parametrizes the squeezing part; the four
    angles are (inner A, outer A, inner B, outer B).
    """

    lambda_a: float
    lambda_b: float
    angles: tuple[float, float, float, float]

    def __post_init__(self):
        if self.lambda_a < 1.0 or self.lambda_b < 1.0:
            raise ValueError("lambda parameters must be >= 1")


@dataclass(frozen=True)
class EnergyStats:
    """Energy-constrained ensemble averages with Monte Carlo uncertainties."""

    prop_entangled: McEstimate
    mean_logneg: McEstimate
    prop_steerable: McEstimate
    mean_steering: McEstimate


@dataclass(frozen=True)
class PureEndpoint:
    """Statistics of Haar-random pure two-mode states at fixed energy."""

    prop_entangled: float
    mean_logneg: float
    prop_steerable: float
    mean_steering: float


@dataclass(frozen=True)
class PurityPlaneCell:
    mu_a: float
    mu_b: float
    region: RegionClass
    prop_entangled: float | None
    mean_logneg: float | None


@dataclass(frozen=True)
class PurityCutPoint:
    mu_ab: float
    region: RegionClass
    prop_entangled: float | None
    mean_logneg: float | None


# ---------------------------------------------------------------------------
# Purity-constrained averages


def mean_logneg_fixed_purities(mu: float, mu_a: float, mu_b: float) -> float:
    """Average logarithmic negativity over states with the given purities.

    The local-group volumes cancel because E_N is a local invariant, leaving
    the mean of E_N over the allowed seralian interval, which
    :func:`~gaussgeom.correlations.logneg_average` evaluates in closed form.
    Raises DomainError when no physical states exist.
    """
    bounds = delta_bounds(mu, mu_a, mu_b)
    if bounds is None:
        raise DomainError(f"no physical states at (mu, mu_A, mu_B) = ({mu}, {mu_a}, {mu_b})")
    return float(logneg_average(mu, mu_a, mu_b, *bounds)[1])


def _fixed_purity_rows(mu: float, mu_a: np.ndarray, mu_b: np.ndarray):
    """Region class, entangled proportion and mean E_N per point, in one batched pass.

    Points without physical states carry None statistics.
    """
    d_min, d_max, _ = delta_bounds_batch(mu, mu_a, mu_b)
    props, means = logneg_average(mu, mu_a, mu_b, d_min, d_max)
    rows = []
    for prop, mean in zip(props.tolist(), means.tolist()):
        region = RegionClass.of_proportion(prop)
        if region is RegionClass.UNPHYSICAL:
            prop = mean = None
        rows.append((region, prop, mean))
    return rows


def scan_purity_plane(mu: float, grid_size: int) -> list[PurityPlaneCell]:
    """Tabulate region class, entangled proportion and mean E_N on a purity grid.

    The grid covers (0, 1]^2 with values (i+1)/grid_size.  Cells without
    physical states are marked Unphysical and carry empty statistics.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    values = [(i + 1) / grid_size for i in range(grid_size)]
    pairs = [(mu_a, mu_b) for mu_a in values for mu_b in values]
    mu_a, mu_b = np.array(pairs).T
    rows = _fixed_purity_rows(mu, mu_a, mu_b)
    return [PurityPlaneCell(a, b, *row) for (a, b), row in zip(pairs, rows)]


def purity_cut(mu: float, grid_size: int) -> list[PurityCutPoint]:
    """Scan along the symmetric cut mu_A = mu_B at fixed global purity."""
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    values = [(i + 1) / grid_size for i in range(grid_size)]
    m = np.array(values)
    rows = _fixed_purity_rows(mu, m, m)
    return [PurityCutPoint(v, *row) for v, row in zip(values, rows)]


# ---------------------------------------------------------------------------
# Energy-constrained ensemble


def energy_weight(mu_a, mu_b, energy: float):
    """Marginal-purity weight left after integrating out the local groups.

    (E - 1/mu_A - 1/mu_B) / (mu_A^2 mu_B^2) on its support and zero once the
    energy is exhausted by the marginal mixedness (E <= 1/mu_A + 1/mu_B).
    The mu^7 prefactor of the volume element is constant at fixed global
    purity and is applied by the callers where it matters.
    """
    mu_a = np.asarray(mu_a, dtype=float)
    mu_b = np.asarray(mu_b, dtype=float)
    excess = energy - 1.0 / mu_a - 1.0 / mu_b
    w = np.where(excess > 0.0, excess / (mu_a**2 * mu_b**2), 0.0)
    return float(w) if w.ndim == 0 else w


def _geometry(mu: float, energy: float, pts: np.ndarray):
    """Evaluate weight and seralian interval on a batch of (s, t) points.

    The integration runs in rotated coordinates s = (mu_A + mu_B)/2 and
    t = mu_A - mu_B, where the near-diagonal support at high purity is
    axis-aligned and the grid can adapt to it.
    """
    s, t = pts[:, 0], pts[:, 1]
    mu_a = s + 0.5 * t
    mu_b = s - 0.5 * t
    n = len(s)
    w = np.zeros(n)
    d_min = np.zeros(n)
    length = np.zeros(n)
    inside = (mu_a > 0.0) & (mu_a <= 1.0) & (mu_b > 0.0) & (mu_b <= 1.0)
    if np.any(inside):
        wa = energy_weight(mu_a[inside], mu_b[inside], energy) * mu**7
        sub = np.flatnonzero(inside)[wa > 0.0]
        w[sub] = wa[wa > 0.0]
        if sub.size:
            lo, hi, valid = delta_bounds_batch(mu, mu_a[sub], mu_b[sub])
            keep = sub[valid]
            w[sub[~valid]] = 0.0
            d_min[keep] = lo[valid]
            length[keep] = hi[valid] - lo[valid]
    return mu_a, mu_b, w, d_min, length


def _component_matrix(mu: float, energy: float, pts: np.ndarray) -> np.ndarray:
    """Columns (denominator, entangled, E_N, steerable, G) of the weighted integrand."""
    mu_a, mu_b, w, d_min, length = _geometry(mu, energy, pts)
    out = np.zeros((len(pts), 5))
    live = w > 0.0
    if not np.any(live):
        return out
    mu_a, mu_b = mu_a[live], mu_b[live]
    w, d_min, length = w[live], d_min[live], length[live]
    prop, mean_en = logneg_average(mu, mu_a, mu_b, d_min, d_min + length)
    steer = np.minimum(mu_a, mu_b) < mu
    g = np.maximum(np.log(mu / np.minimum(mu_a, mu_b)), 0.0)
    out[live, 0] = w * length
    out[live, 1] = w * length * prop
    out[live, 2] = w * length * mean_en
    out[live, 3] = w * length * steer
    out[live, 4] = w * length * g
    return out


def _st_bounds(mu: float, energy: float):
    s_lo = 1.0 / (energy - 1.0)
    t_half = 1.0 - mu
    return [(s_lo, 1.0), (-t_half, t_half)]


def _child_seeds(seed: int, k: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(k)]


def _weighted_samples(mu: float, energy: float, mc: McConfig):
    """Adapt (optionally) and draw the frozen sample used for all ratios."""
    bounds = _st_bounds(mu, energy)
    adapt_seed, final_seed = _child_seeds(mc.seed, 2)
    chi2 = 0.0
    n_adapt = 0
    if mc.method == "vegas":
        den_est, grid = vegas_integrate(
            lambda pts: _den_integrand(mu, energy, pts),
            bounds,
            iterations=mc.adapt_iterations,
            evals_per_iter=mc.adapt_evals,
            damping=mc.damping,
            seed=adapt_seed,
            nbins=mc.nbins,
            return_grid=True,
        )
        chi2 = den_est.chi2_per_dof
        n_adapt = den_est.n_evals
    else:
        grid = AdaptiveGrid.uniform(2, nbins=mc.nbins, damping=mc.damping)
    pts, wgt = sample_from_grid(grid, bounds, mc.final_evals, final_seed)
    return pts, wgt, chi2, n_adapt + mc.final_evals


def _den_integrand(mu: float, energy: float, pts: np.ndarray) -> np.ndarray:
    _, _, w, _, length = _geometry(mu, energy, pts)
    return w * length


def _ratio_estimate(num, den, chi2: float, n_evals: int) -> McEstimate:
    """Delta-method ratio of two correlated sample means."""
    n = num.size
    m_num, m_den = float(num.mean()), float(den.mean())
    r = m_num / m_den
    cov = np.cov(np.stack([num, den])) / n
    var = (cov[0, 0] - 2.0 * r * cov[0, 1] + r * r * cov[1, 1]) / (m_den * m_den)
    return McEstimate(
        value=r,
        std_error=float(np.sqrt(max(var, 0.0))),
        chi2_per_dof=chi2,
        n_evals=n_evals,
    )


def energy_constrained_stats(mu: float, energy: float, mc: McConfig | None = None) -> EnergyStats:
    """Ensemble averages at fixed purity and energy with propagated errors.

    The seralian integral is carried out per sample point in closed form
    (trivially for the seralian-independent steering quantities); the
    remaining integral over the marginal purities is estimated by Monte
    Carlo.  All four statistics are ratios against the same weighted volume,
    evaluated on one shared sample so that their errors are consistently
    correlated.
    """
    mc = mc or McConfig()
    EnergyEnsemble(mu, energy, mc.seed)
    pts, wgt, chi2, n_evals = _weighted_samples(mu, energy, mc)
    comp = _component_matrix(mu, energy, pts) * wgt[:, None]
    den = comp[:, 0]
    if float(den.mean()) <= 0.0:
        raise IntegrationError(
            f"sampled no support at (mu, E) = ({mu}, {energy}); "
            "the physical region is too thin for the configured sample size"
        )
    ests = [_ratio_estimate(comp[:, k], den, chi2, n_evals) for k in range(1, 5)]
    return EnergyStats(*ests)


def energy_constrained_ratio(
    mu: float, energy: float, inner, mc: McConfig | None = None
) -> McEstimate:
    """Energy-constrained average of a custom seralian-integrated quantity.

    ``inner(mu_a, mu_b, d_min, d_max)`` must return, per point, the integral
    of the quantity over the allowed seralian interval; the result is its
    ratio against the interval length under the ensemble weight.  With
    ``inner`` returning the interval length itself the ratio is exactly 1.
    """
    mc = mc or McConfig()
    EnergyEnsemble(mu, energy, mc.seed)
    pts, wgt, chi2, n_evals = _weighted_samples(mu, energy, mc)
    mu_a, mu_b, w, d_min, length = _geometry(mu, energy, pts)
    den = w * length * wgt
    if float(den.mean()) <= 0.0:
        raise IntegrationError(f"sampled no support at (mu, E) = ({mu}, {energy})")
    num = np.zeros_like(den)
    live = w > 0.0
    num[live] = w[live] * inner(mu_a[live], mu_b[live], d_min[live], d_min[live] + length[live])
    num *= wgt
    return _ratio_estimate(num, den, chi2, n_evals)


# ---------------------------------------------------------------------------
# Pure-state endpoint


def pure_state_endpoint(energy: float) -> PureEndpoint:
    """Statistics of Haar-random pure states at fixed energy.

    A pure two-mode state is a local symplectic acting on a two-mode
    squeezed form with a single Schmidt parameter nu; the energy constraint
    integrates to the weight w(nu) = E - 2 nu on nu in [1, E/2], with
    E_N(nu) = arccosh(nu)/ln 2 and G(nu) = ln(nu).  At E = 2 only the
    vacuum remains and all statistics vanish; for E > 2 all states except
    the measure-zero point nu = 1 are entangled and steerable.
    """
    if energy < 2.0 - 1e-12:
        raise DomainError(f"energy = {energy} must be at least 2")
    if energy <= 2.0 + 1e-12:
        return PureEndpoint(0.0, 0.0, 0.0, 0.0)
    hi = energy / 2.0
    opts = dict(epsabs=1e-10, epsrel=1e-10, limit=500)
    den, _ = quad(lambda v: energy - 2.0 * v, 1.0, hi, **opts)
    num_en, _ = quad(lambda v: np.arccosh(v) / _LN2 * (energy - 2.0 * v), 1.0, hi, **opts)
    num_g, _ = quad(lambda v: np.log(v) * (energy - 2.0 * v), 1.0, hi, **opts)
    return PureEndpoint(
        prop_entangled=1.0,
        mean_logneg=num_en / den,
        prop_steerable=1.0,
        mean_steering=num_g / den,
    )


# ---------------------------------------------------------------------------
# Exact sampler of energy-constrained states

#: Largest proposal batch of the sampler; bounds its working memory.
_SAMPLER_BATCH = 65_536


def _local_blocks(lam: np.ndarray, inner: np.ndarray, outer: np.ndarray):
    """Entries s[i][j] of the batched Sp(2) elements O(outer) diag(w, 1/w) O(inner).

    O(t) = [[cos t, sin t], [-sin t, cos t]] and lambda = (w^2 + 1/w^2)/2.
    """
    w = np.sqrt(lam + np.sqrt(lam * lam - 1.0))
    ci, si, co, so = np.cos(inner), np.sin(inner), np.cos(outer), np.sin(outer)
    wc, ws, vc, vs = w * ci, w * si, ci / w, si / w
    return (
        (co * wc - so * vs, co * ws + so * vc),
        (-so * wc - co * vs, -so * ws + co * vc),
    )


def _covmats(a, b, c_plus, c_minus, lam_a, lam_b, angles) -> np.ndarray:
    """Batched covariance matrices (S_A + S_B)^T sigma_std (S_A + S_B).

    sigma_std has blocks a I, b I and C = diag(c_plus, c_minus); the result
    has blocks a S_A^T S_A, b S_B^T S_B and S_A^T C S_B, formed entrywise
    (exactly symmetric).  ``angles`` holds the columns (inner A, outer A,
    inner B, outer B).
    """
    sa = _local_blocks(lam_a, angles[:, 0], angles[:, 1])
    sb = _local_blocks(lam_b, angles[:, 2], angles[:, 3])
    sigma = np.empty((len(lam_a), 4, 4))
    for i in range(2):
        for j in range(2):
            sigma[:, i, j] = a * (sa[0][i] * sa[0][j] + sa[1][i] * sa[1][j])
            sigma[:, 2 + i, 2 + j] = b * (sb[0][i] * sb[0][j] + sb[1][i] * sb[1][j])
            sigma[:, i, 2 + j] = sigma[:, 2 + j, i] = (
                c_plus * sa[0][i] * sb[0][j] + c_minus * sa[1][i] * sb[1][j]
            )
    return sigma


def assemble_covmat(std: StdForm, sample: LocalSympSample) -> np.ndarray:
    """Covariance matrix (S_A + S_B)^T sigma_std (S_A + S_B) for one sample.

    The trace identity tr(S^T (c I) S) = 2 c lambda makes the energy of the
    result exactly lambda_A/mu_A + lambda_B/mu_B.
    """
    return _covmats(
        std.a,
        std.b,
        std.c_plus,
        std.c_minus,
        np.array([sample.lambda_a]),
        np.array([sample.lambda_b]),
        np.array([sample.angles], dtype=float),
    )[0]


def _std_form_arrays(mu: float, mu_a, mu_b, delta):
    """Vectorized standard-form reconstruction for feasible coordinates."""
    a, b = 1.0 / mu_a, 1.0 / mu_b
    ab = a * b
    p = 0.5 * (delta - a * a - b * b)
    t = np.maximum((ab * ab + p * p - 1.0 / mu**2) / ab, 0.0)
    disc = np.maximum(t * t - 4.0 * p * p, 0.0)
    c_plus = np.sqrt(0.5 * (t + np.sqrt(disc)))
    c_minus = np.where(c_plus > 0.0, p / np.where(c_plus > 0.0, c_plus, 1.0), 0.0)
    return a, b, c_plus, c_minus


def _draw_purities(mu: float, energy: float, count: int, rng: np.random.Generator):
    """Marginal purities and seralian intervals of ``count`` ensemble draws.

    In x = 1/mu_A, y = 1/mu_B the weight times d mu_A d mu_B is
    (E - x - y) dx dy, so the marginal density of (x, y) is (E - u) L with
    u = x + y, v = x - y and the seralian interval length
    L = min(u^2 - 4/mu, (1/mu - 1)^2) - v^2.  Uniform proposals in the box
    2/sqrt(mu) <= u <= E, |v| <= V with V^2 = min((1/mu - 1)^2, E^2 - 4/mu)
    cover the support, and (E - u) L <= (E - 2/sqrt(mu)) V^2 bounds the
    density there.  Returns (mu_a, mu_b, delta_min, length) arrays.
    """
    u_lo = 2.0 / np.sqrt(mu)
    v_sq = min((1.0 / mu - 1.0) ** 2, energy**2 - 4.0 / mu)
    v_max = np.sqrt(v_sq)
    rho_max = (energy - u_lo) * v_sq
    acc_a, acc_b, acc_lo, acc_len = [], [], [], []
    n_acc = n_drawn = 0
    while n_acc < count:
        # Size the batch for the states still missing at the acceptance seen
        # so far: a quarter before the first batch, at least 3 % anywhere.
        rate = n_acc / n_drawn if n_acc else (0.03 if n_drawn else 0.25)
        batch = min(_SAMPLER_BATCH, max(1024, int(1.1 * (count - n_acc) / rate)))
        u = rng.uniform(u_lo, energy, batch)
        v = rng.uniform(-v_max, v_max, batch)
        r = rng.random(batch)
        n_drawn += batch
        x, y = 0.5 * (u + v), 0.5 * (u - v)
        inside = (x >= 1.0) & (y >= 1.0)  # mu_A, mu_B in (0, 1]
        mu_a, mu_b = 1.0 / x[inside], 1.0 / y[inside]
        excess = energy_weight(mu_a, mu_b, energy) * (mu_a * mu_b) ** 2  # E - u
        lo, hi, valid = delta_bounds_batch(mu, mu_a, mu_b)
        length = np.where(valid, hi - lo, 0.0)
        ok = r[inside] * rho_max < excess * length
        acc_a.append(mu_a[ok])
        acc_b.append(mu_b[ok])
        acc_lo.append(lo[ok])
        acc_len.append(length[ok])
        n_acc += int(ok.sum())
    logger.debug(
        "sampler acceptance %.3g (%d proposals for %d states)", n_acc / n_drawn, n_drawn, count
    )
    return tuple(np.concatenate(parts)[:count] for parts in (acc_a, acc_b, acc_lo, acc_len))


def sample_energy_constrained(
    mu: float, energy: float, count: int, seed: int = 0
) -> np.ndarray:
    """Draw covariance matrices from the fixed-(mu, E) ensemble.

    The marginal purities come from exact rejection sampling of their
    density, the ensemble weight times the seralian interval length, in the
    coordinates u = 1/mu_A + 1/mu_B and v = 1/mu_A - 1/mu_B, where the
    acceptance is bounded away from zero on the whole support: about
    8/105 next to the edge mu = 4/E^2, up to 1/3 towards mu = 1 and not
    below 1/30 anywhere (its large-E limit near mu = 1/E), so the run time
    is bounded everywhere.  The seralian is uniform on its closed-form
    interval, the squeezing parameter lambda_A uniform on the
    energy-constraint segment and the four rotation angles uniform.  Every
    returned matrix has energy E exactly (to rounding) and passes the
    physicality test.
    """
    EnergyEnsemble(mu, energy, seed)
    if not isinstance(count, (int, np.integer)):
        raise ValueError(f"count must be an integer, got {count!r}")
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    mu_a, mu_b, d_min, length = _draw_purities(mu, energy, count, rng)
    delta = d_min + rng.random(count) * length
    lam_a = rng.uniform(1.0, mu_a * (energy - 1.0 / mu_b))
    lam_b = mu_b * (energy - lam_a / mu_a)
    angles = rng.uniform(0.0, 2.0 * np.pi, (count, 4))
    a, b, c_plus, c_minus = _std_form_arrays(mu, mu_a, mu_b, delta)
    return _covmats(a, b, c_plus, c_minus, lam_a, lam_b, angles)
