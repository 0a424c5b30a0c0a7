"""Typical values of entanglement and steering under purity and energy constraints.

Two strategies make the averages finite.  At fixed (mu, mu_A, mu_B) the
divergent local-group volumes cancel between numerator and denominator, so
typical values reduce to one-dimensional averages over the allowed seralian
interval.  At fixed (mu, E) the integration over the local groups against
the energy constraint leaves a compact two-dimensional integral over the
marginal purities with the weight of :func:`energy_weight`.  One exact
rejection sampler draws them against their density, weight times
seralian-interval length, in u = 1/mu_A + 1/mu_B and v = 1/mu_A - 1/mu_B.
It tests its proposals in cache-sized blocks and stops at the block that
completes the requested number of draws.  Each call reads one random
stream, seeded once from its seed: cursors that PCG64 moves exactly read
each block's uniforms where they lie, into one 384 KB buffer reused
between calls, so a call neither stores its proposal batches nor faults
fresh pages in; the draws are bit for bit those of drawing the batches
whole from ``default_rng(seed)``.  The sampler takes energies up to
2**200, below the 1.29e62 where its weight leaves the float range.  Both
ensemble averages, the four statistics and the ratio of a custom seralian
integral to the interval length, are sample means taken block by block
straight into running sums, so their memory does not grow with the number
of draws.  The state sampler builds each state from the accepted (u, v)
too, with a seralian uniform on its interval and the standard form of
core; beyond its output (128 bytes per state) it keeps the accepted
(u, v), 16 bytes per state, and assembles the states in cache-sized
chunks from the stretch of the stream after the proposals.  Each local
rotation's cosine and sine come from one half-angle tangent, which numpy
vectorises where its sine and cosine are scalar calls.
The pure-state (mu = 1) endpoint is closed form in h = E/2, with a power
series in t = h - 1 below t = 0.1 where the closed form cancels.  Nothing
here needs scipy.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _SQUARE_MAX,
    DomainError,
    StdForm,
    _in_float_range,
    _integer,
    _real,
    _real_array,
    _std_form_c,
    _std_params,
)
from .correlations import (
    _LN2,
    RegionClass,
    # Unused here; kept as attributes for bench/checks.py, whose
    # test_wrappers_reach_names_imported_elsewhere traces them on this module.
    delta_bounds_batch,  # noqa: F401
    log_negativity,  # noqa: F401
    logneg_average,
    _region_codes,
    _seralian_average,
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


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo configuration of the energy-constrained averages.

    ``final_evals`` exact ensemble draws are taken from a generator seeded
    with ``seed``; error bars need at least two of them.  Both must be
    integers (not bools) and are kept as Python ints; anything else raises
    ValueError naming the field.
    """

    seed: int = 0
    final_evals: int = 80_000

    def __post_init__(self):
        seed, evals = _integer("seed", self.seed, 0), _integer("final_evals", self.final_evals, 2)
        self.__dict__.update(seed=seed, final_evals=evals)


def _purity_floor(energy: float) -> float:
    """4/E^2, the purity below which no two-mode state has energy E (a Python float).

    The symmetric thermal state nu_1 = nu_2 = E/2 maximizes det Sigma at
    fixed trace, so states with purity mu exist at energy E only for
    mu > 4/E^2.  DomainError unless E is finite, exceeds 2 and is below
    2**512, where E^2 leaves the float range.
    """
    if not math.isfinite(energy):
        raise DomainError(f"energy = {energy} must be finite")
    if energy <= 2.0:
        raise DomainError(f"energy = {energy} must exceed 2 for a two-mode ensemble")
    if energy > _SQUARE_MAX:
        raise DomainError(f"energy = {energy} must be below 2**512: E^2 leaves the float range")
    return 4.0 / energy**2


@dataclass(frozen=True)
class EnergyEnsemble:
    """Ensemble of two-mode states with fixed global purity and energy.

    The weight support requires E > 1/mu_A + 1/mu_B, and the purity must lie
    above 4/E^2 (:func:`_purity_floor`).  Both are kept as Python floats.
    Raises ValueError unless both are real numbers, and DomainError unless
    both are finite, outside that support and for E >= 2**512, where E^2
    leaves the float range.
    """

    mu: float
    energy: float

    def __post_init__(self):
        mu, energy = _real("mu", self.mu), _real("energy", self.energy)
        if not (math.isfinite(mu) and math.isfinite(energy)):
            raise DomainError(f"(mu, E) = ({mu}, {energy}) must be finite")
        mu_min = _purity_floor(energy)
        if not mu_min < mu < 1.0:
            raise DomainError(f"mu = {mu} must lie in ({mu_min}, 1) at energy {energy}")
        self.__dict__.update(mu=mu, energy=energy)


@dataclass(frozen=True)
class LocalSympSample:
    """Local symplectic group element in Euler form: rotations around squeezing.

    lambda = (w^2 + 1/w^2)/2 >= 1 parametrizes the squeezing part; the four
    angles are (inner A, outer A, inner B, outer B), all kept as Python
    floats.  Raises ValueError unless both lambdas are finite real numbers
    >= 1 and the angles are exactly four finite real numbers, read as one
    float64 array of shape (4,) by :func:`~gaussgeom.core._real_array`.
    """

    lambda_a: float
    lambda_b: float
    angles: tuple[float, float, float, float]

    def __post_init__(self):
        lam_a, lam_b = _real("lambda_a", self.lambda_a), _real("lambda_b", self.lambda_b)
        angles = _real_array("angles", self.angles)
        if angles.shape != (4,):
            raise ValueError(f"angles must be four real numbers, got shape {angles.shape}")
        angles = tuple(angles.tolist())
        if not all(map(math.isfinite, (lam_a, lam_b, *angles))):
            raise ValueError(f"lambda parameters and angles {lam_a, lam_b, angles} must be finite")
        if lam_a < 1.0 or lam_b < 1.0:
            raise ValueError("lambda parameters must be >= 1")
        self.__dict__.update(lambda_a=lam_a, lambda_b=lam_b, angles=angles)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo result: value, standard error, iteration consistency, cost.

    ``chi2_per_dof`` is 0 for the sample means of this module and of
    ``mcint.plain_integrate``; only ``mcint``'s VEGAS iterations set it.
    """

    value: float
    std_error: float
    chi2_per_dof: float
    n_evals: int


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
    Each purity is one real number (ValueError otherwise).  Raises
    DomainError when no physical states exist.
    """
    prop, mean = logneg_average(mu, _real("mu_a", mu_a), _real("mu_b", mu_b))
    if np.isnan(prop[0]):
        raise DomainError(f"no physical states at (mu, mu_A, mu_B) = ({mu}, {mu_a}, {mu_b})")
    return float(mean[0])


def _purity_grid(mu: float, grid_size: int, plane: bool):
    """Grid values and, per point, region code, entangled proportion and mean E_N.

    The grid values are (i+1)/grid_size.  The points are every pair of them,
    (mu_A, mu_B) with mu_A the slower index, over the plane, or the values
    along the symmetric cut mu_A = mu_B.  Region codes are positions in
    ``tuple(RegionClass)``; points without physical states (code 0,
    Unphysical) carry NaN statistics.  All four results are arrays.
    Raises ValueError unless ``grid_size`` is a positive integer (not a bool).
    """
    grid_size = _integer("grid_size", grid_size, 1)
    values = np.arange(1, grid_size + 1) / grid_size
    if plane:
        mu_a, mu_b = np.repeat(values, grid_size), np.tile(values, grid_size)
    else:
        mu_a = mu_b = values
    props, means = logneg_average(mu, mu_a, mu_b)
    return values, _region_codes(props), props, means


def _point_stats(codes, props, means):
    """(region, proportion, mean E_N) per point, with None statistics where Unphysical."""
    regions = tuple(RegionClass)
    return [
        (regions[code], prop, mean) if code else (regions[0], None, None)
        for code, prop, mean in zip(codes.tolist(), props.tolist(), means.tolist())
    ]


def scan_purity_plane(mu: float, grid_size: int) -> list[PurityPlaneCell]:
    """Tabulate region class, entangled proportion and mean E_N on a purity grid.

    The grid covers (0, 1]^2 with values (i+1)/grid_size.  Cells without
    physical states are marked Unphysical and carry empty statistics.
    Raises ValueError unless ``grid_size`` is a positive integer.
    """
    values, codes, props, means = _purity_grid(mu, grid_size, plane=True)
    pairs = itertools.product(values.tolist(), repeat=2)
    return [
        PurityPlaneCell(mu_a, mu_b, *stats)
        for (mu_a, mu_b), stats in zip(pairs, _point_stats(codes, props, means))
    ]


def purity_cut(mu: float, grid_size: int) -> list[PurityCutPoint]:
    """Scan along the symmetric cut mu_A = mu_B at fixed global purity.

    Raises ValueError unless ``grid_size`` is a positive integer.
    """
    values, codes, props, means = _purity_grid(mu, grid_size, plane=False)
    return [
        PurityCutPoint(v, *stats)
        for v, stats in zip(values.tolist(), _point_stats(codes, props, means))
    ]


# ---------------------------------------------------------------------------
# Energy-constrained ensemble


def energy_weight(mu_a, mu_b, energy: float):
    """Marginal-purity weight left after integrating out the local groups.

    (E - 1/mu_A - 1/mu_B) / (mu_A^2 mu_B^2) on its support and zero once the
    energy is exhausted by the marginal mixedness (E <= 1/mu_A + 1/mu_B).
    The mu^7 prefactor of the volume element is constant at fixed global
    purity and cancels in every ensemble average.  A purity of 0 gives the
    zero, with no numpy warning.  The purities are read by
    :func:`~gaussgeom.core._real_array`; DomainError unless they lie in
    [0, 1] (see :func:`_inverse_purity`), and unless the energy is finite.
    """
    mu_a, mu_b = _real_array("mu_a", mu_a), _real_array("mu_b", mu_b)
    energy = _real("energy", energy)
    if not math.isfinite(energy):
        raise DomainError(f"energy = {energy} must be finite")
    with np.errstate(divide="ignore", over="ignore"):
        excess = energy - _inverse_purity("mu_a", mu_a) - _inverse_purity("mu_b", mu_b)
    w = np.divide(excess, mu_a**2 * mu_b**2, out=np.zeros_like(excess), where=excess > 0.0)
    return float(w) if w.ndim == 0 else w


def _inverse_purity(name: str, mu: np.ndarray):
    """1/mu of float64 purities; DomainError unless they lie in [0, 1].

    The range test is one pass over the reciprocals, which must be at least 1
    (so -0.0, whose reciprocal is -inf, counts as negative).  A purity of 0
    gives inf, with a numpy warning unless the caller ignores division by zero.
    """
    inv = 1.0 / mu
    if not inv.min(initial=1.0) >= 1.0:  # also rejects NaN
        raise DomainError(f"{name} = {mu[~(inv >= 1.0)].flat[0]} must lie in [0, 1]")
    return inv


class _ShiftedSums:
    """Running sample means and standard errors of ``rows`` statistics.

    Blocks of draws arrive as (rows, m) arrays and are added to sums of the
    draws and of their squares, each taken about a shift: the first draw of
    the first non-empty block.  The shift keeps the sums of squares from
    cancelling where the spread is small against the values, and makes a
    constant row exact (mean equal to the value, error 0).  Memory does not
    grow with the number of draws.
    """

    def __init__(self, rows: int):
        self.n = 0
        self.shift = None
        self.s1 = np.zeros(rows)
        self.s2 = np.zeros(rows)

    def add(self, block: np.ndarray) -> None:
        """Add the draws in the columns of ``block``; it is shifted in place."""
        if block.shape[1] == 0:
            return
        if self.shift is None:
            self.shift = block[:, :1].copy()
        block -= self.shift
        self.s1 += block.sum(axis=1)
        self.s2 += np.einsum("ij,ij->i", block, block)
        self.n += block.shape[1]

    def estimates(self) -> list[McEstimate]:
        """Per row, mean shift + S1/n and standard error sqrt(var/n).

        var = max(S2 - S1^2/n, 0)/(n - 1) is the sample variance (ddof 1).
        """
        n = self.n
        mean = self.shift[:, 0] + self.s1 / n
        var = np.maximum(self.s2 - self.s1 * self.s1 / n, 0.0) / (n - 1)
        return [
            McEstimate(value=m, std_error=math.sqrt(v / n), chi2_per_dof=0.0, n_evals=n)
            for m, v in zip(mean.tolist(), var.tolist())
        ]


def energy_constrained_stats(mu: float, energy: float, mc: McConfig | None = None) -> EnergyStats:
    """Ensemble averages at fixed purity and energy with their standard errors.

    Each exact draw from :func:`_accepted_uv`, in u = 1/mu_A + 1/mu_B and
    v = 1/mu_A - 1/mu_B, contributes the closed-form entangled proportion
    and mean E_N over its seralian interval, and its steering indicator and
    G (both independent of the seralian).  All four are taken in (u, v),
    block by block as the draws are accepted: the first two come from the
    seralian-interval kernel that the purity scans use too
    (:func:`~gaussgeom.correlations.logneg_average`), given h = u/2 and the
    interval length L(u, v) of :class:`_UVSupport`, and with
    1/min(mu_A, mu_B) = (u + |v|)/2 the state is steerable iff that exceeds
    1/mu, with G = max(ln(mu (u + |v|)/2), 0).  The four statistics are
    plain means over one shared sample with standard errors std/sqrt(n),
    taken by :func:`_ensemble_means`, so memory does not grow with
    ``mc.final_evals``.
    Raises DomainError outside the ensemble's support (see
    :class:`EnergyEnsemble`) and above the sampler's energy cap 2**200
    (see :class:`_UVSupport`).
    """
    return EnergyStats(*_ensemble_means(mu, energy, mc, 4, _uv_statistics))


def _ensemble_means(mu: float, energy: float, mc: McConfig | None, rows: int, statistics):
    """Sample means and standard errors of ``rows`` per-draw statistics of the (mu, E) ensemble.

    ``statistics(box, u, v, out)`` writes the statistics of the accepted
    draws (u, v) of :func:`_accepted_uv` into the rows of ``out``, given the
    box of :meth:`_UVSupport.of`, which checks (mu, E).  The draws come from
    one :func:`_stream` seeded with ``mc.seed``.  Each accepted block is
    written into one reused (rows, _BLOCK) scratch array and added to running
    sums (:class:`_ShiftedSums`), so memory does not grow with
    ``mc.final_evals`` (default :class:`McConfig`).
    """
    mc = mc or McConfig()
    box = _UVSupport.of(mu, energy)
    scratch = np.empty((rows, _BLOCK))
    sums = _ShiftedSums(rows)
    with _stream(np.random.default_rng(mc.seed)) as stream:
        for u, v in _accepted_uv(box, mc.final_evals, stream):
            block = scratch[:, : u.size]
            statistics(box, u, v, block)
            sums.add(block)
    return sums.estimates()


def _uv_statistics(box: _UVSupport, u, v, out: np.ndarray) -> None:
    """Write the four per-draw statistics of accepted draws (u, v) into ``out``.

    The rows of ``out`` are the entangled proportion, the mean E_N, the
    steering indicator and G; see :func:`energy_constrained_stats`.
    """
    out[0], out[1] = _seralian_average(box.mu, 0.5 * u, box.length(u, v))
    steer, g = out[2:]
    x_max = 0.5 * (u + np.abs(v))
    np.greater(x_max, 1.0 / box.mu, out=steer)
    np.maximum(np.log(box.mu * x_max), 0.0, out=g)


def energy_constrained_ratio(
    mu: float, energy: float, inner, mc: McConfig | None = None
) -> McEstimate:
    """Energy-constrained average of a custom seralian-integrated quantity.

    ``inner(mu_a, mu_b, d_min, d_max)`` must return, per point, the integral
    of the quantity over the allowed seralian interval; the result is the
    sample mean of its ratio to the interval length over exact ensemble
    draws.  ``inner`` is called once per accepted block of draws (at most
    :data:`_BLOCK` points), and the ratios go straight into running
    sums (:func:`_ensemble_means`), so memory does not grow with
    ``mc.final_evals``.  With ``inner`` returning the interval length itself
    the ratio is exactly 1.  Raises DomainError where
    :func:`energy_constrained_stats` does, and ValueError where ``inner``
    returns anything but one finite value per point.
    """

    def ratio(box, u, v, out):
        a, b, lo, length = _intervals(box, u, v)
        hi = lo + length
        integral = np.asarray(inner(1.0 / a, 1.0 / b, lo, hi), dtype=float)
        if integral.shape != a.shape or not np.isfinite(integral).all():
            raise ValueError(
                f"inner must return one finite value per point, {a.size} of them; "
                f"got shape {integral.shape}"
            )
        out[0] = integral / (hi - lo)

    return _ensemble_means(mu, energy, mc, 1, ratio)[0]


# ---------------------------------------------------------------------------
# Pure-state endpoint


#: Below this t = E/2 - 1 the pure-state means come from their power series.
_SERIES_T = 0.1
#: Series terms; the first omitted one is below 1e-17 relative at t = 0.1.
_SERIES_TERMS = 16
#: mean_G = t * sum_j g_j t^j, from ln(1 + x) = sum_k (-1)^(k+1) x^k / k.
_G_SERIES = [2.0 * (-1) ** j / ((j + 1) * (j + 2) * (j + 3)) for j in range(_SERIES_TERMS)]
#: ln 2 * mean_E_N = sqrt(2 t) * sum_k e_k t^k, from
#: arccosh(1 + x) = 2 arcsinh(sqrt(x / 2)) and the arcsinh series.
_EN_SERIES = [
    8.0 * (-1) ** k * math.comb(2 * k, k) / (8**k * (2 * k + 1) * (2 * k + 3) * (2 * k + 5))
    for k in range(_SERIES_TERMS)
]


def _pure_state_means(t: float) -> tuple[float, float]:
    """(ln 2 * mean E_N, mean G) of the pure-state ensemble at E/2 = 1 + t > 1.

    With h = 1 + t the weight integral is (h - 1)^2 and the numerators are
    elementary: (h^2 + 1/2) arccosh h - (3/2) h sqrt(h^2 - 1) for E_N and
    h^2 ln h - 3h^2/2 + 2h - 1/2 for G.  Both cancel to O(t^(5/2)) and O(t^3)
    as t -> 0, so below :data:`_SERIES_T` the means come from the series of
    2 * int_0^1 (1 - s) f(1 + t s) ds in t instead, with the limits
    (8 sqrt 2 / 15) sqrt(t) and t / 3.
    """
    if t < _SERIES_T:
        power = [t**k for k in range(_SERIES_TERMS)]
        en = math.sqrt(2.0 * t) * math.fsum(c * p for c, p in zip(_EN_SERIES, power))
        g = t * math.fsum(c * p for c, p in zip(_G_SERIES, power))
        return en, g
    # Divided by t^2 term by term, so that nothing overflows up to the top of
    # the float range: h/t, sqrt(h^2 - 1)/t = sqrt(2 + t)/sqrt(t) and
    # arccosh h = 2 asinh(sqrt(t/2)).
    h_t = (1.0 + t) / t
    root_t = math.sqrt(2.0 + t) / math.sqrt(t)
    en = (h_t * h_t + 0.5 / t / t) * 2.0 * math.asinh(math.sqrt(0.5 * t)) - 1.5 * h_t * root_t
    g = h_t * h_t * math.log1p(t) - 1.0 / t - 1.5
    return en, g


def pure_state_endpoint(energy: float) -> PureEndpoint:
    """Statistics of Haar-random pure states at fixed energy.

    A pure two-mode state is a local symplectic acting on a two-mode
    squeezed form with a single Schmidt parameter nu; the energy constraint
    integrates to the weight w(nu) = E - 2 nu on nu in [1, E/2], with
    E_N(nu) = arccosh(nu)/ln 2 and G(nu) = ln(nu).  Both means are closed
    form, with a power series near E = 2 where the closed form cancels (see
    :func:`_pure_state_means`).  At E = 2 only the vacuum remains and all
    statistics vanish; for E > 2 all states except the measure-zero point
    nu = 1 are entangled and steerable.  Raises ValueError unless E is a
    real number and DomainError for non-finite E or E < 2.
    """
    energy = _real("energy", energy)
    if not 2.0 - 1e-12 <= energy < math.inf:  # also rejects NaN
        raise DomainError(f"energy = {energy} must be finite and at least 2")
    if energy <= 2.0 + 1e-12:
        return PureEndpoint(0.0, 0.0, 0.0, 0.0)
    en, g = _pure_state_means(energy / 2.0 - 1.0)
    return PureEndpoint(
        prop_entangled=1.0,
        mean_logneg=en / _LN2,
        prop_steerable=1.0,
        mean_steering=g,
    )


# ---------------------------------------------------------------------------
# Exact sampler of energy-constrained states

#: Largest proposal batch of the sampler; fixes the layout of its random
#: stream, which a batch fills with its u's, then its v's, then its
#: acceptance variates.  The proposals are read from that stream slice by
#: slice (:class:`_Stream`), so the batch no longer sets the working
#: memory.
_SAMPLER_BATCH = 65_536
#: Free list of draw buffers, each a (3, _BLOCK) array of 384 KB with its
#: three cursor generators.  A sampler call pops one (:func:`_stream`) or
#: builds one (about 54 us) and puts it back when it finishes or is closed,
#: so the list holds one per sampler ever running at once.  Fresh arrays per
#: batch made the heap grow and shrink, faulting pages in every call.
_DRAW_BUFFERS: list[tuple[np.ndarray, tuple[np.random.Generator, ...]]] = []
#: Largest energy of the sampler.  On the support, energy_weight =
#: (E - u)(xy)^2 in x = 1/mu_A, y = 1/mu_B peaks at (16/3125) E^5 (xy <= u^2/4,
#: largest at u = 4E/5), which leaves the float range once E passes about
#: 1.29e62.  At 2**200 every proposal's weight stays below E^5 = 2**1000
#: and (mu_A mu_B)^2 above 2**-800, both normal floats.
_SAMPLER_ENERGY_MAX = 2.0**200
#: Proposals per acceptance slice.  The dozen temporaries of a slice stay in
#: a 2 MB L2 cache; 65 536-wide slices ran about 2x slower per proposal.
_BLOCK = 16_384
#: States per assembly chunk of :func:`sample_energy_constrained`; bounds its
#: working memory beyond the output.  A chunk's temporaries stay in the 2 MB
#: L2 cache: 20 000 states took 6.3 ms in 4096-state chunks against 7.4 ms
#: in 1024-state, 8.3 ms in 16 384-state chunks and 9.0 ms whole (medians
#: of 12 best-of-5 runs on one vCPU of a 2-vCPU x86-64 VM, numpy 2.4 with
#: AVX-512, rotations from half-angle tangents).  A chunk's 4 angles per
#: state fill one row of a draw buffer.
_STATE_CHUNK = _BLOCK // 4


def _rotation(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos theta, sin theta) from the half-angle tangent t = tan(theta/2).

    cos theta = (1 - t)(1 + t)/(1 + t^2) and sin theta = 2t/(1 + t^2): one
    tangent per angle in place of a cosine and a sine.  Over 10^6 uniform
    angles both stayed within 3.3e-16 of libm's values, and c^2 + s^2 within
    3 eps of 1.  t stays finite on [0, 2 pi): at theta = pi it is about
    1.6e16, and t^2 about 2.7e32.
    """
    t = np.tan(0.5 * theta)
    q = 1.0 / (1.0 + t * t)
    return (1.0 - t) * (1.0 + t) * q, 2.0 * t * q


def _local_blocks(lam_m1: np.ndarray, inner: np.ndarray, outer: np.ndarray):
    """Entries s[i][j] of the batched Sp(2) elements O(outer) diag(w, 1/w) O(inner).

    O(t) = [[cos t, sin t], [-sin t, cos t]] and lambda = (w^2 + 1/w^2)/2, given
    as lambda - 1, so that w^2 = lambda + sqrt(lambda^2 - 1) keeps its digits
    next to lambda = 1 (as sqrt(lambda - 1) sqrt(lambda + 1) where lambda^2 - 1
    overflows).  Each rotation's cosine and sine come from the half-angle
    tangent h = tan(t/2), as cos t = (1 - h)(1 + h)/(1 + h^2) and
    sin t = 2h/(1 + h^2) (:func:`_rotation`), within 3.3e-16 of libm's.
    """
    root = np.sqrt(lam_m1 * (lam_m1 + 2.0))
    big = np.isinf(root)
    root[big] = np.sqrt(lam_m1[big]) * np.sqrt(lam_m1[big] + 2.0)
    w = np.sqrt(1.0 + lam_m1 + root)
    ci, si = _rotation(inner)
    co, so = _rotation(outer)
    wc, ws, vc, vs = w * ci, w * si, ci / w, si / w
    return (
        (co * wc - so * vs, co * ws + so * vc),
        (-so * wc - co * vs, -so * ws + co * vc),
    )


def _covmats(a, b, c_plus, c_minus, lam_a_m1, lam_b_m1, angles, out=None) -> np.ndarray:
    """Batched covariance matrices (S_A + S_B)^T sigma_std (S_A + S_B).

    sigma_std has blocks a I, b I and C = diag(c_plus, c_minus); the result
    has blocks a S_A^T S_A, b S_B^T S_B and S_A^T C S_B, formed entrywise
    (exactly symmetric).  The squeezings come as lambda_A - 1 and
    lambda_B - 1 (:func:`_local_blocks`), and ``angles`` holds the columns
    (inner A, outer A, inner B, outer B).  The matrices are written into
    ``out``, of shape (n, 4, 4), if given, and into a new array otherwise.
    """
    sa = _local_blocks(lam_a_m1, angles[:, 0], angles[:, 1])
    sb = _local_blocks(lam_b_m1, angles[:, 2], angles[:, 3])
    sigma = np.empty((len(lam_a_m1), 4, 4)) if out is None else out
    for i, j in ((0, 0), (0, 1), (1, 1)):
        sigma[:, i, j] = a * (sa[0][i] * sa[0][j] + sa[1][i] * sa[1][j])
        sigma[:, 2 + i, 2 + j] = b * (sb[0][i] * sb[0][j] + sb[1][i] * sb[1][j])
    # Entry (1, 0) of a diagonal block is the products of entry (0, 1), each
    # commuted, so it is that entry bit for bit.
    sigma[:, 1, 0], sigma[:, 3, 2] = sigma[:, 0, 1], sigma[:, 2, 3]
    for i in range(2):
        for j in range(2):
            sigma[:, i, 2 + j] = sigma[:, 2 + j, i] = (
                c_plus * sa[0][i] * sb[0][j] + c_minus * sa[1][i] * sb[1][j]
            )
    return sigma


def assemble_covmat(std: StdForm, sample: LocalSympSample) -> np.ndarray:
    """Covariance matrix (S_A + S_B)^T sigma_std (S_A + S_B) for one sample.

    The trace identity tr(S^T (c I) S) = 2 c lambda makes the energy of the
    result exactly lambda_A/mu_A + lambda_B/mu_B.  The fields of ``std`` are
    read as :meth:`StdForm.matrix` reads them (ValueError unless they are
    finite real numbers).  Raises DomainError where the matrix leaves the
    float range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = _covmats(
            *_std_params(std),
            np.array([sample.lambda_a - 1.0]),
            np.array([sample.lambda_b - 1.0]),
            np.array([sample.angles], dtype=float),
        )[0]
    return _in_float_range(sigma, f"the covariance matrix of {std} and {sample}")


@dataclass(frozen=True)
class _UVSupport:
    """Support of the marginal-purity density in u = 1/mu_A + 1/mu_B, v = 1/mu_A - 1/mu_B.

    With x = 1/mu_A and y = 1/mu_B the seralian interval has the
    closed-form length L = min(u^2 - 4/mu, (1/mu - 1)^2) - v^2 (see
    :func:`~gaussgeom.correlations.delta_bounds`), positive exactly where
    physical states exist.  L > 0 forces xy > 1/mu and |x - y| < 1/mu - 1,
    hence x, y > 1.  The box 2/sqrt(mu) <= u <= E, |v| <= V with
    V^2 = min((1/mu - 1)^2, E^2 - 4/mu) covers the support below the
    energy, and (E - u) L <= (E - 2/sqrt(mu)) V^2 = ``rho_max`` on it.

    :meth:`of` is the one support check of the (mu, E) entry points: it
    raises where :class:`EnergyEnsemble` does, whose Python floats it keeps
    as ``mu`` and ``energy``, and DomainError for E above
    :data:`_SAMPLER_ENERGY_MAX`, where the sampler's weight leaves the float
    range.
    """

    mu: float
    energy: float
    four_over_mu: float
    u_lo: float
    v_sq: float
    cap: float
    rho_max: float

    @classmethod
    def of(cls, mu: float, energy: float) -> "_UVSupport":
        ensemble = EnergyEnsemble(mu, energy)
        mu, energy = ensemble.mu, ensemble.energy
        if energy > _SAMPLER_ENERGY_MAX:
            raise DomainError(
                f"energy = {energy} must be at most 2**200 for the sampler: its weight "
                "(E - u)(xy)^2 leaves the float range above E = 1.29e62"
            )
        u_lo = 2.0 / np.sqrt(mu)
        cap = (1.0 / mu - 1.0) ** 2
        v_sq = min(cap, energy**2 - 4.0 / mu)
        return cls(mu, energy, 4.0 / mu, u_lo, v_sq, cap, (energy - u_lo) * v_sq)

    def length(self, u, v):
        """Seralian interval length L(u, v); not positive off the support."""
        return np.minimum(u * u - self.four_over_mu, self.cap) - v * v


class _Stream:
    """Consecutive runs of one PCG64 stream, read where they lie into rows of ``draws``.

    Cursor k, seeded with ``state``, reads the k-th run of each :meth:`runs`
    call, moved there by ``bit_generator.advance``, exact in O(log n) steps,
    so each run is bit for bit what drawing the runs in order from ``state``
    gives, one 64-bit output per double.  A cursor never reads past its run;
    ``end`` is where the runs handed out so far end.
    """

    def __init__(self, draws: np.ndarray, cursors, state):
        for cursor in cursors:
            cursor.bit_generator.state = state
        self.draws, self.cursors = draws, cursors
        self.at = [0] * len(cursors)  # each cursor's position in the stream
        self.end = 0

    def runs(self, lengths) -> None:
        """Point cursor k at the k-th of consecutive runs of ``lengths`` doubles, after the last."""
        for k, length in enumerate(lengths):
            if self.end > self.at[k]:
                self.cursors[k].bit_generator.advance(self.end - self.at[k])
            self.at[k] = self.end
            self.end += length

    def read(self, *sizes) -> list[np.ndarray]:
        """The next ``sizes[k]`` doubles of cursor k's run, for every k, in rows of ``draws``."""
        rows = [self.draws[k, :size] for k, size in enumerate(sizes)]
        for k, row in enumerate(rows):
            self.cursors[k].random(out=row)
            self.at[k] += row.size
        return rows


@contextlib.contextmanager
def _stream(rng: np.random.Generator):
    """A :class:`_Stream` of ``rng``'s stream on a draw buffer from :data:`_DRAW_BUFFERS`.

    ``rng``'s state is read once, and ``rng`` is never moved.  The buffer and
    its PCG64 cursors go back on the free list when the block exits.
    """
    try:
        entry = _DRAW_BUFFERS.pop()
    except IndexError:
        cursors = tuple(np.random.Generator(np.random.PCG64(0)) for _ in range(3))
        entry = (np.empty((3, _BLOCK)), cursors)
    try:
        yield _Stream(*entry, rng.bit_generator.state)
    finally:
        _DRAW_BUFFERS.append(entry)


def _accepted_uv(box: _UVSupport, count: int, stream: _Stream):
    """Yield blocks of accepted (u, v) proposals until ``count`` are accepted.

    In x = 1/mu_A, y = 1/mu_B the weight times d mu_A d mu_B is
    (E - x - y) dx dy, so the marginal density of (x, y) is (E - u) L in
    the coordinates of :class:`_UVSupport`.  Uniform proposals in its box
    are accepted with probability (E - u) L / rho_max, where E - u is
    :func:`energy_weight` times (mu_A mu_B)^2 at the purities 1/max(x, 1),
    1/max(y, 1) (the clamp keeps them in (0, 1]; clamped proposals have
    L <= 0 and are rejected).  Every accepted draw has L > 0: the one support test.

    Each batch, sized for the draws still missing at the acceptance seen so
    far, takes the next three runs of ``stream``: its u's, its v's and its
    acceptance variates, read slice by slice (:data:`_BLOCK` proposals) into
    the stream's buffer, mapped in place as ``Generator.uniform`` maps them
    (bit for bit) and passed once to :func:`energy_weight`.  The test stops
    at the slice that completes ``count``, leaving the rest of that batch
    unread though the stream ends past it.  The yielded blocks are copies.
    """
    v_max = np.sqrt(box.v_sq)
    ranges = ((box.u_lo, box.energy), (-v_max, v_max))
    n_acc = n_drawn = 0
    while True:
        # Size the batch for the states still missing at the acceptance
        # seen so far: a quarter before the first batch, at least 3 %
        # anywhere.
        rate = n_acc / n_drawn if n_acc else (0.03 if n_drawn else 0.25)
        batch = min(_SAMPLER_BATCH, max(1024, int(1.1 * (count - n_acc) / rate)))
        stream.runs((batch,) * 3)
        n_drawn += batch
        for start in range(0, batch, _BLOCK):
            size = min(_BLOCK, batch - start)
            u_b, v_b, r_b = stream.read(size, size, size)
            for x, (low, high) in zip((u_b, v_b), ranges):
                # Generator.uniform(low, high) is low + (high - low) * random().
                np.multiply(x, high - low, out=x)
                np.add(x, low, out=x)
            mu_a = 1.0 / np.maximum(0.5 * (u_b + v_b), 1.0)
            mu_b = 1.0 / np.maximum(0.5 * (u_b - v_b), 1.0)
            excess = energy_weight(mu_a, mu_b, box.energy) * (mu_a * mu_b) ** 2  # E - u
            ok = r_b * box.rho_max < excess * box.length(u_b, v_b)
            idx = np.flatnonzero(ok)[: count - n_acc]
            n_acc += idx.size
            yield u_b.take(idx), v_b.take(idx)
            if n_acc == count:
                logger.debug(
                    "sampler acceptance %.3g (%d proposals for %d states)",
                    n_acc / n_drawn, n_drawn, count,
                )
                return


def _intervals(box: _UVSupport, u, v):
    """Standard-form diagonals and seralian intervals (a, b, lower end, length) of draws (u, v).

    a = max((u + v)/2, 1), b = max((u - v)/2, 1) and the interval runs from
    2/mu + v^2 with length L(u, v) of ``box``, positive for accepted draws.
    """
    a = np.maximum(0.5 * (u + v), 1.0)
    b = np.maximum(0.5 * (u - v), 1.0)
    return a, b, 2.0 / box.mu + v * v, box.length(u, v)


def _draw_intervals(mu: float, energy: float, count: int, rng: np.random.Generator):
    """:func:`_intervals` of ``count`` ensemble draws of :func:`_accepted_uv`, all at once.

    The whole-count reference of the draws of :func:`sample_energy_constrained`,
    from the stream of a fresh ``rng``, left past the proposals.
    """
    box = _UVSupport.of(mu, energy)
    with _stream(rng) as stream:
        u, v = (np.concatenate(parts) for parts in zip(*_accepted_uv(box, count, stream)))
    rng.bit_generator.advance(stream.end)
    return _intervals(box, u, v)


def _squeezings(energy, a, b, r):
    """(lambda_A - 1, lambda_B - 1) at energy E for uniform draws r in [0, 1).

    lambda_A = 1 + (E - b - a) r / a is uniform on [1, (E - b)/a], and
    lambda_B = (E - a lambda_A)/b = 1 + (E - b - a)(1 - r)/b.
    """
    spare = energy - b - a
    return spare * r / a, spare * (1.0 - r) / b


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
    is bounded everywhere.  The seralian is uniform on the interval of each
    accepted (u, v) (:func:`_intervals`), lambda_A uniform on
    [1, (E - b)/a] and the four rotation angles uniform; c+ and c- come
    from :func:`~gaussgeom.core._std_form_c`.  The accepted (u, v) are kept
    in two count-long arrays; the states are assembled in chunks of
    :data:`_STATE_CHUNK` from the uniforms that follow the proposals in the
    call's one :func:`_stream`, so the working memory beyond the output is
    about 22 bytes per state at 200 000 states.  Every returned matrix has
    energy E exactly (to rounding) and passes the physicality test.
    Raises DomainError outside the ensemble's support
    and above the sampler's energy cap 2**200, and ValueError unless
    ``seed`` is a non-negative integer and ``count`` a positive one.
    """
    seed, count = _integer("seed", seed, 0), _integer("count", count, None)
    if count < 1:
        raise ValueError("count must be positive")
    box = _UVSupport.of(mu, energy)
    u, v = np.empty(count), np.empty(count)
    filled = 0
    with _stream(np.random.default_rng(seed)) as stream:
        for u_b, v_b in _accepted_uv(box, count, stream):
            u[filled : filled + u_b.size], v[filled : filled + v_b.size] = u_b, v_b
            filled += u_b.size
        sigma = np.empty((count, 4, 4))
        # Seralian, squeezing and angle uniforms: the count, count and
        # 4 count doubles that follow the proposals, read chunk by chunk.
        stream.runs((count, count, 4 * count))
        for start in range(0, count, _STATE_CHUNK):
            n = min(_STATE_CHUNK, count - start)
            c = slice(start, start + n)
            r_delta, r_lambda, angles = stream.read(n, n, 4 * n)
            # Generator.uniform(0, 2 pi) is 0 + 2 pi * random().
            np.multiply(angles, 2.0 * np.pi, out=angles)
            a, b, d_min, length = _intervals(box, u[c], v[c])
            _covmats(
                a, b, *_std_form_c(box.mu, a, b, d_min + r_delta * length),
                *_squeezings(box.energy, a, b, r_lambda), angles.reshape(n, 4), out=sigma[c],
            )
    return sigma
