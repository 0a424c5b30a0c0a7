"""The argument contract of the public entry points.

Every public function that takes a scalar either returns a result in
float64 (Python floats, float64 arrays, ints where it counts) or raises
ValueError, DomainError included, and warns nothing: for signed zeros,
subnormals, 1e308, infinities and NaN, numpy scalars of other widths,
bools, strings and Python ints beyond the float range.  Counts, grid sizes
and mode numbers are drawn only from small values, since a large finite
one allocates or runs without bound.
"""

import dataclasses
import enum
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussgeom as gg
from gaussgeom import correlations, mcint, typicality

_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
    0.3, 0.5, 0.6, 1.0, 2.5, 8.0, 1e308, -1e308, math.inf, -math.inf, math.nan,
]


def _numpy(kind, value):
    """``kind(value)``, with the overflow of a narrow cast (float16(1e308) is inf) allowed."""
    with np.errstate(over="ignore", invalid="ignore"):
        return kind(value)


_NUMPY_FLOATS = st.builds(
    _numpy, st.sampled_from([np.float16, np.float32]), st.sampled_from(_EDGES)
)
_NOT_REAL = st.one_of(st.booleans(), st.just(np.bool_(True)), st.text(max_size=3), st.none())

#: The shared scalars.
SCALARS = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(),
    _NUMPY_FLOATS,
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.uint8, st.integers(0, 255)),
    st.integers(2**63, 2**1100) | st.integers(-(2**1100), -(2**63)),
    _NOT_REAL,
)

#: Counts, grid sizes and mode numbers: the shared scalars that are no
#: integer, and small integers only.
COUNTS = st.one_of(
    st.sampled_from(_EDGES),
    _NUMPY_FLOATS,
    st.integers(-2, 3),
    st.builds(np.int64, st.integers(-2, 3)),
    st.builds(np.uint8, st.integers(0, 3)),
    _NOT_REAL,
)


def _at(base, slot, x):
    """``base`` with entry ``slot`` replaced by ``x``."""
    return tuple(x if k == slot else v for k, v in enumerate(base))


_COORDS = (0.5, 0.6, 0.6, 4.5)  # a physical point: delta in [4, 5]
_MC = typicality.McConfig(seed=1, final_evals=8)


def _rng():
    return np.random.default_rng(5)


def _first(x):
    return x[:, 0]


_GRID = gg.AdaptiveGrid.uniform(1, nbins=4)


#: (name, slots, call(x, slot)): each public function with a scalar argument.
_CALLS = [
    ("symplectic_form", 1, lambda x, k: gg.symplectic_form(x), COUNTS),
    ("vacuum", 1, lambda x, k: gg.vacuum(x), COUNTS),
    ("is_bona_fide.tol", 1, lambda x, k: gg.is_bona_fide(np.eye(4), x), SCALARS),
    ("two_mode_squeezed", 1, lambda x, k: gg.two_mode_squeezed(x), SCALARS),
    ("random_symplectic.n_modes", 1, lambda x, k: gg.random_symplectic(x, _rng()), COUNTS),
    ("random_symplectic.scale", 1, lambda x, k: gg.random_symplectic(1, _rng(), x), SCALARS),
    ("random_local_symplectic", 1, lambda x, k: gg.random_local_symplectic(_rng(), x), SCALARS),
    ("random_covmat.n_modes", 1, lambda x, k: gg.random_covmat(x, _rng()), COUNTS),
    ("random_covmat.nu_max", 1, lambda x, k: gg.random_covmat(2, _rng(), nu_max=x), SCALARS),
    ("random_covmat.scale", 1, lambda x, k: gg.random_covmat(1, _rng(), scale=x), SCALARS),
    (
        "cm_from_invariants", 4,
        lambda x, k: gg.cm_from_invariants(gg.InvariantCoords(*_at(_COORDS, k, x))), SCALARS,
    ),
    ("fixed_purity", 1, lambda x, k: gg.fixed_purity(x), SCALARS),
    ("MeasureKind", 1, lambda x, k: gg.MeasureKind("fixed-purity", x), SCALARS),
    (
        "hs_density_invariant_coords", 4,
        lambda x, k: gg.hs_density_invariant_coords(gg.InvariantCoords(*_at(_COORDS, k, x))),
        SCALARS,
    ),
    (
        "hs_density_std_form", 4,
        lambda x, k: gg.hs_density_std_form(gg.StdForm(*_at((2.0, 2.0, 1.0, -0.5), k, x))),
        SCALARS,
    ),
    ("PptSpectrum", 2, lambda x, k: gg.PptSpectrum(*_at((0.5, 2.0), k, x)), SCALARS),
    (
        "StdForm.matrix", 4,
        lambda x, k: gg.StdForm(*_at((2.0, 2.0, 1.0, -0.5), k, x)).matrix(), SCALARS,
    ),
    (
        "numeric_std_form_density", 4,
        lambda x, k: gg.numeric_std_form_density(gg.StdForm(*_at((2.0, 2.0, 1.0, -0.5), k, x))),
        SCALARS,
    ),
    ("RegionClass.of_proportion", 1, lambda x, k: gg.RegionClass.of_proportion(x), SCALARS),
    # The array arguments: a spectrum, the eigenvalues of thermal, marginals.
    ("density_hs", 1, lambda x, k: gg.density_hs(x), SCALARS),
    (
        "density_ratio", 2,
        lambda x, k: gg.density_ratio(gg.HILBERT_SCHMIDT, gg.FISHER_RAO, _at((1.5, 2.0), k, x)),
        SCALARS,
    ),
    ("thermal", 2, lambda x, k: gg.thermal(_at((1.5, 2.0), k, x)), SCALARS),
    (
        "delta_bounds_batch.arrays", 3,
        lambda x, k: correlations.delta_bounds_batch(*_at(_COORDS[:3], k, [x, 0.6])), SCALARS,
    ),
    # Counts of mcint.
    ("plain_integrate.n", 1, lambda x, k: gg.plain_integrate(_first, [(0, 1)], n=x), COUNTS),
    (
        "vegas_integrate.iterations", 1,
        lambda x, k: gg.vegas_integrate(_first, [(0, 1)], iterations=x, evals_per_iter=8), COUNTS,
    ),
    (
        "vegas_integrate.evals_per_iter", 1,
        lambda x, k: gg.vegas_integrate(_first, [(0, 1)], iterations=1, evals_per_iter=x), COUNTS,
    ),
    ("sample_from_grid.n", 1, lambda x, k: mcint.sample_from_grid(_GRID, [(0, 1)], x, 1), COUNTS),
    # Seeds, grid sizes, damping, grid edges and box bounds of mcint.
    ("plain_integrate.seed", 1, lambda x, k: gg.plain_integrate(_first, [(0, 1)], 4, x), COUNTS),
    (
        "vegas_integrate.seed", 1,
        lambda x, k: gg.vegas_integrate(_first, [(0, 1)], 1, 8, seed=x), COUNTS,
    ),
    ("sample_from_grid.seed", 1, lambda x, k: mcint.sample_from_grid(_GRID, [(0, 1)], 4, x), COUNTS),
    (
        "vegas_integrate.nbins", 1,
        lambda x, k: gg.vegas_integrate(_first, [(0, 1)], 2, 8, nbins=x), COUNTS,
    ),
    ("AdaptiveGrid.uniform", 2, lambda x, k: gg.AdaptiveGrid.uniform(*_at((1, 4), k, x)), COUNTS),
    (
        "vegas_integrate.damping", 1,
        lambda x, k: gg.vegas_integrate(_first, [(0, 1)], 2, 8, damping=x), SCALARS,
    ),
    ("AdaptiveGrid.damping", 1, lambda x, k: gg.AdaptiveGrid([[0.0, 1.0]], x), SCALARS),
    (
        "AdaptiveGrid.edges", 3,
        lambda x, k: mcint.sample_from_grid(
            gg.AdaptiveGrid([_at((0.0, 0.5, 1.0), k, x)]), [(0, 1)], 4, 1
        ),
        SCALARS,
    ),
    (
        "plain_integrate.bounds", 2,
        lambda x, k: gg.plain_integrate(_first, [(0, 1), _at((0, 1), k, x)], 4), SCALARS,
    ),
    (
        "vegas_integrate.bounds", 2,
        lambda x, k: gg.vegas_integrate(_first, [_at((0, 1), k, x)], 2, 8), SCALARS,
    ),
    (
        "sample_from_grid.bounds", 2,
        lambda x, k: mcint.sample_from_grid(_GRID, [_at((0, 1), k, x)], 4, 1), SCALARS,
    ),
] + [
    (
        fn.__name__, 4,
        lambda x, k, fn=fn: fn(gg.InvariantCoords(*_at(_COORDS, k, x))), SCALARS,
    )
    for fn in (
        gg.log_negativity, gg.ppt_spectrum, gg.steerability,
        gg.steerability_a_to_b, gg.steerability_b_to_a,
    )
] + [
    (fn.__name__, 3, lambda x, k, fn=fn: fn(*_at(_COORDS[:3], k, x)), SCALARS)
    for fn in (
        gg.delta_threshold, gg.delta_bounds, gg.classify_region,
        correlations.delta_bounds_batch, correlations.logneg_average,
        gg.mean_logneg_fixed_purities,
    )
] + [
    ("McConfig.seed", 1, lambda x, k: gg.McConfig(seed=x), SCALARS),
    ("McConfig.final_evals", 1, lambda x, k: gg.McConfig(final_evals=x), SCALARS),
    ("EnergyEnsemble", 2, lambda x, k: gg.EnergyEnsemble(*_at((0.5, 8.0), k, x)), SCALARS),
    (
        "LocalSympSample", 6,
        lambda x, k: gg.LocalSympSample(
            *_at((1.5, 2.0), k, x), _at((0.1, 0.2, 0.3, 0.4), k - 2, x)
        ),
        SCALARS,
    ),
    ("pure_state_endpoint", 1, lambda x, k: gg.pure_state_endpoint(x), SCALARS),
    ("scan_purity_plane.mu", 1, lambda x, k: gg.scan_purity_plane(x, 2), SCALARS),
    ("scan_purity_plane.grid_size", 1, lambda x, k: gg.scan_purity_plane(0.5, x), COUNTS),
    ("purity_cut.mu", 1, lambda x, k: gg.purity_cut(x, 2), SCALARS),
    ("purity_cut.grid_size", 1, lambda x, k: gg.purity_cut(0.5, x), COUNTS),
    ("energy_weight.energy", 1, lambda x, k: gg.energy_weight(0.5, 0.6, x), SCALARS),
    (
        "energy_constrained_stats", 2,
        lambda x, k: gg.energy_constrained_stats(*_at((0.5, 8.0), k, x), _MC), SCALARS,
    ),
    (
        "energy_constrained_ratio", 2,
        lambda x, k: gg.energy_constrained_ratio(
            *_at((0.5, 8.0), k, x), lambda a, b, lo, hi: hi - lo, _MC
        ),
        SCALARS,
    ),
    (
        "sample_energy_constrained", 3,
        lambda x, k: gg.sample_energy_constrained(
            *_at((0.5, 8.0), k, x), 2, seed=_at((1,), k - 2, x)[0]
        ),
        SCALARS,
    ),
    (
        "sample_energy_constrained.count", 1,
        lambda x, k: gg.sample_energy_constrained(0.5, 8.0, x), COUNTS,
    ),
]


def _assert_float64(result):
    """Every number in ``result`` is a float64 (or an int, bool or tag), recursively."""
    if result is None or isinstance(result, (bool, str, enum.Enum)):
        return
    if isinstance(result, np.ndarray):
        assert result.dtype in (np.float64, np.bool_), result.dtype
    elif isinstance(result, (tuple, list)):
        for item in result:
            _assert_float64(item)
    elif dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            _assert_float64(getattr(result, field.name))
    else:
        assert isinstance(result, float) or type(result) is int, repr(result)


@pytest.mark.parametrize(
    "slots, call, values", [c[1:] for c in _CALLS], ids=[c[0] for c in _CALLS]
)
def test_public_scalar_arguments_read_in_float64_or_raise_value_error(slots, call, values):
    @settings(max_examples=25, derandomize=True, deadline=None, database=None)
    @given(x=values, slot=st.integers(0, slots - 1))
    def check(x, slot):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call(x, slot)
            except ValueError:  # DomainError too
                return
        _assert_float64(result)

    check()


#: Slots of _CALLS where an array is no error: the marginal purities of the
#: batch functions, and the seralian of calls that read only the purities.
_ARRAY_SLOTS = {
    "delta_bounds_batch": {1, 2},
    "logneg_average": {1, 2},
    "delta_threshold": {1, 2},
    "steerability": {3},
    "steerability_a_to_b": {3},
    "steerability_b_to_a": {3},
    "hs_density_invariant_coords": {3},
}


#: Argument names of the purity functions' slots in _CALLS, which an array
#: there must name.
_SLOT_NAMES = {
    **dict.fromkeys(
        (
            "classify_region", "delta_bounds", "delta_bounds_batch", "logneg_average",
            "mean_logneg_fixed_purities", "delta_threshold", "cm_from_invariants",
        ),
        ("mu", "mu_a", "mu_b", "delta"),
    ),
    "scan_purity_plane.mu": ("mu",),
    "purity_cut.mu": ("mu",),
}


@pytest.mark.parametrize(
    "name, slots, call", [c[:3] for c in _CALLS], ids=[c[0] for c in _CALLS]
)
@pytest.mark.parametrize(
    "x", [[0.5, 0.6], np.array([0.5]), np.array(0.5)], ids=["list", "1-element", "0-d"]
)
def test_an_array_where_a_number_belongs_raises_value_error(name, slots, call, x):
    # Nine purity functions took an array for mu (delta_bounds_batch raised
    # numpy's "truth value ... is ambiguous"), and the four scalar ones
    # answered for the first of an array of marginal purities.
    for slot in sorted(set(range(slots)) - _ARRAY_SLOTS.get(name, set())):
        match = f"^{_SLOT_NAMES[name][slot]} must be a real number" if name in _SLOT_NAMES else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                call(x, slot)


_MARGINAL_PROBES = {
    # Returned (Unphysical, nan): the empty interval at mu_A = mu_B = 0.9.
    "classify_region": (lambda: gg.classify_region(0.3, [0.9, 0.3], 0.9), "mu_a"),
    # Returned the interval at mu_A = 0.7.
    "delta_bounds": (lambda: gg.delta_bounds(0.5, [0.7, 0.6], 0.6), "mu_a"),
    # Returned 0.2835, the value at mu_A = 0.6 (0.0391 at 0.7).
    "mean_logneg_fixed_purities": (
        lambda: gg.mean_logneg_fixed_purities(0.5, [0.6, 0.7], 0.6), "mu_a"
    ),
    # Returned the standard form at mu_A = 0.6.
    "cm_from_invariants": (
        lambda: gg.cm_from_invariants(gg.InvariantCoords(0.5, [0.6, 0.7], 0.6, 4.5)), "mu_a"
    ),
    # Raised numpy's "truth value of an array with more than one element is ambiguous".
    "delta_bounds_batch": (
        lambda: correlations.delta_bounds_batch(np.array([0.5, 0.6]), [0.5], [0.5]), "mu"
    ),
}


@pytest.mark.parametrize("call, name", _MARGINAL_PROBES.values(), ids=_MARGINAL_PROBES.keys())
def test_purity_arrays_in_scalar_slots_raise_value_error_naming_the_argument(call, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            call()


def test_scalar_delta_threshold_is_its_batch_value():
    # 66 of 100 000 such triples differed in the last bits: the scalar path
    # squared with Python's pow, the batch path with numpy's square.
    triples = np.random.default_rng(3).uniform(0.05, 1.0, size=(10_000, 3))
    mu, mu_a, mu_b = triples.T
    batch = [
        gg.delta_threshold(m, mu_a[k : k + 1], mu_b[k : k + 1])[0]
        for k, m in enumerate(mu.tolist())
    ]
    scalar = [gg.delta_threshold(*triple) for triple in triples.tolist()]
    assert scalar == batch


# ---------------------------------------------------------------------------
# The defects the readers closed, each as it was found.


def test_float32_purity_is_read_in_float64():
    # Warned "overflow encountered in cast" and computed in float32.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gg.delta_threshold(0.5, np.float32(0.5), 0.6)
    assert got == gg.delta_threshold(0.5, 0.5, 0.6)


def test_float32_energy_gives_the_float64_endpoint():
    # Returned np.float32 fields (mean_logneg = 1.7326468).
    got, want = gg.pure_state_endpoint(np.float32(8.0)), gg.pure_state_endpoint(8.0)
    assert got == want
    assert all(type(v) is float for v in dataclasses.astuple(got))


def test_energies_beyond_int64_are_read_as_floats():
    # np.isfinite raised TypeError on a Python int beyond int64.
    ensemble = gg.EnergyEnsemble(0.5, 2**70)
    assert ensemble == gg.EnergyEnsemble(0.5, 2.0**70)
    assert type(ensemble.energy) is float
    mc = gg.McConfig(seed=2, final_evals=16)
    want = gg.energy_constrained_stats(0.5, 2.0**70, mc)
    assert gg.energy_constrained_stats(0.5, 2**70, mc) == want


_HUGE = 10**400
_HUGE_CALLS = {
    "pure_state_endpoint": (lambda: gg.pure_state_endpoint(_HUGE), "energy"),
    "two_mode_squeezed": (lambda: gg.two_mode_squeezed(_HUGE), "r"),
    "is_bona_fide": (lambda: gg.is_bona_fide(np.eye(4), _HUGE), "tol"),
    "random_covmat": (
        lambda: gg.random_covmat(2, np.random.default_rng(0), nu_max=_HUGE), "nu_max"
    ),
    "scan_purity_plane": (lambda: gg.scan_purity_plane(_HUGE, 2), "mu"),
    "cm_from_invariants": (
        lambda: gg.cm_from_invariants(gg.InvariantCoords(_HUGE, 0.5, 0.5, 8.0)), "mu"
    ),
    "LocalSympSample": (lambda: gg.LocalSympSample(_HUGE, 1.0, (0, 0, 0, 0)), "lambda"),
    "hs_density_std_form": (
        lambda: gg.hs_density_std_form(gg.StdForm(_HUGE, 1, 0, 0)), "standard form"
    ),
    "log_negativity": (
        lambda: gg.log_negativity(gg.InvariantCoords(_HUGE, 0.5, 0.5, 8.0)), "mu"
    ),
}


_RNG_CALLS = {
    "random_symplectic": lambda: gg.random_symplectic(1, None),
    "random_local_symplectic": lambda: gg.random_local_symplectic(np.random.default_rng),
    "random_covmat": lambda: gg.random_covmat(2, 5),
}


@pytest.mark.parametrize("call", _RNG_CALLS.values(), ids=_RNG_CALLS.keys())
def test_an_rng_that_is_no_generator_raises_value_error_naming_it(call):
    # Each leaked an AttributeError ("'NoneType' object has no attribute 'uniform'").
    with pytest.raises(ValueError, match="rng must be a numpy.random.Generator"):
        call()


@pytest.mark.parametrize("call, name", _HUGE_CALLS.values(), ids=_HUGE_CALLS.keys())
def test_ints_beyond_the_float_range_raise_value_error_naming_the_argument(call, name):
    # Each raised OverflowError from a conversion to float.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=name):
            call()


@pytest.mark.parametrize("n_modes", [2.5, True])
def test_symplectic_form_takes_integer_mode_numbers_only(n_modes):
    # Raised a raw TypeError.
    with pytest.raises(ValueError, match=f"n_modes must be a positive integer, got {n_modes!r}"):
        gg.symplectic_form(n_modes)


def test_a_bool_is_no_purity():
    # fixed_purity(True) gave a kind with mu = True.
    with pytest.raises(ValueError, match="mu must be a real number, got True"):
        gg.fixed_purity(True)
    kind = gg.fixed_purity(np.float32(0.25))
    assert type(kind.mu) is float and kind == gg.fixed_purity(0.25)


def test_energy_weight_at_purity_zero_is_zero_without_a_warning():
    # Leaked "divide by zero encountered in divide".
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gg.energy_weight(0.0, 0.5, 8.0) == 0.0
        got = gg.energy_weight(np.array([0.0, 0.5]), np.array([0.5, 0.0]), 8.0)
        assert got.tolist() == [0.0, 0.0]


@pytest.mark.parametrize(
    "kinds", [(gg.REDUCED_PURE, gg.FISHER_RAO), (gg.HILBERT_SCHMIDT, gg.FISHER_RAO)]
)
@pytest.mark.parametrize("big", [1e200, 1e300])
def test_density_ratio_at_an_equal_pair_whose_squares_overflow_raises(kinds, big):
    # Returned inf (REDUCED_PURE) or 0.0 (HILBERT_SCHMIDT): an overflowing
    # square was taken as an infinite repulsion factor.
    with pytest.raises(ValueError, match="vanishes"):
        gg.density_ratio(*kinds, [big, big])


def test_density_ratio_without_an_equal_pair_is_finite_where_the_repulsion_underflows():
    # Twenty close eigenvalues: the float repulsion product underflows to 0,
    # which raised "denominator density vanishes".
    nu = [1.0 + k * 1e-12 for k in range(20)]
    ratio = gg.density_ratio(gg.HILBERT_SCHMIDT, gg.FISHER_RAO, nu)
    assert ratio == pytest.approx(math.prod(nu) ** (-20 * 22.5 + 1 + 2 * 20 - 1), rel=1e-12)


# ---------------------------------------------------------------------------
# Array arguments, mcint counts and standard-form fields, each probe as found.

_ARRAY_PROBES = {
    "density_hs.huge": (lambda: gg.density_hs([_HUGE]), "nu"),
    "density_ratio.huge": (
        lambda: gg.density_ratio(gg.HILBERT_SCHMIDT, gg.FISHER_RAO, [_HUGE, 2.0]), "nu"
    ),
    "thermal.huge": (lambda: gg.thermal([_HUGE]), "nus"),
    "density_hs.bool": (lambda: gg.density_hs(True), "nu"),
    "density_hs.str": (lambda: gg.density_hs("2"), "nu"),
    "thermal.str": (lambda: gg.thermal("3"), "nus"),
    "delta_bounds_batch.str": (lambda: correlations.delta_bounds_batch(0.5, ["0.5"], 0.6), "mu_a"),
    "logneg_average.bool": (lambda: correlations.logneg_average(0.5, 0.6, [True]), "mu_b"),
    "density_ratio.equal_kinds": (
        lambda: gg.density_ratio(gg.HILBERT_SCHMIDT, gg.HILBERT_SCHMIDT, "x"), "nu"
    ),
    "thermal.bool_in_list": (lambda: gg.thermal([True, 2.0]), "nus"),
    "thermal.ragged": (lambda: gg.thermal([[1.0], [1.0, 2.0]]), "nus"),
    "thermal.ragged_arrays": (lambda: gg.thermal([np.ones((2, 2)), np.ones((2, 3))]), "nus"),
    "density_hs.bool_array_in_list": (lambda: gg.density_hs([np.array([True, False])]), "nu"),
    "bounds.bool_in_list": (lambda: gg.plain_integrate(_first, [(0.0, True)]), "bounds"),
    "bounds.ragged": (lambda: gg.plain_integrate(_first, [(0, 1), (0,)]), "bounds"),
    "edges.ragged": (lambda: gg.AdaptiveGrid([[0, 0.5, 1], [0, 1]]), "edges"),
}


@pytest.mark.parametrize("call, name", _ARRAY_PROBES.values(), ids=_ARRAY_PROBES.keys())
def test_array_arguments_are_real_numbers_in_the_float_range(call, name):
    # The huge ints raised OverflowError; the bools and strings were read as
    # numbers (density_hs(True) was 1.0, density_hs("2") 0.177, thermal([True,
    # 2.0]) diag(1, 1, 2, 2)), equal kinds returned 1.0 before reading nu, and
    # ragged rows raised numpy's "inhomogeneous shape", naming no argument.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"{name} must be real numbers in the float range"):
            call()


@pytest.mark.parametrize("nus", [[], np.empty(0), [[1.0], [2.0]], np.ones((1, 1))])
def test_thermal_takes_a_non_empty_spectrum_of_at_most_one_dimension(nus):
    # [] gave a 0x0 array, and [[1.0], [2.0]] was flattened into a 4x4 state.
    with pytest.raises(ValueError, match="nus must be a non-empty 1D sequence"):
        gg.thermal(nus)
    assert gg.thermal(2.0).tolist() == [[2.0, 0.0], [0.0, 2.0]]  # a scalar is one mode


@pytest.mark.parametrize(
    "angles",
    [(0.0, 0.0), (0.0,) * 5, 0.0, np.zeros((2, 2)), ()],
    ids=["two", "five", "scalar", "2x2", "none"],
)
def test_local_symp_sample_takes_exactly_four_angles(angles):
    # Two angles leaked an IndexError from assemble_covmat, a fifth was
    # ignored, and a scalar leaked a TypeError.
    with pytest.raises(ValueError, match=r"angles must be four real numbers, got shape"):
        gg.LocalSympSample(1.0, 1.0, angles)


def test_an_array_of_ints_beyond_int64_is_read_as_floats():
    assert gg.density_hs([2**70, 3]) == gg.density_hs([2.0**70, 3.0])
    assert gg.thermal([2**70]).tolist() == [[2.0**70, 0.0], [0.0, 2.0**70]]


_COUNT_PROBES = {
    "plain_integrate.float": (lambda: gg.plain_integrate(_first, [(0, 1)], n=2.5), "n"),
    "plain_integrate.bool": (lambda: gg.plain_integrate(_first, [(0, 1)], n=True), "n"),
    "vegas_integrate.iterations": (
        lambda: gg.vegas_integrate(_first, [(0, 1)], iterations=2.5), "iterations"
    ),
    "vegas_integrate.evals_per_iter": (
        lambda: gg.vegas_integrate(_first, [(0, 1)], evals_per_iter=True), "evals_per_iter"
    ),
    "sample_from_grid.bool": (lambda: mcint.sample_from_grid(_GRID, [(0, 1)], True, 1), "n"),
}


@pytest.mark.parametrize("call, name", _COUNT_PROBES.values(), ids=_COUNT_PROBES.keys())
def test_mcint_counts_are_integers(call, name):
    # n=2.5 leaked a raw TypeError; a bool was taken as a count.
    with pytest.raises(ValueError, match=f"{name} must be an? [a-z -]*integer"):
        call()


_SEED = "seed must be a non-negative integer"
_BOUND = "bounds must be real numbers in the float range"
_MCINT_PROBES = {
    "plain_integrate.seed.float": (lambda: gg.plain_integrate(_first, [(0, 1)], seed=2.5), _SEED),
    "plain_integrate.seed.bool": (lambda: gg.plain_integrate(_first, [(0, 1)], seed=True), _SEED),
    "vegas_integrate.seed.bool": (lambda: gg.vegas_integrate(_first, [(0, 1)], seed=True), _SEED),
    "sample_from_grid.seed.float": (
        lambda: mcint.sample_from_grid(_GRID, [(0, 1)], 4, 2.5), _SEED
    ),
    "vegas_integrate.nbins": (
        lambda: gg.vegas_integrate(_first, [(0, 1)], nbins=2.5), "nbins must be a positive integer"
    ),
    "AdaptiveGrid.damping.str": (
        lambda: gg.AdaptiveGrid.uniform(1, damping="1"), "damping must be a real number"
    ),
    "bounds.huge": (lambda: gg.plain_integrate(_first, [(0, _HUGE)]), _BOUND),
    "bounds.inf": (lambda: gg.plain_integrate(_first, [(0, math.inf)]), "bounds must be finite"),
    "bounds.str": (lambda: gg.plain_integrate(_first, [("0", 1)]), _BOUND),
}


@pytest.mark.parametrize("call, match", _MCINT_PROBES.values(), ids=_MCINT_PROBES.keys())
def test_mcint_seeds_grids_and_bounds_are_read(call, match):
    # seed=2.5, nbins=2.5 and damping="1" leaked a raw TypeError, 10**400 an
    # OverflowError, an infinite bound a RuntimeWarning or IntegrationError;
    # seed=True was taken as seed 1 and "0" as the bound 0.0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()


def test_region_of_a_proportion_is_read_as_a_real_number():
    # "0.5" gave Coexistence; 10**400 raised OverflowError.
    with pytest.raises(ValueError, match="prop must be a real number"):
        gg.RegionClass.of_proportion("0.5")
    assert gg.RegionClass.of_proportion(_HUGE) is gg.RegionClass.ALL_ENTANGLED


def test_standard_form_matrix_reads_real_finite_fields():
    # A string field gave a string matrix; 10**400 raised OverflowError.
    with pytest.raises(ValueError, match="a must be a real number"):
        gg.StdForm("2", 1, 0, 0).matrix()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            gg.numeric_std_form_density(gg.StdForm(_HUGE, 1, 0, 0))
    assert gg.StdForm(np.float32(2.0), 2, 1, 0).matrix().dtype == np.float64


def test_sequences_of_numbers_and_of_rows_are_read_in_float64():
    assert gg.thermal([1, np.float32(2.0), 3.0]).diagonal().tolist() == [1, 1, 2, 2, 3, 3]
    rows = [np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.25, 1.0])]
    assert [e.tolist() for e in gg.AdaptiveGrid(rows).edges] == [e.tolist() for e in rows]


_WEIGHT_PROBES = {
    "str": (lambda: gg.energy_weight("0.5", 0.5, 8.0), "mu_a must be real numbers"),
    "bool": (lambda: gg.energy_weight(True, 0.5, 8.0), "mu_a must be real numbers"),
    "negative": (lambda: gg.energy_weight(-0.5, 0.5, 8.0), r"mu_a = -0.5 must lie in \[0, 1\]"),
    "above_one": (lambda: gg.energy_weight(2.0, 0.5, 8.0), r"mu_a = 2.0 must lie in \[0, 1\]"),
    "nan": (lambda: gg.energy_weight(math.nan, 0.5, 8.0), r"mu_a = nan must lie in \[0, 1\]"),
    "array": (
        lambda: gg.energy_weight(np.array([0.5, 0.5]), np.array([0.5, 1.5]), 8.0),
        r"mu_b = 1.5 must lie in \[0, 1\]",
    ),
}


@pytest.mark.parametrize("call, match", _WEIGHT_PROBES.values(), ids=_WEIGHT_PROBES.keys())
def test_energy_weight_reads_purities_in_zero_one(call, match):
    # Returned 64.0, 20.0, 128.0, 5.5 and 0.0 for the scalar probes.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
def test_energy_weight_reads_a_finite_energy(energy):
    # A NaN energy gave the weights [0, 0] and an infinite one inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gg.DomainError, match=f"energy = {energy} must be finite"):
            gg.energy_weight([0.5, 0.6], 0.5, energy)
    assert gg.energy_weight([0.5, 0.6], 0.5, 2.0).tolist() == [0.0, 0.0]


def test_energy_weight_reads_numpy_scalars_ints_and_empty_sequences():
    assert gg.energy_weight(np.float32(0.5), 1, 8.0) == (8.0 - 3.0) / 0.25
    assert gg.energy_weight([], [], 8.0).tolist() == []


_SAMPLE = gg.LocalSympSample(1.5, 1.0, (0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize(
    "std, match",
    [
        (gg.StdForm(True, 2, 1, -1), "a must be a real number, got True"),
        (gg.StdForm("2", 2, 1, -1), "a must be a real number, got '2'"),
        (gg.StdForm(2, 2, math.nan, -1), "must be finite"),
        (gg.StdForm(2, 2, 1, -math.inf), "must be finite"),
    ],
)
def test_assemble_covmat_reads_the_standard_form_as_its_matrix_does(std, match):
    # True was read as 1, "2" leaked numpy's UFuncTypeError, and a NaN field
    # reported that the matrix "leaves the float range".
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            gg.assemble_covmat(std, _SAMPLE)
        with pytest.raises(ValueError, match=match):
            std.matrix()
