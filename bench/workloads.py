"""The benchmark workloads: their operations, warm-up calls and output checks.

Every call into the library goes through a module attribute
(``core.symplectic_spectrum``, ``cli.main``, ...) so that the traced run,
which replaces those attributes, sees it.  An operation's ``run`` is what
gets timed; its ``check`` reads the output back, compares it with
``reference.json`` and raises :class:`CheckFailed` on any mismatch.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gaussgeom import cli, core, correlations, measures, typicality

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Sizes are small so that a run holds many rounds: every timing is a median
# over rounds, and other tenants of a shared host slow some rounds by up
# to 2x.

# purity-plane: low to near-pure global purity on a grid whose cells include
# every cell of the 5x5 smoke grid, so both sizes share one reference.
PLANE_MUS = (0.1, 0.3, 0.5, 0.9)
PLANE_GRID = 10
PLANE_SMOKE_GRID = 5
# Tolerances of the CLI round-trip tests in tests/test_cli.py.
PLANE_PROP_TOL = 1e-9
PLANE_MEAN_EN_TOL = 1e-8

# energy-curves: one CLI invocation per energy at the default --evals.
CURVE_ENERGIES = (3.0, 5.0, 8.0, 12.0)
CURVE_MU_GRID = 1
CURVE_STATS = ("prop_ent", "mean_EN", "prop_steer", "mean_G")
# A value may sit this many combined standard errors from the reference.
# The error bars are not yet calibrated: over 30 seeds at these points the
# z-scores had standard deviations up to 1.2, means up to 0.3 and max |z|
# 3.2 (30 seeds on a 3-point grid: 1.3, 0.9 and 3.9), so 6 keeps false
# failures rare.
CURVE_SIGMAS = 6.0

# sampler: (label, mu, E, states).  The near-edge point has acceptance
# below 1e-3; the boundary point raises IntegrationError at the parent
# commit and stays in the list so that the known defect keeps showing.
# The sampler draws 65 536 proposals at a time, so how many batches a call
# needs, and its time, varies with the seed: over seeds 1-10 bulk takes 4,
# high-purity 13-14, low-purity 7-8 and near-edge 9-11 batches.  The counts
# keep the seed-dependent calls away from the median operation time.
SAMPLER_POINTS = (
    ("bulk", 0.3, 8.0, 20_000),
    ("low-purity", 0.05, 12.0, 400),
    ("high-purity", 0.9, 12.0, 3_000),
    ("near-edge", 0.47, 3.0, 280),
    ("boundary", 0.4445, 3.0, 1_000),
)
SAMPLER_ANALYSED = 256
SAMPLER_TOL = 1e-9


class CheckFailed(Exception):
    """An operation returned output that does not match its reference."""


class OpError(Exception):
    """An operation reported failure without raising (non-zero CLI exit)."""


@dataclass(frozen=True)
class Output:
    """What a checked operation produced: a digest of its output and its row count."""

    sha256: str
    rows: int


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Output]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: list[Op]
    warm_up: Callable[[], None]


def _load_reference() -> dict:
    with REFERENCE_PATH.open() as fh:
        return json.load(fh)


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise OpError(f"gaussgeom {' '.join(argv)} exited with code {code}")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# purity-plane


def plane_argv(mu: float, grid: int, out: Path) -> list[str]:
    return ["scan", "purity-plane", "--mu", repr(mu), "--grid", str(grid), "--out", str(out)]


def _plane_op(mu: float, grid: int, out: Path, reference: dict) -> Op:
    ref = {(r[0], r[1]): r for r in reference["purity_plane"][repr(mu)]}

    def run():
        run_cli(plane_argv(mu, grid, out))
        return out

    def check(path):
        rows = read_csv(path)
        _require(len(rows) == grid * grid, f"expected {grid * grid} rows, got {len(rows)}")
        for row in rows:
            key = (float(row["mu_a"]), float(row["mu_b"]))
            want = ref.get(key)
            _require(want is not None, f"cell {key} missing from the reference")
            _, _, cls, prop, mean_en = want
            where = f"mu={mu}, cell {key}"
            _require(row["class"] == cls, f"{where}: class {row['class']} != {cls}")
            if prop is None:
                _require(row["prop_entangled"] == "" and row["mean_EN"] == "",
                         f"{where}: unphysical cell carries statistics")
                continue
            got_prop, got_en = float(row["prop_entangled"]), float(row["mean_EN"])
            _require(abs(got_prop - prop) <= PLANE_PROP_TOL,
                     f"{where}: prop_entangled {got_prop} != {prop}")
            _require(abs(got_en - mean_en) <= PLANE_MEAN_EN_TOL,
                     f"{where}: mean_EN {got_en} != {mean_en}")
        return Output(_sha256_file(path), len(rows))

    return Op(f"plane mu={mu}", run, check)


def _purity_plane(seed: int, workdir: Path, smoke: bool) -> Workload:
    reference = _load_reference()
    mus, grid = ((0.5,), PLANE_SMOKE_GRID) if smoke else (PLANE_MUS, PLANE_GRID)
    ops = [_plane_op(mu, grid, workdir / f"plane-{mu}.csv", reference) for mu in mus]

    def warm_up():
        run_cli(plane_argv(0.5, 2, workdir / "warm-up.csv"))

    return Workload("purity-plane", _shuffled(ops, seed), warm_up)


# ---------------------------------------------------------------------------
# energy-curves


def _curve_argv(energy: float, seed: int, evals: int | None, out: Path) -> list[str]:
    argv = ["scan", "energy-curves", "--E", repr(energy), "--seed", str(seed),
            "--mu-grid", str(CURVE_MU_GRID), "--out", str(out)]
    if evals is not None:
        argv += ["--evals", str(evals)]
    return argv


def _curve_op(energy: float, seed: int, evals: int | None, out: Path, reference: dict) -> Op:
    ref = reference["energy_curves"]["points"][repr(energy)]

    def run():
        run_cli(_curve_argv(energy, seed, evals, out))
        return out

    def check(path):
        rows = read_csv(path)
        _require(len(rows) == CURVE_MU_GRID, f"expected {CURVE_MU_GRID} rows, got {len(rows)}")
        for row, want in zip(rows, ref):
            mu = float(row["mu"])
            where = f"E={energy}, mu={mu}"
            _require(abs(mu - want["mu"]) <= 1e-9, f"{where}: reference is at mu={want['mu']}")
            ent, steer = float(row["prop_ent"]), float(row["prop_steer"])
            _require(0.0 <= ent <= 1.0 and 0.0 <= steer <= 1.0, f"{where}: proportion outside [0, 1]")
            _require(steer <= ent + 1e-12, f"{where}: prop_steer {steer} > prop_ent {ent}")
            for stat in CURVE_STATS:
                value, err = float(row[stat]), float(row[stat + "_err"])
                ref_value, ref_err = want[stat]
                allowed = CURVE_SIGMAS * float(np.hypot(err, ref_err)) + 1e-12
                _require(abs(value - ref_value) <= allowed,
                         f"{where}: {stat} {value} +- {err} vs reference {ref_value} +- {ref_err}")
        return Output(_sha256_file(path), len(rows))

    return Op(f"curve E={energy}", run, check)


def _energy_curves(seed: int, workdir: Path, smoke: bool) -> Workload:
    reference = _load_reference()
    energies, evals = ((8.0,), 5_000) if smoke else (CURVE_ENERGIES, None)
    ops = [_curve_op(e, seed, evals, workdir / f"curve-{e}.csv", reference) for e in energies]

    def warm_up():
        run_cli(["scan", "energy-curves", "--E", "8", "--mu-grid", "1", "--evals", "2000",
                  "--out", str(workdir / "warm-up.csv")])

    return Workload("energy-curves", _shuffled(ops, seed), warm_up)


# ---------------------------------------------------------------------------
# sampler


@dataclass(frozen=True)
class SamplerOutput:
    states: np.ndarray
    bona_fide: np.ndarray
    purities: np.ndarray
    energies: np.ndarray
    log_neg: np.ndarray
    steering: np.ndarray
    ratios: np.ndarray


def analyse_states(states: np.ndarray, count: int) -> SamplerOutput:
    """Run the per-state analysis through core, correlations and measures."""
    picks = np.unique(np.linspace(0, len(states) - 1, count).astype(int))
    rows = []
    for sigma in states[picks]:
        nu = core.symplectic_spectrum(sigma)
        physical = core.is_bona_fide(sigma)
        coords, energy = core.invariants(sigma)
        rows.append((
            physical, coords.mu, energy,
            correlations.log_negativity(coords),
            correlations.steerability(coords),
            measures.density_ratio(measures.HILBERT_SCHMIDT, measures.FISHER_RAO, nu),
        ))
    cols = list(zip(*rows))
    return SamplerOutput(states, *(np.array(c) for c in cols))


def _sampler_op(label: str, mu: float, energy: float, count: int, seed: int, analysed: int) -> Op:
    def run():
        states = typicality.sample_energy_constrained(mu, energy, count, seed=seed)
        return analyse_states(states, analysed)

    def check(out: SamplerOutput):
        where = f"sampler {label} (mu={mu}, E={energy})"
        _require(out.states.shape == (count, 4, 4), f"{where}: shape {out.states.shape}")
        traces = 0.5 * np.einsum("nii->n", out.states)
        _require(float(np.abs(traces - energy).max()) <= SAMPLER_TOL, f"{where}: energy != E")
        _require(bool(out.bona_fide.all()), f"{where}: state not bona fide")
        _require(float(np.abs(out.energies - energy).max()) <= SAMPLER_TOL, f"{where}: energy != E")
        _require(float(np.abs(out.purities - mu).max()) <= SAMPLER_TOL, f"{where}: purity != mu")
        _require(bool(np.isfinite(out.log_neg).all() and (out.log_neg >= 0.0).all()),
                 f"{where}: bad log negativity")
        _require(bool(np.isfinite(out.steering).all() and (out.steering >= 0.0).all()),
                 f"{where}: bad steerability")
        # HS over FR is (prod nu)^(-N^2 - N/2) = mu^5 for two modes.
        _require(bool(np.allclose(out.ratios, mu**5, rtol=1e-6, atol=0.0)),
                 f"{where}: HS/FR density ratio != mu^5")
        return Output(hashlib.sha256(out.states.tobytes()).hexdigest(), 0)

    return Op(f"sampler {label}", run, check)


def _sampler(seed: int, workdir: Path, smoke: bool) -> Workload:
    ops = []
    for k, (label, mu, energy, count) in enumerate(SAMPLER_POINTS):
        if smoke and label != "boundary":
            count = max(count // 100, 5)
        op_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        analysed = 8 if smoke else SAMPLER_ANALYSED
        ops.append(_sampler_op(label, mu, energy, count, op_seed, analysed))

    def warm_up():
        analyse_states(typicality.sample_energy_constrained(0.3, 8.0, 100, seed=0), 4)

    return Workload("sampler", _shuffled(ops, seed), warm_up)


def _shuffled(ops: list[Op], seed: int) -> list[Op]:
    """The round's operation order: fixed by the workload seed."""
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


_BUILDERS = {"purity-plane": _purity_plane, "energy-curves": _energy_curves, "sampler": _sampler}
NAMES = tuple(_BUILDERS)


def make(name: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """Build a workload's operations from its seed; ``smoke`` shrinks every size."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return _BUILDERS[name](seed, workdir, smoke)
