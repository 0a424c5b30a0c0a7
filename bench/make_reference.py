"""Regenerate bench/reference.json, the stored outputs the workload checks compare with.

Run from the repository root:  python3 bench/make_reference.py

* purity-plane: the CSV that ``gaussgeom scan purity-plane`` writes at each
  benchmark purity, parsed (deterministic; no seed).
* energy-curves: ``energy_constrained_stats`` at each benchmark (E, mu)
  point, combined over REF_SEEDS independent runs of REF_EVALS final
  samples each by inverse-variance weighting, so that the reference error is
  several times below the per-run error at the default --evals.

Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from gaussgeom import typicality  # noqa: E402
from gaussgeom.typicality import McConfig  # noqa: E402

import workloads  # noqa: E402

REF_SEEDS = (9001, 9002, 9003, 9004)
REF_EVALS = 1_000_000


def plane_reference() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plane.csv"
        for mu in workloads.PLANE_MUS:
            workloads.run_cli(workloads.plane_argv(mu, workloads.PLANE_GRID, path))
            out[repr(mu)] = [
                [
                    float(r["mu_a"]),
                    float(r["mu_b"]),
                    r["class"],
                    float(r["prop_entangled"]) if r["prop_entangled"] else None,
                    float(r["mean_EN"]) if r["mean_EN"] else None,
                ]
                for r in workloads.read_csv(path)
            ]
    return out


def _combine(runs: list[tuple[float, float]]) -> list[float]:
    values = np.array([v for v, _ in runs])
    errors = np.array([e for _, e in runs])
    if not errors.any():
        return [float(values.mean()), 0.0]
    weights = 1.0 / np.maximum(errors, 1e-150) ** 2
    return [float(np.sum(weights * values) / weights.sum()), float(np.sqrt(1.0 / weights.sum()))]


def curve_reference() -> dict:
    points = {}
    m = workloads.CURVE_MU_GRID
    for e in workloads.CURVE_ENERGIES:
        mu_min = 4.0 / e**2
        rows = []
        for j in range(m):
            # Same grid as `gaussgeom scan energy-curves --mu-grid m`.
            mu = mu_min + (j + 0.5) * (1.0 - mu_min) / m
            runs = []
            for seed in REF_SEEDS:
                st = typicality.energy_constrained_stats(mu, e, McConfig(seed=seed, final_evals=REF_EVALS))
                runs.append([(x.value, x.std_error) for x in
                             (st.prop_entangled, st.mean_logneg, st.prop_steerable, st.mean_steering)])
            row = {"mu": mu}
            for k, stat in enumerate(workloads.CURVE_STATS):
                row[stat] = _combine([r[k] for r in runs])
            rows.append(row)
            print(f"E={e} mu={mu:.6f} {row}", file=sys.stderr, flush=True)
        points[repr(e)] = rows
    return {"mu_grid": m, "seeds": list(REF_SEEDS), "final_evals": REF_EVALS, "points": points}


def main() -> None:
    reference = {"purity_plane": plane_reference(), "energy_curves": curve_reference()}
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
