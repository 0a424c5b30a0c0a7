"""Command-line interface: state analysis and CSV scans of typical correlations.

Exit codes: 0 success, 1 input error, 2 physicality warning (analyze found a
non-physical matrix; the report is still printed), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import warnings

import numpy as np

from . import core, typicality
from .correlations import log_negativity, steerability
from .mcint import IntegrationError
from .typicality import McConfig

_EPILOG = """\
Column units: purities are dimensionless in (0, 1]; the seralian Delta and
the energy E = tr(Sigma)/2 are in vacuum units ([q, p] = 2i, vacuum CM = 1);
E_N is a base-2 logarithm, the steerability G a natural logarithm.
Covariance matrix files: first line N, then 2N rows of 2N numbers.
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussgeom",
        description="Geometry and typical correlations of two-mode Gaussian states.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="print the invariants of a covariance matrix file")
    p_an.add_argument("path", help="covariance matrix file")
    p_an.add_argument("--tol", type=float, default=core.BONA_FIDE_TOL,
                      help="tolerance on nu_min >= 1 - tol, below 1 (default %(default)g)")

    p_sc = sub.add_parser("scan", help="tabulate typical correlations as CSV")
    p_sc.add_argument("kind", choices=["purity-plane", "purity-cut", "energy-curves", "pure-endpoint"])
    p_sc.add_argument("--mu", type=float, default=0.5, help="global purity (default %(default)s)")
    p_sc.add_argument("--E", default="3,5,8,12",
                      help="comma-separated energies (default %(default)s)")
    p_sc.add_argument("--grid", type=int, default=100,
                      help="purity grid size for the plane and cut scans (default %(default)s)")
    p_sc.add_argument("--mu-grid", type=int, default=50,
                      help="purity grid size per energy curve (default %(default)s)")
    p_sc.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (default %(default)s)")
    p_sc.add_argument("--out", default="-", help="output CSV path, '-' for stdout (default)")
    p_sc.add_argument("--evals", type=int, default=80_000,
                      help="ensemble draws per energy-curve point (default %(default)s)")
    return parser


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.10g}"


def _cmd_analyze(args) -> int:
    try:
        sigma = core.read_covmat(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n = sigma.shape[0] // 2
    try:
        nu = core.symplectic_spectrum(sigma)
        physical = core.is_bona_fide(sigma, tol=args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"modes: {n}")
    print(f"bona fide: {'yes' if physical else 'no'} (tol={args.tol:g})")
    print("symplectic spectrum:", " ".join(f"{v:.12g}" for v in nu))
    print(f"purity mu: {core.purity(sigma):.12g}")
    print(f"energy E: {core.energy(sigma):.12g}")
    print(f"seralian Delta: {float(np.sum(nu**2)):.12g}")
    if n == 2:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", core.NonPhysicalWarning)
            coords, _ = core.invariants(sigma)
        print(f"marginal purity mu_A: {coords.mu_a:.12g}")
        print(f"marginal purity mu_B: {coords.mu_b:.12g}")
        print(f"log negativity E_N: {log_negativity(coords):.12g}")
        print(f"steerability G: {steerability(coords):.12g}")
    return 0 if physical else 2


def _open_out(path: str):
    """The output stream and whether this call created the file.

    A file is opened for appending, so that one that exists keeps its
    content until the scan has rows to replace it with.
    """
    if path == "-":
        return sys.stdout, False
    created = not os.path.lexists(path)
    return open(path, "a", newline=""), created


def _parse_energies(spec: str) -> list[float]:
    try:
        energies = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"could not parse energy list {spec!r}") from exc
    if not energies:
        raise ValueError(f"energy list {spec!r} is empty")
    return energies


def _scan_rows(args):
    if args.kind == "purity-plane":
        header = ["mu_a", "mu_b", "class", "prop_entangled", "mean_EN"]
        cells = typicality.scan_purity_plane(args.mu, args.grid)
        rows = [
            [_fmt(c.mu_a), _fmt(c.mu_b), c.region.value, _fmt(c.prop_entangled), _fmt(c.mean_logneg)]
            for c in cells
        ]
        return header, rows
    if args.kind == "purity-cut":
        header = ["mu_ab", "prop_entangled", "mean_EN"]
        points = typicality.purity_cut(args.mu, args.grid)
        rows = [[_fmt(p.mu_ab), _fmt(p.prop_entangled), _fmt(p.mean_logneg)] for p in points]
        return header, rows
    if args.kind == "energy-curves":
        header = [
            "E", "mu",
            "prop_ent", "prop_ent_err",
            "mean_EN", "mean_EN_err",
            "prop_steer", "prop_steer_err",
            "mean_G", "mean_G_err",
        ]
        if args.mu_grid < 1:
            raise ValueError("mu_grid must be positive")
        rows = []
        for i, e in enumerate(_parse_energies(args.E)):
            mu_min = 4.0 / e**2
            for j in range(args.mu_grid):
                mu = mu_min + (j + 0.5) * (1.0 - mu_min) / args.mu_grid
                seed = int(np.random.SeedSequence([args.seed, i, j]).generate_state(1)[0])
                stats = typicality.energy_constrained_stats(
                    mu, e, McConfig(seed=seed, final_evals=args.evals)
                )
                rows.append(
                    [_fmt(e), _fmt(mu)]
                    + [
                        _fmt(v)
                        for est in (
                            stats.prop_entangled,
                            stats.mean_logneg,
                            stats.prop_steerable,
                            stats.mean_steering,
                        )
                        for v in (est.value, est.std_error)
                    ]
                )
        return header, rows
    header = ["E", "prop_ent", "mean_EN", "prop_steer", "mean_G"]
    rows = []
    for e in _parse_energies(args.E):
        ep = typicality.pure_state_endpoint(e)
        rows.append([_fmt(v) for v in (e, ep.prop_entangled, ep.mean_logneg,
                                       ep.prop_steerable, ep.mean_steering)])
    return header, rows


def _cmd_scan(args) -> int:
    # The output is opened before the scan, so that a bad path fails at once.
    try:
        stream, created = _open_out(args.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    done = False
    try:
        header, rows = _scan_rows(args)
        if stream is not sys.stdout and os.path.isfile(args.out):
            stream.truncate(0)  # appended writes then start at offset 0
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        stream.flush()
        done = True
    except (ValueError, core.DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if stream is not sys.stdout:
            stream.close()
            if created and not done:
                os.remove(args.out)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "analyze":
        return _cmd_analyze(args)
    return _cmd_scan(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
