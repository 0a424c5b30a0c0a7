"""Command-line interface: state analysis and CSV scans of typical correlations.

Exit codes: 0 success, 1 input error, 2 physicality warning (analyze found a
non-physical matrix; the report is still printed), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import stat
import sys

import numpy as np

from . import core, typicality
from .correlations import RegionClass, log_negativity, steerability
from .mcint import IntegrationError
from .typicality import McConfig

_EPILOG = """\
Column units: purities are dimensionless in (0, 1]; the seralian Delta and
the energy E = tr(Sigma)/2 are in vacuum units ([q, p] = 2i, vacuum CM = 1);
E_N is a base-2 logarithm, the steerability G a natural logarithm.
Covariance matrix files: first line N, then 2N rows of 2N numbers.
"""


@functools.cache  # built on the first main() call, then reused
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
                      help="tolerance on nu_min >= 1 - tol, finite and below 1 (default %(default)g)")

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
    p_sc.add_argument("--evals", type=int, default=McConfig.final_evals,
                      help="ensemble draws per energy-curve point (default %(default)s)")
    return parser


def _fmt(value) -> str:
    return f"{value:.10g}"


def _analysis(sigma, tol: float) -> tuple[list[str], bool]:
    """The report lines of ``analyze`` and whether the matrix is bona fide."""
    n = sigma.shape[0] // 2
    nu = core.symplectic_spectrum(sigma)
    physical = core.is_bona_fide(sigma, tol=tol)
    lines = [
        f"modes: {n}",
        f"bona fide: {'yes' if physical else 'no'} (tol={tol:g})",
        "symplectic spectrum: " + " ".join(f"{v:.12g}" for v in nu),
        f"purity mu: {core.purity(sigma):.12g}",
        f"energy E: {core.energy(sigma):.12g}",
        f"seralian Delta: {float(np.sum(nu**2)):.12g}",
    ]
    if n == 2:
        coords, _ = core.invariants(sigma, warn_nonphysical=False)
        lines += [
            f"marginal purity mu_A: {coords.mu_a:.12g}",
            f"marginal purity mu_B: {coords.mu_b:.12g}",
            f"log negativity E_N: {log_negativity(coords):.12g}",
            f"steerability G: {steerability(coords):.12g}",
        ]
    return lines, physical


def _cmd_analyze(args) -> int:
    # Every value is computed before the first line is printed, so that a
    # failure leaves an error message and no partial report.
    lines, physical = _analysis(core.read_covmat(args.path), args.tol)
    print("\n".join(lines))
    return 0 if physical else 2


def _csv(header: list[str], rows: list[list[str]]) -> str:
    # No field of any scan needs CSV quoting.
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _parse_energies(spec: str) -> list[float]:
    try:
        energies = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"could not parse energy list {spec!r}") from exc
    if not energies:
        raise ValueError(f"energy list {spec!r} is empty")
    return energies


def _purity_rows(mu: float, grid_size: int, plane: bool) -> list[list[str]]:
    """CSV rows of the purity-plane or purity-cut scan, straight from the grid arrays.

    Each grid value is formatted once; Unphysical points (code 0) get empty
    statistics.  The fields are those of :func:`_fmt` on the library records.
    """
    values, codes, props, means = typicality._purity_grid(mu, grid_size, plane)
    coords = [_fmt(v) for v in values.tolist()]
    stats = zip(codes.tolist(), props.tolist(), means.tolist())
    if not plane:
        return [
            [v, f"{p:.10g}", f"{m:.10g}"] if code else [v, "", ""]
            for v, (code, p, m) in zip(coords, stats)
        ]
    classes = [region.value for region in RegionClass]
    return [
        [a, b, classes[code], f"{p:.10g}", f"{m:.10g}"] if code else [a, b, classes[0], "", ""]
        for (a, b), (code, p, m) in zip(itertools.product(coords, repeat=2), stats)
    ]


def _scan_rows(args):
    if args.kind == "purity-plane":
        header = ["mu_a", "mu_b", "class", "prop_entangled", "mean_EN"]
        return header, _purity_rows(args.mu, args.grid, plane=True)
    if args.kind == "purity-cut":
        return ["mu_ab", "prop_entangled", "mean_EN"], _purity_rows(args.mu, args.grid, plane=False)
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
        base_seed = core._integer("seed", args.seed, 0)
        rows = []
        for i, e in enumerate(_parse_energies(args.E)):
            mu_min = typicality._purity_floor(e)
            for j in range(args.mu_grid):
                mu = mu_min + (j + 0.5) * (1.0 - mu_min) / args.mu_grid
                seed = int(np.random.SeedSequence([base_seed, i, j]).generate_state(1)[0])
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
    """Run one scan and write its CSV to ``--out`` (``-`` is stdout).

    The output is opened before the scan, so that a bad path fails at once,
    and written only once every row is computed, so that a scan that fails
    leaves an existing file byte-identical.  A file is opened with neither
    ``O_APPEND`` nor ``O_TRUNC`` and written from offset 0: on ext4 a
    truncation to zero would free its blocks and make the close start
    writing the new data back.  A regular file is cut at the end of what
    reached it, so after a complete write it ends at the new rows, and
    after a write that failed part way it holds a prefix of them and no old
    tail.  ``/dev/null`` and FIFOs are never cut.  A file this call created
    is removed on failure.  Nothing is synced, so after a crash the file
    may hold old bytes, or old and new rows mixed, at its new length.
    """
    if args.out == "-":
        sys.stdout.write(_csv(*_scan_rows(args)))
        sys.stdout.flush()
        return 0
    created = not os.path.lexists(args.out)
    fd = os.open(args.out, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        data = memoryview(_csv(*_scan_rows(args)).encode())
        written = 0
        try:
            while written < len(data):
                written += os.write(fd, data[written:])
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, written)
    except BaseException:
        try:
            os.close(fd)
        except OSError:
            pass  # the error being raised is the one to report
        if created:
            os.remove(args.out)
        raise
    os.close(fd)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_scan(args)
    except (OSError, ValueError) as exc:  # core.DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IntegrationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
