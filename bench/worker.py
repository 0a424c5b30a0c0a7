"""One fresh benchmark process: set-up timing, or the measured rounds of one workload.

Started by bench/run.py, never by hand.  Prints one JSON object as its last
line of standard output.  Library imports happen inside the functions so
that ``--setup`` times the import of gaussgeom from a cold interpreter.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import cpuspeed


@dataclass
class Round:
    """One pass over the workload's fixed list of operations."""

    wall_s: float = 0.0
    op_s: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    wrong: bool = False
    outputs: dict = field(default_factory=dict)
    tracebacks: dict[str, str] = field(default_factory=dict)
    rows: int = 0
    layers: dict[str, float] = field(default_factory=dict)
    cpus: list[int | None] = field(default_factory=list)
    probe_s: dict[str, float] = field(default_factory=dict)  # CPU speed around each operation


def run_round(workload, tracer=None, cpus: list[int] = ()) -> Round:
    """Run every operation once, back to back, and check each output.

    An operation that raises or whose output fails its check counts as
    failed; only a failed check marks the round's outputs as wrong.  Checks
    run between operations and are not timed.  Each operation runs pinned to
    the fastest CPU of ``cpus``, between two untimed speed probes on that CPU
    (see cpuspeed.py).
    """
    from workloads import CheckFailed

    rnd = Round()
    if tracer is not None:
        tracer.reset()
    for op in workload.ops:
        if tracer is not None:
            tracer.op = op.name
        failure = None
        with cpuspeed.fastest(list(cpus)) as cpu:
            rnd.cpus.append(cpu)
            before = cpuspeed.probe_s()
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a failed operation is a result, not a crash
                failure = f"{op.name}: {type(exc).__name__}: {exc}"
                rnd.tracebacks[op.name] = traceback.format_exc()
            rnd.op_s[op.name] = time.perf_counter() - start
            rnd.probe_s[op.name] = (before + cpuspeed.probe_s()) / 2
        if failure is not None:
            rnd.failures.append(failure)
            continue
        try:
            output = op.check(out)
        except CheckFailed as exc:
            rnd.failures.append(f"{op.name}: wrong output: {exc}")
            rnd.wrong = True
            continue
        rnd.outputs[op.name] = output.sha256
        rnd.rows += output.rows
    rnd.wall_s = sum(rnd.op_s.values())
    if tracer is not None:
        tracer.op = None
        rnd.layers = tracer.metrics()
        rnd.layers["cli.rows"] = rnd.rows
    return rnd


def run_rounds(workload, budget_s: float, tracer=None, cpus: list[int] = ()) -> list[Round]:
    """Repeat rounds while the next one is expected to end within the budget (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(workload, tracer, cpus))
        spent = time.perf_counter() - start
        if spent + statistics.median(r.wall_s for r in rounds) > budget_s:
            return rounds


def _median_layers(rounds: list[Round]) -> dict[str, float]:
    keys = sorted({k for r in rounds for k in r.layers})
    return {k: statistics.median(r.layers.get(k, 0.0) for r in rounds) for k in keys}


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    import gaussgeom

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "gaussgeom": gaussgeom.__version__,
    }


def _check_import_root(root: Path) -> None:
    import gaussgeom

    got = Path(gaussgeom.__file__).resolve().parent
    want = (root / "src" / "gaussgeom").resolve()
    if got != want:
        raise SystemExit(f"gaussgeom imported from {got}, expected {want}")


def setup(args) -> dict:
    before = cpuspeed.probe_s()
    start = time.perf_counter()
    import workloads  # imports numpy, scipy and every gaussgeom module

    imported = time.perf_counter() - start
    _check_import_root(Path.cwd())
    workload = workloads.make(args.workload, args.seed, Path(args.workdir), args.smoke)
    start = time.perf_counter()
    workload.warm_up()
    seconds = imported + time.perf_counter() - start
    probe = (before + cpuspeed.probe_s()) / 2
    return {"setup_s": cpuspeed.to_reference_s(seconds, probe), "raw_s": seconds}


def measure(args) -> dict:
    import workloads
    from tracing import Tracer

    _check_import_root(Path.cwd())
    workload = workloads.make(args.workload, args.seed, Path(args.workdir), args.smoke)
    workload.warm_up()

    cpus = cpuspeed.allowed_cpus()
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_rounds(workload, budget, cpus=cpus)
    traced = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(workload, budget, tracer, cpus)
        finally:
            tracer.uninstall()

    rounds = plain + traced
    for name, text in {n: t for r in rounds for n, t in r.tracebacks.items()}.items():
        print(f"operation {name} failed:\n{text}", file=sys.stderr)
    op_s = _median_op_s(workload, plain)
    raw_op_s = _median_op_s(workload, plain, raw=True)
    picked = [c for r in rounds for c in r.cpus]
    result = {
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "attempted": sum(len(r.op_s) for r in rounds),
        "failed": sum(len(r.failures) for r in rounds),
        "wrong": any(r.wrong for r in rounds),
        "failures": sorted({f for r in rounds for f in r.failures}),
        "wall_s": sum(op_s),
        "op_s_p50": statistics.median(op_s),
        "raw_wall_s": sum(raw_op_s),
        "raw_op_s_p50": statistics.median(raw_op_s),
        "probe_s_p50": statistics.median(p for r in plain for p in r.probe_s.values()),
        "round_wall_s": [r.wall_s for r in rounds],
        "cpus": {"allowed": cpus, "picked": {str(c): picked.count(c) for c in sorted(set(picked), key=str)}},
        "op_count": sum(len(r.op_s) for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": _outputs(workload, rounds),
        "versions": _versions(),
    }
    if traced:
        layers = _median_layers(traced)
        layers["trace.wall_s"] = sum(_median_op_s(workload, traced))
        layers["trace.overhead_s"] = layers["trace.wall_s"] - result["wall_s"]
        result["per_layer"] = layers
    return result


def _median_op_s(workload, rounds: list[Round], raw: bool = False) -> list[float]:
    """Each operation's median time over the rounds, in the workload's operation order.

    Times are in reference seconds (see cpuspeed.py), or as measured when ``raw``.
    """
    def seconds(r: Round, name: str) -> float:
        return r.op_s[name] if raw else cpuspeed.to_reference_s(r.op_s[name], r.probe_s[name])

    return [statistics.median(seconds(r, op.name) for r in rounds) for op in workload.ops]


def _outputs(workload, rounds: list[Round]) -> dict:
    """SHA-256 of each operation's output, and whether every round reproduced it."""
    out = {}
    for op in workload.ops:
        digests = sorted({r.outputs[op.name] for r in rounds if op.name in r.outputs})
        out[op.name] = {"sha256": digests, "reproduced": len(digests) == 1}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup", action="store_true", help="time import plus one warm-up call")
    args = parser.parse_args(argv)
    result = setup(args) if args.setup else measure(args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
