"""gaussgeom benchmark: one workload, measured in fresh single-threaded processes.

Usage, from the repository root:

    python3 bench/run.py --workload purity-plane --seed 1 --seconds 30 --trace 0

Workloads: purity-plane, energy-curves, sampler (see bench/README.md).  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured with
tracing off; with ``--trace 1`` half of the time runs untraced and half with
every public gaussgeom function wrapped, and the per-layer metrics are
reported.  ``--smoke`` shrinks every size so that the whole pipeline runs in
seconds (used by bench/checks.py).

The program is run from ``src/`` of the current directory, without
installing it.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Exit code 0 means the benchmark ran (operations may still have
failed; they are counted); any other code means it could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cpuspeed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("purity-plane", "energy-curves", "sampler")
SETUP_REPEATS = 9
# Every run must end within 180 s, whatever hangs.
RUN_TIMEOUT_S = 170.0


def _single_thread_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("GAUSS_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(root / "src")
    return env


def _worker(args: list[str], root: Path, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root,
        env=_single_thread_env(root),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    return json.loads(lines[-1])


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _provenance(root: Path, args, versions: dict) -> dict:
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "versions": versions,
        "git_sha": _git_sha(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "argv": sys.argv,
    }


def _metric_specs(root: Path, trace: int) -> list[dict]:
    with (root / "BENCHMARK.json").open() as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def run(args, root: Path) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    specs = _metric_specs(root, args.trace)
    workdir = root / ".bench_build" / f"bench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    if args.smoke:
        common.append("--smoke")
    try:
        setups = []
        cpus = cpuspeed.allowed_cpus()
        for _ in range(0 if args.trace else SETUP_REPEATS):
            # The set-up process inherits the pin to the currently fastest CPU.
            with cpuspeed.fastest(cpus):
                setups.append(_worker(common + ["--setup"], root, deadline))
        res = _worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                      root, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        values = res["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": res["wall_s"],
            "op_s_p50": res["op_s_p50"],
            "peak_rss_mb": res["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }

    print("provenance " + json.dumps(_provenance(root, args, res["versions"])))
    print("outputs " + json.dumps(res["outputs"]))
    print(f"rounds {res['rounds']} untraced, {res['traced_rounds']} traced; "
          f"{res['op_count']} timed operations; round times {json.dumps(res['round_wall_s'])} s")
    print(f"raw wall_s {res['raw_wall_s']:.9g} s, op_s_p50 {res['raw_op_s_p50']:.9g} s "
          f"(as measured; the metrics below are in reference seconds)")
    print(f"probe {res['probe_s_p50']:.9g} s (median; {cpuspeed.REFERENCE_PROBE_S:g} s on the reference CPU)")
    print(f"cpus {json.dumps(res['cpus'])} (allowed; how often each was picked as fastest)")
    for failure in res["failures"]:
        print(f"failed-op {failure}")
    if not args.trace:
        print(f"setup-runs {json.dumps([s['setup_s'] for s in setups])} s, "
              f"as measured {json.dumps([s['raw_s'] for s in setups])} s")
    print(f"fail_frac {failed / attempted:.6g} frac ({failed} of {attempted} operations)")
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name not in values and f"{name.rsplit('.', 1)[0]}.calls" not in values:
            raise KeyError(f"metric {name} of BENCHMARK.json is not measured")
        # A counter of a wrapped function that never ran, or never counted, is 0.
        value = values.get(name, 0)
        print(f"{name} {value:.9g} {spec['unit']}")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return {"correct": not res["wrong"], "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    missing = [p for p in ("BENCHMARK.json", "src/gaussgeom/__init__.py") if not (root / p).is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        result = run(args, root)
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
