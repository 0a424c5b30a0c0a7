"""The benchmark's own tests, on tiny sizes.  Run from the repository root:

    python3 bench/checks.py

They check that every metric of BENCHMARK.json prints with its unit, that
traced spans nest, that per-layer self times add up to no more than the
traced wall time, that operations run pinned to one allowed CPU between
speed probes, and that the benchmark refuses to run without the program.
The file name keeps these tests out of the library's pytest run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from gaussgeom import cli, correlations, typicality  # noqa: E402

import cpuspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import run_round  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".bench_build"


def _tempdir() -> tempfile.TemporaryDirectory:
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=SCRATCH)


def _run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SmokeRunTest(unittest.TestCase):
    def _check_output(self, workload: str, trace: int) -> None:
        proc = _run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        specs = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {s["name"] for s in specs})
        for spec in specs:
            got = result["metrics"][spec["name"]]
            self.assertEqual(got["unit"], spec["unit"])
            self.assertIsInstance(got["value"], (int, float))
            printed = [ln for ln in lines[:-1] if ln.startswith(spec["name"] + " ")]
            self.assertEqual(len(printed), 1, spec["name"])
            self.assertTrue(printed[0].endswith(" " + spec["unit"]), printed[0])
        self.assertTrue(any(ln.startswith("fail_frac ") for ln in lines))
        self.assertTrue(any(ln.startswith("provenance ") for ln in lines))

    def test_every_workload_prints_every_metric(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self._check_output(w["name"], trace)

    def test_refuses_to_run_without_the_program(self):
        with _tempdir() as tmp:
            tmp = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, tmp / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run_bench("sampler", 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class CpuSpeedTest(unittest.TestCase):
    def test_pins_to_one_allowed_cpu_and_restores_the_set(self):
        cpus = cpuspeed.allowed_cpus()
        with cpuspeed.fastest(cpus) as cpu:
            if len(cpus) < 2:
                self.assertIsNone(cpu)
            else:
                self.assertIn(cpu, cpus)
                self.assertEqual(cpuspeed.allowed_cpus(), [cpu])
        self.assertEqual(cpuspeed.allowed_cpus(), cpus)

    def test_rounds_record_the_cpu_and_probe_of_every_operation(self):
        with _tempdir() as tmp:
            workload = workloads.make("purity-plane", 5, Path(tmp), smoke=True)
            rnd = run_round(workload, cpus=cpuspeed.allowed_cpus())
        self.assertEqual(len(rnd.cpus), len(workload.ops))
        self.assertEqual(set(rnd.probe_s), {op.name for op in workload.ops})
        self.assertTrue(all(p > 0.0 for p in rnd.probe_s.values()))


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = _tempdir()
        self.addCleanup(self.tmp.cleanup)

    def _traced_round(self, name: str):
        workload = workloads.make(name, 5, Path(self.tmp.name), smoke=True)
        tracer = Tracer(record_spans=True)
        tracer.install()
        try:
            rnd = run_round(workload, tracer)
        finally:
            tracer.uninstall()
        return tracer, rnd

    def test_wrappers_reach_names_imported_elsewhere(self):
        originals = (typicality.delta_bounds_batch, typicality.log_negativity,
                     typicality.energy_weight, cli.log_negativity)
        tracer = Tracer()
        tracer.install()
        try:
            for ns, attr in (("gaussgeom.typicality", "delta_bounds_batch"),
                             ("gaussgeom.typicality", "log_negativity"),
                             ("gaussgeom.typicality", "energy_weight"),
                             ("gaussgeom.cli", "log_negativity"),
                             ("gaussgeom.correlations", "delta_bounds_batch"),
                             ("gaussgeom", "delta_bounds")):
                self.assertTrue(tracer.patched(ns, attr), f"{ns}.{attr}")
            self.assertIs(typicality.log_negativity.__wrapped__, correlations.log_negativity.__wrapped__)
        finally:
            tracer.uninstall()
        self.assertEqual(originals, (typicality.delta_bounds_batch, typicality.log_negativity,
                                     typicality.energy_weight, cli.log_negativity))

    def test_spans_nest_and_self_times_fit_in_wall_time(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                tracer, rnd = self._traced_round(name)
                self.assertTrue(tracer.spans)
                by_id = {s.span_id: s for s in tracer.spans}
                for span in tracer.spans:
                    self.assertLessEqual(span.start, span.end)
                    self.assertIsNotNone(span.op)
                    if span.parent_id is None:
                        continue
                    parent = by_id[span.parent_id]
                    self.assertLessEqual(parent.start, span.start)
                    self.assertLessEqual(span.end, parent.end)
                    self.assertEqual(parent.op, span.op)
                self.assertLessEqual(tracer.total_self_s(), rnd.wall_s)
                self.assertEqual(sum(s.calls for s in tracer.stats.values()), len(tracer.spans))

    def test_sampler_counts_proposals_under_its_span(self):
        tracer, rnd = self._traced_round("sampler")
        m = tracer.metrics()
        # The sampler is the only caller of energy_weight in this workload.
        self.assertEqual(m["typicality.sample_energy_constrained.proposals"],
                         m["typicality.energy_weight.points"])
        self.assertGreater(m["typicality.sample_energy_constrained.acceptance"], 0.0)


if __name__ == "__main__":
    unittest.main()
