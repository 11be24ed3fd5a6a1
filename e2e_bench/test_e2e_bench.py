#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the root of a checkout (builds the driver on first use):

    python3 -m unittest e2e_bench/test_e2e_bench.py

Every workload runs at test size (--tiny 1) with all output checks on;
runs at one seed must agree, another seed must change the stream, and the
traced run must write a well-formed Chrome trace.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("attack-static", "attack-dynamic", "attack-rules", "screen")


def run(workload, seed, trace=0, trace_out=None, cwd=ROOT, script=RUN):
    command = [sys.executable, script, "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
               "--tiny", "1"]
    if trace_out:
        command += ["--trace-out", trace_out]
    result = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                            timeout=600)
    lines = result.stdout.strip().splitlines()
    return result, lines


def parse(lines):
    """(provenance, detail, result) from a finished run's stdout."""
    provenance = json.loads(lines[0])["provenance"]
    detail = next(json.loads(line)["detail"] for line in lines
                  if line.startswith('{"detail"'))
    return provenance, detail, json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)
        cls.runs = {}
        for workload in WORKLOADS:
            cls.runs[workload] = run(workload, seed=7)

    def expect_ok(self, result, lines):
        self.assertEqual(result.returncode, 0, result.stderr[-2000:])
        provenance, detail, final = parse(lines)
        self.assertEqual(detail["problems"], [])
        self.assertTrue(final["correct"])
        self.assertEqual(final["failed"], 0)
        self.assertGreaterEqual(final["attempted"], 1)
        return provenance, detail, final

    def test_every_workload_passes_its_checks_at_tiny_size(self):
        names = [m["name"] for m in self.spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                provenance, _, final = self.expect_ok(*self.runs[workload])
                self.assertEqual(list(final["metrics"]), names)
                for name, metric in final["metrics"].items():
                    self.assertEqual(metric["unit"], units[name])
                    self.assertGreater(metric["value"], 0, name)
                self.assertEqual(final["metrics"]["ok_pct"]["value"], 100)
                for key in ("nproc", "cpu_model", "isa", "compiler",
                            "cxx_flags", "build_type", "git_sha",
                            "gemm_backend", "gemm_backend_env",
                            "pool_workers", "omp_threads", "seed"):
                    self.assertIn(key, provenance)
                self.assertEqual(provenance["seed"], 7)

    def test_same_seed_gives_identical_quality(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first_detail, first = parse(self.runs[workload][1])
                result, lines = run(workload, seed=7)
                _, detail, again = self.expect_ok(result, lines)
                self.assertEqual(first["metrics"]["quality_pct"],
                                 again["metrics"]["quality_pct"])
                self.assertEqual(first_detail["stream_digest"],
                                 detail["stream_digest"])

    def test_another_seed_gives_another_stream(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first_detail, _ = parse(self.runs[workload][1])
                _, detail, _ = self.expect_ok(*run(workload, seed=8))
                self.assertNotEqual(first_detail["stream_digest"],
                                    detail["stream_digest"])

    def test_traced_run_writes_a_well_formed_trace(self):
        names = [m["name"] for m in self.spec["per_layer"]]
        with tempfile.TemporaryDirectory() as scratch:
            for workload in WORKLOADS:
                with self.subTest(workload=workload):
                    path = os.path.join(scratch, workload + ".json")
                    _, _, final = self.expect_ok(
                        *run(workload, seed=7, trace=1, trace_out=path))
                    self.assertEqual(list(final["metrics"]), names)
                    self.assertGreater(
                        final["metrics"]["trace.overhead_ratio"]["value"], 0)
                    with open(path) as handle:
                        trace = json.load(handle)
                    self.check_spans(trace["traceEvents"])
                    self.assertTrue(trace["layers"])
                    self.assertEqual(trace["metadata"]["workload"], workload)

    def check_spans(self, events):
        self.assertTrue(events)
        by_id = {}
        for event in events:
            self.assertEqual(event["ph"], "X")
            self.assertGreaterEqual(event["dur"], 0)  # closed
            by_id[event["args"]["id"]] = event
        self.assertEqual(len(by_id), len(events))
        for event in events:
            parent_id = event["args"]["parent"]
            if parent_id == 0:
                continue
            parent = by_id[parent_id]
            self.assertGreaterEqual(event["ts"], parent["ts"])
            self.assertLessEqual(event["ts"] + event["dur"],
                                 parent["ts"] + parent["dur"] + 1e-3)

    def test_fails_without_result_outside_a_source_tree(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "e2e_bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            result, lines = run(
                "attack-static", seed=1, cwd=bare,
                script=os.path.join(bare, "e2e_bench", "run.py"))
            self.assertNotEqual(result.returncode, 0)
            self.assertFalse(any(line.startswith('{"correct"')
                                 for line in lines))


if __name__ == "__main__":
    unittest.main()
