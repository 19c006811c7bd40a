"""The benchmark's own tests.

    python3 -m unittest discover -s bench -p 'test_*.py'

A tiny-size smoke run of every workload in both modes must print every
metric of BENCHMARK.json with its unit; corrupted outputs must fail their
checks; and a directory without the package must make the run fail.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from xrqos import netsim, profiles, tracegen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


class TestSpec(unittest.TestCase):
    def test_metric_names_and_units_match_the_code(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]}, run.PER_LAYER)

    def test_workloads_match_the_code(self):
        for workload in SPEC["workloads"]:
            self.assertEqual(workload["why"], wl.WORKLOADS[workload["name"]].why)
        self.assertEqual(tuple(wl.WORKLOADS), run.WORKLOAD_NAMES)


class TestSmoke(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for workload in run.WORKLOAD_NAMES:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                                 "--trace", str(trace), "--trace-duration", "2")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    lines = done.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                    for name, unit in expected.items():
                        self.assertTrue(any(line.split()[:1] == [name] and line.split()[2] == unit
                                            for line in lines[:-1] if len(line.split()) >= 3),
                                        f"{name} [{unit}] is not printed")

    def test_same_seed_gives_identical_simulated_statistics(self):
        fingerprints = []
        for _ in range(2):
            done = bench("--workload", "sweep_lossy", "--seed", "9", "--seconds", "0.1", "--trace-duration", "2")
            self.assertEqual(done.returncode, 0, done.stderr)
            fingerprints.append([line for line in done.stdout.splitlines() if line.startswith("simulated")])
        self.assertEqual(fingerprints[0], fingerprints[1])

    def test_run_without_the_package_fails_without_a_result(self):
        bare = ROOT / ".bench_out" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = bench("--workload", "cli_queries", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class TestSimRate(unittest.TestCase):
    def test_a_trailing_partial_cycle_is_left_out(self):
        # Two whole cycles of two ops each, then the slow first op of a third.
        workload = SimpleNamespace(cycle=2)
        sim = [(100, 1.0), (200, 1.0), (300, 1.0), (300, 1.0), (100, 1.0)]
        partial = SimpleNamespace(workload=workload, sim=sim)
        self.assertEqual(run.sim_rate(partial, [1.0] * 5), 225.0)
        # Each op's seconds are scaled to the reference host speed.
        self.assertEqual(run.sim_rate(partial, [2.0, 2.0, 0.5, 0.5, 1.0]), 180.0)


class TestChecksAreNotVacuous(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        surface, cfg, comp = wl.comfortable_surface(profiles.load_profiles())
        cls.trace = tracegen.generate_trace(wl.frame_sizes(surface, comp), cfg, 2.0)
        link = netsim.LinkModel(downlink_bps=wl.PIPELINE_DOWNLINK, propagation_rtt=wl.RTT_MS, mtu_payload_bits=wl.MTU)
        cls.report = netsim.simulate(cls.trace, link, wl.TIMING, wl.REFRESH_HZ, wl.MTP_LIMIT_MS)
        cls.packets = tracegen.packetize(cls.trace, wl.MTU)
        cls.count = wl.expected_packets(cls.trace)

    def test_intact_outputs_pass(self):
        self.assertEqual(checks.check_lossless(self.report, self.trace), [])
        self.assertEqual(checks.check_packets(self.trace, self.packets, wl.MTU, self.count), [])
        self.assertEqual(checks.check_trace_bitrate(self.trace), [])

    def test_corrupted_lossless_report_fails(self):
        frames = list(self.report.frames)
        late = frames[7]
        frames[7] = dataclasses.replace(late, e2e_ms=late.e2e_ms + 1000.0 / wl.REFRESH_HZ)
        corrupted = dataclasses.replace(self.report, frames=tuple(frames))
        self.assertTrue(checks.check_lossless(corrupted, self.trace))

    def test_corrupted_packet_list_fails(self):
        resized = list(self.packets)
        resized[3] = dataclasses.replace(resized[3], size_bits=resized[3].size_bits - 1)
        self.assertTrue(checks.check_packets(self.trace, resized, wl.MTU, self.count))
        self.assertTrue(checks.check_packets(self.trace, self.packets[:-1], wl.MTU, self.count))

    def test_udp_retransmission_fails(self):
        link = dataclasses.replace(self.report.link, loss_prob=0.01)
        frames = list(self.report.frames)
        frames[0] = dataclasses.replace(frames[0], retx_count=1)
        corrupted = dataclasses.replace(self.report, link=link, frames=tuple(frames))
        self.assertTrue(checks.check_aggregates(corrupted, self.trace))


if __name__ == "__main__":
    unittest.main()
