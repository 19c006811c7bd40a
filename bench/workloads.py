"""The benchmark's three workloads: fixed inputs, one op, and its checks.

Each workload is a closed loop with one client: ``run.py`` starts op i+1
only after op i has returned and been checked. Op i derives its loss seed
from the workload seed as ``seed + i``, so no op repeats another op's
inputs. The program sees only these generated inputs.
"""
from __future__ import annotations

import contextlib
import heapq
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from xrqos import cli, codec, netsim, profiles, tracegen
from xrqos.capacity import BitDepth
from xrqos.codec import FrameSizes, GopConfig, RenderSurface
from xrqos.latency import PipelineTiming

import checks

STAGE = ("huawei_ilab", "comfortable")
MTU = 11680
TIMING = PipelineTiming(t_sense=1, t_render=2, t_encode=2, t_decode=3, fixed_display=2)
REFRESH_HZ = 90.0
MTP_LIMIT_MS = 20.0
RTT_MS = 8.0
LOSS = 0.01
SWEEP_DOWNLINKS = (100e6, 150e6, 200e6, 250e6, 300e6)
PIPELINE_DOWNLINK = 200e6
# The reference jobs' times at the host speed that the gated metrics are
# scaled to: the median of each on the host the benchmark was written on.
PYTHON_JOB_MS = 20.0
SPAWN_MS = 70.0


@dataclass
class OpResult:
    """What the harness keeps of one op once its output has been checked."""

    problems: list[str] = field(default_factory=list)
    sim_s: float = 0.0  # host seconds inside simulate (the whole command for the CLI)
    tx: int = 0  # simulated packet transmissions, retransmissions included
    tx_by_kind: dict[str, int] = field(default_factory=dict)  # lossless / udp / tcp
    rss_kb: int = 0  # a CLI child's peak resident set
    stats: checks.SimStats | None = None  # simulated statistics of this op
    packets: int = 0  # packets the op's packetize call produced


def comfortable_surface(registry) -> tuple[RenderSurface, GopConfig, object]:
    stage = registry.stage(*STAGE)
    surface = RenderSurface(
        per_eye=stage.per_eye,
        fov=stage.fov,
        depth=BitDepth.from_bpc(stage.bpc, stage.chroma),
        extra_picture_fraction=stage.extra_picture_fraction,
        dof_fraction=stage.dof_fraction,
    )
    cfg = GopConfig(gop_time=stage.gop_time_s, fps=stage.fps["strong"], redundancy_fraction=stage.redundancy_fraction)
    return surface, cfg, stage.compression()


def frame_sizes(surface: RenderSurface, comp) -> FrameSizes:
    pixels = codec.nb_pixels(surface)
    return FrameSizes(
        i_bits=codec.frame_size(pixels, surface.depth, surface.dof_fraction, comp.iframe_factor),
        p_bits=codec.frame_size(pixels, surface.depth, surface.dof_fraction, comp.pframe_factor),
    )


def expected_packets(trace) -> int:
    return sum(checks.packets_per_frame(r.size_bits, MTU) for r in trace.records)


def simulate_timed(trace, link) -> tuple[object, float]:
    start = time.perf_counter()
    report = netsim.simulate(trace, link, TIMING, REFRESH_HZ, MTP_LIMIT_MS)
    return report, time.perf_counter() - start


def python_job_ms() -> float:
    """Milliseconds of a fixed pure-Python job like netsim's per-packet loop: heap events, random draws, floats."""
    rng = random.Random(1)
    heap: list[tuple[float, int]] = []
    acc = 0.0
    start = time.perf_counter()
    for i in range(40_000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 32:
            at, j = heapq.heappop(heap)
            acc += at * j
    return (time.perf_counter() - start) * 1000.0


def spawn_ms(root: Path, code: str = "pass") -> float:
    """Milliseconds for a fresh interpreter with the children's environment to run ``code`` and exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(root), cwd=root, check=True)
    return (time.perf_counter() - start) * 1000.0


def sim_kind(link) -> str:
    if link.loss_prob == 0.0:
        return "lossless"
    return "udp" if link.mode == "udp_like" else "tcp"


class Workload:
    name = ""
    why = ""
    reference_nominal_ms = PYTHON_JOB_MS  # see ``reference``
    trace_s = 60.0  # seconds of generated trace per op, unless the run sets another
    cycle = 1  # ops that together form one sample of sim_pkts_per_s
    # Ops whose simulated statistics form the run's fingerprint; they depend
    # only on the seed, never on how many ops the run's time allowed.
    fingerprint_ops = 1

    def __init__(self, root: Path, tmp: Path, seed: int, trace_duration: float | None) -> None:
        self.root = root
        self.tmp = tmp
        self.seed = seed
        self.duration = self.trace_s if trace_duration is None else trace_duration
        self.registry = profiles.load_profiles()
        self.surface, self.cfg, self.comp = comfortable_surface(self.registry)

    def warm(self) -> None:
        """Fill caches that a user pays for once, not per op."""

    def reference(self) -> float:
        """Milliseconds of a fixed job of the op's own kind of work, run between ops to gauge host speed.

        It runs no xrqos code, so a change to the package leaves it alone.
        """
        return python_job_ms()

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out, elapsed: float) -> OpResult:
        raise NotImplementedError


class SweepLossy(Workload):
    name = "sweep_lossy"
    why = (
        "The capacity-planning job: a 6 s trace over 5 downlinks in udp_like and tcp_like at p=0.01, "
        "which spends its time in netsim's lossy per-packet loop and its loss draws."
    )
    # Three GOPs rather than the README's 60 s: an op of about 1.2 s gives a
    # run some forty ops, so its median rides over a shared host's slow spells.
    trace_s = 6.0

    def op(self, i: int):
        trace = tracegen.generate_trace(frame_sizes(self.surface, self.comp), self.cfg, self.duration)
        runs, sim_s = [], 0.0
        for downlink in SWEEP_DOWNLINKS:
            for mode in ("udp_like", "tcp_like"):
                link = netsim.LinkModel(
                    downlink_bps=downlink, propagation_rtt=RTT_MS, loss_prob=LOSS,
                    seed=self.seed + i, mode=mode, mtu_payload_bits=MTU,
                )
                report, seconds = simulate_timed(trace, link)
                runs.append(report)
                sim_s += seconds
        table = [
            (r.link.downlink_bps, r.link.mode, r.aggregates.displayed_count, r.aggregates.dropped_count,
             r.aggregates.mean_e2e_ms, r.aggregates.p99_e2e_ms, r.aggregates.mtp_violations)
            for r in runs
        ]
        return trace, runs, table, sim_s

    def check(self, i: int, out, elapsed: float) -> OpResult:
        trace, runs, table, sim_s = out
        result = OpResult(sim_s=sim_s, stats=checks.SimStats())
        result.problems += checks.check_trace_bitrate(trace)
        if len(table) != len(runs):
            result.problems.append("the sweep table lost a row")
        for mode in ("udp_like", "tcp_like"):
            same_mode = [(r.link.downlink_bps, r) for r in runs if r.link.mode == mode]
            result.problems += checks.check_sweep(same_mode)
        for report in runs:
            result.problems += checks.check_aggregates(report, trace)
            tx = result.stats.add(report, trace)
            kind = sim_kind(report.link)
            result.tx_by_kind[kind] = result.tx_by_kind.get(kind, 0) + tx
        result.tx = result.stats.tx
        return result


class TracePipeline(Workload):
    name = "trace_pipeline"
    why = (
        "The README's file flow at 60 s scale: generate, JSON round trip, packetize, packet CSV and a "
        "lossless simulate, so tracegen dominates and netsim runs without any loss draw."
    )

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.expected_packets = expected_packets(
            tracegen.generate_trace(frame_sizes(self.surface, self.comp), self.cfg, self.duration)
        )
        if self.duration == 60.0 and self.expected_packets != checks.PACKETS_60S:
            raise RuntimeError(f"the 60 s trace has {self.expected_packets} packets, not {checks.PACKETS_60S}")

    def op(self, i: int):
        trace = tracegen.generate_trace(frame_sizes(self.surface, self.comp), self.cfg, self.duration)
        paths = [self.tmp / f"{stem}_{i}.{ext}" for stem, ext in (("trace", "json"), ("packets", "csv"), ("report", "json"))]
        tracegen.export_trace(trace, "json", paths[0])
        loaded = tracegen.load_trace_json(paths[0])
        packets = tracegen.packetize(loaded, MTU)
        tracegen.export_packets(packets, "csv", paths[1])
        # A lossless result ignores the loss seed, so the op index moves the
        # propagation delay by whole microseconds to keep inputs distinct.
        link = netsim.LinkModel(
            downlink_bps=PIPELINE_DOWNLINK, propagation_rtt=RTT_MS + ((self.seed + i) % 1000) / 1000.0,
            seed=self.seed + i, mtu_payload_bits=MTU,
        )
        report, sim_s = simulate_timed(loaded, link)
        paths[2].write_text(report.to_json(), encoding="utf-8")
        return trace, loaded, packets, report, paths, sim_s

    def check(self, i: int, out, elapsed: float) -> OpResult:
        trace, loaded, packets, report, paths, sim_s = out
        result = OpResult(sim_s=sim_s, stats=checks.SimStats(), packets=len(packets))
        result.problems += checks.check_trace_bitrate(trace)
        result.problems += checks.check_round_trip(trace, loaded)
        result.problems += checks.check_packets(loaded, packets, MTU, self.expected_packets)
        result.problems += checks.check_lossless(report, loaded)
        with open(paths[1], encoding="utf-8") as handle:
            rows = sum(1 for _ in handle) - 1
        if rows != len(packets):
            result.problems.append(f"packet csv holds {rows} rows for {len(packets)} packets")
        written = json.loads(paths[2].read_text(encoding="utf-8"))
        if written["aggregates"]["displayed_count"] != report.aggregates.displayed_count:
            result.problems.append("report json disagrees with the report")
        for path in paths:
            path.unlink()
        result.tx = result.tx_by_kind["lossless"] = result.stats.add(report, loaded)
        return result


_SWEEP_ROW = re.compile(r"(\S+)\s+displayed=(\d+)\s+dropped=(\d+)\s+mean=(\S+)\s+p99=(\S+)\s+violations=(\d+)")


@dataclass
class CliOut:
    command: str
    returncode: int
    stdout: str
    stderr: str
    rss_kb: int = 0


class CliQueries(Workload):
    name = "cli_queries"
    why = (
        "What a CLI user pays per command: one fresh `python -m xrqos.cli` process per op over a fixed cycle "
        "of the README's examples, dominated by interpreter start-up and import."
    )
    SHORT_TRACE_S = 2.0

    # (name, argv after the global flags, text the output must contain)
    COMMANDS = (
        ("simulate", None, None),
        ("sweep", ["simulate", "--stage-profile", "huawei_ilab/comfortable", "--duration", "2",
                   "--downlink", "100M", "--sweep-downlink", "50M,100M,200M", "--refresh-hz", "90"], None),
        ("trace_generate", None, None),
        ("geometry", ["geometry", "ppd", "--pixels", "1648", "--fov", "97"], "ppd: 16.9897"),
        ("capacity", ["capacity", "sphere", "--ppd", "200", "--bpp", "24", "--fps", "77"], "bitrate: 4.36 Tibps"),
        ("gop", ["--units", "decimal", "gop", "bitrate", "--stage-profile", "huawei_ilab/comfortable"],
         "bitrate: 91.04 Mbps"),
        ("latency", ["latency", "refresh", "--hz", "90"], "max_ms: 11.1111"),
        ("reliability", ["reliability", "max-loss", "--throughput", "140M", "--rtt", "20ms"],
         "max_loss_rate: 1.7e-05"),
        ("table_quest2", ["table", "quest2"], "18.44 Mibps   62.85 Mibps"),
        ("table_summary", ["table", "summary"], "2.71 Tibps"),
        ("report", ["--format", "csv", "report", "quest2@72", "eye_like"],
         "bitrate_bps_factor_1,11598888960.0,2978976000000.0"),
        ("profiles_list", ["profiles", "list"], "stage: huawei_ilab/comfortable"),
    )
    fingerprint_ops = cycle = len(COMMANDS)
    reference_nominal_ms = SPAWN_MS

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.short_trace = tracegen.generate_trace(frame_sizes(self.surface, self.comp), self.cfg, self.SHORT_TRACE_S)
        self.short_packets = expected_packets(self.short_trace)
        self.trace_path = self.tmp / "short_trace.json"
        tracegen.export_trace(self.short_trace, "json", self.trace_path)
        self.env = child_env(self.root)

    def warm(self) -> None:
        # Compiles the package's bytecode into the benchmark's cache once.
        self.run_child(["profiles", "list"])

    def reference(self) -> float:
        # An op is a fresh process, so its reference is a bare interpreter's start and exit.
        return spawn_ms(self.root)

    def argv(self, i: int) -> tuple[str, list[str]]:
        name, args, _ = self.COMMANDS[i % len(self.COMMANDS)]
        if name == "simulate":
            args = ["--format", "json", "simulate", "--input", str(self.trace_path), "--downlink", "200M",
                    "--rtt", "8ms", "--loss", "0.01", "--mode", "tcp", "--refresh-hz", "90", "--mtp-limit", "20ms",
                    "--sense", "1", "--render", "2", "--encode", "2", "--decode", "3", "--display", "2"]
        elif name == "trace_generate":
            args = ["--format", "json", "trace", "generate", "--stage-profile", "huawei_ilab/comfortable",
                    "--duration", "2", "--output", str(self.tmp / f"cli_trace_{i}.json")]
        return name, ["--seed", str(self.seed + i), *args]

    def run_child(self, args: list[str]) -> CliOut:
        """One fresh CLI process; returns only after it has exited."""
        out_path, err_path = self.tmp / "stdout.txt", self.tmp / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "xrqos.cli", *args], stdout=out, stderr=err,
                                    cwd=self.tmp, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return CliOut("", proc.returncode, out_path.read_text(encoding="utf-8"),
                      err_path.read_text(encoding="utf-8"), usage.ru_maxrss)

    def op(self, i: int) -> CliOut:
        name, args = self.argv(i)
        result = self.run_child(args)
        result.command = name
        return result

    def op_in_process(self, i: int) -> CliOut:
        """The same command through ``cli.main`` in this process, output captured."""
        name, args = self.argv(i)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        return CliOut(name, code, stdout.getvalue(), stderr.getvalue())

    def check(self, i: int, out: CliOut, elapsed: float) -> OpResult:
        result = OpResult(rss_kb=out.rss_kb)
        if out.returncode != 0:
            result.problems.append(f"{out.command} exited {out.returncode}: {out.stderr.strip()[-200:]}")
            return result
        expected = self.COMMANDS[i % len(self.COMMANDS)][2]
        if expected is not None and expected not in out.stdout:
            result.problems.append(f"{out.command} did not print {expected!r}")
        if out.command == "simulate":
            self._check_simulate(out, result)
        elif out.command == "sweep":
            self._check_sweep(out, result)
        elif out.command == "trace_generate":
            path = self.tmp / f"cli_trace_{i}.json"
            trace = tracegen.load_trace_json(path)
            path.unlink()
            result.problems += checks.check_trace_bitrate(trace)
            if trace != self.short_trace:
                result.problems.append("the CLI's trace differs from the library's")
        if result.tx:
            result.sim_s = elapsed
        return result

    def _check_simulate(self, out: CliOut, result: OpResult) -> None:
        payload = json.loads(out.stdout)
        frames, agg = payload["frames"], payload["aggregates"]
        shown = sorted(f["e2e_ms"] for f in frames if f["displayed"])
        if agg["displayed_count"] != len(shown) or agg["displayed_count"] + agg["dropped_count"] != len(self.short_trace):
            result.problems.append("simulate: displayed + dropped != frames")
        if shown and not agg["p50_e2e_ms"] <= agg["p95_e2e_ms"] <= agg["p99_e2e_ms"] <= agg["max_e2e_ms"] == shown[-1]:
            result.problems.append("simulate: percentiles out of order")
        if abs(agg["effective_fps"] - len(shown) / self.SHORT_TRACE_S) > 1e-9:
            result.problems.append("simulate: effective fps != displayed / duration")
        retx = sum(f["retx_count"] for f in frames)
        sizes = [r.size_bits for r in self.short_trace.records]
        result.stats = checks.SimStats()
        result.stats.add_text(
            out.stdout, tx=self.short_packets + retx, retx=retx, dropped=agg["dropped_count"],
            wire_bits=sum(sizes) + retx * MTU,
            displayed_bits=sum(s for s, f in zip(sizes, frames) if f["displayed"]),
        )
        result.tx = result.tx_by_kind["tcp"] = self.short_packets + retx

    def _check_sweep(self, out: CliOut, result: OpResult) -> None:
        rows = _SWEEP_ROW.findall(out.stdout)
        frames = len(self.short_trace)
        if len(rows) != 3 or any(int(r[1]) != frames or int(r[2]) != 0 for r in rows):
            result.problems.append("sweep: expected 3 lossless rows with every frame displayed")
            return
        means = [float(r[3]) for r in rows]
        if any(faster > slower for slower, faster in zip(means, means[1:])):
            result.problems.append("sweep: mean e2e rose with a faster downlink")
        bits = self.short_trace.total_bits
        result.stats = checks.SimStats()
        result.stats.add_text(out.stdout, tx=3 * self.short_packets, retx=0, dropped=0,
                              wire_bits=3 * bits, displayed_bits=3 * bits)
        result.tx = result.tx_by_kind["lossless"] = 3 * self.short_packets


def child_env(root: Path) -> dict:
    """Environment of every child: the checkout's package and a bytecode cache inside the checkout."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONPYCACHEPREFIX"] = str(root / ".bench_out" / "pycache")
    return env


WORKLOADS = {w.name: w for w in (SweepLossy, TracePipeline, CliQueries)}
