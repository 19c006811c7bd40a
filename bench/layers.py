"""Per-layer metrics of a traced run.

A traced run alternates untraced and traced ops of its workload. The spans
of the traced ops give each layer's self time, and the named per-layer
metrics where the workload calls that layer. A layer the workload never
calls is timed once by the layer probe below, on the 2 s comfortable trace,
so every metric of a traced run is a measurement.
"""
from __future__ import annotations

import contextlib
import io
import os
import statistics
import time
import tracemalloc
from collections import defaultdict

from xrqos import capacity, cli, codec, geometry, latency, netsim, reliability, tracegen
from xrqos.capacity import BitDepth, CompressionProfile
from xrqos.geometry import FovSpec, Resolution

import checks
import spans
import workloads as wl

IMPORT_PROBES = 5
MODEL_REPEATS = 200


def model_calls(surface, cfg, comp):
    """A fixed list of the closed-form modules' public calls."""
    depth = BitDepth.from_bpc(8)
    lossy = CompressionProfile("H.265", 600.0)
    return (
        lambda: geometry.ppd_from_fov(1648, 97.0),
        lambda: geometry.fov_from_physical(5.01, 2.5),
        lambda: geometry.scale_resolution(1648, 97.0, 360.0),
        lambda: capacity.hmd_capacity(Resolution(1832, 1920), depth, 120.0, lossy),
        lambda: capacity.eye_like_capacity(FovSpec(155, 130), 200.0, depth, 77.0, lossy),
        lambda: capacity.full_sphere_capacity(200.0, depth, 77.0),
        lambda: codec.strong_interaction_bitrate(surface, cfg, comp),
        lambda: latency.refresh_delay(90.0),
        lambda: latency.stream_latency(2.0, 902_814, 91_038_101, 3.0),
        lambda: reliability.max_loss_rate(reliability.LossModel(), 140e6, 0.02),
        lambda: reliability.delivery_success(1.7e-5),
    )


def time_model_calls(workload) -> float:
    """Mean microseconds per call over the fixed list."""
    calls = model_calls(workload.surface, workload.cfg, workload.comp)
    start = time.perf_counter()
    for _ in range(MODEL_REPEATS):
        for call in calls:
            call()
    return (time.perf_counter() - start) / (MODEL_REPEATS * len(calls)) * 1e6


def time_imports(root) -> tuple[float, float]:
    """Medians (ms) of a bare interpreter and of one that imports xrqos.cli."""
    bare, imported = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(wl.spawn_ms(root))
        imported.append(wl.spawn_ms(root, "import xrqos.cli"))
    return statistics.median(bare), statistics.median(imported)


def packetize_peak_mb(trace) -> float:
    tracemalloc.start()
    try:
        tracegen.packetize(trace, wl.MTU)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class Probe:
    """One traced pass over every layer on the 2 s comfortable trace."""

    def __init__(self, workload, tracer: spans.Tracer) -> None:
        self.workload = workload
        self.tracer = tracer
        self.tx_by_kind: dict[str, int] = defaultdict(int)
        self.trace = None
        self.packets = 0
        self.problems: list[str] = []

    def run(self) -> None:
        w, tmp = self.workload, self.workload.tmp
        self.tracer.op = "probe"
        self.tracer.install()
        try:
            self.trace = tracegen.generate_trace(wl.frame_sizes(w.surface, w.comp), w.cfg, 2.0)
            tracegen.export_trace(self.trace, "json", tmp / "probe_trace.json")
            loaded = tracegen.load_trace_json(tmp / "probe_trace.json")
            packets = tracegen.packetize(loaded, wl.MTU)
            tracegen.export_packets(packets, "csv", tmp / "probe_packets.csv")
            reports = []
            for loss, mode in ((0.0, "udp_like"), (wl.LOSS, "udp_like"), (wl.LOSS, "tcp_like")):
                link = netsim.LinkModel(downlink_bps=wl.PIPELINE_DOWNLINK, propagation_rtt=wl.RTT_MS,
                                        loss_prob=loss, seed=w.seed, mode=mode, mtu_payload_bits=wl.MTU)
                reports.append(netsim.simulate(loaded, link, wl.TIMING, wl.REFRESH_HZ, wl.MTP_LIMIT_MS))
            reports[0].to_json()
            # The simulating commands are left out: the library calls above
            # already time netsim, and their transmissions are counted there.
            for name, args, _ in wl.CliQueries.COMMANDS:
                if name in ("simulate", "sweep", "trace_generate"):
                    continue
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    if cli.main(args) != 0:
                        self.problems.append(f"probe: cli {' '.join(args)} failed")
        finally:
            self.tracer.uninstall()
            self.tracer.op = None
        for name in ("probe_trace.json", "probe_packets.csv"):
            os.unlink(tmp / name)
        self.packets = len(packets)
        self.problems += checks.check_round_trip(self.trace, loaded)
        self.problems += checks.check_packets(loaded, packets, wl.MTU, wl.expected_packets(loaded))
        self.problems += checks.check_lossless(reports[0], loaded)
        stats = checks.SimStats()
        for report in reports:
            self.problems += checks.check_aggregates(report, loaded)
            self.tx_by_kind[wl.sim_kind(report.link)] += stats.add(report, loaded)


def per_layer_metrics(run, probe: Probe, bare_ms: float, import_ms: float, model_us: float, peak_mb: float) -> dict:
    """Every per-layer metric of BENCHMARK.json, from the traced ops or else the probe."""
    by_name: dict[tuple[bool, str], list[float]] = defaultdict(list)
    for name, start, end, _, op in run.tracer.spans:
        by_name[(op == "probe", name)].append((end - start) * 1000.0)

    def calls(name: str) -> list[float]:
        return by_name.get((False, name)) or by_name[(True, name)]

    def mean_ms(*names: str) -> float:
        samples = [ms for name in names for ms in calls(name)]
        return statistics.fmean(samples)

    def ns_per_tx(kind: str) -> float:
        name = f"netsim.simulate.{kind}"
        if (False, name) in by_name and run.traced_tx_by_kind[kind]:
            return sum(by_name[(False, name)]) * 1e6 / run.traced_tx_by_kind[kind]
        return sum(by_name[(True, name)]) * 1e6 / probe.tx_by_kind[kind]

    packets = run.traced_packets if (False, "tracegen.packetize") in by_name else probe.packets
    fingerprint = run.stats.fingerprint()
    metrics = {
        "netsim.simulate_ms.udp": mean_ms("netsim.simulate.udp"),
        "netsim.simulate_ms.tcp": mean_ms("netsim.simulate.tcp"),
        "netsim.simulate_ms.lossless": mean_ms("netsim.simulate.lossless"),
        "netsim.ns_per_tx.udp": ns_per_tx("udp"),
        "netsim.ns_per_tx.tcp": ns_per_tx("tcp"),
        "netsim.ns_per_tx.lossless": ns_per_tx("lossless"),
        "netsim.tx": fingerprint["netsim.tx"],
        "netsim.retx": fingerprint["netsim.retx"],
        "netsim.goodput_frac": fingerprint["netsim.goodput_frac"],
        "netsim.to_json_ms": mean_ms("netsim.to_json"),
        "tracegen.generate_ms": mean_ms("tracegen.generate"),
        "tracegen.packetize_ms": mean_ms("tracegen.packetize"),
        "tracegen.ns_per_pkt": mean_ms("tracegen.packetize") * 1e6 / packets,
        "tracegen.packets": packets,
        "tracegen.packetize_peak_mb": peak_mb,
        "tracegen.export_trace_ms": mean_ms("tracegen.export_trace"),
        "tracegen.export_packets_ms": mean_ms("tracegen.export_packets"),
        "tracegen.load_trace_ms": mean_ms("tracegen.load_trace"),
        "cli.import_ms": import_ms - bare_ms,
        "cli.main_ms": mean_ms("cli.main"),
        "cli.build_parser_ms": mean_ms("cli.build_parser"),
        "profiles.load_ms": mean_ms("profiles.load"),
        "profiles.tables_ms": mean_ms("profiles.tables"),
        "report.requirements_ms": mean_ms("report.requirements"),
        "models.call_us": model_us,
    }
    metrics.update(decomposition(run, bare_ms, import_ms))
    return metrics


def decomposition(run, bare_ms: float, import_ms: float) -> dict:
    """Per-layer self time of a traced op, summed, against the untraced op p50.

    The sum leaves out the ``bench`` layer, the harness's own root span, so
    the remainder is the part of the untraced op that no layer span covers.
    For cli_queries the traced op is ``cli.main`` in this process, so the
    fresh process's interpreter start and ``import xrqos.cli`` (the import
    probes) are added to the cli layer.
    """
    table = spans.self_ms_by_op_and_layer([s for s in run.tracer.spans if s[4] != "probe"])
    self_ms = {layer: statistics.fmean(row.get(layer, 0.0) for row in table.values()) for layer in spans.LAYERS}
    if run.workload.name == "cli_queries":
        self_ms["cli"] += import_ms
    run.self_ms = self_ms
    untraced = statistics.median(run.untraced_ms)
    total = sum(ms for layer, ms in self_ms.items() if layer != "bench")
    return {
        "trace.untraced_op_p50_ms": untraced,
        "trace.traced_op_p50_ms": statistics.median(run.traced_ms),
        "trace.overhead_ms": statistics.median(run.traced_ms) - statistics.median(run.traced_baseline_ms),
        "trace.self_sum_ms": total,
        "trace.remainder_ms": untraced - total,
    }
