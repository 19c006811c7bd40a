#!/usr/bin/env python3
"""Run one workload of the xrqos benchmark; print every metric, then one JSON line.

    python3 bench/run.py --workload sweep_lossy --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, as host time
scaled to a fixed host speed by a reference job timed next to each op and
each set-up probe (bench/README.md says why); the values as measured are
printed next to them. ``--trace 1`` is a separate run that records spans and
prints the per-layer metrics. The package is imported from ``src/`` of the
checkout this file sits in; without it the run exits 1 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up probes, spread evenly over the op loop, so that they sample the same
# stretches of a shared host as the ops do.
SETUP_PROBES = 16

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "sim_pkts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "netsim.simulate_ms.udp": "ms",
    "netsim.simulate_ms.tcp": "ms",
    "netsim.simulate_ms.lossless": "ms",
    "netsim.ns_per_tx.udp": "ns",
    "netsim.ns_per_tx.tcp": "ns",
    "netsim.ns_per_tx.lossless": "ns",
    "netsim.tx": "count",
    "netsim.retx": "count",
    "netsim.goodput_frac": "fraction",
    "netsim.to_json_ms": "ms",
    "tracegen.generate_ms": "ms",
    "tracegen.packetize_ms": "ms",
    "tracegen.ns_per_pkt": "ns",
    "tracegen.packets": "count",
    "tracegen.packetize_peak_mb": "MB",
    "tracegen.export_trace_ms": "ms",
    "tracegen.export_packets_ms": "ms",
    "tracegen.load_trace_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms": "ms",
    "cli.build_parser_ms": "ms",
    "profiles.load_ms": "ms",
    "profiles.tables_ms": "ms",
    "report.requirements_ms": "ms",
    "models.call_us": "us",
    "trace.untraced_op_p50_ms": "ms",
    "trace.traced_op_p50_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.self_sum_ms": "ms",
    "trace.remainder_ms": "ms",
}
WORKLOAD_NAMES = ("sweep_lossy", "trace_pipeline", "cli_queries")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the op loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-duration", type=float, default=None,
                        help="seconds of generated trace per op (default: the workload's own; the smoke test uses 2)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package() -> None:
    """Import xrqos from this checkout's src/, never from anywhere else."""
    package = SRC / "xrqos"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: no xrqos package at {package}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import xrqos

    if Path(xrqos.__file__).resolve().parent != package.resolve():
        sys.exit(f"bench: imported xrqos from {xrqos.__file__}, not {package}")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def time_setup(args) -> tuple[float, float]:
    """Seconds from spawning a fresh process to its exit after set-up, and that scaled by a bare spawn after it."""
    import workloads as wl

    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0"]
    if args.trace_duration is not None:
        argv += ["--trace-duration", str(args.trace_duration)]
    env = wl.child_env(ROOT)
    start = time.perf_counter()
    subprocess.run(argv, env=env, cwd=ROOT, check=True)
    seconds = time.perf_counter() - start
    return seconds, seconds * wl.SPAWN_MS / wl.spawn_ms(ROOT)


class Run:
    """The op loop of one run and everything it measured."""

    def __init__(self, workload, traced: bool) -> None:
        import checks
        import spans

        self.workload = workload
        self.traced = traced
        self.tracer = spans.Tracer()
        self.untraced_ms: list[float] = []
        self.traced_ms: list[float] = []
        self.traced_baseline_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Per untraced op: simulated transmissions and host seconds of simulate.
        self.sim: list[tuple[int, float]] = []
        self.reference_ms: list[float] = []
        self.rss_kb = 0
        self.stats = checks.SimStats()
        self.traced_tx_by_kind: dict[str, int] = defaultdict(int)
        self.traced_packets = 0
        self.self_ms: dict[str, float] = {}

    def _timed(self, call, i: int):
        start = time.perf_counter()
        try:
            out = call(i)
        except Exception:
            return None, (time.perf_counter() - start) * 1000.0, traceback.format_exc(limit=3)
        return out, (time.perf_counter() - start) * 1000.0, None

    def _record(self, i: int, out, ms: float, error: str | None):
        """Check one op's output; a failed check or a raised error is a failed op."""
        from workloads import OpResult

        self.attempted += 1
        if error is None:
            try:
                result = self.workload.check(i, out, ms / 1000.0)
            except Exception:
                result = OpResult(problems=[traceback.format_exc(limit=3)])
        else:
            result = OpResult(problems=[error])
        if result.problems:
            self.failed += 1
            self.problems += [f"op {i}: {p}" for p in result.problems][: max(0, 20 - len(self.problems))]
        return result

    def untraced_op(self, i: int, baseline: bool = False) -> None:
        out, ms, error = self._timed(self.workload.op, i)
        result = self._record(i, out, ms, error)
        del out
        self.untraced_ms.append(ms)
        if baseline:
            self.traced_baseline_ms.append(ms)
        self.sim.append((result.tx, result.sim_s))
        self.rss_kb = max(self.rss_kb, result.rss_kb)
        if i < self.workload.fingerprint_ops and result.stats is not None:
            self.stats.merge(result.stats)

    def traced_op(self, i: int, call, baseline: bool = False) -> None:
        if baseline:
            out, ms, error = self._timed(call, i)
            self._record(i, out, ms, error)
            self.traced_baseline_ms.append(ms)
            return
        self.tracer.op = i
        self.tracer.install()
        try:
            root = self.tracer.open("bench.op")
            out, ms, error = self._timed(call, i)
            self.tracer.close(root)
        finally:
            self.tracer.uninstall()
            self.tracer.op = None
        result = self._record(i, out, ms, error)
        del out
        self.traced_ms.append(ms)
        for kind, tx in result.tx_by_kind.items():
            self.traced_tx_by_kind[kind] += tx
        self.traced_packets = self.traced_packets or result.packets

    def step(self, i: int) -> None:
        if not self.traced:
            self.untraced_op(i)
        elif self.workload.name == "cli_queries":
            # The fresh-process op, then cli.main in this process untraced and
            # traced, in alternating order, for the tracing overhead.
            self.untraced_op(i)
            order = (True, False) if i % 2 == 0 else (False, True)
            for baseline in order:
                self.traced_op(i, self.workload.op_in_process, baseline=baseline)
        elif i % 2 == 0:
            self.untraced_op(i, baseline=True)
        else:
            self.traced_op(i, self.workload.op)

    def loop(self, seconds: float, probe=None, probes: int = 0) -> list:
        """Closed loop: start op i+1 only after op i returned and was checked.

        An op is started while the loop's time would run out no more than
        half a typical step past ``seconds``. An untraced run also times the
        workload's reference job before the first op and after every op,
        within ``seconds``. With ``probe``, the k-th of
        ``probes`` calls runs between ops once k/probes of ``seconds`` have
        passed; their time does not count toward ``seconds``. Returns what
        the probe calls returned.
        """
        min_steps = 2 if self.traced else 1
        steps: list[float] = []
        probed: list = []
        paused = 0.0
        start = time.perf_counter()
        if not self.traced:
            self.reference_ms.append(self.workload.reference())
        i = 0
        while True:
            elapsed = time.perf_counter() - start - paused
            if probe is not None and len(probed) < probes and elapsed >= len(probed) * seconds / probes:
                probe_start = time.perf_counter()
                probed.append(probe())
                paused += time.perf_counter() - probe_start
                continue
            typical = statistics.median(steps) if steps else 0.0
            if i >= min_steps and elapsed + 0.5 * typical >= seconds:
                break
            step_start = time.perf_counter()
            self.step(i)
            steps.append(time.perf_counter() - step_start)
            if not self.traced:
                self.reference_ms.append(self.workload.reference())
            i += 1
        while probe is not None and len(probed) < probes:
            probed.append(probe())
        return probed


def speed_scales(run) -> list[float]:
    """Per untraced op: the reference job's nominal time over the mean of its runs just before and after the op."""
    ref = run.reference_ms
    return [run.workload.reference_nominal_ms / ((before + after) / 2) for before, after in zip(ref, ref[1:])]


def sim_rate(run, scales: list[float]) -> float:
    """Simulated transmissions per second of simulate, over the run's complete cycles.

    A cycle is one op, or for cli_queries one pass over its commands, so the
    rate holds the same mix of simulations whatever the op count. Summing
    before dividing weighs every second alike.
    """
    ops = len(run.sim) // run.workload.cycle * run.workload.cycle or len(run.sim)
    tx = sum(tx for tx, _ in run.sim[:ops])
    seconds = sum(sim_s * scale for (_, sim_s), scale in zip(run.sim[:ops], scales))
    return tx / seconds if seconds else 0.0


def end_to_end_metrics(run, setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics scaled to the reference host speed, and as measured."""
    if run.workload.name == "cli_queries":
        rss_mb = run.rss_kb / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def metrics(scales: list[float], setup_s: list[float]) -> dict:
        op_ms = [ms * scale for ms, scale in zip(run.untraced_ms, scales)]
        return {
            "op_p50_ms": statistics.median(op_ms),
            "op_p90_ms": percentile(op_ms, 0.90),
            "sim_pkts_per_s": sim_rate(run, scales),
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup_s),
        }

    host = metrics([1.0] * len(run.untraced_ms), [measured for measured, _ in setup])
    return metrics(speed_scales(run), [scaled for _, scaled in setup]), host


def traced_metrics(run) -> dict:
    import layers
    import workloads as wl
    from xrqos import tracegen

    workload = run.workload
    probe = layers.Probe(workload, run.tracer)
    probe.run()
    if probe.problems:
        run.attempted += 1
        run.failed += 1
        run.problems += probe.problems
    else:
        run.attempted += 1
    bare_ms, import_ms = layers.time_imports(ROOT)
    model_us = layers.time_model_calls(workload)
    if run.traced_packets:
        peak_trace = tracegen.generate_trace(wl.frame_sizes(workload.surface, workload.comp), workload.cfg,
                                             workload.duration)
    else:
        peak_trace = probe.trace
    peak_mb = layers.packetize_peak_mb(peak_trace)
    return layers.per_layer_metrics(run, probe, bare_ms, import_ms, model_us, peak_mb)


def metadata(args, run) -> dict:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "workload": args.workload,
        "why": run.workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trace_duration_s": run.workload.duration,
        "ops": len(run.untraced_ms) + len(run.traced_ms) + (
            len(run.traced_baseline_ms) if run.workload.name == "cli_queries" else 0),
        "untraced_ops": len(run.untraced_ms),
        "traced_ops": len(run.traced_ms),
    }


def report(args, run, metrics: dict, units: dict, host: dict | None = None) -> None:
    """Print every metric with its unit, write the results file, print the result line.

    ``host`` holds the end-to-end metrics as measured, before they were
    scaled to the reference host speed; they are printed and kept.
    """
    meta = metadata(args, run)
    fingerprint = run.stats.fingerprint()
    fail_frac = run.failed / run.attempted
    print(f"# {args.workload}: {run.workload.why}")
    print("# " + "  ".join(f"{k}={meta[k]}" for k in ("commit", "python", "nproc", "seed", "ops", "trace")))
    for name, value in metrics.items():
        as_measured = f"  (as measured: {host[name]:.6g})" if host else ""
        print(f"{name:<28} {value:>16.6g} {units[name]}{as_measured}")
    if host:
        print(f"reference job (ms): nominal {run.workload.reference_nominal_ms:g}, run median "
              f"{statistics.median(run.reference_ms):.4g} over {len(run.reference_ms)} runs")
    print(f"{'fail_frac':<28} {fail_frac:>16.6g} fraction ({run.failed}/{run.attempted} ops)")
    print("simulated fingerprint (simulated, not host time): "
          + "  ".join(f"{k}={v}" for k, v in fingerprint.items()))
    if run.traced:
        print("self time per traced op (ms): "
              + "  ".join(f"{layer}={ms:.3f}" for layer, ms in run.self_ms.items()))
    for problem in run.problems:
        print(f"FAILED {problem}", file=sys.stderr)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    document = {
        "metadata": meta,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "host_metrics": host,
        "reference_ms": run.reference_ms,
        "fail_frac": fail_frac,
        "fingerprint": fingerprint,
        "op_ms": {"untraced": run.untraced_ms, "traced": run.traced_ms, "traced_baseline": run.traced_baseline_ms},
        "self_ms": run.self_ms,
        "problems": run.problems,
        "spans": run.tracer.spans,
    }
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"# results written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads as wl

    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            wl.WORKLOADS[args.workload](ROOT, tmp, args.seed, args.trace_duration)
            return 0
        workload = wl.WORKLOADS[args.workload](ROOT, tmp, args.seed, args.trace_duration)
        workload.warm()
        run = Run(workload, traced=bool(args.trace))
        if args.trace:
            run.loop(args.seconds)
            report(args, run, traced_metrics(run), PER_LAYER)
        else:
            setup = run.loop(args.seconds, lambda: time_setup(args), SETUP_PROBES)
            metrics, host = end_to_end_metrics(run, setup)
            report(args, run, metrics, END_TO_END, host)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
