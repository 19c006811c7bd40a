"""Output checks and simulated statistics for the benchmark's ops.

Every check returns a list of problems; an empty list means the output is
correct. The lossless oracle is the closed form of FIFO serialization plus
VSync alignment, computed per frame without the simulator's packet loop.
"""
from __future__ import annotations

import hashlib
import math

# The strong-interaction bitrate the paper publishes for
# huawei_ilab/comfortable, from whole-bit I/P frames of 3,920,114 and
# 902,814 bits: (3,920,114 + 179 * 902,814) * 1.1 / 2 s.
PUBLISHED_BPS = 91_038_101
# Packets of the 60 s comfortable trace at an MTU payload of 11,680 bits.
PACKETS_60S = 472_920
# Lossless oracle agreement on e2e and VSync wait, in ms.
ORACLE_ABS_MS = 1e-9


def packets_per_frame(size_bits: int, mtu: int) -> int:
    return max(1, math.ceil(size_bits / mtu))


def check_trace_bitrate(trace) -> list[str]:
    """Total bits over duration against the published analytic rate.

    Frame sizes are rounded to whole bits after the redundancy inflation,
    while the published figure rounds them before it, so each frame may sit
    up to 0.5 + 0.5 * (1 + redundancy) bits away; per second that is fps
    times as much.
    """
    cfg = trace.config
    expected_total = sum(
        round(trace.sizes.bits_for(r.frame_type) * (1.0 + cfg.redundancy_fraction)) for r in trace.records
    )
    problems = []
    if trace.total_bits != expected_total:
        problems.append(f"trace carries {trace.total_bits} bits, frame sizes give {expected_total}")
    bps = trace.total_bits / trace.duration
    tolerance = cfg.fps * (0.5 + 0.5 * (1.0 + cfg.redundancy_fraction))
    if abs(bps - PUBLISHED_BPS) > tolerance:
        problems.append(f"trace bitrate {bps:.1f} bps is not {PUBLISHED_BPS} +- {tolerance:.1f}")
    return problems


def check_round_trip(generated, loaded) -> list[str]:
    return [] if loaded == generated else ["reloaded trace differs from the generated one"]


def check_packets(trace, packets, mtu: int, expected_count: int) -> list[str]:
    """Per-frame bit conservation, packet order and the packet count."""
    problems = []
    if len(packets) != expected_count:
        problems.append(f"{len(packets)} packets, expected {expected_count}")
    position = 0
    for record in trace.records:
        count = packets_per_frame(record.size_bits, mtu)
        chunk = packets[position : position + count]
        position += count
        if (
            len(chunk) != count
            or sum(p.size_bits for p in chunk) != record.size_bits
            or any(p.frame_index != record.index or p.packet_index != k for k, p in enumerate(chunk))
            or any(p.size_bits > mtu or p.size_bits < 0 for p in chunk)
        ):
            problems.append(f"frame {record.index}: packets do not conserve its {record.size_bits} bits")
            break
    if position != len(packets) and not problems:
        problems.append(f"{len(packets) - position} packets belong to no frame")
    return problems


def lossless_oracle(trace, link, timing, refresh_hz: float) -> list[tuple[float, float]]:
    """(e2e_ms, vsync_wait_ms) per frame for a link that loses nothing."""
    tick = 1000.0 / refresh_hz
    half_rtt = link.propagation_rtt / 2.0
    uplink_ms = 1000.0 * link.uplink_payload_bits / link.uplink_bps
    expected = []
    finish = 0.0
    for record in trace.records:
        arrival = record.t_gen + timing.t_sense + uplink_ms + half_rtt + timing.t_render + timing.t_encode
        finish = max(arrival, finish) + 1000.0 * record.size_bits / link.downlink_bps
        ready = finish + half_rtt + timing.t_decode + timing.fixed_display
        display = max(0, math.ceil(ready / tick - 1e-9)) * tick
        expected.append((display - record.t_gen, display - ready))
    return expected


def check_lossless(report, trace) -> list[str]:
    expected = lossless_oracle(trace, report.link, report.timing, report.refresh_hz)
    problems = check_aggregates(report, trace)
    if len(report.frames) != len(expected):
        return problems + [f"{len(report.frames)} frame results for {len(expected)} frames"]
    for frame, (e2e, wait) in zip(report.frames, expected):
        if (
            not frame.displayed
            or frame.retx_count != 0
            or abs(frame.e2e_ms - e2e) > ORACLE_ABS_MS
            or abs(frame.vsync_wait_ms - wait) > ORACLE_ABS_MS
        ):
            problems.append(f"frame {frame.index}: e2e, vsync wait {frame.e2e_ms}, {frame.vsync_wait_ms} ms; "
                            f"oracle {e2e}, {wait} ms")
            break
    return problems


def check_aggregates(report, trace) -> list[str]:
    """Conservation, percentile order, fps and, for udp_like, no retransmissions."""
    agg = report.aggregates
    problems = []
    if agg.displayed_count + agg.dropped_count != len(trace):
        problems.append(f"displayed {agg.displayed_count} + dropped {agg.dropped_count} != {len(trace)} frames")
    if agg.displayed_count != sum(f.displayed for f in report.frames):
        problems.append("displayed count disagrees with the frame results")
    if agg.displayed_count and not agg.p50_e2e_ms <= agg.p95_e2e_ms <= agg.p99_e2e_ms <= agg.max_e2e_ms:
        problems.append("percentiles out of order")
    if not math.isclose(agg.effective_fps, agg.displayed_count / trace.duration, rel_tol=1e-12):
        problems.append(f"effective fps {agg.effective_fps} != displayed / duration")
    if report.link.mode == "udp_like" and any(f.retx_count for f in report.frames):
        problems.append("a udp_like frame shows retransmissions")
    return problems


def check_sweep(reports_by_downlink) -> list[str]:
    """Mean e2e never rises as the downlink grows (same seed, same mode)."""
    problems = []
    means = [r.aggregates.mean_e2e_ms for _, r in sorted(reports_by_downlink, key=lambda item: item[0])]
    for slower, faster in zip(means, means[1:]):
        if slower is not None and faster is not None and faster > slower + ORACLE_ABS_MS:
            problems.append(f"mean e2e rose from {slower} to {faster} ms with a faster downlink")
    return problems


class SimStats:
    """Simulated (not host-time) counts of a set of simulate() results.

    ``tx`` counts packet transmissions, retransmissions included;
    ``wire_bits`` are the bits put on the wire, counting each retransmission
    as a full MTU payload (the report does not say which packet was resent).
    """

    def __init__(self) -> None:
        self.tx = 0
        self.retx = 0
        self.dropped = 0
        self.wire_bits = 0
        self.displayed_bits = 0
        self._digest = hashlib.sha256()

    def add(self, report, trace) -> int:
        """Fold one report in; returns its transmission count."""
        mtu = report.link.mtu_payload_bits
        tx = 0
        for record, frame in zip(trace.records, report.frames):
            tx += packets_per_frame(record.size_bits, mtu) + frame.retx_count
            self.wire_bits += record.size_bits + frame.retx_count * mtu
            if frame.displayed:
                self.displayed_bits += record.size_bits
            self._digest.update(f"{frame.displayed}:{frame.e2e_ms!r}:{frame.retx_count};".encode())
        self.tx += tx
        self.retx += sum(f.retx_count for f in report.frames)
        self.dropped += report.aggregates.dropped_count
        return tx

    def add_text(self, text: str, tx: int, retx: int, dropped: int, wire_bits: int, displayed_bits: int) -> None:
        """Fold in a result known only from program output (the CLI)."""
        self.tx += tx
        self.retx += retx
        self.dropped += dropped
        self.wire_bits += wire_bits
        self.displayed_bits += displayed_bits
        self._digest.update(text.encode())

    def merge(self, other: "SimStats") -> None:
        self.add_text(other._digest.hexdigest(), other.tx, other.retx, other.dropped,
                      other.wire_bits, other.displayed_bits)

    @property
    def goodput_frac(self) -> float:
        return self.displayed_bits / self.wire_bits if self.wire_bits else 0.0

    def fingerprint(self) -> dict:
        return {
            "digest": self._digest.hexdigest()[:16],
            "netsim.tx": self.tx,
            "netsim.retx": self.retx,
            "dropped_frames": self.dropped,
            "netsim.goodput_frac": self.goodput_frac,
        }
