import _blake2
import dataclasses
import gc
import hashlib
import inspect
import io
import json
import math
import pickle
import shutil
import struct
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xrqos.codec import FrameSizes, GopConfig
from xrqos.errors import DomainError
from xrqos.latency import LatencyBudget, PipelineTiming, budget_check
from xrqos import netsim, tracegen
from xrqos.netsim import LinkModel, _lost_packets, simulate
from xrqos.records import Columns
from xrqos.reliability import DEFAULT_MSS_BITS
from xrqos.tracegen import (FrameRecord, FrameTrace, PacketRecord, export_packets, export_trace, generate_trace,
                             packet_split, packetize)


def small_trace(frames=20, fps=30.0, i_bits=200_000, p_bits=40_000) -> FrameTrace:
    cfg = GopConfig(frames / fps, fps, redundancy_fraction=0.0)
    return generate_trace(FrameSizes(i_bits, p_bits), cfg, frames / fps)


def fresh(trace: FrameTrace) -> FrameTrace:
    """A copy of ``trace`` with a frame table of its own, so that its runs start from an empty memo: a cold run."""
    return dataclasses.replace(trace, records=Columns(FrameRecord, *trace.records.columns))


def closed_form_oracle(trace, link, timing, refresh_hz):
    """Lossless per-frame latency, computed without the event loop.

    FIFO serialization is a running max over transmit-start times; the rest
    is straight-line arithmetic per frame.
    """
    tick = 1000.0 / refresh_hz
    half_rtt = link.propagation_rtt / 2.0
    expected = []
    finish = 0.0
    for record in trace:
        arrival = record.t_gen + timing.t_sense + half_rtt + timing.t_render + timing.t_encode
        start = max(arrival, finish)
        finish = start + 1000.0 * record.size_bits / link.downlink_bps
        ready = finish + half_rtt + timing.t_decode + timing.fixed_display
        display = max(0, math.ceil(ready / tick - 1e-9)) * tick
        expected.append(display - record.t_gen)
    return expected


def reference_simulate(trace, link, timing, refresh_hz):
    """(displayed, retx_count, e2e_ms, vsync_wait_ms) per frame, one packet attempt at a time.

    This is the simulator's contract written as the plain loop: every packet
    goes on the wire in turn, and a lost one waits one RTT and is resent at
    once, up to the attempt limit. Loss decisions come from the same keyed
    streams, each walked over the whole frame.
    """
    tick = 1000.0 / refresh_hz
    half_rtt = link.propagation_rtt / 2.0
    uplink_ms = 1000.0 * link.uplink_payload_bits / link.uplink_bps
    max_attempts = 1 + (link.max_retx if link.mode == "tcp_like" else 0)
    sizes_by_frame = defaultdict(list)
    for packet in packetize(trace, link.mtu_payload_bits):
        sizes_by_frame[packet.frame_index].append(packet.size_bits)
    rows = []
    link_free = 0.0
    for record in trace:
        sizes = sizes_by_frame[record.index]
        lost_on = [
            set(_lost_packets(link.seed, record.index, attempt, len(sizes), link.loss_prob))
            for attempt in range(max_attempts)
        ]
        t = max(record.t_gen + timing.t_sense + uplink_ms + half_rtt + timing.t_render + timing.t_encode, link_free)
        delivered, retx = True, 0
        for packet_index, bits in enumerate(sizes):
            for attempt in range(max_attempts):
                t += 1000.0 * bits / link.downlink_bps
                lost = packet_index in lost_on[attempt]
                if not lost:
                    break
                if attempt < max_attempts - 1:
                    t += link.propagation_rtt
                    retx += 1
            if lost:
                delivered = False
        link_free = t
        if delivered:
            ready = t + half_rtt + timing.t_decode + timing.fixed_display
            display = max(0, math.ceil(ready / tick - 1e-9)) * tick
            rows.append((True, retx, display - record.t_gen, display - ready))
        else:
            rows.append((False, retx, None, None))
    return rows


def lost_transmissions(trace, link):
    """Packet transmissions the link loses over a whole run."""
    max_attempts = 1 + (link.max_retx if link.mode == "tcp_like" else 0)
    total = 0
    for record in trace:
        count, _ = packet_split(record.size_bits, link.mtu_payload_bits)
        pending = range(count)
        for attempt in range(max_attempts):
            lost = set(_lost_packets(link.seed, record.index, attempt, count, link.loss_prob))
            pending = [k for k in pending if k in lost]
            total += len(pending)
    return total


class TestDegenerateRuns:
    def test_instant_link_leaves_only_vsync_wait(self):
        trace = small_trace()
        link = LinkModel(downlink_bps=math.inf, uplink_bps=math.inf)
        report = simulate(trace, link, PipelineTiming(), refresh_hz=1000.0, mtp_limit=20.0)
        for frame in report.frames:
            assert frame.displayed
            assert frame.e2e_ms == pytest.approx(frame.vsync_wait_ms, abs=1e-9)
            assert frame.e2e_ms <= 1.0

    def test_certain_loss_drops_everything(self):
        trace = small_trace()
        link = LinkModel(downlink_bps=1e9, loss_prob=1.0, mode="udp_like")
        report = simulate(trace, link, PipelineTiming(), refresh_hz=90.0, mtp_limit=20.0)
        assert report.aggregates.displayed_count == 0
        assert report.aggregates.dropped_count == len(trace)

    def test_empty_trace_rejected(self):
        trace = small_trace()
        empty = FrameTrace(config=trace.config, sizes=trace.sizes, duration=1.0, records=())
        with pytest.raises(DomainError):
            simulate(empty, LinkModel(downlink_bps=1e6), PipelineTiming(), 90.0, 20.0)


class TestClosedFormOracle:
    def test_lossless_finite_bandwidth(self):
        trace = small_trace(frames=40, fps=60.0, i_bits=2_000_000, p_bits=500_000)
        link = LinkModel(downlink_bps=50e6, propagation_rtt=6.0)
        timing = PipelineTiming(t_sense=1.0, t_render=4.0, t_encode=2.0, t_decode=3.0, fixed_display=2.0)
        report = simulate(trace, link, timing, refresh_hz=90.0, mtp_limit=20.0)
        expected = closed_form_oracle(trace, link, timing, 90.0)
        for frame, want in zip(report.frames, expected):
            assert frame.displayed
            assert frame.e2e_ms == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("refresh_hz", [60.0, 90.0, 120.0])
    def test_an_unqueued_frame_spends_its_budget_then_waits_for_vsync(self, refresh_hz):
        # budget_check's total, with the link's times as comm_ul and comm_dl, is each frame's e2e less its VSync wait
        cfg = GopConfig(0.1, 60.0, redundancy_fraction=0.0)
        trace = generate_trace(FrameSizes(2_000_000, 500_000), cfg, 1.0)
        link = LinkModel(downlink_bps=400e6, uplink_bps=2e6, propagation_rtt=7.0, uplink_payload_bits=4_000)
        timing = PipelineTiming(t_sense=1.0, t_render=4.5, t_encode=2.0, t_decode=3.0, fixed_display=2.5)
        report = simulate(trace, link, timing, refresh_hz, mtp_limit=20.0)
        half_rtt = link.propagation_rtt / 2.0
        comm_ul = 1000.0 * link.uplink_payload_bits / link.uplink_bps + half_rtt
        for frame, size_bits in zip(report.frames, trace.size_bits):
            tx = 1000.0 * size_bits / link.downlink_bps
            assert tx <= 1000.0 / cfg.fps  # the frame leaves the link before the next one arrives
            budget = LatencyBudget(math.inf, timing, comm_ul=comm_ul, comm_dl=tx + half_rtt)
            spent = sum(ms for _, ms in budget_check(budget).breakdown)
            assert frame.e2e_ms - frame.vsync_wait_ms == pytest.approx(spent, rel=0, abs=1e-9)
            assert 0.0 <= frame.vsync_wait_ms < 1000.0 / refresh_hz

    def test_queuing_backlog_shows_up(self):
        # an I-frame bigger than one frame interval's worth of link time
        # delays every later frame in the GOP
        trace = small_trace(frames=10, fps=100.0, i_bits=1_000_000, p_bits=1_000_000)
        link = LinkModel(downlink_bps=50e6)  # 20 ms per frame vs 10 ms spacing
        report = simulate(trace, link, PipelineTiming(), refresh_hz=1000.0, mtp_limit=1000.0)
        waits = [f.e2e_ms for f in report.frames]
        assert waits == sorted(waits)
        assert waits[-1] > waits[0] + 80.0


class TestAggregates:
    def test_counts_and_violations(self):
        trace = small_trace(frames=30)
        link = LinkModel(downlink_bps=100e6, loss_prob=0.3, seed=5, mode="udp_like")
        report = simulate(trace, link, PipelineTiming(), refresh_hz=90.0, mtp_limit=5.0)
        agg = report.aggregates
        assert agg.displayed_count + agg.dropped_count == len(trace)
        shown = [f for f in report.frames if f.displayed]
        assert agg.displayed_count == len(shown)
        assert agg.mtp_violations == sum(1 for f in shown if f.e2e_ms > 5.0)
        assert agg.effective_fps == pytest.approx(agg.displayed_count / trace.duration)

    def test_percentiles_ordered(self):
        trace = small_trace(frames=50)
        report = simulate(trace, LinkModel(downlink_bps=20e6), PipelineTiming(), 90.0, 20.0)
        agg = report.aggregates
        assert agg.p50_e2e_ms <= agg.p95_e2e_ms <= agg.p99_e2e_ms <= agg.max_e2e_ms

    def test_all_dropped_aggregates_are_none(self):
        trace = small_trace(frames=5)
        report = simulate(
            trace, LinkModel(downlink_bps=1e9, loss_prob=1.0), PipelineTiming(), 90.0, 20.0
        )
        assert report.aggregates.mean_e2e_ms is None
        assert report.aggregates.max_e2e_ms is None
        assert report.aggregates.effective_fps == 0.0


class TestTcpLike:
    def test_retransmissions_recover_frames(self):
        trace = small_trace(frames=40)
        base = dict(downlink_bps=100e6, propagation_rtt=4.0, loss_prob=0.15, seed=11)
        udp = simulate(trace, LinkModel(mode="udp_like", **base), PipelineTiming(), 90.0, 50.0)
        tcp = simulate(trace, LinkModel(mode="tcp_like", max_retx=3, **base), PipelineTiming(), 90.0, 50.0)
        assert tcp.aggregates.displayed_count > udp.aggregates.displayed_count
        assert sum(f.retx_count for f in tcp.frames) > 0

    def test_zero_retx_behaves_like_udp_for_delivery(self):
        trace = small_trace(frames=40)
        base = dict(downlink_bps=100e6, propagation_rtt=4.0, loss_prob=0.2, seed=3)
        udp = simulate(trace, LinkModel(mode="udp_like", **base), PipelineTiming(), 90.0, 50.0)
        tcp0 = simulate(trace, LinkModel(mode="tcp_like", max_retx=0, **base), PipelineTiming(), 90.0, 50.0)
        assert [f.displayed for f in udp.frames] == [f.displayed for f in tcp0.frames]


def loss_groups(p, mode, max_retx):
    """{n: (frames, drops, resends)} over the frames of n packets, in runs of seeds 0-2 over a 20 s trace of
    10- and 38-packet frames on a link fast enough never to queue."""
    trace = generate_trace(FrameSizes(440_000, 110_000), GopConfig(0.1, 60.0, redundancy_fraction=0.0), 20.0)
    counts = [packet_split(size, DEFAULT_MSS_BITS)[0] for size in trace.size_bits]
    groups = defaultdict(lambda: [0, 0, 0])
    for seed in range(3):
        link = LinkModel(downlink_bps=1e12, loss_prob=p, seed=seed, mode=mode, max_retx=max_retx)
        for n, frame in zip(counts, simulate(trace, link, PipelineTiming(), 60.0, 1000.0).frames):
            group = groups[n]
            group[0] += 1
            group[1] += not frame.displayed
            group[2] += frame.retx_count
    assert sorted(groups) == [10, 38]
    return groups


def within_five_sigma(observed, trials, mean, variance):
    """Whether ``observed``, a sum of ``trials`` independent draws of that mean and variance, is within 5 sigma
    of its expectation; a draw of variance 0 must hit its mean exactly."""
    return abs(observed - trials * mean) <= 5 * math.sqrt(trials * variance)


class TestLossClosedForms:
    """Drops and resends per frame of n packets, against the loss model's closed forms in p and max_retx."""

    @pytest.mark.parametrize("p", [0.0, 0.01, 0.2, 1.0])
    def test_udp_drop_fraction(self, p):
        for n, (frames, drops, _) in loss_groups(p, "udp_like", 3).items():
            q = 1 - (1 - p) ** n  # some packet of the frame is lost
            assert within_five_sigma(drops, frames, q, q * (1 - q)), (n, drops, frames * q)

    @pytest.mark.parametrize("max_retx", [1, 3])
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.2, 1.0])
    def test_tcp_resends_per_frame(self, p, max_retx):
        # a packet is resent after each of its first max_retx attempts that it loses: p + p^2 + ... + p^max_retx
        mean = sum(p**a for a in range(1, max_retx + 1))
        variance = sum((2 * a - 1) * p**a for a in range(1, max_retx + 1)) - mean**2
        for n, (frames, _, resends) in loss_groups(p, "tcp_like", max_retx).items():
            assert within_five_sigma(resends, frames * n, mean, variance), (n, resends, frames * n * mean)

    @pytest.mark.parametrize("max_retx", [1, 3])
    @pytest.mark.parametrize("p", [0.0, 0.01, 0.2, 1.0])
    def test_tcp_drop_fraction(self, p, max_retx):
        for n, (frames, drops, _) in loss_groups(p, "tcp_like", max_retx).items():
            q = 1 - (1 - p ** (max_retx + 1)) ** n  # some packet of the frame is lost on every attempt
            assert within_five_sigma(drops, frames, q, q * (1 - q)), (n, drops, frames * q)


_link_strategy = st.builds(
    LinkModel,
    downlink_bps=st.floats(min_value=1e6, max_value=1e9),
    uplink_bps=st.floats(min_value=1e6, max_value=1e9),
    propagation_rtt=st.floats(min_value=0.0, max_value=50.0),
    loss_prob=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**31),
    mode=st.sampled_from(["udp_like", "tcp_like"]),
    max_retx=st.integers(min_value=0, max_value=4),
)


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(link=_link_strategy, frames=st.integers(min_value=1, max_value=25))
    def test_conservation(self, link, frames):
        trace = small_trace(frames=frames)
        report = simulate(trace, link, PipelineTiming(t_sense=1, t_render=2), 90.0, 20.0)
        agg = report.aggregates
        assert agg.displayed_count + agg.dropped_count == len(trace)

    @settings(max_examples=100, deadline=None)
    @given(link=_link_strategy, refresh_hz=st.sampled_from([60.0, 72.0, 90.0, 120.0]))
    def test_vsync_alignment_and_floor(self, link, refresh_hz):
        timing = PipelineTiming(t_sense=1.0, t_render=3.0, t_encode=1.5, t_decode=2.0, fixed_display=1.0)
        trace = small_trace(frames=15)
        report = simulate(trace, link, timing, refresh_hz, 20.0)
        tick = 1000.0 / refresh_hz
        for frame, record in zip(report.frames, trace):
            if not frame.displayed:
                continue
            display = record.t_gen + frame.e2e_ms
            assert abs(display / tick - round(display / tick)) * tick < 1e-6
            floor = (
                timing.t_sense + timing.t_render + timing.t_encode + timing.t_decode + timing.fixed_display
                + 1000.0 * record.size_bits / link.downlink_bps
                + link.propagation_rtt
            )
            assert frame.e2e_ms >= floor - 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        downlink=st.floats(min_value=2e6, max_value=5e8),
        boost=st.floats(min_value=1.0, max_value=50.0),
        loss=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
        mode=st.sampled_from(["udp_like", "tcp_like"]),
    )
    def test_bandwidth_monotonicity(self, downlink, boost, loss, seed, mode):
        # loss draws are keyed by (frame, packet, attempt), so raising the
        # bandwidth keeps the loss pattern and can only shrink each delay
        trace = small_trace(frames=12)
        timing = PipelineTiming(t_sense=1.0, t_render=2.0)
        slow_link = LinkModel(downlink_bps=downlink, propagation_rtt=8.0, loss_prob=loss, seed=seed, mode=mode)
        fast_link = LinkModel(
            downlink_bps=downlink * boost, propagation_rtt=8.0, loss_prob=loss, seed=seed, mode=mode
        )
        slow = simulate(trace, slow_link, timing, 90.0, 20.0)
        fast = simulate(trace, fast_link, timing, 90.0, 20.0)
        for slow_frame, fast_frame in zip(slow.frames, fast.frames):
            assert slow_frame.displayed == fast_frame.displayed
            if slow_frame.displayed:
                assert fast_frame.e2e_ms <= slow_frame.e2e_ms + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(link=_link_strategy)
    def test_determinism(self, link):
        trace = small_trace(frames=10)
        timing = PipelineTiming(t_sense=1.0)
        first = simulate(trace, link, timing, 90.0, 20.0)
        second = simulate(trace, link, timing, 90.0, 20.0)
        assert first == second
        assert first.to_json() == second.to_json()


class TestReportSerialization:
    def test_json_shape(self):
        trace = small_trace(frames=8)
        link = LinkModel(downlink_bps=1e8, uplink_bps=5e7, propagation_rtt=4.0, seed=4, uplink_payload_bits=2000)
        timing = PipelineTiming(t_sense=1.0, t_render=2.0, t_encode=3.0, t_decode=4.5, fixed_display=0.5)
        report = simulate(trace, link, timing, 90.0, 20.0)
        payload = json.loads(report.to_json())
        assert len(payload["frames"]) == 8
        assert payload["aggregates"]["displayed_count"] == 8
        assert payload["link"] == {
            "downlink_bps": 1e8,
            "uplink_bps": 5e7,
            "propagation_rtt_ms": 4.0,
            "loss_prob": 0.0,
            "seed": 4,
            "mode": "udp_like",
            "max_retx": 3,
            "mtu_payload_bits": DEFAULT_MSS_BITS,
            "uplink_payload_bits": 2000,
        }
        assert payload["timing"] == {
            "t_sense": 1.0, "t_render": 2.0, "t_encode": 3.0, "t_decode": 4.5, "fixed_display": 0.5,
        }
        assert (payload["refresh_hz"], payload["mtp_limit_ms"]) == (90.0, 20.0)
        assert payload["frames"][0].keys() == {"frame_index", "displayed", "e2e_ms", "vsync_wait_ms", "retx_count"}

    def test_csv_sections(self):
        import io

        trace = small_trace(frames=6)
        report = simulate(trace, LinkModel(downlink_bps=1e8), PipelineTiming(), 90.0, 20.0)
        buffer = io.StringIO()
        report.write_csv(buffer)
        text = buffer.getvalue()
        head, aggregates = text.split("\n\n")
        assert head.splitlines()[0] == "frame_index,displayed,e2e_ms,vsync_wait_ms,retx_count"
        assert len(head.splitlines()) == 7
        assert aggregates.splitlines()[0] == "metric,value"


_loss_prob_strategy = st.one_of(
    st.sampled_from([0.0, 1.0, 2.2e-313]),
    st.floats(min_value=0.0, max_value=0.9, exclude_min=True, exclude_max=True),
)


class TestReferenceLoop:
    @settings(max_examples=150, deadline=None)
    @given(
        link=st.builds(
            LinkModel,
            downlink_bps=st.floats(min_value=1e6, max_value=1e9),
            propagation_rtt=st.floats(min_value=0.0, max_value=50.0),
            loss_prob=_loss_prob_strategy,
            seed=st.integers(min_value=0, max_value=2**31),
            mode=st.sampled_from(["udp_like", "tcp_like"]),
            max_retx=st.integers(min_value=0, max_value=4),
            mtu_payload_bits=st.sampled_from([4_000, 11_680, 20_000, 40_000, 250_000]),
        ),
        frames=st.integers(min_value=1, max_value=12),
    )
    def test_per_frame_algebra_matches_packet_loop(self, link, frames):
        trace = small_trace(frames=frames)
        timing = PipelineTiming(t_sense=1.0, t_render=2.0, t_encode=1.5, t_decode=2.0, fixed_display=1.0)
        report = simulate(trace, link, timing, 90.0, 20.0)
        for frame, (displayed, retx, e2e, wait) in zip(report.frames, reference_simulate(trace, link, timing, 90.0)):
            assert frame.displayed == displayed
            assert frame.retx_count == retx
            if displayed:
                assert frame.e2e_ms == pytest.approx(e2e, abs=1e-9)
                assert frame.vsync_wait_ms == pytest.approx(wait, abs=1e-9)


def float_order_oracle(trace, link, timing, refresh_hz):
    """(e2e_ms, vsync_wait_ms, retx_count) columns and a Counter of the loss cases met, attempt by attempt.

    Each frame's losses come from ``_lost_packets`` over the whole frame, and
    every time is summed in the simulator's own order of float operations, so
    its columns must equal ``simulate``'s exactly, not to a tolerance.
    """
    tick = 1000.0 / refresh_hz
    half_rtt = link.propagation_rtt / 2.0
    uplink_ms = 1000.0 * link.uplink_payload_bits / link.uplink_bps
    max_attempts = 1 + (link.max_retx if link.mode == "tcp_like" else 0)
    mtu = link.mtu_payload_bits
    resend = link.propagation_rtt + 1000.0 * mtu / link.downlink_bps
    e2e_ms, vsync_wait_ms, retx_count, cases = [], [], [], Counter()
    link_free = 0.0
    for frame, (t_gen, size_bits) in enumerate(zip(trace.t_gen, trace.size_bits)):
        count, last_bits = packet_split(size_bits, mtu)
        arrival = t_gen + timing.t_sense + uplink_ms + half_rtt + timing.t_render + timing.t_encode
        t = max(arrival, link_free) + 1000.0 * size_bits / link.downlink_bps
        pending, retx, displayed = range(count), 0, False
        for attempt in range(max_attempts):
            lost = set(_lost_packets(link.seed, frame, attempt, count, link.loss_prob))
            pending = [k for k in pending if k in lost]
            if not pending:
                displayed = True
                break
            if attempt == max_attempts - 1:
                cases["dropped after every attempt" if attempt else "dropped by udp"] += 1
                break
            t += len(pending) * resend
            if pending[-1] == count - 1:  # the short last packet is resent too
                t += 1000.0 * (last_bits - mtu) / link.downlink_bps
                cases["last packet resent"] += 1
            retx += len(pending)
        link_free = t
        retx_count.append(retx)
        if displayed:
            ready = t + half_rtt + timing.t_decode + timing.fixed_display
            display = max(math.ceil(ready / tick - 1e-9), 0) * tick
            e2e_ms.append(display - t_gen)
            vsync_wait_ms.append(display - ready)
        else:
            e2e_ms.append(None)
            vsync_wait_ms.append(None)
    return (e2e_ms, vsync_wait_ms, retx_count), cases


class TestFloatOrder:
    """``simulate``'s time columns equal, with ``==``, a per-attempt loop that sums in the simulator's order."""

    TIMING = PipelineTiming(t_sense=1.0, t_render=2.0, t_encode=1.5, t_decode=2.0, fixed_display=1.0)

    @staticmethod
    def columns(report):
        _, _, e2e_ms, vsync_wait_ms, retx_count = report.frames.columns
        return list(e2e_ms), list(vsync_wait_ms), list(retx_count)

    @settings(max_examples=150, deadline=None)
    @given(
        link=st.builds(
            LinkModel,
            downlink_bps=st.floats(min_value=1e6, max_value=1e9),
            propagation_rtt=st.floats(min_value=0.0, max_value=50.0),
            loss_prob=st.sampled_from([0.01, 0.3, 1.0]),
            seed=st.integers(min_value=0, max_value=2**31),
            mode=st.sampled_from(["udp_like", "tcp_like"]),
            max_retx=st.integers(min_value=0, max_value=4),
            mtu_payload_bits=st.sampled_from([4_000, 11_680, 30_000]),
        ),
        frames=st.integers(min_value=1, max_value=40),
    )
    # a frame's serialization in another float order moves the second frame's e2e by an ulp here
    @example(link=LinkModel(downlink_bps=1e6, loss_prob=0.3, seed=0, mode="tcp_like", max_retx=1,
                            mtu_payload_bits=11_680), frames=2)
    def test_time_columns_equal_the_loop_exactly(self, link, frames):
        trace = small_trace(frames=frames, i_bits=200_003, p_bits=40_001)
        report = simulate(trace, link, self.TIMING, 90.0, 20.0)
        assert self.columns(report) == float_order_oracle(trace, link, self.TIMING, 90.0)[0]

    @pytest.mark.parametrize("loss_prob", [0.3, 1.0])
    def test_the_loop_meets_lost_last_packets_and_chains_past_the_retries(self, loss_prob):
        trace = small_trace(frames=60, i_bits=200_003, p_bits=40_001)
        link = LinkModel(downlink_bps=3e7, propagation_rtt=6.0, loss_prob=loss_prob, seed=5, mode="tcp_like",
                         max_retx=2, mtu_payload_bits=11_680)
        expected, cases = float_order_oracle(trace, link, self.TIMING, 90.0)
        assert cases["last packet resent"] and cases["dropped after every attempt"]
        assert self.columns(simulate(trace, link, self.TIMING, 90.0, 20.0)) == expected


def lossy_sweep_digests() -> dict:
    """sha256 of ``report.to_json()`` per (mode, downlink) of ``TestLossySweepBytes``' sweep. It imports what it uses,
    so that its source alone runs in a child interpreter that has nothing but the standard library and the package."""
    import hashlib

    from xrqos.codec import frame_sizes
    from xrqos.latency import PipelineTiming
    from xrqos.netsim import LinkModel, simulate
    from xrqos.profiles import builtin_registry
    from xrqos.tracegen import generate_trace

    surface, cfg, comp = builtin_registry().stage("huawei_ilab", "comfortable").gop_model()
    trace = generate_trace(frame_sizes(surface, comp), cfg, 2.0)
    timing = PipelineTiming(t_sense=1.0, t_render=2.0, t_encode=2.0, t_decode=3.0, fixed_display=2.0)
    digests = {}
    for mode in ("udp_like", "tcp_like"):
        for downlink in (100e6, 200e6, 300e6):
            link = LinkModel(downlink_bps=downlink, propagation_rtt=8.0, loss_prob=0.01, seed=3, mode=mode,
                             mtu_payload_bits=11_680)
            report = simulate(trace, link, timing, 90.0, 20.0)
            digests[mode, downlink] = hashlib.sha256(report.to_json().encode()).hexdigest()
    return digests


def other_python(version: str) -> str | None:
    """A ``python<version>`` that runs: one installed beside this interpreter (as pyenv installs them), else one on
    the PATH; None if there is neither."""
    beside = sorted(Path(sys.base_prefix).parent.glob(f"{version}*/bin/python{version}"))
    check = f"import sys; sys.exit(sys.version_info[:2] != {tuple(map(int, version.split('.')))})"
    for python in [*map(str, beside), shutil.which(f"python{version}")]:
        if python and subprocess.run([python, "-I", "-S", "-c", check], capture_output=True).returncode == 0:
            return python
    return None


class TestLossySweepBytes:
    """A lossy sweep's reports, byte for byte: each mode at three downlinks over one trace, as a sweep runs them."""

    # sha256 of report.to_json() per (mode, downlink)
    SHA256 = {
        ("udp_like", 100e6): "1426de8f562d395eab4c26ddc6d620c25d3a2bd105f6cde54e074570b46280df",
        ("udp_like", 200e6): "7d2bac814a284a0072517cdaa2c5387a5466277587de9595ebcedbd6df0126f0",
        ("udp_like", 300e6): "113cc3ea5b5318c1d94d8f67bd8ce0e1f0543468cc90a8925bc589e2ec8bff74",
        ("tcp_like", 100e6): "7cf69e9ea4fadd2ff4e976aa199e90cb42c74e9f3216add3b5b2912386178aad",
        ("tcp_like", 200e6): "2ec24f0c628e071ce8eaaa55c46e1a6f3df42abdf0d1b1f68aef468ec37ce1d7",
        ("tcp_like", 300e6): "e24cc0a85d02d7837b9a099266485e7f9a1e6dfd43543f6cd94adc30534822ee",
    }

    def test_reports_are_unchanged(self):
        assert lossy_sweep_digests() == self.SHA256

    @pytest.mark.parametrize("version", ["3.12", "3.13"])
    def test_reports_are_the_same_on_another_python(self, version):
        # from 3.12 on, sum() compensates a float sum; the package states its own order, so every Python agrees
        python = other_python(version)
        if python is None:
            pytest.skip(f"no Python {version} runs beside this interpreter or on the PATH")
        source = inspect.getsource(lossy_sweep_digests)
        script = f"import json, sys\nsys.path.insert(0, sys.argv[1])\n{source}\n" \
                 "print(json.dumps([[*key, digest] for key, digest in lossy_sweep_digests().items()]))"
        # -I -S: no environment, user or site packages, so the child has the standard library and the package alone
        child = subprocess.run([python, "-I", "-S", "-B", "-c", script, str(Path(netsim.__file__).parent.parent)],
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        assert {(mode, downlink): digest for mode, downlink, digest in json.loads(child.stdout)} == self.SHA256


def counted_builds(monkeypatch, cls):
    """A list that gains one entry per ``cls`` record built while the test runs, however it is built."""
    built = []
    real = cls.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting)
    return built


class TestFramesContract:
    """``SimReport.frames`` and ``FrameTrace.records`` build their records on first read and act as the tuple of them."""

    # One packet per frame in udp_like mode: the packet loop adds the same
    # floats in the same order as the simulator, so its records are exact.
    LINK = LinkModel(downlink_bps=5e7, propagation_rtt=6.0, loss_prob=0.4, seed=2, mtu_payload_bits=250_000)
    TIMING = PipelineTiming(t_sense=1.0, t_render=2.0, t_encode=1.5, t_decode=2.0, fixed_display=1.0)
    OPERATIONS = {
        "len": len,
        "index": lambda frames: frames[3],
        "negative index": lambda frames: frames[-2],
        "slice": lambda frames: frames[2:9],
        "stepped slice": lambda frames: frames[::-3],
        "slice past the end": lambda frames: frames[10:100],
        "iteration": list,
        "reversed": lambda frames: list(reversed(frames)),
        "membership": lambda frames: frames[5] in frames,
        "count": lambda frames: frames.count(frames[0]),
        "bool": bool,
        "hash": hash,
        "repr": repr,
        "pickle": lambda frames: pickle.loads(pickle.dumps(frames)),
    }

    def report(self, trace):
        return simulate(trace, self.LINK, self.TIMING, 90.0, 20.0)

    def eager(self, trace):
        rows = reference_simulate(trace, self.LINK, self.TIMING, 90.0)
        return tuple(netsim.FrameResult(i, displayed, e2e, wait, retx)
                     for i, (displayed, retx, e2e, wait) in enumerate(rows))

    @pytest.mark.parametrize("operation", OPERATIONS, ids=list(OPERATIONS))
    def test_a_lazy_read_gives_what_the_tuple_gives(self, operation):
        trace = small_trace(frames=12)
        eager = self.eager(trace)
        assert {f.displayed for f in eager} == {True, False}
        read = self.OPERATIONS[operation]
        assert read(self.report(trace).frames) == read(eager)

    @pytest.mark.parametrize("operation", OPERATIONS, ids=list(OPERATIONS))
    def test_a_lazy_trace_read_gives_what_the_tuple_gives(self, operation):
        # four GOPs of I, B and P frames: the columns vary in every field
        sizes, cfg = FrameSizes(200_000, 40_000, b_bits=9_000), GopConfig(0.1, 30.0, redundancy_fraction=0.0,
                                                                           pattern="IBP")
        eager = tuple(FrameRecord(i, i * 1000.0 / 30.0, "IBP"[i % 3], (200_000, 9_000, 40_000)[i % 3], i // 3)
                      for i in range(12))
        read = self.OPERATIONS[operation]
        assert read(generate_trace(sizes, cfg, 0.4).records) == read(eager)

    def test_equality_with_reports_frames_and_plain_tuples(self):
        trace = small_trace(frames=12)
        eager = self.eager(trace)
        assert self.report(trace).frames == self.report(trace).frames
        assert self.report(trace).frames == eager and eager == self.report(trace).frames
        assert not self.report(trace).frames != eager
        built = self.report(trace).frames
        list(built)
        assert built == self.report(trace).frames and self.report(trace).frames == built
        assert self.report(trace).frames != eager[:-1] and self.report(trace).frames != list(eager)
        other = dataclasses.replace(self.LINK, seed=3)
        assert simulate(trace, other, self.TIMING, 90.0, 20.0).frames != eager

    def test_a_report_with_its_frames_as_a_tuple_is_equal(self):
        report = self.report(small_trace(frames=12))
        rebuilt = dataclasses.replace(report, frames=tuple(report.frames))
        assert rebuilt == report and report == rebuilt
        assert hash(rebuilt) == hash(report)
        assert pickle.loads(pickle.dumps(report)) == report

    def test_a_dropped_frame_reads_as_not_displayed_with_no_times(self):
        # the run keeps three columns; a record's displayed flag is derived from its e2e_ms
        trace = small_trace(frames=12)
        eager = self.eager(trace)
        dropped = [f.index for f in eager if not f.displayed]
        assert dropped and len(dropped) < len(eager)
        frames = self.report(trace).frames
        assert frames == eager and hash(frames) == hash(eager)
        assert pickle.loads(pickle.dumps(self.report(trace).frames)) == eager
        for frame in frames:
            assert type(frame.displayed) is bool
            assert frame.displayed == (frame.index not in dropped)
            if not frame.displayed:
                assert frame.e2e_ms is None and frame.vsync_wait_ms is None
            else:
                assert frame.e2e_ms is not None and frame.vsync_wait_ms is not None

    def test_aggregates_and_length_build_no_record(self, monkeypatch):
        built = counted_builds(monkeypatch, netsim.FrameResult)
        report = self.report(small_trace(frames=12))
        assert len(report.frames) == 12 and report.aggregates.displayed_count
        assert built == []
        assert report.frames[0].index == 0
        assert len(built) == 12
        list(report.frames)
        assert len(built) == 12  # built once

    def test_a_lossy_sweep_builds_no_record(self, monkeypatch, capsys):
        from xrqos.cli import main

        built = counted_builds(monkeypatch, netsim.FrameResult)
        frames = counted_builds(monkeypatch, FrameRecord)
        argv = ["simulate", "--i-bits", "200000", "--p-bits", "40000", "--fps", "30", "--duration", "1",
                "--loss", "0.01", "--rtt", "8ms", "--refresh-hz", "90"]
        for mode in ("udp", "tcp"):
            assert main([*argv, "--mode", mode, "--sweep-downlink", "50M,100M,200M"]) == 0
        assert "displayed=" in capsys.readouterr().out
        assert built == [] and frames == []
        # a one-rate JSON report writes its frames from the result columns
        assert main(["--format", "json", *argv, "--downlink", "100M"]) == 0
        assert '"frame_index": 29' in capsys.readouterr().out
        assert built == [] and frames == []

    def test_a_json_export_of_a_trace_or_its_packets_builds_no_record(self, monkeypatch):
        frames, packets_built = counted_builds(monkeypatch, FrameRecord), counted_builds(monkeypatch, PacketRecord)
        trace = small_trace(frames=30)
        packets = packetize(trace, 11680)
        trace_json, packets_json = io.StringIO(), io.StringIO()
        export_trace(trace, "json", trace_json)
        export_packets(packets, "json", packets_json)
        assert len(json.loads(trace_json.getvalue())["records"]) == 30
        assert len(json.loads(packets_json.getvalue())) == len(packets) > 30
        assert frames == [] and packets_built == [] and trace.records._built is None and packets._built is None

    def test_a_generated_trace_and_its_lossy_sweep_build_no_frame_record(self, monkeypatch):
        built = counted_builds(monkeypatch, FrameRecord)
        trace = small_trace(frames=540, fps=90.0, i_bits=4_000_000, p_bits=900_000)
        for downlink in (100e6, 150e6, 200e6, 250e6, 300e6):
            for mode in ("udp_like", "tcp_like"):
                link = LinkModel(downlink_bps=downlink, propagation_rtt=8.0, loss_prob=0.01, seed=7, mode=mode)
                assert simulate(trace, link, self.TIMING, 90.0, 20.0).aggregates.displayed_count
        assert len(trace) == 540 and trace.total_bits == 4_000_000 + 539 * 900_000
        assert built == []
        # the counter sees the records a read of the trace builds, once
        assert trace.records[1].size_bits == 900_000 and len(built) == 540
        list(trace)
        assert len(built) == 540


class TestLossDraws:
    @pytest.mark.parametrize("p", [0.001, 0.01, 0.3])
    def test_loss_fraction_within_five_sigma(self, p):
        frames, count, attempts = 100, 2_000, 2
        slots = frames * count * attempts
        lost = sum(
            len(_lost_packets(9, frame, attempt, count, p)) for frame in range(frames) for attempt in range(attempts)
        )
        assert abs(lost / slots - p) <= 5 * math.sqrt(p * (1 - p) / slots)

    def test_certain_outcomes(self):
        assert _lost_packets(1, 2, 0, 500, 0.0) == []
        assert _lost_packets(1, 2, 0, 500, 1.0) == list(range(500))

    def test_subnormal_probability_loses_nothing(self, monkeypatch):
        # the first gap is infinite, so a walk reads one block; one that read on through a frame of 10**9 packets
        # would run for hours, so each call may draw at most ten blocks a frame and fails at the eleventh
        drawn, real = [], _blake2.blake2b

        def bounded(*args, **kwargs):
            drawn.append(args)
            if len(drawn) > bound:
                raise AssertionError(f"{len(drawn)} blocks drawn by one call, at most {bound} allowed")
            return real(*args, **kwargs)

        monkeypatch.setattr(_blake2, "blake2b", bounded)
        bound = 10
        for frame in range(200):
            drawn.clear()
            assert _lost_packets(3, frame, 0, 10**9, 2.2e-313) == []
            assert len(drawn) == 1
        trace = small_trace(frames=10)
        link = LinkModel(downlink_bps=1e8, loss_prob=2.2e-313, mode="tcp_like")
        drawn.clear()
        bound = 10 * len(trace)
        report = simulate(trace, link, PipelineTiming(), 90.0, 20.0)
        assert report.aggregates.dropped_count == 0 and 0 < len(drawn) <= len(trace)

    def test_shorter_frame_sees_a_prefix(self):
        # the keying contract: packet k's fate never depends on the packet count
        whole = _lost_packets(4, 17, 2, 5_000, 0.05)
        assert whole == sorted(set(whole))
        for count in (1, 10, 333, 4_999):
            assert _lost_packets(4, 17, 2, count, 0.05) == [k for k in whole if k < count]


def reference_walk(seed, frame, attempt, count, loss_prob):
    """The packets below ``count`` lost on one attempt at one frame, as the plain loop: the stream's blocks keyed
    "seed:frame:attempt:block" drawn one at a time, each word a geometric gap to the next loss."""
    log_keep, lost, position, block = math.log1p(-loss_prob), [], -1, 0
    while True:
        for word in struct.unpack(">8Q", hashlib.blake2b(f"{seed}:{frame}:{attempt}:{block}".encode()).digest()):
            gap = math.log(((word >> 11) + 1) * 2.0**-53) / log_keep
            if gap >= count - 1 - position:
                return lost
            position += int(gap) + 1
            lost.append(position)
        block += 1


def reference_chains(link, sizes, depth):
    """Each frame's loss chain ``depth`` attempts deep, and the pending frames, built one frame at a time."""
    chains, pending = [], {}
    for frame, size in enumerate(sizes):
        count, last_bits = packet_split(size, link.mtu_payload_bits)
        lost, chain = range(count), ()
        for attempt in range(depth):
            again = reference_walk(link.seed, frame, attempt, lost[-1] + 1, link.loss_prob)
            if not (lost := [k for k in lost if k in again]):
                break
            chain += ((len(lost), last_bits if lost[-1] == count - 1 else None),)
        else:
            pending[frame] = lost
        chains.append(chain)
    return chains, pending


class TestBulkDraws:
    """Every frame's stream drawn in one pass gives each frame the losses and the chain of a frame-by-frame build."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**40),
        attempt=st.integers(min_value=0, max_value=15),
        frames=st.lists(st.tuples(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=600)),
                        max_size=12),
        loss_prob=st.one_of(st.floats(min_value=1e-4, max_value=0.5), st.just(2.2e-313)),
    )
    @example(seed=7, attempt=3, frames=[(5, 1), (6, 1), (9, 400)], loss_prob=0.5)  # counts of 1, walks past block 0
    @example(seed=7, attempt=0, frames=[(0, 10**9), (1, 600)], loss_prob=2.2e-313)  # a subnormal p: an infinite gap
    @example(seed="%d%%", attempt=1, frames=[(3, 50)], loss_prob=0.3)  # a seed built in code keys on its text as is
    def test_the_walks_equal_one_walk_per_frame(self, seed, attempt, frames, loss_prob):
        walks = netsim._walks(_blake2.blake2b, seed, attempt, [frame for frame, _ in frames],
                              [count for _, count in frames], math.log1p(-loss_prob))
        assert walks == [reference_walk(seed, frame, attempt, count, loss_prob) for frame, count in frames]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        loss_prob=st.floats(min_value=0.001, max_value=0.5),
        sizes=st.lists(st.integers(min_value=0, max_value=400_000), min_size=1, max_size=12),
        mtu=st.sampled_from([4_000, 11_680, 40_000]),
        depths=st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=3),
    )
    @example(seed=2, loss_prob=0.5, sizes=[400_000, 0, 3_999, 4_001], mtu=4_000, depths=[1, 16])
    def test_bulk_chains_equal_frame_by_frame_chains(self, seed, loss_prob, sizes, mtu, depths):
        link = LinkModel(downlink_bps=1e8, loss_prob=loss_prob, seed=seed, mtu_payload_bits=mtu)
        first, *later = sorted(depths)
        chains, pending = netsim._build_chains(link, first, [packet_split(size, mtu) for size in sizes])
        assert (chains, pending) == reference_chains(link, sizes, first)
        for earlier, depth in zip(sorted(depths), later):  # deepened from the earlier depth, as a memo would be
            chains, pending = netsim._build_chains(link, depth, memo=(earlier, chains, pending))
            assert (chains, pending) == reference_chains(link, sizes, depth)


@pytest.fixture
def digests(monkeypatch):
    """The keys of every blake2b digest the simulator draws while the test runs, counted where ``netsim`` imports
    its constructor from."""
    calls = []
    real = _blake2.blake2b

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(_blake2, "blake2b", counting)
    return calls


def test_the_stream_draws_with_hashlibs_blake2b(monkeypatch):
    # netsim imports blake2b from _blake2, which is where hashlib takes it from: the same function, so the same stream
    used, walks = [], netsim._walks

    def recording(blake2b, *args):
        used.append(blake2b)
        return walks(blake2b, *args)

    monkeypatch.setattr(netsim, "_walks", recording)
    link = LinkModel(downlink_bps=1e8, propagation_rtt=4.0, loss_prob=0.05, seed=3, mode="tcp_like")
    simulate(small_trace(), link, PipelineTiming(), 90.0, 20.0)
    assert _lost_packets(3, 0, 0, 100, 0.5)
    assert used and all(blake2b is hashlib.blake2b for blake2b in used)


class TestLossChainReuse:
    """Runs on one trace share its loss chains; each report still equals a run on a cold copy of the trace."""

    @settings(max_examples=40, deadline=None)
    @given(
        downlinks=st.lists(st.floats(min_value=1e6, max_value=1e9), min_size=3, max_size=3),
        seeds=st.lists(st.integers(min_value=0, max_value=2**31), min_size=2, max_size=2, unique=True),
        probs=st.lists(st.floats(min_value=0.001, max_value=0.5), min_size=2, max_size=2, unique=True),
        mtus=st.lists(st.sampled_from([4_000, 11_680, 40_000]), min_size=2, max_size=2, unique=True),
        senses=st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.5]), min_size=2, max_size=2, unique_by=repr),
        rtts=st.lists(st.sampled_from([-0.0, 0.0, 6.0, 11.0]), min_size=2, max_size=2, unique_by=repr),
        uplinks=st.lists(st.sampled_from([0, 4_000, 120_000]), min_size=2, max_size=2, unique=True),
        frames=st.integers(min_value=1, max_value=20),
    )
    @example(downlinks=[1e8, 5e7, 2e8], seeds=[1, 2], probs=[0.05, 0.2], mtus=[4_000, 11_680], senses=[-0.0, 0.0],
             rtts=[0.0, -0.0], uplinks=[0, 4_000], frames=5)
    @example(downlinks=[1e8, 5e7, 2e8], seeds=[1, 2], probs=[0.05, 0.2], mtus=[4_000, 11_680], senses=[-0.0, 0.0],
             rtts=[6.0, 11.0], uplinks=[0, 4_000], frames=5)
    def test_a_warm_memo_equals_a_cold_run(self, downlinks, seeds, probs, mtus, senses, rtts, uplinks, frames):
        trace = small_trace(frames=frames, i_bits=400_000, p_bits=90_000)
        timing = PipelineTiming(t_sense=senses[0], t_render=2.0, t_decode=2.0)
        base = LinkModel(downlink_bps=downlinks[0], propagation_rtt=rtts[0], loss_prob=probs[0], seed=seeds[0],
                         mtu_payload_bits=mtus[0], uplink_payload_bits=uplinks[0])
        d0, d1, d2 = downlinks
        sweep = [(d0, "udp_like", 3), (d0, "tcp_like", 1), (d1, "tcp_like", 4), (d2, "udp_like", 0),
                 (d1, "tcp_like", 2), (d2, "tcp_like", 0), (d0, "tcp_like", 4)]
        links = [dataclasses.replace(base, downlink_bps=rate, mode=mode, max_retx=retx) for rate, mode, retx in sweep]
        for change in ({"seed": seeds[1]}, {"loss_prob": probs[1]}, {"mtu_payload_bits": mtus[1]}, {"loss_prob": 0.0},
                       {"propagation_rtt": rtts[1]}, {"uplink_payload_bits": uplinks[1]}, {}):
            links += [dataclasses.replace(base, mode="tcp_like", **change), dataclasses.replace(base, **change)]
        # each term before the downlink changes between runs: the RTT and uplink payload above, the sensing time here
        jobs = [(link, timing) for link in links]
        other = dataclasses.replace(timing, t_sense=senses[1])
        jobs += [(links[0], other), (links[2], other), (dataclasses.replace(links[2], propagation_rtt=rtts[1]), other),
                 (links[0], timing)]
        # each cold run plays a copy of the trace with its own frame table; the JSON text tells -0.0 from 0.0
        cold = [simulate(fresh(trace), link, timing, 90.0, 20.0).to_json() for link, timing in jobs]
        assert [simulate(trace, link, timing, 90.0, 20.0).to_json() for link, timing in jobs] == cold

    def test_runs_share_the_arrival_column_until_a_term_before_the_downlink_changes(self):
        trace = small_trace(frames=30, i_bits=400_000, p_bits=90_000)
        link = LinkModel(downlink_bps=1e8, propagation_rtt=4.0, loss_prob=0.05, seed=3, mode="tcp_like")
        timing = PipelineTiming(t_sense=0.0)
        simulate(trace, link, timing, 90.0, 20.0)
        sizes, (_, arrivals), _ = trace.records.memo
        simulate(trace, dataclasses.replace(link, downlink_bps=3e7, mode="udp_like"), timing, 90.0, 20.0)
        same_sizes, (_, same_arrivals), _ = trace.records.memo
        assert same_sizes is sizes and same_arrivals is arrivals  # another downlink reads the same columns
        for t_sense in (-0.0, 2.0):  # a new sensing time, even one equal to the last, sums the arrivals anew
            simulate(trace, link, dataclasses.replace(timing, t_sense=t_sense), 90.0, 20.0)
            new_sizes, (_, new_arrivals), _ = trace.records.memo
            assert new_sizes is sizes and new_arrivals is not arrivals
            arrivals = new_arrivals
        # sense, uplink, RTT/2, render and encode, in pipeline order
        assert arrivals == [t + 2.0 + 0.0 + 2.0 + 0.0 + 0.0 for t in trace.t_gen]

    def test_a_new_trace_never_gets_a_dead_traces_chains(self, digests):
        link = LinkModel(downlink_bps=1e8, propagation_rtt=4.0, loss_prob=0.05, seed=3, mode="tcp_like")
        timing = PipelineTiming()
        contents = ({}, {"frames": 30, "i_bits": 900_000, "p_bits": 300_000})
        expected = [simulate(small_trace(**content), link, timing, 90.0, 20.0) for content in contents]
        for content, report in zip(contents, expected):
            simulate(small_trace(), link, timing, 90.0, 20.0)
            gc.collect()
            digests.clear()
            # a new trace may sit at the dead one's address; equal content or not, it draws its own chains
            assert simulate(small_trace(**content), link, timing, 90.0, 20.0) == report
            assert digests

    def test_two_traces_alternated_link_by_link_give_their_cold_runs(self):
        traces = [small_trace(frames=30, i_bits=400_000, p_bits=90_000), small_trace(frames=25)]
        links = [LinkModel(downlink_bps=rate, propagation_rtt=4.0, loss_prob=0.05, seed=3, mode=mode)
                 for mode in ("udp_like", "tcp_like") for rate in (5e7, 1e8, 2e8)]
        timing = PipelineTiming(t_sense=1.0, t_render=2.0)
        cold = [[simulate(fresh(trace), link, timing, 90.0, 20.0).to_json() for trace in traces] for link in links]
        assert [[simulate(trace, link, timing, 90.0, 20.0).to_json() for trace in traces] for link in links] == cold
        assert [len(trace.records.memo[2][2]) for trace in traces] == [30, 25]  # each table holds its own chains

    def test_a_memo_dies_with_its_frame_table(self):
        trace = small_trace(frames=30, i_bits=400_000, p_bits=90_000)
        simulate(trace, LinkModel(downlink_bps=1e8, loss_prob=0.05, seed=3, mode="tcp_like"), PipelineTiming(), 90.0,
                 20.0)
        assert trace.records.memo is not None
        address = id(trace.records)  # a Columns takes no weak reference, so the test looks for it among gc's objects

        def tables_there():
            return [table for table in gc.get_objects() if type(table) is Columns and id(table) == address]

        assert tables_there() == [trace.records]
        del trace
        gc.collect()
        assert tables_there() == []  # the table is freed, and with it the memo that only it holds

    def test_a_memo_is_never_compared_hashed_or_pickled(self):
        trace = small_trace(frames=30, i_bits=400_000, p_bits=90_000)
        cold = fresh(trace)
        simulate(trace, LinkModel(downlink_bps=1e8, loss_prob=0.05, seed=3), PipelineTiming(), 90.0, 20.0)
        assert trace == cold and hash(trace.records) == hash(cold.records) and cold.records.memo is None
        assert pickle.loads(pickle.dumps(trace)).records.memo is None
        assert "memo" not in vars(trace)  # the trace's own fields are untouched, so type(x)(**vars(x)) still copies
        # a copy that keeps the frame table shares its memo: every part of it derives from the table alone
        assert dataclasses.replace(trace, duration=5.0).records.memo is trace.records.memo

    def test_seeds_that_compare_equal_keep_their_own_streams(self):
        trace = small_trace(frames=30, i_bits=400_000, p_bits=90_000)
        link = LinkModel(downlink_bps=1e8, propagation_rtt=4.0, loss_prob=0.2, seed=1, mode="tcp_like")
        first = simulate(trace, link, PipelineTiming(), 90.0, 20.0)
        # True == 1, but the stream keys on the seed's text, so True draws other losses
        other = dataclasses.replace(link, seed=True)
        warm = simulate(trace, other, PipelineTiming(), 90.0, 20.0)
        assert warm == simulate(fresh(trace), other, PipelineTiming(), 90.0, 20.0) != first

    def test_threads_sharing_the_memo_get_cold_results(self):
        traces = [small_trace(frames=30, i_bits=400_000, p_bits=90_000), small_trace(frames=25)]
        links = [LinkModel(downlink_bps=rate, propagation_rtt=4.0, loss_prob=p, seed=seed, mode=mode)
                 for rate in (5e7, 2e8) for p, seed in ((0.05, 1), (0.1, 2)) for mode in ("udp_like", "tcp_like")]
        timings = [PipelineTiming(), PipelineTiming(t_sense=3.0, t_render=1.5)]
        jobs = [(trace, link, timing) for trace in traces for link in links for timing in timings]
        expected = [simulate(fresh(trace), link, timing, 90.0, 20.0) for trace, link, timing in jobs]
        mismatches = []

        def worker(offset):
            for k in range(3 * len(jobs)):
                i = (k * 5 + offset) % len(jobs)
                if simulate(*jobs[i], 90.0, 20.0) != expected[i]:
                    mismatches.append(i)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []


class TestDrawCost:
    """Digest calls: about one per (frame, attempt) plus one per eight losses, never per packet, once per sweep."""

    def test_lossless_run_draws_nothing(self, digests):
        trace = small_trace(frames=60, i_bits=2_000_000, p_bits=400_000)
        simulate(trace, LinkModel(downlink_bps=1e8), PipelineTiming(), 90.0, 20.0)
        assert digests == []

    @pytest.mark.parametrize("mode", ["udp_like", "tcp_like"])
    def test_lossy_run_draws_per_frame_attempt_and_loss(self, digests, mode):
        trace = small_trace(frames=60, i_bits=2_000_000, p_bits=400_000)
        link = LinkModel(downlink_bps=1e8, propagation_rtt=4.0, loss_prob=0.01, seed=8, mode=mode, max_retx=3)
        attempts = 1 + (link.max_retx if mode == "tcp_like" else 0)
        losses = lost_transmissions(trace, link)
        digests.clear()
        simulate(trace, link, PipelineTiming(), 90.0, 20.0)
        assert 0 < len(digests) <= len(trace) * attempts + losses

    @pytest.mark.parametrize("mode", ["udp_like", "tcp_like"])
    def test_a_rerun_at_another_downlink_draws_nothing(self, digests, mode):
        trace = small_trace(frames=60, i_bits=2_000_000, p_bits=400_000)
        link = LinkModel(downlink_bps=1e8, propagation_rtt=4.0, loss_prob=0.01, seed=8, mode=mode, max_retx=3)
        simulate(trace, link, PipelineTiming(), 90.0, 20.0)
        digests.clear()
        simulate(trace, dataclasses.replace(link, downlink_bps=3e7), PipelineTiming(), 90.0, 20.0)
        assert digests == []

    def test_a_sweep_draws_one_udp_pass_and_one_tcp_run(self, digests):
        trace = small_trace(frames=60, i_bits=2_000_000, p_bits=400_000)
        udp = LinkModel(downlink_bps=1e8, propagation_rtt=4.0, loss_prob=0.01, seed=8, max_retx=3)
        tcp = dataclasses.replace(udp, mode="tcp_like")
        bound = len(trace) + lost_transmissions(trace, udp) + len(trace) * 4 + lost_transmissions(trace, tcp)
        digests.clear()
        for downlink in (5e7, 8e7, 1e8, 2e8, 5e8):
            for link in (udp, tcp):
                simulate(trace, dataclasses.replace(link, downlink_bps=downlink), PipelineTiming(), 90.0, 20.0)
        assert 0 < len(digests) <= bound

    def test_a_tcp_run_after_a_udp_run_draws_each_key_once(self, digests):
        trace = small_trace(frames=60, i_bits=2_000_000, p_bits=400_000)
        udp = LinkModel(downlink_bps=1e8, propagation_rtt=4.0, loss_prob=0.05, seed=8)
        tcp = dataclasses.replace(udp, mode="tcp_like", max_retx=3)
        expected = simulate(fresh(trace), tcp, PipelineTiming(), 90.0, 20.0)
        digests.clear()
        simulate(trace, udp, PipelineTiming(), 90.0, 20.0)
        assert simulate(trace, tcp, PipelineTiming(), 90.0, 20.0) == expected
        keys = Counter(key.decode() for key, *_ in digests)
        assert {f"8:{frame}:0:0" for frame in range(len(trace))} <= keys.keys()
        assert any(key.split(":")[2] != "0" for key in keys)  # the tcp run drew later attempts
        assert set(keys.values()) == {1}

    def test_a_sweep_draws_later_attempts_only_for_frames_still_losing(self, digests):
        trace = small_trace(frames=60, i_bits=2_000_000, p_bits=400_000)
        udp = LinkModel(downlink_bps=1e8, propagation_rtt=4.0, loss_prob=0.2, seed=8, max_retx=3)
        tcp = dataclasses.replace(udp, mode="tcp_like")
        # attempt 0 of every frame, and attempt a > 0 of each frame that attempts 0 to a - 1 left packets lost
        streams = set()
        for frame, size in enumerate(trace.size_bits):
            count, _ = packet_split(size, udp.mtu_payload_bits)
            pending = range(count)
            for attempt in range(1 + tcp.max_retx):
                streams.add((frame, attempt))
                lost = set(_lost_packets(udp.seed, frame, attempt, count, udp.loss_prob))
                if not (pending := [k for k in pending if k in lost]):
                    break
        assert any(attempt == tcp.max_retx for _, attempt in streams)  # some chains reach the last attempt
        digests.clear()
        for downlink in (5e7, 8e7, 1e8, 2e8, 5e8):
            for link in (udp, tcp):
                simulate(trace, dataclasses.replace(link, downlink_bps=downlink), PipelineTiming(), 90.0, 20.0)
        keys = Counter(key.decode() for key, *_ in digests)
        assert set(keys.values()) == {1}  # each seed:frame:attempt:block key once
        assert {tuple(map(int, key.split(":")[1:3])) for key in keys} == streams

    def test_a_lossless_sweep_draws_nothing(self, digests):
        trace = small_trace(frames=60, i_bits=2_000_000, p_bits=400_000)
        for downlink in (5e7, 8e7, 1e8, 2e8, 5e8):
            for mode in ("udp_like", "tcp_like"):
                simulate(trace, LinkModel(downlink_bps=downlink, mode=mode), PipelineTiming(), 90.0, 20.0)
        assert digests == []

    @pytest.mark.parametrize("mode", ["udp_like", "tcp_like"])
    def test_a_lossless_run_splits_no_frame_and_walks_no_stream(self, monkeypatch, digests, mode):
        calls = Counter()

        def counted(*args):
            calls["packet_split"] += 1
            return packet_split(*args)

        trace = small_trace(frames=60, i_bits=2_000_000, p_bits=400_000)
        link = LinkModel(downlink_bps=1e8, propagation_rtt=4.0, mode=mode)
        expected = simulate(trace, link, PipelineTiming(), 90.0, 20.0)
        # the chain builder splits each distinct frame size once and draws each frame's first block on attempt 0 once
        monkeypatch.setattr(tracegen, "packet_split", counted)
        assert simulate(trace, link, PipelineTiming(), 90.0, 20.0) == expected
        assert calls == {} and digests == []
        simulate(trace, dataclasses.replace(link, loss_prob=0.01), PipelineTiming(), 90.0, 20.0)
        assert calls["packet_split"] == len(set(trace.size_bits))
        keys = Counter(key.decode() for key, *_ in digests)
        assert [keys[f"0:{frame}:0:0"] for frame in range(len(trace))] == [1] * len(trace)


class TestBoundary:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("downlink_bps", math.nan),
            ("uplink_bps", math.nan),
            ("propagation_rtt", math.nan),
            ("propagation_rtt", math.inf),
            ("mtu_payload_bits", math.nan),
            ("uplink_payload_bits", math.inf),
            ("max_retx", math.inf),
        ],
    )
    def test_link_rejects_nan_and_bad_infinity(self, field, value):
        with pytest.raises(DomainError):
            LinkModel(**{"downlink_bps": 1e8, field: value})

    @pytest.mark.parametrize(
        "refresh_hz, mtp_limit", [(math.inf, 20.0), (math.nan, 20.0), (90.0, math.nan),
                                  # below 1 Hz the VSync search's tolerance could show a frame before it is ready
                                  (1e-9, 20.0), (0.5, 20.0)]
    )
    def test_simulate_rejects_nan_and_bad_infinity(self, refresh_hz, mtp_limit):
        with pytest.raises(DomainError):
            simulate(small_trace(frames=3), LinkModel(downlink_bps=1e8), PipelineTiming(), refresh_hz, mtp_limit)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_timing_rejects_nan_and_infinity(self, value):
        with pytest.raises(DomainError):
            PipelineTiming(t_decode=value)

    def test_max_retx_is_capped_at_linux_default_tcp_retries2(self):
        assert LinkModel(downlink_bps=1e8, mode="tcp_like", max_retx=15).max_retx == 15
        with pytest.raises(DomainError, match="max retransmissions"):
            LinkModel(downlink_bps=1e8, mode="tcp_like", max_retx=16)

    @pytest.mark.parametrize("loss_prob", [0.5, 1.0])
    def test_a_lossy_run_holds_at_most_max_packets(self, digests, loss_prob):
        # 90 frames of 1e9 bits at an 8-bit MTU: 1.125e10 packets, far past the ceiling
        trace = small_trace(frames=90, fps=90.0, i_bits=10**9, p_bits=10**9)
        link = LinkModel(downlink_bps=1e9, loss_prob=loss_prob, mtu_payload_bits=8)
        with pytest.raises(DomainError, match="packet count"):
            simulate(trace, link, PipelineTiming(), 90.0, 20.0)
        assert digests == []  # rejected before any draw
        report = simulate(trace, dataclasses.replace(link, loss_prob=0.0), PipelineTiming(), 90.0, 20.0)
        assert report.aggregates.displayed_count == 90

    def test_the_packet_ceiling_is_exact(self, monkeypatch):
        # 3 frames of 10 bits at a 4-bit MTU: 3 packets each
        trace = small_trace(frames=3, i_bits=10, p_bits=10)
        link = LinkModel(downlink_bps=1e6, loss_prob=0.5, mtu_payload_bits=4)
        monkeypatch.setattr(tracegen, "MAX_PACKETS", 9)
        simulate(trace, link, PipelineTiming(), 90.0, 20.0)
        monkeypatch.setattr(tracegen, "MAX_PACKETS", 8)
        with pytest.raises(DomainError, match="got 9"):
            simulate(fresh(trace), link, PipelineTiming(), 90.0, 20.0)
