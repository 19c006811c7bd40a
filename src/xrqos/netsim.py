"""Discrete-event playback of a frame trace over a parameterized link.

Each frame travels the full pipeline: pose uplink, render and encode on the
server, FIFO serialization on the downlink (the only queuing effect
modeled), propagation, decode, panel response, then the wait for the next
VSync tick.

Packet loss comes from one keyed draw stream per (seed, frame, attempt):
64-byte blake2b blocks, each unpacked into eight uniforms. Every uniform is
inverted into a geometric gap (the number of packets delivered before the
next loss), so a frame costs about one draw per lost packet plus one, and a
frame that loses nothing costs one serialization step. Whether packet k is
lost on attempt a depends only on (seed, frame, k, a), never on the
bandwidth or the packet count; that keying is what makes bandwidth sweeps
monotone and repeatable. Versions before this stream keyed one draw per
(seed, frame, packet, attempt), so their loss patterns for a given seed
differ.

So a frame's loss chain (packets still lost after each attempt) is the same
at every rate, and for the first attempt in both modes. One builder makes
the chains from the trace's size column, a frame's position giving its
stream key. ``simulate`` keeps one lossy run's chains, keyed by the trace's
identity (traces are frozen) and (seed, p, MTU), for later runs of a sweep
to replay; another trace or key rebuilds them, and they are dropped with
their trace. Beside each chain it keeps the packets still lost after the
chain's last attempt, so a run that allows more attempts (``tcp_like``
after ``udp_like``) draws only the further attempts of the frames that
still have losses.

A run reads the trace's generation-time and size columns, never its frame
records, and keeps its results as three columns: e2e, VSync wait and
retransmissions, one entry per frame, a frame's index being its position. A
dropped frame's e2e and VSync wait are None, so whether a frame was
displayed is derived from its e2e. The aggregates are computed from the
columns. ``SimReport.frames``, like ``FrameTrace.records``, is an
``errors.Columns``: it acts as the tuple of ``FrameResult`` records and
builds them from the columns on first read, so a sweep, read only for its
aggregates, builds no record of either kind. A report also holds the link,
pipeline timing, refresh rate and MTP limit it ran with; its JSON keys, CSV
headers and CSV cell formats are the ones declared on the record fields,
written in ``report``'s JSON and CSV layouts.
"""
from __future__ import annotations

import hashlib
import math
import struct
import weakref
from bisect import bisect_right
from collections.abc import Sequence
from itertools import repeat
from typing import TextIO

from . import _EXPORTS, report
from .errors import Columns, DomainError, _json, _write, record, require
from .latency import PipelineTiming
from .reliability import DEFAULT_MSS_BITS
from .tracegen import MAX_PACKETS, FrameTrace, packet_split

__all__ = _EXPORTS["netsim"].split()


@record
class LinkModel:
    """Channel parameters for one simulation run.

    ``propagation_rtt`` is in milliseconds and is split evenly between the
    pose uplink and the video downlink. ``udp_like`` drops a frame on any
    lost packet; ``tcp_like`` retransmits each lost packet after one RTT,
    up to ``max_retx`` (at most 15) times, before giving the frame up.
    The resends are serial: each lost packet holds the downlink for one full
    RTT plus its own transmission, one loss after another, so at p = 0.01
    and an 8 ms RTT a frame of ~88 packets spends ~7 ms on average in
    resends and a 91 Mbps stream on a 200 Mbps link queues without bound.
    The pose uplink defaults to zero-size messages (they are a few kbps at
    most); ``uplink_payload_bits`` can widen them.
    """

    downlink_bps: float = _json("a number")
    uplink_bps: float = _json("a number", 1e9)
    propagation_rtt: float = _json("a number", 0.0, key="propagation_rtt_ms")
    loss_prob: float = _json("a number", 0.0)
    seed: int = _json("an integer", 0)
    mode: str = _json("a string", "udp_like")
    max_retx: int = _json("an integer", 3)
    mtu_payload_bits: int = _json("an integer", DEFAULT_MSS_BITS)
    uplink_payload_bits: int = _json("an integer", 0)

    def __post_init__(self) -> None:
        # an infinite rate is an instant link
        require("downlink rate", self.downlink_bps, gt=0, le=math.inf)
        require("uplink rate", self.uplink_bps, gt=0, le=math.inf)
        require("loss probability", self.loss_prob, ge=0, le=1)
        require("propagation rtt", self.propagation_rtt, ge=0)
        if self.mode not in ("udp_like", "tcp_like"):
            raise DomainError(f"mode must be udp_like or tcp_like, got {self.mode!r}")
        if not isinstance(self.max_retx, int):
            raise DomainError(f"max retransmissions must be an integer, got {self.max_retx!r}")
        require("max retransmissions", self.max_retx, ge=0, le=15)  # 15: Linux's default tcp_retries2
        require("mtu payload", self.mtu_payload_bits, gt=0)
        require("uplink payload", self.uplink_payload_bits, ge=0)


@record
class FrameResult:
    """One frame's fate: its end-to-end latency and VSync wait (None when dropped) and its retransmissions."""

    index: int = _json("an integer", key="frame_index")
    displayed: bool = _json("a boolean", cell="d")
    e2e_ms: float | None = _json("a number", cell=".6f")
    vsync_wait_ms: float | None = _json("a number", cell=".6f")
    retx_count: int = _json("an integer")


def _frame_result(index: int, e2e_ms: float | None, vsync_wait_ms: float | None, retx_count: int) -> FrameResult:
    """A frame's record from its row of a run's result columns: it was displayed exactly when it has an e2e."""
    return FrameResult(index, e2e_ms is not None, e2e_ms, vsync_wait_ms, retx_count)


@record
class Aggregates:
    """A run's latency percentiles over its displayed frames (None when none were), and its frame counts."""

    mean_e2e_ms: float | None = _json("a number")
    p50_e2e_ms: float | None = _json("a number")
    p95_e2e_ms: float | None = _json("a number")
    p99_e2e_ms: float | None = _json("a number")
    max_e2e_ms: float | None = _json("a number")
    displayed_count: int = _json("an integer")
    dropped_count: int = _json("an integer")
    mtp_violations: int = _json("an integer")
    effective_fps: float = _json("a number")


@record
class SimReport:
    """One run's frames and aggregates, with the link, pipeline timing, refresh rate and MTP limit it ran with."""

    frames: Sequence[FrameResult] = _json("an array", of=FrameResult)
    aggregates: Aggregates = _json("an object", of=Aggregates)
    refresh_hz: float = _json("a number")
    mtp_limit: float = _json("a number", key="mtp_limit_ms")
    link: LinkModel = _json("an object", of=LinkModel)
    timing: PipelineTiming = _json("an object", of=PipelineTiming)

    def to_json(self) -> str:
        return report.to_json(_write(self))

    def write_csv(self, handle: TextIO) -> None:
        """Per-frame rows, an empty line, then the aggregates block."""
        report.write_records(handle, FrameResult, self.frames)
        report.write_rows(handle, (), [("metric", "value"), *_write(self.aggregates).items()])


_BLOCK = struct.Struct(">8Q")


def _lost_packets(seed: int, frame_index: int, attempt: int, count: int, loss_prob: float) -> list[int]:
    """Ascending indices below ``count`` of the packets lost on one attempt at a frame.

    The stream for (seed, frame, attempt) is a run of 64-byte blake2b blocks,
    each read as eight 64-bit words. The top 53 bits of a word give a uniform
    U on (0, 1], and floor(log(U) / log(1 - p)) packets are delivered before
    the next loss. The walk stops at the first loss at or past ``count``, so
    the result for a smaller count is a prefix of the one for a larger count.
    """
    if loss_prob <= 0.0:
        return []
    if loss_prob >= 1.0:
        return list(range(count))
    return _walk(f"{seed}:{frame_index}:{attempt}:", count, math.log1p(-loss_prob))


def _walk(prefix: str, count: int, log_keep: float) -> list[int]:
    """``_lost_packets``' walk over the stream whose block keys are ``prefix`` and the block number, at
    ``log_keep`` = log(1 - p) for a p strictly between 0 and 1."""
    lost = []
    position = -1
    block = 0
    while True:
        key = f"{prefix}{block}".encode("ascii")
        for word in _BLOCK.unpack(hashlib.blake2b(key).digest()):
            gap = math.log(((word >> 11) + 1) * 2.0**-53) / log_keep
            # compare before int(): at a subnormal p the gap is inf
            if gap >= count - 1 - position:
                return lost
            position += int(gap) + 1
            lost.append(position)
        block += 1


def _build_chains(link: LinkModel, sizes, depth: int, states: list | None = None) -> list:
    """(chain, lost) per frame of sizes ``sizes``: its loss chain at least ``depth`` attempts deep, and the
    packets the chain's last attempt lost.

    A chain holds (packets still lost, whether the frame's last packet is
    among them) for each attempt that loses any. ``states`` are an earlier
    call's results, which this one extends; without them each chain starts
    from attempt 0. ``lost`` comes back empty once an attempt delivers every
    packet; the chain is then whole at any depth, and is not extended.
    """
    seed, log_keep, mtu = link.seed, math.log1p(-link.loss_prob), link.mtu_payload_bits
    chains = []
    for frame, size in enumerate(sizes):
        if states is None:
            chain, lost = [], None
        else:
            chain, lost = state = states[frame]
            if not lost:
                chains.append(state)
                continue
            chain = list(chain)
        count = packet_split(size, mtu)[0]
        if lost is None:
            lost = _walk(f"{seed}:{frame}:0:", count, log_keep)
        while lost and len(chain) < depth:
            if chain:  # what the last attempt lost goes again
                again = set(_walk(f"{seed}:{frame}:{len(chain)}:", lost[-1] + 1, log_keep))
                lost = [k for k in lost if k in again]
                if not lost:
                    break
            chain.append((len(lost), lost[-1] == count - 1))
        chains.append((tuple(chain), lost))
    return chains


_chains_memo = None  # (weakref to the trace, key, depth, [(chain, lost)] per frame), replaced whole


def _forget_chains(ref) -> None:
    global _chains_memo
    if _chains_memo is not None and _chains_memo[0] is ref:
        _chains_memo = None


def _check_packets(trace: FrameTrace, link: LinkModel) -> None:
    """A lossy run walks every packet of every attempt, so its trace may hold at most ``MAX_PACKETS`` at the MTU."""
    mtu = link.mtu_payload_bits
    if trace.total_bits > (MAX_PACKETS - len(trace)) * mtu:  # a frame takes at most size / mtu + 1 packets
        packets = sum(packet_split(size, mtu)[0] for size in trace.size_bits)
        require("packets of a lossy run", packets, ge=0, le=MAX_PACKETS)


def _loss_chains(trace: FrameTrace, link: LinkModel, depth: int):
    """Every frame's (loss chain, lost packets), at least ``depth`` attempts deep; the memo's, extended as needed."""
    global _chains_memo
    if not link.loss_prob:  # a lossless frame's chain is empty, and finding that out needs no packet count
        return repeat(((), []), len(trace))
    if link.loss_prob >= 1.0:  # certain loss: each attempt loses every packet, as _lost_packets says, and draws none
        _check_packets(trace, link)
        mtu = link.mtu_payload_bits
        return [(((packet_split(size, mtu)[0], True),) * depth, None) for size in trace.size_bits]
    key = (str(link.seed), link.loss_prob, link.mtu_payload_bits)  # the stream keys on the seed's text
    memo = _chains_memo
    if memo is None or memo[0]() is not trace or memo[1] != key:
        _check_packets(trace, link)
        chains = _build_chains(link, trace.size_bits, depth)
    elif memo[2] < depth:
        chains = _build_chains(link, trace.size_bits, depth, memo[3])
    else:
        return memo[3]
    _chains_memo = (weakref.ref(trace, _forget_chains), key, depth, chains)
    return chains


def _percentile(sorted_values: list[float], q: float) -> float:
    # Nearest-rank definition; sorted_values must be non-empty.
    rank = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(rank, len(sorted_values) - 1)]


def simulate(
    trace: FrameTrace,
    link: LinkModel,
    timing: PipelineTiming,
    refresh_hz: float,
    mtp_limit: float,
) -> SimReport:
    """Play a trace through the motion-to-photon pipeline over a link.

    Frames are serialized FIFO on the downlink: a frame's transmission
    starts no earlier than the previous frame finishes, which is where
    queuing delay comes from. A frame is displayed at the first VSync tick
    (k * 1000/refresh_hz, k >= 0) at or after it becomes ready.
    """
    if len(trace) == 0:
        raise DomainError("cannot simulate an empty trace")
    require("refresh rate", refresh_hz, gt=0)
    require("mtp limit", mtp_limit, gt=0, le=math.inf)

    tick = require("refresh interval", 1000.0 / refresh_hz, gt=0)
    half_rtt = link.propagation_rtt / 2.0
    uplink_ms = 1000.0 * link.uplink_payload_bits / link.uplink_bps
    max_attempts = 1 + (link.max_retx if link.mode == "tcp_like" else 0)
    mtu = link.mtu_payload_bits
    full_tx = 1000.0 * mtu / link.downlink_bps
    # a retransmission waits one RTT after its loss, then goes on the wire again
    resend = link.propagation_rtt + full_tx

    t_sense, t_render, t_encode = timing.t_sense, timing.t_render, timing.t_encode
    t_decode, fixed_display = timing.t_decode, timing.fixed_display
    downlink, ceil = link.downlink_bps, math.ceil
    e2e_ms, vsync_wait_ms, retx_count = [], [], []
    add_e2e, add_wait, add_retx = e2e_ms.append, vsync_wait_ms.append, retx_count.append
    link_free = 0.0
    try:
        for t_gen, size_bits, (chain, _) in zip(trace.t_gen, trace.size_bits, _loss_chains(trace, link, max_attempts)):
            # budget_check's terms in pipeline order: sense, comm_ul (uplink serialization + RTT/2), render, encode
            arrival = t_gen + t_sense + uplink_ms + half_rtt + t_render + t_encode
            # comm_dl: queueing and serialization (every packet goes out once, lost or not), resends, RTT/2
            t = (link_free if link_free > arrival else arrival) + 1000.0 * size_bits / downlink
            retx = 0
            if chain and max_attempts > 1:  # a chain deeper than the retries allow is walked to their end
                for n_lost, last_lost in chain if len(chain) < max_attempts else chain[: max_attempts - 1]:
                    t += n_lost * resend
                    if last_lost:
                        t += 1000.0 * (packet_split(size_bits, mtu)[1] - mtu) / downlink
                    retx += n_lost
            link_free = t
            add_retx(retx)

            if len(chain) < max_attempts:
                ready = t + half_rtt + t_decode + fixed_display  # comm_dl's RTT/2, decode, display
                k = ceil(ready / tick - 1e-9)
                display = (k if k > 0 else 0) * tick
                add_e2e(display - t_gen)
                add_wait(display - ready)  # the actual VSync wait, where a budget takes its avg or max
            else:
                add_e2e(None)
                add_wait(None)
    except OverflowError as exc:  # times or sizes beyond a float, e.g. from 1e308-sized inputs
        raise DomainError(f"simulated times overflow: {exc}") from exc

    shown = sorted([e2e for e2e in e2e_ms if e2e is not None])
    displayed_count = len(shown)
    aggregates = Aggregates(
        mean_e2e_ms=require("mean e2e latency", sum(shown) / displayed_count, ge=0) if shown else None,
        p50_e2e_ms=_percentile(shown, 0.50) if shown else None,
        p95_e2e_ms=_percentile(shown, 0.95) if shown else None,
        p99_e2e_ms=_percentile(shown, 0.99) if shown else None,
        max_e2e_ms=shown[-1] if shown else None,
        displayed_count=displayed_count,
        dropped_count=len(e2e_ms) - displayed_count,
        mtp_violations=displayed_count - bisect_right(shown, mtp_limit),
        effective_fps=displayed_count / trace.duration,
    )
    return SimReport(
        frames=Columns(_frame_result, range(len(e2e_ms)), e2e_ms, vsync_wait_ms, retx_count),
        aggregates=aggregates,
        refresh_hz=refresh_hz,
        mtp_limit=mtp_limit,
        link=link,
        timing=timing,
    )
