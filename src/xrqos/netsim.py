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
differ. The stream's ``blake2b`` is the one ``hashlib`` gives, imported
from ``_blake2`` (where ``hashlib`` takes it), so no run loads ``hashlib``
or OpenSSL; each chain build imports it once and hands it to its walks, so
a lossless run, such as a capacity sweep, loads not even ``_blake2``.

So a frame's loss chain is the same at every rate, and for the first
attempt in both modes: for each attempt that loses any packet, how many are
still lost and, when the short last packet is among them, its bits. One
builder makes the chains from the trace's size column, a frame's position
giving its stream key; it reads each distinct size's split and the packet
bound from ``tracegen.packet_splits``, and the frame loop splits none. It
draws one attempt at a time: attempt 0 for every frame, then each later
attempt for the frames that still have packets lost, all at one chain
length. Each attempt's walks draw the first block of every stream in one
pass, from one key pattern, and a later block only for a walk that gets
past the first eight words; a walk that loses nothing costs no more.
``simulate`` keeps one memo for the last trace it ran, keyed by the trace's
identity (traces are frozen) and dropped with it, for later runs of a sweep
to read. Each of its parts is rebuilt only when its own key changes: 1000
times each frame's size; each frame's downlink arrival, its generation time
plus the five terms before the downlink (sense, uplink, RTT/2, render and
encode), keyed by the terms' reprs; and the last lossy run's chains, keyed by
(seed, p, MTU), with the frames whose chains stop at the run's attempt limit
with packets still lost, so a run that allows more attempts (``tcp_like``
after ``udp_like``) visits and draws only those frames.

A run reads the trace's generation-time and size columns, never its frame
records, and keeps its results as the columns of ``FrameResult``, one entry
per frame: index (its position), whether it was displayed, e2e, VSync wait
and retransmissions. A dropped frame's e2e and VSync wait are None, and the
``displayed`` column is derived from the e2e column after the frame loop.
The aggregates are computed from the columns. ``SimReport.frames``, like
``FrameTrace.records`` and ``packetize``'s packets, is a
``records.Columns``: it acts as the tuple of ``FrameResult`` records and
builds them from the columns on first read, so neither a sweep, read only
for its aggregates, nor a CSV or JSON write builds a record of either kind. A
report also holds the link, pipeline timing, refresh rate and MTP limit it
ran with; its JSON keys, CSV headers and CSV cell formats are the ones
declared on the record fields, built by ``records`` in ``report``'s layouts.
"""
from __future__ import annotations

import math
import struct
import weakref
from bisect import bisect_right
from collections.abc import Sequence
from itertools import compress, repeat
from operator import is_not, methodcaller
from typing import TextIO

from . import _EXPORTS, report
from .errors import DomainError, require
from .latency import PipelineTiming
from .records import Columns, csv_table, json_field, json_object, json_parts, record
from .reliability import DEFAULT_MSS_BITS
from .tracegen import FrameTrace, packet_splits

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

    downlink_bps: float = json_field("a number")
    uplink_bps: float = json_field("a number", 1e9)
    propagation_rtt: float = json_field("a number", 0.0, key="propagation_rtt_ms")
    loss_prob: float = json_field("a number", 0.0)
    seed: int = json_field("an integer", 0)
    mode: str = json_field("a string", "udp_like")
    max_retx: int = json_field("an integer", 3)
    mtu_payload_bits: int = json_field("an integer", DEFAULT_MSS_BITS)
    uplink_payload_bits: int = json_field("an integer", 0)

    def __post_init__(self) -> None:
        # an infinite rate is an instant link
        require("downlink rate", self.downlink_bps, gt=0, le=math.inf)
        require("uplink rate", self.uplink_bps, gt=0, le=math.inf)
        require("loss probability", self.loss_prob, ge=0, le=1)
        require("propagation rtt", self.propagation_rtt, ge=0)
        if self.mode not in ("udp_like", "tcp_like"):
            raise DomainError(f"mode must be udp_like or tcp_like, got {self.mode!r}")
        for name, value in (("seed", self.seed), ("max retransmissions", self.max_retx),  # a bool is an int
                            ("mtu payload", self.mtu_payload_bits), ("uplink payload", self.uplink_payload_bits)):
            if not isinstance(value, int):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        require("max retransmissions", self.max_retx, ge=0, le=15)  # 15: Linux's default tcp_retries2
        require("mtu payload", self.mtu_payload_bits, gt=0)
        require("uplink payload", self.uplink_payload_bits, ge=0)


@record
class FrameResult:
    """One frame's fate: its end-to-end latency and VSync wait (None when dropped) and its retransmissions."""

    index: int = json_field("an integer", key="frame_index")
    displayed: bool = json_field("a boolean", cell="d")
    e2e_ms: float | None = json_field("a number", cell=".6f")
    vsync_wait_ms: float | None = json_field("a number", cell=".6f")
    retx_count: int = json_field("an integer")


@record
class Aggregates:
    """A run's latency percentiles over its displayed frames (None when none were), and its frame counts."""

    mean_e2e_ms: float | None = json_field("a number")
    p50_e2e_ms: float | None = json_field("a number")
    p95_e2e_ms: float | None = json_field("a number")
    p99_e2e_ms: float | None = json_field("a number")
    max_e2e_ms: float | None = json_field("a number")
    displayed_count: int = json_field("an integer")
    dropped_count: int = json_field("an integer")
    mtp_violations: int = json_field("an integer")
    effective_fps: float = json_field("a number")


@record
class SimReport:
    """One run's frames and aggregates, with the link, pipeline timing, refresh rate and MTP limit it ran with."""

    frames: Sequence[FrameResult] = json_field("an array", of=FrameResult)
    aggregates: Aggregates = json_field("an object", of=Aggregates)
    refresh_hz: float = json_field("a number")
    mtp_limit: float = json_field("a number", key="mtp_limit_ms")
    link: LinkModel = json_field("an object", of=LinkModel)
    timing: PipelineTiming = json_field("an object", of=PipelineTiming)

    def to_json(self) -> str:
        return report.to_json(*json_parts(self))

    def write_csv(self, handle: TextIO) -> None:
        """Per-frame rows, an empty line, then the aggregates block."""
        report.write_rows(handle, *csv_table(FrameResult, self.frames))
        report.write_rows(handle, (), [("metric", "value"), *json_object(self.aggregates).items()])


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
    from _blake2 import blake2b
    return _walks(blake2b, seed, attempt, (frame_index,), (count,), math.log1p(-loss_prob))[0]


def _walks(blake2b, seed, attempt: int, frames, counts, log_keep: float) -> list[list[int]]:
    """``_lost_packets``' walk on ``attempt`` for each of ``frames``, below its entry of ``counts``, at ``log_keep`` =
    log(1 - p) for a p strictly between 0 and 1. A stream's block keys are "seed:frame:attempt:block": every frame's
    block 0 is drawn in one pass, and a later block only for a walk that gets past the eight words before it.
    ``blake2b`` is ``hashlib``'s, from ``_blake2``, which each lossy chain build imports once."""
    unpack, log = _BLOCK.unpack, math.log  # read per call, so a test can patch them
    keys = map(f"{str(seed).replace('%', '%%')}:%d:{attempt}:0".encode("ascii").__mod__, frames)
    walks = []
    for frame, count, words in zip(frames, counts, map(unpack, map(methodcaller("digest"), map(blake2b, keys)))):
        lost, position, last, block = [], -1, count - 1, 0
        while words:
            for word in words:
                gap = log(((word >> 11) + 1) * 2.0**-53) / log_keep
                # compare before int(): at a subnormal p the gap is inf
                if gap >= last - position:
                    words = ()
                    break
                position += int(gap) + 1
                lost.append(position)
            else:
                block += 1
                words = unpack(blake2b(f"{seed}:{frame}:{attempt}:{block}".encode("ascii")).digest())
        walks.append(lost)
    return walks


def _build_chains(link: LinkModel, depth: int, splits=(), memo=None) -> tuple[list, dict]:
    """Every frame's loss chain, at least ``depth`` attempts deep, and its pending frames: built from ``splits``, each
    frame's (packet count, last packet's bits), or ``memo``'s (depth, chains, pending frames) deepened.

    A chain holds (packets still lost, the last packet's bits if it is among
    them, else None) for each attempt that loses any. The pending frames map
    each frame whose chain is cut at ``depth`` to the packets its last attempt
    lost; every other chain ended at an attempt that delivered every packet,
    and is whole at any depth. The build draws one attempt at a time: attempt
    0 over every frame, then each later attempt over the frames still
    pending, only for the packets still lost.
    """
    from _blake2 import blake2b  # hashlib.blake2b itself, without hashlib and OpenSSL; here, so a lossless run loads none
    seed, log_keep = link.seed, math.log1p(-link.loss_prob)
    if memo is None:
        chains, pending, attempt = [()] * len(splits), {}, 1
        for frame, ((count, last_bits), lost) in enumerate(zip(splits, _walks(
                blake2b, seed, 0, range(len(splits)), [count for count, _ in splits], log_keep))):
            if lost:
                chains[frame] = ((len(lost), last_bits if lost[-1] == count - 1 else None),)
                pending[frame] = lost
    else:
        attempt, chains, pending = memo[0], list(memo[1]), memo[2]  # a run still reading the memo's chains keeps them
    while pending and attempt < depth:  # what the last attempt lost goes again
        walks = _walks(blake2b, seed, attempt, pending, [lost[-1] + 1 for lost in pending.values()], log_keep)
        still, pending = pending, {}
        for (frame, lost), again in zip(still.items(), walks):
            if again and (kept := [*filter(set(again).__contains__, lost)]):  # else this attempt delivers the frame
                chain = chains[frame]
                # while the chain's last bits are set, lost[-1] is the last packet
                chains[frame] = chain + ((len(kept), chain[-1][1] if kept[-1] == lost[-1] else None),)
                pending[frame] = kept
        attempt += 1
    return chains, pending


_chains_memo = None  # (weakref to the trace, sizes, (arrival key, arrivals), (chain key, depth, chains, pending))


def _forget_chains(ref) -> None:
    global _chains_memo
    if _chains_memo is not None and _chains_memo[0] is ref:
        _chains_memo = None


def _loss_chains(trace: FrameTrace, link: LinkModel, depth: int, upstream: tuple) -> tuple:
    """1000 times each frame's size, its downlink arrival (its ``t_gen`` plus ``upstream``'s five terms, in pipeline
    order) and its loss chain, at least ``depth`` attempts deep. Each is the memo's while its own key holds: the
    trace, the terms' reprs (so -0.0 is not 0.0), or (seed, p, MTU). The memo is replaced whole."""
    global _chains_memo
    memo = _chains_memo
    if memo is None or memo[0]() is not trace:
        memo = (weakref.ref(trace, _forget_chains), None, (None,), (None,))
    ref, sizes, arrival_part, chain_part = memo
    mtu = link.mtu_payload_bits
    if not link.loss_prob:  # a lossless frame's chain is empty, and finding that out needs no packet count
        chains = repeat((), len(trace))
    elif link.loss_prob >= 1.0:  # certain loss: each attempt loses every packet, as _lost_packets says, and draws none
        splits = packet_splits(trace, mtu)
        chains = [(splits[size],) * depth for size in trace.size_bits]
    else:
        if (key := (str(link.seed), link.loss_prob, mtu)) != chain_part[0]:  # the stream keys on the seed's text
            splits = list(map(packet_splits(trace, mtu).__getitem__, trace.size_bits))
            chain_part = (key, depth, *_build_chains(link, depth, splits))
        elif chain_part[1] < depth:
            chain_part = (key, depth, *_build_chains(link, depth, memo=chain_part[1:]))
        chains = chain_part[2]
    if sizes is None:
        sizes = [1000.0 * size for size in trace.size_bits]
    if (arrival_key := tuple(map(repr, upstream))) != arrival_part[0]:
        # budget_check's terms in pipeline order: sense, comm_ul (uplink serialization + RTT/2), render, encode
        t_sense, uplink_ms, half_rtt, t_render, t_encode = upstream
        arrival_part = arrival_key, [t + t_sense + uplink_ms + half_rtt + t_render + t_encode for t in trace.t_gen]
    _chains_memo = (ref, sizes, arrival_part, chain_part)
    return sizes, arrival_part[1], chains


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
    (k * 1000/refresh_hz, k >= 0) at or after it becomes ready. The refresh
    rate must be at least 1 Hz.
    """
    if len(trace) == 0:
        raise DomainError("cannot simulate an empty trace")
    # from 1 Hz up, the VSync search's tolerance of 1e-9 ticks lets a frame show at most 1e-6 ms before it is ready
    tick = 1000.0 / require("refresh rate", refresh_hz, ge=1)
    require("mtp limit", mtp_limit, gt=0, le=math.inf)

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
        columns = _loss_chains(trace, link, max_attempts, (t_sense, uplink_ms, half_rtt, t_render, t_encode))
        for t_gen, size_x1000, arrival, chain in zip(trace.t_gen, *columns):
            # comm_dl: queueing and serialization (every packet goes out once, lost or not), resends, RTT/2
            t = (link_free if link_free > arrival else arrival) + size_x1000 / downlink
            retx = 0
            if chain and max_attempts > 1:  # a chain deeper than the retries allow is walked to their end
                for n_lost, last_bits in chain if len(chain) < max_attempts else chain[: max_attempts - 1]:
                    t += n_lost * resend
                    if last_bits is not None:  # the last packet is short: its resend takes less than a full one
                        t += 1000.0 * (last_bits - mtu) / downlink
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

    displayed = list(map(is_not, e2e_ms, repeat(None)))  # a frame was displayed exactly when it has an e2e
    shown = sorted(compress(e2e_ms, displayed))
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
        frames=Columns(FrameResult, range(len(e2e_ms)), displayed, e2e_ms, vsync_wait_ms, retx_count),
        aggregates=aggregates,
        refresh_hz=refresh_hz,
        mtp_limit=mtp_limit,
        link=link,
        timing=timing,
    )
