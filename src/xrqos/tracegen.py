"""Synthesize per-frame and per-packet traffic traces from the GOP model.

Generation is fully deterministic: frame sizes are the analytic per-type
sizes inflated by the redundancy fraction, and timestamps follow the frame
rate exactly. A trace keeps its frames as columns (generation time, type,
size and GOP number; a frame's index is its position). ``generate_trace``
builds only the columns, and a trace given frame records keeps only their
columns; ``FrameTrace.records`` acts as the tuple of ``FrameRecord``s and
builds them on first read, while the link simulator reads the ``t_gen`` and
``size_bits`` columns and never builds a record. ``packetize`` reads the
same two columns and returns the packet table, a column per ``PacketRecord``
field, which acts as the tuple of ``PacketRecord``s and builds none until
one is read. Traces and packets export to CSV and JSON, built by ``records``
from their columns as their record fields declare, in ``report``'s layouts
(a trace's frames and a table's packets by ``records``' row writer, one row
pattern per layout); a trace's JSON loads back, its frames read column by
column into the trace's columns, checked a whole column at a time, and feeds
the link simulator.
"""
from __future__ import annotations

import json
import math
import sys
from collections.abc import Sequence
from itertools import chain, repeat
from pathlib import Path
from typing import TextIO

from . import _EXPORTS, report
from .codec import FrameSizes, GopConfig
from .errors import DomainError, require
from .records import (Columns, csv_table, json_array, json_field, json_parts, json_rows, read_record, record,
                      unreadable)

__all__ = _EXPORTS["tracegen"].split()

# Run ceilings (sizes by tracemalloc, CPython 3.11): a frame takes ~60 B in columns and ~150 B more as a built record;
# a packet takes ~37 B in packetize's table (four list slots; up to ~66 B at a tiny MTU) and ~112 B more as a built
# record. So these cap a trace near 210 MB, and a packet table near 0.4-0.7 GB, or 1.5-1.8 GB with every record built.
MAX_FRAMES = 10**6
MAX_PACKETS = 10**7


@record
class FrameRecord:
    """One frame of a trace: its index, generation time (ms), type (I, P or B), size and GOP number."""

    index: int = json_field("an integer", key="frame_index")
    t_gen: float = json_field("a number", key="t_gen_ms", cell=".3f")
    frame_type: str = json_field("a string")
    size_bits: int = json_field("an integer")
    gop_index: int = json_field("an integer")


@record
class PacketRecord:
    """One packet of a frame, ready to send when its frame is generated (ms)."""

    frame_index: int = json_field("an integer")
    packet_index: int = json_field("an integer")
    size_bits: int = json_field("an integer")
    t_ready: float = json_field("a number", key="t_ready_ms", cell=".3f")


@record
class FrameTrace:
    """A positive, finite duration and at most ``MAX_FRAMES`` frames, whose indices run 0, 1, 2, ..., whose
    generation times are not NaN and never decrease, from 0 ms on and ending before the duration, whose types are
    I, P or B and whose sizes are not negative.

    ``records`` may be given as any sequence of frame records, or as their ``Columns`` table, which the JSON reader
    fills column by column; the trace keeps only their columns. It checks each column as a whole, and goes through
    the frames one by one only to word the first fault.
    """

    config: GopConfig = json_field("an object", of=GopConfig)
    sizes: FrameSizes = json_field("an object", of=FrameSizes)
    duration: float = json_field("a number", key="duration_s")
    records: tuple[FrameRecord, ...] = json_field("an array", of=FrameRecord)

    def __post_init__(self) -> None:
        require("trace.duration_s", self.duration, gt=0)
        require("trace frame count", len(self.records), ge=0, le=MAX_FRAMES)
        records = Columns.of(FrameRecord, self.records)
        object.__setattr__(self, "records", records)
        indices, t_gen, kinds, sizes = records.columns[:4]
        largest, n = sys.float_info.max, len(indices)
        try:  # each column as a whole; a NaN fails every comparison, so it is found as a sum unequal to itself
            whole = not n or (
                (indices == range(n) or indices == tuple(range(n))) and t_gen[0] >= 0 and sorted(t_gen) == list(t_gen)
                and set(kinds) <= {"I", "P", "B"} and min(sizes) >= 0 and max(sizes) <= largest
                and (total := sum(t_gen)) == total and (total := sum(sizes)) == total
            )
        except (TypeError, OverflowError):  # e.g. an unhashable frame type, or a float summed with an int past floats
            whole = False
        if not whole:  # the frame loop, only to word the first fault
            previous = 0.0
            for i, (index, t, kind, size) in enumerate(zip(indices, t_gen, kinds, sizes)):
                if index != i:
                    raise DomainError(
                        f"trace.records[{i}].frame_index must be {i} (indices run from 0 without gaps), got {index}"
                    )
                if t != t:
                    require(f"trace.records[{i}].t_gen_ms", t)
                if t < previous:
                    raise DomainError(f"trace.records[{i}].t_gen_ms {t} precedes the previous frame's {previous}" if i
                                      else f"trace.records[0].t_gen_ms cannot be negative, got {t}")
                if kind not in ("I", "P", "B"):
                    raise DomainError(f"trace.records[{i}].frame_type must be I, P or B, got {kind!r}")
                if not 0 <= size <= largest:
                    require(f"trace.records[{i}].size_bits", size, ge=0)
                previous = t
        end = self.duration * 1000.0
        if t_gen and not t_gen[-1] < end:  # a frame at or past the end would make every rate per second wrong
            raise DomainError(f"trace.records[{len(t_gen) - 1}].t_gen_ms {t_gen[-1]} must precede the trace's end, "
                              f"duration_s * 1000 = {end}")

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def t_gen(self) -> tuple[float, ...]:
        """Each frame's generation time (ms), in frame order: the records' ``t_gen`` column."""
        return self.records.columns[1]

    @property
    def size_bits(self) -> tuple[int, ...]:
        """Each frame's size, in frame order: the records' ``size_bits`` column."""
        return self.records.columns[3]

    @property
    def total_bits(self) -> int:
        return sum(self.size_bits)


def generate_trace(sizes: FrameSizes, cfg: GopConfig, duration: float) -> FrameTrace:
    """Emit round(duration * fps) frames following the GOP pattern.

    Each frame's payload is its type's analytic size inflated by the
    redundancy fraction and rounded to whole bits.
    """
    require("duration", duration, gt=0)
    total = round(require("frame count (duration * fps)", duration * cfg.fps, ge=0, le=MAX_FRAMES))
    gop_len, fps, inflate = cfg.frames_per_gop, cfg.fps, 1.0 + cfg.redundancy_fraction
    # the type and size of each GOP position the trace reaches: a B-frame without a size fails only if one is made
    kinds = tuple(map(cfg.frame_type, range(min(gop_len, total))))
    bits = tuple(round(sizes.bits_for(kind) * inflate) for kind in kinds)
    gops, rest = divmod(total, gop_len)
    records = Columns(
        FrameRecord,
        range(total),
        tuple(index * 1000.0 / fps for index in range(total)),
        kinds * gops + kinds[:rest],
        bits * gops + bits[:rest],
        tuple(index // gop_len for index in range(total)),
    )
    return FrameTrace(config=cfg, sizes=sizes, duration=duration, records=records)


def packet_split(size_bits: int, mtu_payload_bits: int) -> tuple[int, int]:
    """(packet count, bits of the last packet) of one frame.

    A frame is full-MTU packets plus one remainder packet; an empty frame
    still takes one (empty) packet.
    """
    count = max(1, math.ceil(size_bits / mtu_payload_bits))
    return count, size_bits - mtu_payload_bits * (count - 1)


def packet_splits(trace: FrameTrace, mtu_payload_bits: int) -> dict:
    """``packet_split`` of each distinct frame size of ``trace`` (a trace holds two or three), keyed by size.

    ``packetize`` and the link simulator both split a trace here. A trace may
    hold at most ``MAX_PACKETS`` packets at the MTU; one that holds more is
    rejected here, before any packet is made or any loss is drawn.
    """
    require("mtu payload", mtu_payload_bits, gt=0)
    sizes = trace.size_bits
    splits = {size: packet_split(size, mtu_payload_bits) for size in set(sizes)}
    if sum(sizes) > (MAX_PACKETS - len(sizes)) * mtu_payload_bits:  # a frame takes at most size / mtu + 1 packets
        require("packet count", sum(splits[size][0] for size in sizes), ge=0, le=MAX_PACKETS)
    return splits


def packetize(trace: FrameTrace, mtu_payload_bits: int) -> Columns:
    """The table of ``PacketRecord``s that splits every frame into full-MTU packets plus one remainder packet.

    Bit conservation holds per frame: the packet sizes sum to the frame size.
    The table is built from the trace's size and generation-time columns, and
    builds no record until one is read.
    """
    splits = packet_splits(trace, mtu_payload_bits)
    frame_index, packet_index, size_bits, t_ready = [], [], [], []
    for index, (t_gen, size) in enumerate(zip(trace.t_gen, trace.size_bits)):
        count, last_bits = splits[size]
        frame_index += repeat(index, count)
        packet_index += range(count)
        size_bits += repeat(mtu_payload_bits, count - 1)
        size_bits.append(last_bits)
        t_ready += repeat(t_gen, count)
    return Columns(PacketRecord, frame_index, packet_index, size_bits, t_ready)


# -- export / import ---------------------------------------------------------


def export_trace(trace: FrameTrace, fmt: str, destination: str | Path | TextIO) -> None:
    """Write a trace as CSV (one row per frame) or JSON (lossless round-trip)."""
    _export(fmt, destination, "trace", FrameRecord, trace.records, lambda: report.json_pieces(*json_parts(trace)))


def export_packets(packets: Sequence[PacketRecord], fmt: str, destination: str | Path | TextIO) -> None:
    """Write packets, ``packetize``'s table or any sequence of ``PacketRecord``s, as CSV (one row per packet) or JSON
    (an array of packet objects), each from the table's columns. JSON is written row by row by ``json_array``, or by
    the encoder from the list of packet objects when a value is outside its column's kind."""

    def json_pieces():
        rows = json_array(PacketRecord, packets, 0)
        return chain(rows, "\n") if rows is not None else report.json_pieces(list(json_rows(PacketRecord, packets)))

    _export(fmt, destination, "packets", PacketRecord, packets, json_pieces)


def _export(fmt: str, destination, what: str, cls: type, records, json_pieces) -> None:
    """``records`` of ``cls`` as CSV, or JSON in the pieces ``json_pieces()`` yields; a bad ``fmt`` opens nothing."""
    if fmt not in ("csv", "json"):
        raise DomainError(f"format must be csv or json, got {fmt!r}")
    with report.destination(destination, what) as handle:
        if fmt == "csv":
            report.write_rows(handle, *csv_table(cls, records))
        else:
            handle.writelines(json_pieces())


def trace_from_dict(payload: dict) -> FrameTrace:
    """The trace a JSON document written by ``export_trace`` describes; a malformed document raises DomainError."""
    if not isinstance(payload, dict):
        raise DomainError(f"a trace must be a JSON object, got {type(payload).__name__}")
    return read_record(FrameTrace, payload, "trace")


def load_trace_json(source: str | Path | TextIO) -> FrameTrace:
    """A trace written by ``export_trace(..., "json", ...)``; unreadable or malformed input raises DomainError."""
    try:
        if hasattr(source, "read"):
            payload = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise DomainError(f"cannot read trace {source}: {unreadable(exc)}") from exc
    return trace_from_dict(payload)
