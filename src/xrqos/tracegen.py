"""Synthesize per-frame and per-packet traffic traces from the GOP model.

Generation is fully deterministic: frame sizes are the analytic per-type
sizes inflated by the redundancy fraction, and timestamps follow the frame
rate exactly. Traces export to CSV and JSON; the JSON form loads back,
checked, and feeds the link simulator.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path
from typing import Iterable, TextIO

from .codec import FrameSizes, GopConfig
from .errors import DomainError, _json, _plan, _read, _write, record, require
from .report import _destination

__all__ = [
    "FrameRecord",
    "PacketRecord",
    "FrameTrace",
    "generate_trace",
    "packetize",
    "export_trace",
    "export_packets",
    "load_trace_json",
]

PACKET_CSV_COLUMNS = ("frame_index", "packet_index", "size_bits", "t_ready_ms")

# Run ceilings: a frame record takes ~220 B and a packet record ~115 B, so
# these cap a trace near 220 MB and a packet list near 1.2 GB.
MAX_FRAMES = 10**6
MAX_PACKETS = 10**7


@record
class FrameRecord:
    """One frame of a trace: its index, generation time (ms), type (I, P or B), size and GOP number."""

    index: int = _json("an integer", key="frame_index")
    t_gen: float = _json("a number", key="t_gen_ms")
    frame_type: str = _json("a string")
    size_bits: int = _json("an integer")
    gop_index: int = _json("an integer")


@record
class PacketRecord:
    """One packet of a frame, ready to send when its frame is generated (ms)."""

    frame_index: int
    packet_index: int
    size_bits: int
    t_ready: float


@record
class FrameTrace:
    """A positive, finite duration and at most ``MAX_FRAMES`` frames, whose indices run 0, 1, 2, ..., whose
    generation times never decrease, whose types are I, P or B and whose sizes are not negative."""

    config: GopConfig = _json("an object", of=GopConfig)
    sizes: FrameSizes = _json("an object", of=FrameSizes)
    duration: float = _json("a number", key="duration_s")
    records: tuple[FrameRecord, ...] = _json("an array", of=FrameRecord)

    def __post_init__(self) -> None:
        require("trace.duration_s", self.duration, gt=0)
        require("trace frame count", len(self.records), ge=0, le=MAX_FRAMES)
        previous, largest = -math.inf, sys.float_info.max
        for i, record in enumerate(self.records):
            if record.index != i:
                raise DomainError(
                    f"trace.records[{i}].frame_index must be {i} (indices run from 0 without gaps), got {record.index}"
                )
            if record.t_gen < previous:
                raise DomainError(
                    f"trace.records[{i}].t_gen_ms {record.t_gen} precedes the previous frame's {previous}"
                )
            if record.frame_type not in ("I", "P", "B"):
                raise DomainError(f"trace.records[{i}].frame_type must be I, P or B, got {record.frame_type!r}")
            if not 0 <= record.size_bits <= largest:
                require(f"trace.records[{i}].size_bits", record.size_bits, ge=0)
            previous = record.t_gen

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def total_bits(self) -> int:
        return sum(record.size_bits for record in self.records)


def generate_trace(sizes: FrameSizes, cfg: GopConfig, duration: float) -> FrameTrace:
    """Emit round(duration * fps) frames following the GOP pattern.

    Each frame's payload is its type's analytic size inflated by the
    redundancy fraction and rounded to whole bits.
    """
    require("duration", duration, gt=0)
    total = round(require("frame count (duration * fps)", duration * cfg.fps, ge=0, le=MAX_FRAMES))
    gop_len, fps, inflate = cfg.frames_per_gop, cfg.fps, 1.0 + cfg.redundancy_fraction
    # (type, size) of each GOP position the trace reaches: a B-frame without a size fails only if one is made
    kinds = map(cfg.frame_type, range(min(gop_len, total)))
    positions = [(kind, round(sizes.bits_for(kind) * inflate)) for kind in kinds]
    records = [FrameRecord(index, index * 1000.0 / fps, *positions[index % gop_len], index // gop_len)
               for index in range(total)]
    return FrameTrace(config=cfg, sizes=sizes, duration=duration, records=tuple(records))


def packet_split(size_bits: int, mtu_payload_bits: int) -> tuple[int, int]:
    """(packet count, bits of the last packet) of one frame.

    A frame is full-MTU packets plus one remainder packet; an empty frame
    still takes one (empty) packet. ``packetize`` and the link simulator
    both split frames by this rule.
    """
    count = max(1, math.ceil(size_bits / mtu_payload_bits))
    return count, size_bits - mtu_payload_bits * (count - 1)


def packetize(trace: FrameTrace | Iterable[FrameRecord], mtu_payload_bits: int) -> list[PacketRecord]:
    """Split every frame into full-MTU packets plus one remainder packet.

    Bit conservation holds per frame: the packet sizes sum to the frame size.
    """
    require("mtu payload", mtu_payload_bits, gt=0)
    records = tuple(trace)
    total = sum(packet_split(record.size_bits, mtu_payload_bits)[0] for record in records)
    require("packet count", total, ge=0, le=MAX_PACKETS)
    packets = []
    for record in records:
        count, last_bits = packet_split(record.size_bits, mtu_payload_bits)
        for packet_index in range(count):
            size = mtu_payload_bits if packet_index < count - 1 else last_bits
            packets.append(
                PacketRecord(
                    frame_index=record.index,
                    packet_index=packet_index,
                    size_bits=size,
                    t_ready=record.t_gen,
                )
            )
    return packets


# -- export / import ---------------------------------------------------------


def export_trace(trace: FrameTrace, fmt: str, destination: str | Path | TextIO) -> None:
    """Write a trace as CSV (fixed column set) or JSON (lossless round-trip)."""
    with _destination(destination, "trace") as handle:
        if fmt == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(key for _, key, *_ in _plan(FrameRecord)[0])
            for r in trace.records:
                writer.writerow([r.index, f"{r.t_gen:.3f}", r.frame_type, r.size_bits, r.gop_index])
        elif fmt == "json":
            json.dump(_write(trace), handle, indent=2, sort_keys=True)
            handle.write("\n")
        else:
            raise DomainError(f"format must be csv or json, got {fmt!r}")


def export_packets(packets: list[PacketRecord], fmt: str, destination: str | Path | TextIO) -> None:
    with _destination(destination, "packets") as handle:
        if fmt == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(PACKET_CSV_COLUMNS)
            for p in packets:
                writer.writerow([p.frame_index, p.packet_index, p.size_bits, f"{p.t_ready:.3f}"])
        elif fmt == "json":
            payload = [
                {
                    "frame_index": p.frame_index,
                    "packet_index": p.packet_index,
                    "size_bits": p.size_bits,
                    "t_ready_ms": p.t_ready,
                }
                for p in packets
            ]
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        else:
            raise DomainError(f"format must be csv or json, got {fmt!r}")


def trace_from_dict(payload: dict) -> FrameTrace:
    """The trace a JSON document written by ``export_trace`` describes; a malformed document raises DomainError."""
    if not isinstance(payload, dict):
        raise DomainError(f"a trace must be a JSON object, got {type(payload).__name__}")
    return _read(FrameTrace, payload, "trace")


def load_trace_json(source: str | Path | TextIO) -> FrameTrace:
    """A trace written by ``export_trace(..., "json", ...)``; unreadable or malformed input raises DomainError."""
    try:
        if hasattr(source, "read"):
            payload = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError and UnicodeDecodeError
        raise DomainError(f"cannot read trace {source}: {exc}") from exc
    return trace_from_dict(payload)
