"""Synthesize per-frame and per-packet traffic traces from the GOP model.

Generation is fully deterministic: frame sizes are the analytic per-type
sizes inflated by the redundancy fraction (an optional multiplicative jitter
hook exists for experiments but defaults off), and timestamps follow the
frame rate exactly. Traces export to CSV and JSON and feed the link
simulator.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

from .codec import FrameSizes, GopConfig
from .errors import DomainError

__all__ = [
    "FrameRecord",
    "PacketRecord",
    "FrameTrace",
    "generate_trace",
    "packetize",
    "export_trace",
    "export_packets",
    "load_trace_csv",
    "load_trace_json",
]

TRACE_CSV_COLUMNS = ("frame_index", "t_gen_ms", "frame_type", "size_bits", "gop_index")
PACKET_CSV_COLUMNS = ("frame_index", "packet_index", "size_bits", "t_ready_ms")


@dataclass(frozen=True)
class FrameRecord:
    index: int
    t_gen: float
    frame_type: str
    size_bits: int
    gop_index: int


@dataclass(frozen=True)
class PacketRecord:
    frame_index: int
    packet_index: int
    size_bits: int
    t_ready: float


@dataclass(frozen=True)
class FrameTrace:
    config: GopConfig
    sizes: FrameSizes
    duration: float
    records: tuple[FrameRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def total_bits(self) -> int:
        return sum(record.size_bits for record in self.records)


def generate_trace(
    sizes: FrameSizes,
    cfg: GopConfig,
    duration: float,
    size_jitter: float = 0.0,
    jitter_seed: int = 0,
) -> FrameTrace:
    """Emit round(duration * fps) frames following the GOP pattern.

    Each frame's payload is its type's analytic size inflated by the
    redundancy fraction and rounded to whole bits. ``size_jitter`` scales
    sizes by a uniform factor in [1-j, 1+j] from a seeded generator; the
    default of 0 keeps the trace fully analytic.
    """
    if duration <= 0:
        raise DomainError(f"duration must be positive, got {duration}")
    if not 0 <= size_jitter < 1:
        raise DomainError(f"size jitter must lie in [0, 1), got {size_jitter}")
    total = round(duration * cfg.fps)
    gop_len = cfg.frames_per_gop
    rng = random.Random(jitter_seed) if size_jitter else None
    records = []
    for index in range(total):
        frame_type = cfg.frame_type(index % gop_len)
        bits = sizes.bits_for(frame_type) * (1.0 + cfg.redundancy_fraction)
        if rng is not None:
            bits *= 1.0 + rng.uniform(-size_jitter, size_jitter)
        records.append(
            FrameRecord(
                index=index,
                t_gen=index * 1000.0 / cfg.fps,
                frame_type=frame_type,
                size_bits=round(bits),
                gop_index=index // gop_len,
            )
        )
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
    if mtu_payload_bits <= 0:
        raise DomainError(f"mtu payload must be positive, got {mtu_payload_bits}")
    packets = []
    for record in trace:
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


def _open_destination(destination: str | Path | TextIO):
    if hasattr(destination, "write"):
        return destination, False
    return open(destination, "w", encoding="utf-8", newline=""), True


def export_trace(trace: FrameTrace, fmt: str, destination: str | Path | TextIO) -> None:
    """Write a trace as CSV (fixed column set) or JSON (lossless round-trip)."""
    handle, owned = _open_destination(destination)
    try:
        if fmt == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(TRACE_CSV_COLUMNS)
            for r in trace.records:
                writer.writerow([r.index, f"{r.t_gen:.3f}", r.frame_type, r.size_bits, r.gop_index])
        elif fmt == "json":
            json.dump(trace_to_dict(trace), handle, indent=2, sort_keys=True)
            handle.write("\n")
        else:
            raise DomainError(f"format must be csv or json, got {fmt!r}")
    except OSError as exc:
        raise DomainError(f"cannot write trace to {destination}: {exc}") from exc
    finally:
        if owned:
            handle.close()


def export_packets(packets: list[PacketRecord], fmt: str, destination: str | Path | TextIO) -> None:
    handle, owned = _open_destination(destination)
    try:
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
    except OSError as exc:
        raise DomainError(f"cannot write packets to {destination}: {exc}") from exc
    finally:
        if owned:
            handle.close()


def trace_to_dict(trace: FrameTrace) -> dict:
    return {
        "config": {
            "gop_time_s": trace.config.gop_time,
            "fps": trace.config.fps,
            "redundancy_fraction": trace.config.redundancy_fraction,
            "pattern": trace.config.pattern,
        },
        "sizes": {
            "i_bits": trace.sizes.i_bits,
            "p_bits": trace.sizes.p_bits,
            "b_bits": trace.sizes.b_bits,
        },
        "duration_s": trace.duration,
        "records": [
            {
                "frame_index": r.index,
                "t_gen_ms": r.t_gen,
                "frame_type": r.frame_type,
                "size_bits": r.size_bits,
                "gop_index": r.gop_index,
            }
            for r in trace.records
        ],
    }


def trace_from_dict(payload: dict) -> FrameTrace:
    cfg = GopConfig(
        gop_time=payload["config"]["gop_time_s"],
        fps=payload["config"]["fps"],
        redundancy_fraction=payload["config"]["redundancy_fraction"],
        pattern=payload["config"].get("pattern"),
    )
    sizes = FrameSizes(
        i_bits=payload["sizes"]["i_bits"],
        p_bits=payload["sizes"]["p_bits"],
        b_bits=payload["sizes"].get("b_bits"),
    )
    records = tuple(
        FrameRecord(
            index=r["frame_index"],
            t_gen=r["t_gen_ms"],
            frame_type=r["frame_type"],
            size_bits=r["size_bits"],
            gop_index=r["gop_index"],
        )
        for r in payload["records"]
    )
    return FrameTrace(config=cfg, sizes=sizes, duration=payload["duration_s"], records=records)


def load_trace_json(source: str | Path | TextIO) -> FrameTrace:
    if hasattr(source, "read"):
        return trace_from_dict(json.load(source))
    with open(source, "r", encoding="utf-8") as handle:
        return trace_from_dict(json.load(handle))


def load_trace_csv(source: str | Path | TextIO) -> list[FrameRecord]:
    """Frame records from a trace CSV; timestamps carry the file's 3-decimal precision."""
    if hasattr(source, "read"):
        handle, owned = source, False
    else:
        handle, owned = open(source, "r", encoding="utf-8", newline=""), True
    try:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != TRACE_CSV_COLUMNS:
            raise DomainError(f"trace csv must have columns {','.join(TRACE_CSV_COLUMNS)}")
        return [
            FrameRecord(
                index=int(row["frame_index"]),
                t_gen=float(row["t_gen_ms"]),
                frame_type=row["frame_type"],
                size_bits=int(row["size_bits"]),
                gop_index=int(row["gop_index"]),
            )
            for row in reader
        ]
    finally:
        if owned:
            handle.close()


def trace_csv_text(trace: FrameTrace) -> str:
    buffer = io.StringIO()
    export_trace(trace, "csv", buffer)
    return buffer.getvalue()
