"""Motion-to-photon latency decomposition and budget checking.

The end-to-end delay splits into sensing, rendering, streaming (encode + transmit + decode),
and display (panel response plus the wait for the next VSync tick). ``budget_check`` is the one
closed-form sum of these terms; ``netsim.simulate`` adds the same terms per frame, with the link's
times as ``comm_ul`` and ``comm_dl`` and the actual VSync wait. Stage-dependent MTP ceilings come
from the profiles registry (``ProfileRegistry.stage_value("mtp_ms", ...)``).
"""
from __future__ import annotations

import math

from . import _EXPORTS
from .errors import DomainError, require
from .records import Field, json_field, record

__all__ = _EXPORTS["latency"].split()


@record
class PipelineTiming:
    """Fixed per-frame processing delays, milliseconds.

    ``fixed_display`` is the screen-response (pixel switching) part of the
    display delay; the VSync wait is modeled separately because it depends on
    frame arrival time.
    """

    t_sense: float = json_field("a number", 0.0)
    t_render: float = json_field("a number", 0.0)
    t_encode: float = json_field("a number", 0.0)
    t_decode: float = json_field("a number", 0.0)
    fixed_display: float = json_field("a number", 0.0)

    def __post_init__(self) -> None:
        for name in self.__match_args__:
            require(name, getattr(self, name), ge=0)


@record
class LatencyBudget:
    """An MTP ceiling and the delays competing for it.

    When ``refresh_hz`` is given, a VSync wait joins the component sum;
    ``vsync_mode`` selects the average wait (half a refresh interval, the
    default), the worst case, or none.
    """

    mtp_limit: float
    components: PipelineTiming = Field(default_factory=PipelineTiming)
    comm_ul: float = 0.0
    comm_dl: float = 0.0
    refresh_hz: float | None = None
    vsync_mode: str = "avg"

    def __post_init__(self) -> None:
        require("mtp limit", self.mtp_limit, gt=0, le=math.inf)
        require("uplink communication delay", self.comm_ul, ge=0)
        require("downlink communication delay", self.comm_dl, ge=0)
        if self.refresh_hz is not None:
            require("refresh rate", self.refresh_hz, gt=0)
        if self.vsync_mode not in ("avg", "max", "none"):
            raise DomainError(f"vsync mode must be avg, max, or none, got {self.vsync_mode!r}")


@record
class RefreshDelay:
    """The worst-case and average wait for the next VSync tick, milliseconds."""

    max_ms: float
    avg_ms: float


@record
class BudgetReport:
    """What an MTP budget leaves: the margin (negative when violated) and each nonzero delay by name."""

    remaining_ms: float
    violated: bool
    breakdown: tuple[tuple[str, float], ...]


def refresh_delay(refresh_hz: float) -> RefreshDelay:
    """Worst-case and average wait for the next VSync tick.

    A frame missing a tick waits up to one full refresh interval; arrivals
    uniform over the interval wait half of it on average.
    """
    max_ms = require("refresh interval", 1000.0 / require("refresh rate", refresh_hz, gt=0), gt=0)
    return RefreshDelay(max_ms=max_ms, avg_ms=max_ms / 2.0)


def stream_latency(t_encode: float, frame_bits: float, throughput: float, t_decode: float) -> float:
    """Encode + transmit + decode time for one frame, milliseconds.

    Transmission is the frame size over the available bit rate, ``throughput`` bits per second.
    """
    rate_bps = require("throughput", throughput, gt=0, le=math.inf)
    require("encode time", t_encode, ge=0)
    require("decode time", t_decode, ge=0)
    require("frame size", frame_bits, ge=0)
    return require("stream latency", t_encode + 1000.0 * frame_bits / rate_bps + t_decode, ge=0)


def budget_check(budget: LatencyBudget) -> BudgetReport:
    """Subtract every component from the MTP ceiling and report what is left."""
    timing = budget.components
    breakdown = [
        ("sense", timing.t_sense),
        ("render", timing.t_render),
        ("encode", timing.t_encode),
        ("decode", timing.t_decode),
        ("display", timing.fixed_display),
        ("comm_ul", budget.comm_ul),
        ("comm_dl", budget.comm_dl),
    ]
    if budget.refresh_hz is not None and budget.vsync_mode != "none":
        delay = refresh_delay(budget.refresh_hz)
        wait = delay.avg_ms if budget.vsync_mode == "avg" else delay.max_ms
        breakdown.append((f"vsync_{budget.vsync_mode}", wait))
    breakdown = [(name, ms) for name, ms in breakdown if ms > 0]
    remaining = budget.mtp_limit - require("total delay", sum(ms for _, ms in breakdown), ge=0)
    return BudgetReport(remaining_ms=remaining, violated=remaining < 0, breakdown=tuple(breakdown))

