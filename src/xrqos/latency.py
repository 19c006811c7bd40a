"""Motion-to-photon latency decomposition and budget checking.

The end-to-end delay splits into sensing, rendering, streaming (encode + transmit + decode),
and display (panel response plus the wait for the next VSync tick). ``budget_check`` is the one
closed-form sum of these terms; ``netsim.simulate`` adds the same terms per frame, with the link's
times as ``comm_ul`` and ``comm_dl`` and the actual VSync wait. Stage-dependent MTP ceilings come
from the profiles registry.
"""
from __future__ import annotations

import math
from dataclasses import field, fields

from . import _EXPORTS
from .capacity import BitRate
from .errors import DomainError, _json, record, require

__all__ = _EXPORTS["latency"].split()


@record
class PipelineTiming:
    """Fixed per-frame processing delays, milliseconds.

    ``fixed_display`` is the screen-response (pixel switching) part of the
    display delay; the VSync wait is modeled separately because it depends on
    frame arrival time.
    """

    t_sense: float = _json("a number", 0.0)
    t_render: float = _json("a number", 0.0)
    t_encode: float = _json("a number", 0.0)
    t_decode: float = _json("a number", 0.0)
    fixed_display: float = _json("a number", 0.0)

    def __post_init__(self) -> None:
        for f in fields(self):
            require(f.name, getattr(self, f.name), ge=0)


@record
class StageKey:
    """Addresses one (taxonomy, stage, interaction) cell of the stage registry."""

    taxonomy: str
    stage: str
    interaction: str | None = None


@record
class LatencyBudget:
    """An MTP ceiling and the delays competing for it.

    When ``refresh_hz`` is given, a VSync wait joins the component sum;
    ``vsync_mode`` selects the average wait (half a refresh interval, the
    default), the worst case, or none.
    """

    mtp_limit: float
    components: PipelineTiming = field(default_factory=PipelineTiming)
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


def stream_latency(t_encode: float, frame_bits: float, throughput: BitRate | float, t_decode: float) -> float:
    """Encode + transmit + decode time for one frame, milliseconds.

    Transmission is the frame size over the available bit rate.
    """
    rate_bps = throughput.bps if isinstance(throughput, BitRate) else float(throughput)
    require("throughput", rate_bps, gt=0, le=math.inf)
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


def mtp_limit_for(key: StageKey, registry=None) -> float:
    """The registered MTP ceiling in milliseconds for a stage key."""
    if registry is None:
        from .profiles import builtin_registry

        registry = builtin_registry()
    return registry.stage_value("mtp_ms", key.taxonomy, key.stage, key.interaction)
