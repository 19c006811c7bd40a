"""Packet-loss bounds and delivery-success conversion.

For prefetchable (weak-interaction) streams carried over TCP, inverting the
Mathis throughput relation ``rate <= MSS / (RTT * sqrt(loss))`` bounds the
loss rate the connection may exhibit while still sustaining the required
rate. Pose-driven streams ride UDP instead and carry fixed loss-rate
requirements looked up from the stage registry.
"""
from __future__ import annotations

import math

from . import DEFAULT_MSS_BITS, _EXPORTS
from .capacity import BitRate
from .errors import record, require

__all__ = _EXPORTS["reliability"].split()


@record
class LossModel:
    """Transport assumptions for the loss bound."""

    mss_bits: int = DEFAULT_MSS_BITS

    def __post_init__(self) -> None:
        require("mss", self.mss_bits, gt=0)


def max_loss_rate(model: LossModel, throughput: BitRate | float, rtt: float) -> float:
    """Largest tolerable loss probability: (MSS / (throughput * RTT))^2.

    ``rtt`` is in seconds. The square is clamped to 1 since tiny
    bandwidth-delay products would otherwise push it past certainty.
    """
    rate_bps = throughput.bps if isinstance(throughput, BitRate) else float(throughput)
    require("throughput", rate_bps, gt=0, le=math.inf)
    require("rtt", rtt, gt=0)
    ratio = model.mss_bits / require("bandwidth-delay product", rate_bps * rtt, gt=0, le=math.inf)
    return min(ratio * ratio, 1.0)


def delivery_success(loss_rate: float) -> float:
    """Loss probability to delivery success percentage."""
    require("loss rate", loss_rate, ge=0, le=1)
    return (1.0 - loss_rate) * 100.0
