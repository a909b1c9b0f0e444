"""Closed-form per-round setup power estimates for both protocols.

These are proportionality estimates scaled by the same amplifier constant
the simulator uses, so estimate and measurement share units. They are
coarse by construction: comparisons should look at signs and orders of
magnitude, not exact values.
"""

from __future__ import annotations

from .core import NetworkStats
from .protocols import ProtocolParams


def estimate_least(n: int, params: ProtocolParams, stats: NetworkStats,
                   epsilon: float) -> float:
    """Per-round setup power of the tree protocol: host announcements at the
    far-node scale plus three heir messages per first-level node at the
    mean-pair scale. An upper-bound style estimate; measurement may fall below."""
    return epsilon * n * (
        params.p_hn * stats.d_bar_max**2 + 3.0 * params.p_ch * stats.d_bar**2
    )


def estimate_leach(n: int, params: ProtocolParams, stats: NetworkStats,
                   epsilon: float) -> float:
    """Per-round setup power of the baseline: head announcements at the
    far-node scale plus every other node joining at the mean-pair scale."""
    return epsilon * n * (
        params.p_ch * stats.d_bar_max**2 + (1.0 - params.p_ch) * stats.d_bar**2
    )

