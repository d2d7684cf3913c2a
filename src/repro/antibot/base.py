"""Detector interface shared by the DataDome and BotD models."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.geo.geolite import GeoDatabase
from repro.network.request import WebRequest


@dataclass(frozen=True)
class Decision:
    """Outcome of one anti-bot evaluation of one request.

    Attributes
    ----------
    detector:
        Name of the detector that produced the decision.
    is_bot:
        ``True`` when the detector classified the request as bot traffic.
    score:
        The detector's internal suspicion score (0 = certainly human).
    signals:
        Names of the signals that fired, in firing order.  Useful for
        debugging the simulators; commercial services do not expose this.
    """

    detector: str
    is_bot: bool
    score: float
    signals: Tuple[str, ...] = field(default_factory=tuple)


class BotDetector(abc.ABC):
    """Interface of an anti-bot service evaluated on single requests.

    Both simulators are deterministic functions of the request content and
    the IP-intelligence lookup, mirroring how the paper treats the real
    services as black boxes that return a per-request decision.
    """

    #: Human-readable detector name, set by subclasses.
    name: str = "detector"

    def __init__(self, geo: Optional[GeoDatabase] = None):
        self._geo = geo

    @abc.abstractmethod
    def evaluate(self, request: WebRequest) -> Decision:
        """Evaluate *request* and return a :class:`Decision`."""
