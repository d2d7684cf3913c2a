"""Every ``REPRO_*`` environment variable, parsed and checked in one place.

:data:`KNOBS` is the table of the variables the package reads; this is
the only module that reads ``os.environ``.  An unset or empty variable
takes its default, any other value goes through the knob's parser, and a
bad one raises ``ValueError("NAME must ..., got '...'")``.  Numbers must
be finite.  Readers ask their knob when they need the value, so a changed
environment is seen; each ``repro`` command resolves the whole table
before any corpus build, so a bad setting is a usage error.
"""

from __future__ import annotations

import math
import os
from functools import partial
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional

_OFF = ("", "0", "false", "off", "no")
_ON = ("1", "true", "on", "yes")


def _number(kind: type, requirement: str, accept: Callable, raw: str):
    """*raw* as a finite ``int`` or ``float`` that *accept* admits."""

    try:
        value = kind(raw)
    except ValueError:
        raise ValueError("must be an integer" if kind is int else "must be a number") from None
    if not ((kind is int or math.isfinite(value)) and accept(value)):
        raise ValueError(f"must be {requirement}")
    return value


def _switch(raw: str) -> bool:
    word = raw.strip().lower()
    if word not in _ON + _OFF:
        raise ValueError("must be one of 1/true/on/yes or 0/false/off/no")
    return word in _ON


def _directory(raw: str) -> Path:
    path = Path(raw).expanduser()
    if path.exists() and not path.is_dir():
        raise ValueError("must name a directory")
    return path


def _fault_plan(raw: str):
    from repro.faults import FaultPlan

    try:
        return FaultPlan.parse(raw)
    except ValueError as exc:
        raise ValueError(f"must be a fault plan ({exc})") from None


class Knob(NamedTuple):
    """One ``REPRO_*`` variable: its name, parser, default and a line of docs."""

    name: str
    parse: Callable[[str], object]
    default: object
    doc: str

    def raw(self) -> str:
        return os.environ.get(self.name, "")

    def read(self, raw: str, label: str = "") -> object:
        """*raw* parsed (the default when empty); errors name *label* or the variable."""

        if not raw:
            return self.default
        try:
            return self.parse(raw)
        except ValueError as exc:
            raise ValueError(f"{label or self.name} {exc}, got {raw!r}") from None

    def value(self, flag: Optional[str] = None, option: str = "") -> object:
        """The command-line *flag* when given (errors name *option*), else the variable."""

        return self.read(flag, option) if flag else self.read(self.raw())


SCALE = Knob("REPRO_SCALE", partial(_number, float, "positive and finite", lambda v: v > 0),
             0.05, "corpus size as a fraction of the paper's volumes")
WORKERS = Knob("REPRO_WORKERS", partial(_number, int, ">= 1", lambda v: v >= 1), 1,
               "process-pool shard worker count for corpus generation")
CORPUS_CACHE = Knob("REPRO_CORPUS_CACHE", _directory, None, "corpus cache directory")
SHARD_RETRIES = Knob("REPRO_SHARD_RETRIES", partial(_number, int, ">= 0", lambda v: v >= 0), 2,
                     "retry rounds for failed shard attempts before the serial fallback")
SHARD_TIMEOUT = Knob("REPRO_SHARD_TIMEOUT",
                     partial(_number, float, "finite and >= 0", lambda v: v >= 0),
                     None, "per-attempt shard timeout in seconds (0: none)")
FAULTS = Knob("REPRO_FAULTS", _fault_plan, None, "fault plan, point:mode:probability[,...]")
FAULTS_SEED = Knob("REPRO_FAULTS_SEED", partial(_number, int, "an integer", lambda v: True), 0,
                   "seed of the fault plan's decisions")
TELEMETRY = Knob("REPRO_TELEMETRY", _switch, False, "switch on spans and gated metrics")
DEBUG = Knob("REPRO_DEBUG", _switch, False, "re-raise command errors with a traceback")

#: Every knob, in README's order.
KNOBS = (SCALE, WORKERS, CORPUS_CACHE, SHARD_RETRIES, SHARD_TIMEOUT,
         FAULTS, FAULTS_SEED, TELEMETRY, DEBUG)


def resolve() -> Dict[str, object]:
    """Every knob's current value by name; the first bad one raises ``ValueError``."""

    return {knob.name: knob.value() for knob in KNOBS}
