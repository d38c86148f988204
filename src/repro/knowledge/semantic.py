"""Semantic types and units for configuration parameters."""

from __future__ import annotations

import enum


class SemanticType(enum.Enum):
    """High-level meaning of a parameter beyond its basic type.

    Mirrors the paper's examples: file path, IP address, user name,
    port number, timeout, etc. (§2.1, Figure 3b/3c).
    """

    FILE = "FILE"
    DIRECTORY = "DIRECTORY"
    PATH = "PATH"  # file-or-directory path
    PORT = "PORT"
    IP_ADDRESS = "IP_ADDRESS"
    HOSTNAME = "HOSTNAME"
    USER = "USER"
    GROUP = "GROUP"
    PERMISSION = "PERMISSION"
    SIZE = "SIZE"
    TIME = "TIME"
    BOOLEAN_SWITCH = "BOOLEAN_SWITCH"
    COUNT = "COUNT"
    ENUM_CHOICE = "ENUM_CHOICE"

    def __str__(self) -> str:
        return self.value


class Unit(enum.Enum):
    """Measurement units attached to SIZE/TIME parameters (Table 7)."""

    BYTES = "B"
    KILOBYTES = "KB"
    MEGABYTES = "MB"
    GIGABYTES = "GB"
    MICROSECONDS = "us"
    MILLISECONDS = "ms"
    SECONDS = "s"
    MINUTES = "m"
    HOURS = "h"

    def __str__(self) -> str:
        return self.value

    @property
    def dimension(self) -> str:
        if self in (Unit.BYTES, Unit.KILOBYTES, Unit.MEGABYTES, Unit.GIGABYTES):
            return "size"
        return "time"

    @property
    def scale(self) -> float:
        """Multiplier to the dimension's base unit (bytes / seconds)."""
        return {
            Unit.BYTES: 1,
            Unit.KILOBYTES: 1024,
            Unit.MEGABYTES: 1024**2,
            Unit.GIGABYTES: 1024**3,
            Unit.MICROSECONDS: 1e-6,
            Unit.MILLISECONDS: 1e-3,
            Unit.SECONDS: 1,
            Unit.MINUTES: 60,
            Unit.HOURS: 3600,
        }[self]


SIZE_UNITS = (Unit.BYTES, Unit.KILOBYTES, Unit.MEGABYTES, Unit.GIGABYTES)
TIME_UNITS = (
    Unit.MICROSECONDS,
    Unit.MILLISECONDS,
    Unit.SECONDS,
    Unit.MINUTES,
    Unit.HOURS,
)
