"""Exact half-integers on doubled-integer storage."""

from __future__ import annotations

import functools
import re
from typing import Union

_DECIMAL_RE = re.compile(r"^(-?)(\d*)\.5$")
_FRACTION_RE = re.compile(r"^(-?\d+)/2$")
_INT_RE = re.compile(r"^-?\d+$")


@functools.total_ordering
class HalfInt:
    """An element of (1/2)Z, stored as twice its value.

    Comparisons and hashing are exact integer operations on the doubled
    value; no floats.  Code that computes with half-integers works on
    ``twice`` directly.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError(f"HalfInt stores an integer doubled value, got {twice!r}")
        object.__setattr__(self, "twice", twice)

    def __setattr__(self, name, value):
        raise AttributeError("HalfInt is immutable")

    def __reduce__(self):
        return (HalfInt, (self.twice,))

    # -- construction -----------------------------------------------------
    @classmethod
    def of(cls, value: Union["HalfInt", int]) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, bool):
            raise ValueError(f"{value!r} is a bool, not an integer")
        if isinstance(value, int):
            return cls(2 * value)
        raise TypeError(f"cannot convert {value!r} to HalfInt")

    @classmethod
    def parse(cls, value: Union["HalfInt", int, str]) -> "HalfInt":
        """Parse an integer, an "n/2" string, a decimal ".5" string, or an int string."""
        if isinstance(value, (HalfInt, int)):
            return cls.of(value)
        if isinstance(value, str):
            s = value.strip()
            if _INT_RE.match(s):
                return cls(2 * int(s))
            m = _FRACTION_RE.match(s)
            if m:
                return cls(int(m.group(1)))
            m = _DECIMAL_RE.match(s)
            if m:
                sign = -1 if m.group(1) == "-" else 1
                whole = int(m.group(2)) if m.group(2) else 0
                return cls(sign * (2 * whole + 1))
        raise ValueError(f"cannot parse {value!r} as a half-integer")

    # -- queries ----------------------------------------------------------
    @property
    def is_integral(self) -> bool:
        return self.twice % 2 == 0

    def as_int(self) -> int:
        if not self.is_integral:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def to_json(self) -> Union[int, str]:
        return self.twice // 2 if self.is_integral else f"{self.twice}/2"

    # -- comparison -------------------------------------------------------
    def _twice_of(self, other) -> int:
        if isinstance(other, HalfInt):
            return other.twice
        if isinstance(other, int):
            return 2 * other
        return NotImplemented

    def __eq__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is NotImplemented else self.twice == t

    def __lt__(self, other):
        t = self._twice_of(other)
        return NotImplemented if t is NotImplemented else self.twice < t

    def __hash__(self):
        return hash((HalfInt, self.twice))

    def __str__(self):
        return str(self.twice // 2) if self.is_integral else f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self.twice})"


def hi(value: Union[HalfInt, int, str]) -> HalfInt:
    """Shorthand constructor used throughout the package and tests."""
    return HalfInt.parse(value)
