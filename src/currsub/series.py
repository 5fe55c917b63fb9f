"""Monthly-calendar time series: container, finiteness check, correlation.

Series are immutable after construction and sit on a strict monthly grid:
observation ``k`` belongs to ``start`` advanced by ``k`` months, with no
gaps or duplicates. Missing months are a hard error everywhere in this
package because the downstream unit-root and cointegration machinery
assumes a regular sampling grid.

A series carries no slicing or arithmetic of its own: a caller that
needs months ``i`` to ``j`` of ``s`` builds
``MonthlySeries(s.start.shift(i), s.values[i:j + 1])``, and new values
on the same calendar are ``MonthlySeries(s.start, values)``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DegeneracyError

__all__ = [
    "MonthStamp",
    "MonthlySeries",
    "require_finite",
    "pearson_correlation",
]

_DATE_RE = re.compile(r"^(\d{4})-(\d{2})$")


def _month_label(index: int) -> str:
    """``YYYY-MM`` of the month ``index`` months after 0000-01: the one
    spelling of a month, parsed back by :meth:`MonthStamp.parse`."""
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


def _month_labels(first: int, count: int) -> list[str]:
    """:func:`_month_label` of the ``count`` months from index ``first`` on,
    built a year at a time."""
    months = ("-01", "-02", "-03", "-04", "-05", "-06", "-07", "-08", "-09", "-10", "-11", "-12")
    years = map("%04d".__mod__, range(first // 12, (first + count + 11) // 12))
    return [year + month for year in years for month in months][first % 12 : first % 12 + count]


@dataclass(frozen=True, order=True)
class MonthStamp:
    """A calendar month of the years 0..9999, totally ordered by (year, month)."""

    year: int
    month: int

    def __post_init__(self) -> None:
        if not (isinstance(self.year, int) and isinstance(self.month, int)):
            raise DataError(f"MonthStamp fields must be integers, got {self!r}")
        if not 1 <= self.month <= 12:
            raise DataError(f"month must be in 1..12, got {self.month}")
        # Only these years have the YYYY-MM spelling that parse reads back.
        if not 0 <= self.year <= 9999:
            raise DataError(
                f"month {self.year}-{self.month:02d} is outside 0000-01..9999-12"
            )

    @property
    def index(self) -> int:
        """Months elapsed since 0000-01; the total order in integer form."""
        return self.year * 12 + (self.month - 1)

    def shift(self, months: int) -> "MonthStamp":
        """The stamp ``months`` later (earlier if negative)."""
        return MonthStamp.from_index(self.index + months)

    @classmethod
    def from_index(cls, index: int) -> "MonthStamp":
        """The stamp whose :attr:`index` is ``index``."""
        return cls(index // 12, index % 12 + 1)

    @staticmethod
    def parse_index(text: str) -> int:
        """The :attr:`index` of ``YYYY-MM`` text, without building a stamp."""
        m = _DATE_RE.match(text.strip())
        if m is None:
            raise DataError(f"dates must be formatted YYYY-MM, got {text!r}")
        year, month = map(int, m.groups())
        if not 1 <= month <= 12:
            MonthStamp(year, month)  # raises, with the constructor's message
        return year * 12 + month - 1

    @classmethod
    def parse(cls, text: str) -> "MonthStamp":
        """Parse ``YYYY-MM``."""
        return cls.from_index(cls.parse_index(text))

    def __str__(self) -> str:
        return _month_label(self.index)


def require_finite(start: MonthStamp, values: np.ndarray) -> None:
    """Refuse the first non-finite value of a series starting at ``start``,
    or of the first row holding one in a stack of such series."""
    bad = ~np.isfinite(values)
    if bad.any():
        k = int(np.flatnonzero(bad)[0]) % values.shape[-1]
        raise DataError(f"non-finite value at {start.shift(k)} (position {k})")


@dataclass(frozen=True)
class MonthlySeries:
    """A contiguous monthly series of finite float values.

    The value buffer is copied on construction and frozen; instances are
    safe to share across threads.
    """

    start: MonthStamp
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float, copy=True).reshape(-1)
        if arr.size < 1:
            raise DataError("a series needs at least one observation")
        if self.start.index + arr.size > 10000 * 12:  # past 9999-12: MonthStamp refuses 10000-01
            self.start.shift(10000 * 12 - self.start.index)
        require_finite(self.start, arr)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def labels(self) -> list[str]:
        """``YYYY-MM`` of each month, a year at a time (:func:`_month_labels`)."""
        return _month_labels(self.start.index, len(self))


def pearson_correlation(a: MonthlySeries, b: MonthlySeries) -> float:
    """Sample Pearson correlation of two aligned series.

    Requires identical date ranges, length >= 3, and nonzero sample
    variance on both sides.
    """
    if a.start != b.start or len(a) != len(b):
        raise DataError(
            "series must be aligned (same start and length); "
            "slice both to their common months first"
        )
    if len(a) < 3:
        raise DataError(f"need at least 3 observations, have {len(a)}")
    # Constancy is tested on the raw values: the mean of equal values can
    # round away from them, which leaves a centred constant series nonzero.
    constant = any((s.values == s.values[0]).all() for s in (a, b))
    x = a.values - a.values.mean()
    y = b.values - b.values.mean()
    sx = math.sqrt(float(x @ x))
    sy = math.sqrt(float(y @ y))
    if constant or sx == 0.0 or sy == 0.0:
        raise DegeneracyError("correlation undefined for a constant series")
    return float(x @ y) / (sx * sy)
