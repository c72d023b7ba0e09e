"""Plain records: Green-function parameters and values, and CLI output rows.

``GreenParams`` and ``GreenValue`` need only ``math``, so the commands that
never evaluate a Bessel or Fourier route (and every usage error) load no
numpy or scipy to build or check them.

``OutputRecord`` is one flat record per evaluation with a stable CSV/JSON
schema (version tag emitted as a leading ``# schema=1`` comment).  Floats
are written with ``repr``, so ``float()`` of each field gives the value back
bit for bit.
"""

import json
import math
import sys
from dataclasses import dataclass

from .errors import AccuracyError, DivergenceError, DomainError


@dataclass(frozen=True)
class GreenParams:
    """Dimension, killing strength, and resolvent exponent."""

    d: int
    a: float
    q: float

    def __post_init__(self):
        if int(self.d) != self.d or self.d < 1:
            raise DomainError("d must be an integer >= 1")
        if not math.isfinite(self.a) or self.a < 0.0:
            raise DomainError("a must be finite and >= 0")
        if not math.isfinite(self.q) or self.q <= 0.0:
            raise DomainError("q must be finite and > 0")

    def check_finite(self):
        """Raise if the Green function diverges for these parameters."""
        if self.a == 0.0 and self.d <= 2.0 * self.q:
            raise DivergenceError(
                f"massless Green function diverges for d={self.d} <= 2q={2 * self.q}"
            )


_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_VALUE_FLOOR = math.log(1e-300)


@dataclass(frozen=True)
class GreenValue:
    """A Green-function evaluation with its log-space twin and error estimate.

    ``value`` is ``exp(log_value)`` (0.0 below ``_LOG_VALUE_FLOOR``, the log
    of 1e-300; ``AccuracyError`` once it overflows a float);
    ``est_error`` is an absolute error estimate on the same scale as
    ``value``.
    """

    value: float
    log_value: float
    est_error: float
    method: str

    @classmethod
    def from_log(cls, log_value, rel_error, method):
        log_value = float(log_value)
        if log_value > _LOG_FLOAT_MAX:
            raise AccuracyError(
                f"value exp({log_value:.6g}) overflows a float", best=log_value
            )
        value = math.exp(log_value) if log_value > _LOG_VALUE_FLOOR else 0.0
        return cls(
            value=value,
            log_value=log_value,
            est_error=float(abs(rel_error)) * value,
            method=method,
        )


CSV_SCHEMA_COMMENT = "# schema=1"

_FIELDS = (
    "method",
    "d",
    "a",
    "q",
    "s",
    "n",
    "x",
    "value",
    "log_value",
    "est_error",
    "regime",
)


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass(frozen=True)
class OutputRecord:
    """One evaluation: method, parameters, point, and the numeric results."""

    method: str
    d: int
    a: float | None
    q: float | None
    s: float | None
    n: int | None
    x: tuple
    value: float
    log_value: float
    est_error: float
    regime: str | None = None

    @staticmethod
    def csv_header():
        return list(_FIELDS)

    def to_csv_row(self):
        row = []
        for name in _FIELDS:
            v = getattr(self, name)
            if name == "x":
                row.append(",".join(_fmt(c) for c in v))
            else:
                row.append(_fmt(v))
        return row

    def to_json(self):
        return json.dumps(
            {
                "method": self.method,
                "params": {
                    "d": self.d,
                    "a": self.a,
                    "q": self.q,
                    "s": self.s,
                    "n": self.n,
                },
                "x": list(self.x),
                "value": self.value,
                "log_value": self.log_value,
                "est_error": self.est_error,
                "regime": self.regime,
            }
        )
