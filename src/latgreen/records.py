"""Serializable output records for the command-line harness.

One flat record per evaluation with a stable CSV/JSON schema (version tag
emitted as a leading ``# schema=1`` comment).  Floats are serialized with
``repr`` so parse(serialize(record)) round-trips exactly.
"""

import json
from dataclasses import dataclass

__all__ = ["OutputRecord", "CSV_SCHEMA_COMMENT"]

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

    @classmethod
    def from_csv_row(cls, row):
        method, d, a, q, s, n, x, value, log_value, est_error, regime = row
        return cls(
            method=method,
            d=int(d),
            a=float(a) if a else None,
            q=float(q) if q else None,
            s=float(s) if s else None,
            n=int(n) if n else None,
            # lattice points are written as ints, real points as floats
            x=tuple(int(c) if c.lstrip("-").isdigit() else float(c) for c in x.split(","))
            if x else (),
            value=float(value),
            log_value=float(log_value),
            est_error=float(est_error),
            regime=regime or None,
        )

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

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        params = obj["params"]
        return cls(
            method=obj["method"],
            d=params["d"],
            a=params["a"],
            q=params["q"],
            s=params["s"],
            n=params["n"],
            x=tuple(obj["x"]),
            value=obj["value"],
            log_value=obj["log_value"],
            est_error=obj["est_error"],
            regime=obj.get("regime"),
        )
