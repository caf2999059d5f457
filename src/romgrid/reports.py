"""Serialization of greedy traces and validation reports.

Trace CSVs use the fixed header
``iteration,main_point,alpha_point,beta_point,gamma_point,max_estimate,max_true_error,rom_dim``
with sample points rendered one parameter per ``name=<re><+im>i`` token,
semicolon-separated, all floats at 17 significant digits so a write/read
round trip is exact and reruns are byte-identical. A JSON mirror carries
the same rows with points as ``{name: [re, im]}`` pairs. Each row type has
one field schema; a (point, number) codec per format turns it into CSV or
JSON values and back.
"""

import csv
import json
import re as _re
from dataclasses import dataclass, field, fields

__all__ = [
    "ROLES",
    "IterationRecord",
    "EffectivityRow",
    "EffectivityReport",
    "TRACE_HEADER",
    "format_point",
    "parse_point",
    "write_trace_csv",
    "write_trace_json",
    "read_trace",
    "write_report",
    "read_report",
]

#: The greedy expansion points, in trace-column order.
ROLES = ("main", "alpha", "beta", "gamma")


@dataclass
class IterationRecord:
    """One greedy iteration, as the loop records it and the trace files hold it.

    A point is the sample the role expanded at this iteration, or None when
    the run uses no such point; ``max_true_error`` is None when true errors
    were not recorded. ``rom_dimension`` is the dimension of V.
    """

    iteration: int
    main_point: dict | None
    alpha_point: dict | None
    beta_point: dict | None
    gamma_point: dict | None
    max_estimate: float
    max_true_error: float | None
    rom_dimension: int


@dataclass
class EffectivityRow:
    sample: dict
    estimate: float
    true_error: float
    effectivity: float | None  # None when true_error is 0 (nothing to divide by)


# (name on disk, attribute, value kind) per row type, in column order
_TRACE_FIELDS = (
    ("iteration", "iteration", "int"),
    *((f"{role}_point", f"{role}_point", "point") for role in ROLES),
    ("max_estimate", "max_estimate", "number"),
    ("max_true_error", "max_true_error", "number"),
    ("rom_dim", "rom_dimension", "int"),
)
_EFFECTIVITY_FIELDS = (
    ("sample", "sample", "point"),
    ("estimate", "estimate", "number"),
    ("true_error", "true_error", "number"),
    ("effectivity", "effectivity", "number"),
)

TRACE_HEADER = [name for name, _, _ in _TRACE_FIELDS]

_FLOAT = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = _re.compile(rf"^({_FLOAT})({_FLOAT})i$")


def _fmt(value):
    return f"{value:.17g}"


def format_point(point):
    """``{"s": 1+2j, "d": 1.5}`` -> ``"d=1.5+0i;s=1+2i"`` (sorted names)."""
    if point is None:
        return ""
    parts = []
    for name in sorted(point):
        value = complex(point[name])
        parts.append(f"{name}={_fmt(value.real)}{value.imag:+.17g}i")
    return ";".join(parts)


def parse_scalar(text):
    """Parse ``1.5`` or ``1.5-2i`` into a complex number."""
    text = text.strip()
    match = _COMPLEX_RE.match(text)
    if match:
        return complex(float(match.group(1)), float(match.group(2)))
    try:
        return complex(float(text))
    except ValueError:
        raise ValueError(f"malformed scalar value {text!r}") from None


def parse_point(text):
    """Inverse of format_point; empty text -> None."""
    if not text:
        return None
    point = {}
    for token in text.split(";"):
        name, _, payload = token.partition("=")
        if not payload:
            raise ValueError(f"malformed point token {token!r}")
        match = _COMPLEX_RE.match(payload)
        if not match:
            raise ValueError(f"malformed complex value {payload!r}")
        point[name] = complex(float(match.group(1)), float(match.group(2)))
    return point


def _point_json(point):
    """``{"s": 1+2j}`` -> ``{"s": [1.0, 2.0]}`` (sorted names); None stays None."""
    if point is None:
        return None
    return {
        name: [complex(value).real, complex(value).imag]
        for name, value in sorted(point.items())
    }


def _point_from_json(value):
    """Inverse of _point_json."""
    if value is None:
        return None
    return {name: complex(re, im) for name, (re, im) in value.items()}


def _codec(point, number):
    """Converter per value kind of a row schema; integers are ``int`` in every format."""
    return {"int": int, "point": point, "number": number}


# None numbers are empty CSV cells and JSON nulls
_CSV_WRITE = _codec(format_point, lambda value: "" if value is None else _fmt(value))
_CSV_READ = _codec(parse_point, lambda text: float(text) if text else None)
_JSON_WRITE = _codec(_point_json, lambda value: value)
_JSON_READ = _codec(_point_from_json, lambda value: None if value is None else float(value))


def _fields(record, schema, codec):
    """``record``'s fields by name on disk, in column order, encoded by ``codec``."""
    return {name: codec[kind](getattr(record, attr)) for name, attr, kind in schema}


def _record(cls, row, schema, codec):
    """Inverse of _fields: a ``cls`` from one row of disk fields, decoded by ``codec``."""
    return cls(**{attr: codec[kind](row[name]) for name, attr, kind in schema})


def _write_csv(path, schema, records):
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=[name for name, _, _ in schema], lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(_fields(record, schema, _CSV_WRITE) for record in records)


def _write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def write_trace_csv(path, trace):
    """Trace rows as CSV under the fixed header (header-only when empty)."""
    _write_csv(path, _TRACE_FIELDS, trace)


def write_trace_json(path, trace, extra=None):
    payload = {"trace": [_fields(record, _TRACE_FIELDS, _JSON_WRITE) for record in trace]}
    if extra:
        payload.update(extra)
    _write_json(path, payload)


def read_trace(path):
    """Read a trace CSV (or the JSON mirror) back into IterationRecord objects."""
    path = str(path)
    if path.endswith(".json"):
        with open(path) as handle:
            rows = json.load(handle)["trace"]
        return [_record(IterationRecord, row, _TRACE_FIELDS, _JSON_READ) for row in rows]
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != TRACE_HEADER:
            raise ValueError(
                f"unexpected trace header {reader.fieldnames!r}, expected {TRACE_HEADER!r}"
            )
        return [_record(IterationRecord, row, _TRACE_FIELDS, _CSV_READ) for row in reader]


@dataclass
class EffectivityReport:
    """Per-sample estimate/true-error pairs plus summary statistics.

    Effectivities are reported twice: over all rows, and restricted to
    rows whose true error exceeds ``filter_threshold`` (ratios below it
    measure rounding noise, not estimator quality). When no row passes the
    filter, the filtered fields are None and ``all_below_threshold`` is
    set.
    """

    rows: list = field(default_factory=list)
    min_eff_all: float | None = None
    max_eff_all: float | None = None
    min_eff_filtered: float | None = None
    max_eff_filtered: float | None = None
    filter_threshold: float = 1e-11
    max_true_error: float = 0.0
    skipped_singular: int = 0
    all_below_threshold: bool = False

    @classmethod
    def from_rows(cls, rows, skipped_singular=0, filter_threshold=1e-11):
        effs = [r.effectivity for r in rows if r.effectivity is not None]
        filtered = [
            r.effectivity
            for r in rows
            if r.effectivity is not None and r.true_error >= filter_threshold
        ]
        return cls(
            rows=list(rows),
            min_eff_all=min(effs) if effs else None,
            max_eff_all=max(effs) if effs else None,
            min_eff_filtered=min(filtered) if filtered else None,
            max_eff_filtered=max(filtered) if filtered else None,
            filter_threshold=filter_threshold,
            max_true_error=max((r.true_error for r in rows), default=0.0),
            skipped_singular=skipped_singular,
            all_below_threshold=not filtered,
        )

    def summary(self):
        """Every field but ``rows``, by name, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}


def write_report(report, csv_path=None, json_path=None):
    """Write an EffectivityReport as row CSV and/or JSON (rows + summary)."""
    if csv_path is not None:
        _write_csv(csv_path, _EFFECTIVITY_FIELDS, report.rows)
    if json_path is not None:
        rows = [_fields(row, _EFFECTIVITY_FIELDS, _JSON_WRITE) for row in report.rows]
        _write_json(json_path, {"summary": report.summary(), "rows": rows})


def read_report(json_path):
    """Load the JSON form written by write_report."""
    with open(json_path) as handle:
        payload = json.load(handle)
    rows = [
        _record(EffectivityRow, row, _EFFECTIVITY_FIELDS, _JSON_READ) for row in payload["rows"]
    ]
    summary = payload["summary"]
    return EffectivityReport.from_rows(
        rows,
        skipped_singular=summary["skipped_singular"],
        filter_threshold=summary["filter_threshold"],
    )
