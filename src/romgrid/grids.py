"""Training/validation grid specifications.

A grid is described by one component spec per parameter; the sample set is
the cross product. Component forms:

* ``name:start:stop:count:log`` or ``...:lin`` -- log- or linearly spaced
  real values (log requires positive endpoints);
* ``name=v1,v2,v3`` -- explicit values, real or ``re+imi`` complex.

The pseudo-parameter ``f`` means frequency: its values are mapped onto the
Laplace variable as ``s = 2*pi*f*1j``. Values are read by
``reports.parse_scalar``. Any failure of a component, a number that does
not parse among them, is a ValueError that quotes the component spec.
"""

import itertools

import numpy as np

from .reports import parse_scalar
from .system import LAPLACE

__all__ = ["parse_grid", "DEFAULT_FREQUENCY_SPEC"]

#: Default sweep for frequency-only systems (used when no grid is given).
DEFAULT_FREQUENCY_SPEC = "f:1e-3:1e1:60:log"


def _component_values(spec):
    """``(name, values)`` of one stripped component spec; ValueError says what is wrong."""
    if "=" in spec.split(":", 1)[0]:
        name, _, tail = spec.partition("=")
        values = [parse_scalar(token) for token in tail.split(",") if token.strip()]
        if not values:
            raise ValueError("it lists no values")
        return name.strip(), values
    fields = spec.split(":")
    if len(fields) not in (4, 5):
        raise ValueError("it must be name:start:stop:count[:log|lin] or name=v1,v2,...")
    name = fields[0].strip()
    start, stop = float(fields[1]), float(fields[2])
    if not np.isfinite([start, stop]).all():
        raise ValueError("it has an endpoint that is not finite")
    count = int(fields[3])
    spacing = fields[4].strip() if len(fields) == 5 else "log"
    if count < 1:
        raise ValueError("it needs a positive count")
    if spacing == "log":
        if start <= 0 or stop <= 0:
            raise ValueError("log spacing needs positive endpoints")
        values = np.logspace(np.log10(start), np.log10(stop), count)
    elif spacing == "lin":
        values = np.linspace(start, stop, count)
    else:
        raise ValueError(f"unknown spacing {spacing!r} (use log or lin)")
    return name, [complex(v) for v in values]


def parse_grid(specs):
    """Cross product of component specs -> list of sample-point dicts.

    Raises ValueError naming the component spec for a malformed component,
    a number that does not parse, or a value that is not finite (an
    endpoint or listed value of nan or inf, or a frequency whose Laplace
    value overflows), so a command line says which component is wrong.
    """
    if isinstance(specs, str):
        specs = [specs]
    names = []
    value_lists = []
    for spec in specs:
        spec = spec.strip()
        try:
            name, values = _component_values(spec)
            if name == "f":
                name = LAPLACE
                values = [2j * np.pi * v for v in values]
            if not np.isfinite(values).all():
                raise ValueError("it has values that are not finite")
        except ValueError as exc:
            raise ValueError(f"grid component {spec!r}: {exc}") from None
        if name in names:
            raise ValueError(f"parameter {name!r} appears in more than one grid component")
        names.append(name)
        value_lists.append(values)
    return [dict(zip(names, combo)) for combo in itertools.product(*value_lists)]
