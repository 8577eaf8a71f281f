"""JSON encoding of the core value types.

Exact rationals travel as strings ('1/3' or terminating decimals like
'0.5'); floats stay JSON numbers; complex values are [re, im] pairs.

The two measure readers import the measure layers when they run, so a
command that only writes functions does not load them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .ap import APFunction
from .errors import InputError
from .frequencies import FrequencyModule, Generator
from .functions import C0Function, ExtendedFunction
from .scalars import (
    coeff_from_json_parts,
    coeff_to_json_pair,
    real_from_json,
    real_to_json,
)

if TYPE_CHECKING:
    from .fleischhack import QMeasure
    from .measures import FSMeasure


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{where}: missing field {key!r}")
    return obj[key]


# -- generators and modules ------------------------------------------------


def generator_to_json(g: Generator) -> dict:
    return {
        "symbol": g.symbol,
        "decimal": g.decimal,
        "rational_scale": [g.scale.numerator, g.scale.denominator],
    }


def generator_from_json(obj) -> Generator:
    symbol = _need(obj, "symbol", "generator")
    decimal = _need(obj, "decimal", "generator")
    num, den = _need(obj, "rational_scale", "generator")
    return Generator(symbol, str(decimal), Fraction(int(num), int(den)))


def module_to_json(m: FrequencyModule) -> dict:
    return {"generators": [generator_to_json(g) for g in m.generators]}


def module_from_json(obj) -> FrequencyModule:
    gens = _need(obj, "generators", "module")
    if not isinstance(gens, list) or not gens:
        raise InputError("module: 'generators' must be a nonempty list")
    return FrequencyModule(tuple(generator_from_json(g) for g in gens))


# -- functions ---------------------------------------------------------------


def ap_to_json(f: APFunction) -> dict:
    terms = []
    for freq, c in sorted(f.terms(), key=lambda kv: kv[0].coords):
        re, im = coeff_to_json_pair(c)
        terms.append({"coords": list(freq.coords), "re": re, "im": im})
    return {"module": module_to_json(f.module), "terms": terms}


def c0_to_json(c0: C0Function) -> dict:
    return {
        "breakpoints": [real_to_json(b) for b in c0.breakpoints],
        "values": [coeff_to_json_pair(v) for v in c0.values],
    }


def extended_to_json(f: ExtendedFunction) -> dict:
    return {"c0": c0_to_json(f.c0), "ap": ap_to_json(f.ap)}


# -- measures -----------------------------------------------------------------


def fsmeasure_from_json(obj) -> FSMeasure:
    from .measures import FSMeasure

    module = module_from_json(_need(obj, "module", "measure"))
    entries = {}
    for item in _need(obj, "entries", "measure"):
        coords = _need(item, "coords", "entry")
        freq = module.frequency(*[int(c) for c in coords])
        if freq in entries:
            raise InputError(f"measure: coordinates {list(freq.coords)} appear twice")
        entries[freq] = coeff_from_json_parts(
            _need(item, "re", "entry"), _need(item, "im", "entry")
        )
    return FSMeasure(module, entries)


def qmeasure_from_json(obj) -> QMeasure:
    from .fleischhack import QMeasure, RPart

    r_obj = _need(obj, "r_part", "measure")
    bps = [real_from_json(b) for b in _need(r_obj, "breakpoints", "r_part")]
    vals = [real_from_json(v) for v in _need(r_obj, "values", "r_part")]
    atoms = [
        (real_from_json(x), real_from_json(m))
        for x, m in r_obj.get("atoms", [])
    ]
    density = C0Function(bps, vals)
    r_part = RPart(density, atoms)
    bohr = fsmeasure_from_json(_need(obj, "bohr_part", "measure"))
    return QMeasure(r_part, bohr)


def matrix_to_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]
