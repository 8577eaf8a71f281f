"""JSON encoding of the core value types.

Exact rationals travel as strings ('1/3' or terminating decimals like
'0.5'); floats stay JSON numbers; complex values are [re, im] pairs.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .ap import APFunction
from .bohr import BohrPoint
from .errors import InputError
from .fleischhack import C0Function, ExtendedFunction, QMeasure, RPart
from .frequencies import FrequencyModule, Generator
from .measures import FSMeasure
from .scalars import (
    coeff_from_json_parts,
    coeff_to_json_pair,
    real_from_json,
    real_to_json,
)


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


def ap_from_json(obj) -> APFunction:
    module = module_from_json(_need(obj, "module", "function"))
    coeffs = {}
    for term in _need(obj, "terms", "function"):
        coords = _need(term, "coords", "term")
        freq = module.frequency(*[int(c) for c in coords])
        coeffs[freq] = coeff_from_json_parts(
            _need(term, "re", "term"), _need(term, "im", "term")
        )
    return APFunction(module, coeffs)


def c0_to_json(c0: C0Function) -> dict:
    return {
        "breakpoints": [real_to_json(b) for b in c0.breakpoints],
        "values": [coeff_to_json_pair(v) for v in c0.values],
    }


def c0_from_json(obj) -> C0Function:
    bps = [real_from_json(b) for b in _need(obj, "breakpoints", "c0")]
    vals = [
        coeff_from_json_parts(v[0], v[1]) for v in _need(obj, "values", "c0")
    ]
    return C0Function(bps, vals)


def extended_to_json(f: ExtendedFunction) -> dict:
    return {"c0": c0_to_json(f.c0), "ap": ap_to_json(f.ap)}


def extended_from_json(obj) -> ExtendedFunction:
    return ExtendedFunction(
        c0_from_json(_need(obj, "c0", "extended function")),
        ap_from_json(_need(obj, "ap", "extended function")),
    )


# -- points -------------------------------------------------------------------


def bohr_point_to_json(p: BohrPoint) -> dict:
    return {
        "module": module_to_json(p.module),
        "angles_over_2pi": [real_to_json(t) for t in p.turns],
    }


def bohr_point_from_json(obj) -> BohrPoint:
    module = module_from_json(_need(obj, "module", "point"))
    turns = [real_from_json(t) for t in _need(obj, "angles_over_2pi", "point")]
    return BohrPoint(module, turns)


# -- measures -----------------------------------------------------------------


def fsmeasure_to_json(mu: FSMeasure) -> dict:
    entries = []
    for freq, value in mu.entries.items():
        re, im = coeff_to_json_pair(value)
        entries.append({"coords": list(freq.coords), "re": re, "im": im})
    return {"module": module_to_json(mu.module), "entries": entries}


def fsmeasure_from_json(obj) -> FSMeasure:
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


def qmeasure_to_json(mu: QMeasure) -> dict:
    r = mu.r_part
    return {
        "r_part": {
            "breakpoints": [real_to_json(b) for b in r.density.breakpoints],
            "values": [real_to_json(v.re) for v in r.density.values],
            "atoms": [[real_to_json(x), real_to_json(m)] for x, m in r.atoms],
        },
        "bohr_part": fsmeasure_to_json(mu.bohr_part),
    }


def qmeasure_from_json(obj) -> QMeasure:
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
