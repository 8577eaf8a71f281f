import json
from fractions import Fraction

import pytest

from bohrlab import (
    APFunction,
    C0Function,
    ExactComplex,
    FSMeasure,
    FrequencyModule,
    InputError,
    QMeasure,
    RPart,
    box_support,
)
from bohrlab.jsonio import (
    ap_to_json,
    extended_to_json,
    fsmeasure_from_json,
    module_from_json,
    module_to_json,
    qmeasure_from_json,
)
from bohrlab.fleischhack import ExtendedFunction
from bohrlab.scalars import coeff_to_json_pair, real_to_json

M = FrequencyModule.integers()
M2 = FrequencyModule.make(1, "sqrt2")


def through_text(blob):
    return json.loads(json.dumps(blob))


def test_module_roundtrip():
    for m in (M, M2, FrequencyModule.make("pi"), FrequencyModule.from_rationals([Fraction(2, 3)])):
        assert module_from_json(through_text(module_to_json(m))) == m


def measure_document(mu: FSMeasure) -> dict:
    """A measure file's torus part, in the format the readers take."""
    entries = []
    for freq, value in mu.entries.items():
        re, im = coeff_to_json_pair(value)
        entries.append({"coords": list(freq.coords), "re": re, "im": im})
    return {"module": module_to_json(mu.module), "entries": entries}


def glued_document(qm: QMeasure) -> dict:
    r = qm.r_part
    return {
        "r_part": {
            "breakpoints": [real_to_json(b) for b in r.density.breakpoints],
            "values": [real_to_json(v.re) for v in r.density.values],
            "atoms": [[real_to_json(x), real_to_json(m)] for x, m in r.atoms],
        },
        "bohr_part": measure_document(qm.bohr_part),
    }


def test_ap_function_roundtrip_exact():
    # exact coefficients survive JSON text as strings
    f = APFunction(
        M2,
        {
            M2.frequency(1, 0): ExactComplex(Fraction(1, 3), Fraction(-2, 7)),
            M2.frequency(0, -2): ExactComplex(Fraction(5, 2)),
        },
    )
    blob = through_text(ap_to_json(f))
    assert blob == {
        "module": module_to_json(M2),
        "terms": [
            {"coords": [0, -2], "re": "2.5", "im": "0"},
            {"coords": [1, 0], "re": "1/3", "im": "-2/7"},
        ],
    }
    assert module_from_json(blob["module"]) == M2


def test_ap_function_roundtrip_float_coeffs():
    f = APFunction(M, {M.frequency(2): 0.25 + 0.125j})
    assert through_text(ap_to_json(f))["terms"] == [{"coords": [2], "re": 0.25, "im": 0.125}]


def test_extended_function_roundtrip():
    f = ExtendedFunction(
        C0Function.hat(-1, Fraction(1, 3), 2, Fraction(5, 4)),
        APFunction.character(M, 3),
    )
    blob = through_text(extended_to_json(f))
    assert blob["c0"] == {
        "breakpoints": ["-1", "1/3", "2"],
        "values": [["0", "0"], ["1.25", "0"], ["0", "0"]],
    }
    assert blob["ap"] == through_text(ap_to_json(f.ap))


def test_fsmeasure_roundtrip():
    mu = FSMeasure(
        M,
        {
            M.frequency(0): ExactComplex(Fraction(1)),
            M.frequency(1): ExactComplex(Fraction(1, 2), Fraction(1, 4)),
            M.frequency(-1): ExactComplex(Fraction(1, 2), Fraction(-1, 4)),
        },
    )
    nu = fsmeasure_from_json(through_text(measure_document(mu)))
    assert nu.max_abs_diff(mu) == 0.0
    assert nu.is_exact()


def test_qmeasure_roundtrip():
    r = RPart(
        C0Function.hat(0, 1, 2, Fraction(1, 4)),
        atoms=[(Fraction(5), Fraction(1, 8))],
    )
    qm = QMeasure(r, FSMeasure.haar(M, box_support(M, 1)))
    back = qmeasure_from_json(through_text(glued_document(qm)))
    assert back.r_part.density == qm.r_part.density
    assert back.r_part.atoms == qm.r_part.atoms
    assert back.bohr_part.max_abs_diff(qm.bohr_part) == 0.0
    assert back.bohr_weight == qm.bohr_weight


def test_malformed_documents_raise_input_error():
    for doc in (
        {},
        {"module": {}},
        {"module": {"generators": []}},
        {"r_part": {"breakpoints": [0]}},
        {"module": {"generators": [{"symbol": None}]}},
    ):
        with pytest.raises(InputError):
            if "r_part" in doc:
                qmeasure_from_json(doc)
            else:
                fsmeasure_from_json(doc)


def test_exact_values_serialize_as_strings():
    f = APFunction(M, {M.frequency(1): ExactComplex(Fraction(1, 3))})
    blob = ap_to_json(f)
    assert blob["terms"][0]["re"] == "1/3"
    g = APFunction(M, {M.frequency(1): ExactComplex(Fraction(1, 2))})
    assert ap_to_json(g)["terms"][0]["re"] == "0.5"  # terminating decimal
