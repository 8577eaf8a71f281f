"""bohrlab: exact almost-periodic function algebra, torus truncations of
the Bohr compactification, Fourier-Stieltjes moment measures, and
verifiers showing that translation invariance forces the Haar measure on
both the character group and the glued line-plus-torus configuration
space.

The public names below load their modules on first access (PEP 562), so
importing the package, or one command of its CLI, loads only what it uses.
"""

import importlib as _importlib

_EXPORTS = {
    "ap": ("APFunction",),
    "bohr": ("BohrPoint", "KroneckerResult", "iota", "kronecker_approx", "kronecker_residual"),
    "errors": ("InputError",),
    "fleischhack": (
        "AgreementReport",
        "QMeasure",
        "RealPoint",
        "RPart",
        "extension_agreement_check",
        "extension_battery",
        "q_invariance_verdict",
        "r_part_invariance_verdict",
        "theta_tilde",
        "xi_eval",
    ),
    "frequencies": ("Frequency", "FrequencyModule", "Generator"),
    "functions": ("C0Function", "ExtendedFunction"),
    "hilbert": ("GramOperator", "UnitarityReport", "gram_matrix", "unitarity_check"),
    "measures": (
        "FSMeasure",
        "InvarianceReport",
        "UniquenessVerdict",
        "box_support",
        "cross_support",
        "uniqueness_verdict",
    ),
    "parser": ("lower_expression", "parse_expression", "parse_scalar_literal"),
    "scalars": ("EC_I", "EC_ONE", "EC_ZERO", "ExactComplex", "PiTimes", "SymbolicReal"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
