"""bohrlab: exact almost-periodic function algebra, torus truncations of
the Bohr compactification, Fourier-Stieltjes moment measures, and
verifiers showing that translation invariance forces the Haar measure on
both the character group and the glued line-plus-torus configuration
space."""

from .ap import APFunction
from .bohr import BohrPoint, KroneckerResult, iota, kronecker_approx, kronecker_residual
from .errors import InputError
from .fleischhack import (
    AgreementReport,
    BasisSet,
    C0Function,
    CompactComplement,
    ExtendedFunction,
    FunctionPreimage,
    OpenReal,
    QMeasure,
    RealPoint,
    RPart,
    extension_agreement_check,
    extension_battery,
    q_invariance_verdict,
    r_part_invariance_verdict,
    theta_tilde,
    topology_membership,
    xi_eval,
)
from .frequencies import Frequency, FrequencyModule, Generator
from .hilbert import (
    GramOperator,
    UnitarityReport,
    gram_matrix,
    l2_inner,
    translation_matrix,
    unitarity_check,
    unitarity_defect_matrix,
)
from .measures import (
    FSMeasure,
    InvarianceReport,
    TorusDensity,
    UniquenessVerdict,
    box_support,
    cross_support,
    uniqueness_verdict,
)
from .parser import (
    lower_expression,
    parse_expression,
    parse_scalar_literal,
    print_expression,
)
from .scalars import EC_I, EC_ONE, EC_ZERO, ExactComplex, PiTimes, SymbolicReal

__version__ = "0.1.0"
