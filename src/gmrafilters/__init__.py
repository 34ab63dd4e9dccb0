"""Matrix step-function filters on the circle and their dilation analysis.

The package builds filters relative to a chain of supports and a dilation
factor, verifies their defining coset identities exactly on rational
grids, realizes the associated averaging operator and its adjoint on step
fields, and decides between the two sides of the purity dichotomy: decay
of all averages against a shared modulus-one eigenvector, backed either
way by checkable evidence (a direct eigenpair re-test, an expansion
certificate on a region around 0, or a spectrum of the filter at the
fixed point 0 that stays off the unit circle).

Records follow one rule.  A type that validates its fields is a frozen
dataclass with a ``__post_init__``; every plain result record is a
``typing.NamedTuple``, whose class costs a fraction of a dataclass's to
create at import.  A value derived from an immutable input is cached on
that input rather than passed in by the caller.

The names of ``lowpass`` (the block-expansion certificate) and ``gmra``
(the intersection report) load on first access: of the command line's
calls only ``classify`` and ``generate journe`` run them, and every other
call would compile them for nothing.
"""

import importlib

from .bundleio import (
    canonical_json,
    emit_bundle,
    float_str,
    load_bundle,
    parse_bundle,
)
from .errors import (
    BundleFormatError,
    DimensionCapError,
    GmraFilterError,
    GridAlignmentError,
    ParameterError,
    ResolutionError,
)
from .filters import (
    FilterMatrix,
    JourneParams,
    ResidualReport,
    StepFn,
    SupportReport,
    filter_equation_residual,
    generalized_filter_residual,
    isometry_defect,
    journe_profile,
    journe_sigma_chain,
    make_journe_step,
    make_constant,
    make_haar,
    make_journe_family,
    make_shannon,
    refine,
    support_violations,
)
from .ruelle import (
    INCONCLUSIVE,
    NOT_PURE_CERTIFIED,
    PURE_AT_RESOLUTION,
    PURE_CERTIFIED,
    EigenPair,
    FixedCell,
    PurityVerdict,
    TransferMatrix,
    TransferSpectrum,
    VecField,
    assemble_transfer_matrix,
    classify_purity,
    decay_probe,
    isometry_residual,
    martingale_sequence,
    random_vecfield,
    ruelle_apply,
    transfer_apply,
    transfer_spectrum,
)
from .torus import GridSpec, IntervalSet, SigmaChain, rat_str

__version__ = "0.1.0"

# Name -> the submodule that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys(
        [
            "BoundCheck",
            "Certificate",
            "CertificateFailure",
            "JourneDerivation",
            "certificate_eps",
            "check_certificate",
            "derive_journe",
            "search_certificate",
        ],
        "lowpass",
    ),
    **dict.fromkeys(["IntersectionReport", "intersection_report"], "gmra"),
}


def __getattr__(name: str):
    if name in ("gmra", "lowpass"):
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))

__all__ = [
    "BoundCheck",
    "BundleFormatError",
    "Certificate",
    "CertificateFailure",
    "DimensionCapError",
    "EigenPair",
    "FilterMatrix",
    "FixedCell",
    "GmraFilterError",
    "GridAlignmentError",
    "GridSpec",
    "INCONCLUSIVE",
    "IntersectionReport",
    "IntervalSet",
    "JourneDerivation",
    "JourneParams",
    "NOT_PURE_CERTIFIED",
    "PURE_AT_RESOLUTION",
    "PURE_CERTIFIED",
    "ParameterError",
    "PurityVerdict",
    "ResidualReport",
    "ResolutionError",
    "SigmaChain",
    "StepFn",
    "SupportReport",
    "TransferMatrix",
    "TransferSpectrum",
    "VecField",
    "assemble_transfer_matrix",
    "canonical_json",
    "certificate_eps",
    "check_certificate",
    "classify_purity",
    "decay_probe",
    "derive_journe",
    "emit_bundle",
    "filter_equation_residual",
    "float_str",
    "generalized_filter_residual",
    "intersection_report",
    "isometry_defect",
    "isometry_residual",
    "journe_profile",
    "journe_sigma_chain",
    "load_bundle",
    "make_journe_step",
    "make_constant",
    "make_haar",
    "make_journe_family",
    "make_shannon",
    "martingale_sequence",
    "parse_bundle",
    "random_vecfield",
    "rat_str",
    "refine",
    "ruelle_apply",
    "search_certificate",
    "support_violations",
    "transfer_apply",
    "transfer_spectrum",
]
