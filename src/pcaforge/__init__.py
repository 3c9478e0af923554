"""Partial and almost-partial covering arrays.

A partial m-covering array is an N x k symbol grid in which every column
t-set covers at least m distinct t-tuples; the epsilon-almost variant lets a
fraction epsilon of the t-sets fall short.  This package evaluates the
probabilistic existence bounds for both relaxations, constructs such arrays
with seeded randomized builders (plus an exactly derandomized one), verifies
coverage exhaustively, and serializes everything to stable text formats.
"""

from .bounds import (
    BoundSweep,
    SweepPoint,
    bound_apca,
    bound_apca_cyclic,
    bound_apca_frobenius,
    bound_can_reference,
    bound_concat,
    bound_pca_asymptotic,
    bound_pca_cyclic,
    bound_pca_lll,
    bound_pca_union,
    log_binomial,
    sweep,
)
from .construct import (
    BuildReport,
    build_apca_cyclic,
    build_apca_derandomized,
    build_apca_frobenius,
    build_apca_randomized,
    build_concat,
    build_pca_moser_tardos,
)
from .core import Array, BoundResult, PcaParams, validate
from .coverage import (
    ApcaCheck,
    CoverageProfile,
    Defect,
    PcaCheck,
    completeness,
    coverage_profile,
    is_apca,
    is_pca,
    naive_oracle,
)
from .galois import (
    Field,
    GroupAction,
    constant_rows,
    cyclic_action,
    develop,
    field_make,
    frobenius_action,
    is_prime_power,
)

__version__ = "0.1.0"

__all__ = [
    "Array",
    "ApcaCheck",
    "BoundResult",
    "BoundSweep",
    "BuildReport",
    "CoverageProfile",
    "Defect",
    "Field",
    "GroupAction",
    "PcaCheck",
    "PcaParams",
    "SweepPoint",
    "bound_apca",
    "bound_apca_cyclic",
    "bound_apca_frobenius",
    "bound_can_reference",
    "bound_concat",
    "bound_pca_asymptotic",
    "bound_pca_cyclic",
    "bound_pca_lll",
    "bound_pca_union",
    "build_apca_cyclic",
    "build_apca_derandomized",
    "build_apca_frobenius",
    "build_apca_randomized",
    "build_concat",
    "build_pca_moser_tardos",
    "completeness",
    "constant_rows",
    "coverage_profile",
    "cyclic_action",
    "develop",
    "field_make",
    "frobenius_action",
    "is_apca",
    "is_pca",
    "is_prime_power",
    "log_binomial",
    "naive_oracle",
    "sweep",
    "validate",
]
