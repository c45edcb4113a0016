"""B-spline Gram matrices, their inverses, decay bounds, certificates.

The package computes the banded Gram matrices of B-spline bases in the
partition-of-unity normalization (closed forms for orders 2 and 3,
quadrature for any order), inverts them and their leading principal
submatrices from one banded LDL^T factorization (the pivots, and Takahashi's
sparse-inverse recurrence for the full inverse), verifies geometric
off-diagonal decay of the inverses against explicit mesh-ratio-independent
constants, and machine-checks the symbolic nonnegativity certificates behind
those constants with an exact sparse polynomial engine.
"""

from .decay import (DecayConstants, DecayReport, LemmaCheck, decay_constants,
                    decay_report, report_csv_rows, report_to_json,
                    verify_lemmas)
from .errors import ArithmeticFailure, InputError, ResourceBudgetError
from .gram import SymBandedMatrix, build_gram, gram_quadrature, matrix_to_json
from .invstep import (GrowingInverse, check_checkerboard, history_to_json,
                      inverse_to_json, invert_iteratively, max_residual)
from .knots import KnotSequence, knots_to_json
from .multipoly import FactoredRational, MultiPoly, term_budget
from .partitions import (EXACT_SWEEP_MAX_M, PartitionSpec, SweepConfig,
                         parse_spec, realize, sweep_partitions)
from .polycert import (Certificate, GapBasis, INEQUALITY_NAMES,
                       build_inequality, certificate_to_json,
                       certify_inequality, certify_nonneg, spot_check)

__version__ = "0.1.0"

__all__ = [
    "ArithmeticFailure", "Certificate", "DecayConstants", "DecayReport",
    "EXACT_SWEEP_MAX_M", "FactoredRational", "GapBasis", "GrowingInverse",
    "INEQUALITY_NAMES", "InputError", "KnotSequence", "LemmaCheck",
    "MultiPoly", "PartitionSpec", "ResourceBudgetError", "SweepConfig",
    "SymBandedMatrix", "build_gram", "build_inequality",
    "certificate_to_json", "certify_inequality",
    "certify_nonneg", "check_checkerboard", "decay_constants",
    "decay_report", "gram_quadrature",
    "history_to_json", "inverse_to_json", "invert_iteratively",
    "knots_to_json", "matrix_to_json", "max_residual", "parse_spec",
    "realize", "report_csv_rows", "report_to_json", "spot_check",
    "sweep_partitions", "term_budget", "verify_lemmas",
]
