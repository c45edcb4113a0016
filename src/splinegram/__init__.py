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

from .decay import (DecayConstants, DecayReport, LemmaCheck,
                    attach_lemma_checks, decay_constants, decay_report,
                    fit_decay_constants, minor_adjusted_factor, phi_inv,
                    psi_inv, report_csv_rows, report_to_json, verify_lemmas)
from .errors import ArithmeticFailure, InputError, ResourceBudgetError
from .gram import (SymBandedMatrix, build_gram, check_total_positivity,
                   gram_linear, gram_quadratic, gram_quadrature, linear_entry,
                   matrix_from_json, matrix_to_json, quad_entry,
                   quadratic_cross_terms)
from .invstep import (GrowingInverse, check_checkerboard,
                      dense_inverse_oracle, history_to_json, inverse_to_json,
                      invert_iteratively, max_residual)
from .knots import (KnotSequence, bspline_l1, build_knots, eval_bspline,
                    eval_quadratic_closed, knots_from_json, knots_to_json,
                    load_partition, save_partition)
from .multipoly import FactoredRational, MultiPoly, get_term_budget, term_budget
from .partitions import (EXACT_SWEEP_MAX_M, PartitionSpec, SweepConfig,
                         parse_spec, realize, shrink_one_gap,
                         sweep_partitions)
from .polycert import (Certificate, GapBasis, INEQUALITY_NAMES,
                       build_inequality, certificate_to_json,
                       certify_inequality, certify_nonneg, gaps_for,
                       spot_check)

__version__ = "0.1.0"

__all__ = [
    "ArithmeticFailure", "Certificate", "DecayConstants", "DecayReport",
    "EXACT_SWEEP_MAX_M", "FactoredRational", "GapBasis", "GrowingInverse",
    "INEQUALITY_NAMES", "InputError", "KnotSequence", "LemmaCheck",
    "MultiPoly", "PartitionSpec", "ResourceBudgetError", "SweepConfig",
    "SymBandedMatrix", "attach_lemma_checks", "bspline_l1", "build_gram",
    "build_inequality", "build_knots", "certificate_to_json",
    "certify_inequality", "certify_nonneg", "check_checkerboard",
    "check_total_positivity", "decay_constants", "decay_report",
    "dense_inverse_oracle", "eval_bspline",
    "eval_quadratic_closed", "fit_decay_constants", "gaps_for",
    "get_term_budget", "gram_linear", "gram_quadratic", "gram_quadrature",
    "history_to_json", "inverse_to_json", "invert_iteratively",
    "knots_from_json", "knots_to_json", "linear_entry", "load_partition",
    "matrix_from_json", "matrix_to_json", "max_residual",
    "minor_adjusted_factor", "parse_spec", "phi_inv", "psi_inv", "quad_entry",
    "quadratic_cross_terms", "realize", "report_csv_rows", "report_to_json",
    "save_partition", "shrink_one_gap", "spot_check", "sweep_partitions",
    "term_budget", "verify_lemmas",
]
