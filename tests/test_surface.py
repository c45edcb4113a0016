"""The public surface: ``splinegram.__all__`` is pinned, every name in it
resolves, and the test-only oracles live in tests/oracles.py, not in the
package."""

import importlib
import inspect
import pkgutil

import splinegram
from splinegram.scalars import format_scalars

PUBLIC = [
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

# independent reference implementations, kept in tests/oracles.py
ORACLES = ("dense_inverse_oracle", "check_total_positivity", "_int_det_bareiss",
           "MinorReport", "DEFAULT_MINOR_BUDGET", "quadratic_cross_terms",
           "eval_quadratic_closed", "scalar_ratio", "gaps_for",
           "spot_check_exact", "eval_bspline", "nonneg_witness_sorted",
           "phi_step_six_terms", "theta_product_left_to_right",
           "invert_rowwise", "ldlt_rowwise")

# per-entry copies of the array paths, wrappers, the per-order Gram builders,
# and the Fraction-coefficient, per-polynomial field-width and wide-key
# helpers of the polynomial engine, the report's lemma merger, the
# least-squares decay fit, and the readers of bare (num, den) tuples, that
# were deleted
DELETED = ("linear_entry", "quad_entry", "phi_inv", "psi_inv",
           "minor_adjusted_factor", "matrix_from_json", "bspline_l1",
           "build_knots", "save_partition", "is_exact", "_is_float_partition",
           "_tidy", "_all_int", "_norm_coeff", "_MIN_BITS", "_bits_for",
           "_repack", "_repack_keys", "_keys_fit", "gram_linear",
           "gram_quadratic", "_quad_bands", "_banded", "_indices", "_NC_CACHE",
           "attach_lemma_checks", "fit_decay_constants", "_at", "_integer_parts",
           "_divide")
DELETED_METHODS = {
    splinegram.SymBandedMatrix: ("row_sum", "leading", "to_dense", "is_exact_matrix"),
    splinegram.KnotSequence: ("mesh", "gaps", "bracket", "eta"),
    splinegram.GrowingInverse: ("column", "rows", "entry"),
    splinegram.MultiPoly: ("coefficient", "content", "_int_coeffs", "_integral",
                           "_bits", "_plan", "_eval_plan", "_eval_rational"),
}
# mode parameters that the knots' ``exact`` or an array's dtype replaced,
# and a field that nothing read
DELETED_PARAMETERS = {splinegram.gram_quadrature: "mode", format_scalars: "exact",
                      splinegram.DecayConstants: "provenance"}


def _submodules():
    return [importlib.import_module(f"splinegram.{info.name}")
            for info in pkgutil.iter_modules(splinegram.__path__)]


def test_all_is_pinned():
    assert sorted(splinegram.__all__) == sorted(PUBLIC)
    assert len(set(splinegram.__all__)) == len(splinegram.__all__)


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from splinegram import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_oracles_are_not_in_the_package():
    modules = [splinegram, *_submodules()]
    assert len(modules) == 11  # the package and its ten modules
    for mod in modules:
        for name in ORACLES + DELETED:
            assert not hasattr(mod, name), (mod.__name__, name)
    for cls, names in DELETED_METHODS.items():
        for name in names:
            assert not hasattr(cls, name), (cls.__name__, name)
    for func, name in DELETED_PARAMETERS.items():
        assert name not in inspect.signature(func).parameters, (func.__name__, name)
