"""Acceptance battery: ten criteria, one test and one printed verdict each.

Each test prints ``criterion N: PASS/FAIL - <summary>`` (shown under
``pytest -s`` or in captured output on failure), so a run of this module
doubles as the release checklist.  Exact claims use rational arithmetic
end to end; float claims state their tolerance explicitly.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

from oracles import (bracket, check_total_positivity, dense_inverse_oracle,
                     eta, quadratic_cross_terms)
from splinegram import (GapBasis, KnotSequence, SweepConfig, build_gram,
                        build_inequality, certify_inequality,
                        check_checkerboard, decay_constants, decay_report,
                        gram_quadrature, invert_iteratively, spot_check,
                        sweep_partitions, verify_lemmas)
from splinegram.multipoly import get_term_budget
from splinegram.partitions import random_interior
from splinegram.polycert import INEQUALITY_NAMES

SEED = 20260814

LINEAR_CHECKS = {"sandwich_lower", "sandwich_middle", "sandwich_outer",
                 "lastcol_decay", "full_decay"}
QUADRATIC_CHECKS = {"chain_b_le_phi", "chain_phi_le_psi", "chain_psi_le_12",
                    "offdiag_pair", "minor_nonneg", "theta_hat_bound",
                    "theta_consec", "lastcol_decay", "full_decay"}


@contextmanager
def criterion(num, description):
    note = {}
    try:
        yield note
    except BaseException:
        print(f"criterion {num}: FAIL - {description}")
        raise
    detail = f" [{note['detail']}]" if "detail" in note else ""
    print(f"criterion {num}: PASS - {description}{detail}")


def _random_exact_ks(rng, order, count):
    return KnotSequence(order, random_interior(rng, count, "exact"))


def _random_float_ks(rng, order, count):
    return KnotSequence(order, random_interior(rng, count, "float"))


def _exact_residual_is_zero(state, A):
    """B_m A = I over rationals, entry by entry."""
    m = A.n
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            lo, hi = max(1, j - A.bandwidth), min(m, j + A.bandwidth)
            s = sum(state.B[i - 1, l - 1] * A.get(l, j) for l in range(lo, hi + 1))
            if s != (1 if i == j else 0):
                return False
    return True


# ---------------------------------------------------------------------------


def test_criterion_01_exact_inversion_matches_oracle():
    with criterion(1, "iterative inverse is exact and oracle-identical "
                      "(k in {2,3}, 20 random rational partitions each, "
                      "m <= 40, under 30 s)") as note:
        rng = random.Random(SEED + 1)
        t0 = time.perf_counter()
        partitions = 0
        for order in (2, 3):
            counts = [40 - order] + [rng.randint(1, 40 - order)
                                     for _ in range(19)]
            for count in counts:
                ks = _random_exact_ks(rng, order, count)
                assert ks.m <= 40
                A = build_gram(ks)
                state = invert_iteratively(A)
                oracle = dense_inverse_oracle(A)
                assert all(state.B[i - 1, j - 1] == oracle[i - 1][j - 1]
                           for i in range(1, ks.m + 1)
                           for j in range(1, ks.m + 1))
                assert _exact_residual_is_zero(state, A)
                partitions += 1
        elapsed = time.perf_counter() - t0
        assert partitions == 40
        assert elapsed <= 30.0
        note["detail"] = f"40 partitions in {elapsed:.1f}s"


def test_criterion_02_gram_closed_forms_match_quadrature():
    with criterion(2, "closed-form Gram matrices match quadrature "
                      "(1e-12 relative in float at m <= 200, exact equality "
                      "in rational mode, uniform interior values exact)"):
        rng = random.Random(SEED + 2)
        # float route, m = 200, relative to the matrix scale
        worst = 0.0
        for order in (2, 3):
            ks = _random_float_ks(rng, order, 200 - order)
            assert ks.m == 200
            closed = build_gram(ks, method="closed")
            quad = gram_quadrature(ks)
            scale = max(abs(c) for band in closed.bands for c in band)
            for d in range(closed.bandwidth + 1):
                for c, q in zip(closed.bands[d], quad.bands[d]):
                    worst = max(worst, abs(c - q) / scale)
        assert worst <= 1e-12
        # exact route: interval-wise rational quadrature is entry-identical
        for order in (2, 3):
            for _ in range(5):
                ks = _random_exact_ks(rng, order, rng.randint(1, 12))
                assert ([b.tolist() for b in gram_quadrature(ks).bands]
                        == [b.tolist() for b in build_gram(ks).bands])
        # uniform order-3 interior values: 11h/20, 13h/60, h/120
        for n_interior in (5, 9):
            h = F(1, n_interior + 1)
            ks = KnotSequence(3, [i * h for i in range(1, n_interior + 1)])
            A = build_gram(ks)
            m = ks.m
            assert all(A.get(i, i) == 11 * h / 20 for i in range(3, m - 1))
            assert all(A.get(i, i + 1) == 13 * h / 60 for i in range(3, m - 2))
            assert all(A.get(i, i + 2) == h / 120 for i in range(2, m - 2))


def test_criterion_03_row_sums_equal_support_over_order():
    with criterion(3, "Gram row sums equal (t_{i+k}-t_i)/k exactly "
                      "(k in {2,3,4,5}, 10 partitions each)") as note:
        rng = random.Random(SEED + 3)
        rows = 0
        for order in (2, 3, 4, 5):
            hi = 16 if order <= 3 else 10
            for _ in range(10):
                ks = _random_exact_ks(rng, order, rng.randint(1, hi))
                A = build_gram(ks)
                for i in range(1, ks.m + 1):
                    row_sum = sum(A.get(i, j) for j in range(1, ks.m + 1))
                    assert row_sum == bracket(ks, order, 0, i) / order
                    rows += 1
        note["detail"] = f"{rows} rows"


def test_criterion_04_checkerboard_sign_pattern():
    with criterion(4, "inverse entries satisfy (-1)^(i+j) b_ij >= 0 exactly "
                      "(k in {2,3}, 40 exact trials)") as note:
        trials = 0
        for order in (2, 3):
            cfg = SweepConfig(order=order, trials=20, max_m=24,
                              scalar_mode="exact", seed=SEED + 4 + order)
            for ks in sweep_partitions(cfg):
                state = invert_iteratively(build_gram(ks))
                passed, witness = check_checkerboard(state.B)
                assert passed and witness is None
                trials += 1
        assert trials == 40
        note["detail"] = f"{trials} trials"


def test_criterion_05_total_positivity_of_small_minors():
    with criterion(5, "all Gram minors of order <= 4 are nonnegative, exactly "
                      "(k in {2,3}, m <= 12, 10 partitions each)") as note:
        rng = random.Random(SEED + 5)
        minors = 0
        for order in (2, 3):
            counts = [12 - order] + [rng.randint(2, 12 - order)
                                     for _ in range(9)]
            for count in counts:
                ks = _random_exact_ks(rng, order, count)
                assert ks.m <= 12
                report = check_total_positivity(build_gram(ks), 4)
                assert report.passed and report.min_value >= 0
                minors += report.minors_checked
        note["detail"] = f"{minors} minors"


def _run_battery(order, check_names, float_trials, exact_trials):
    """Shared sweep for criteria 6 and 7.

    Float sweep: m <= 100, slack 1e-12.  Exact sweep: rational comparisons,
    no slack.  Returns the worst observed ratio per named check (1.0 means a
    bound held with equality somewhere).
    """
    worst = {name: float("-inf") for name in check_names}

    def run(cfg, slack):
        n = 0
        cap = 1.0 + slack
        for ks in sweep_partitions(cfg):
            A = build_gram(ks)
            state = invert_iteratively(A, keep_history=True)
            consts = decay_constants(ks.order)
            report = decay_report(state.B, ks, consts, slack,
                                  verify_lemmas(ks, A, state, consts, slack))
            assert report.certified and report.passed
            names = set()
            for check in report.lemma_checks:
                assert check.passed, (check.name, check.witness)
                # exact trials prove ratio <= 1; float reporting may round
                # an equality up by a few ulp, bounded by the slack
                assert check.worst_ratio <= cap, (check.name, check.worst_ratio)
                names.add(check.name)
                worst[check.name] = max(worst[check.name], check.worst_ratio)
            assert names == check_names
            n += 1
        return n

    n_float = run(SweepConfig(order=order, trials=float_trials, max_m=100,
                              scalar_mode="float", seed=SEED + 10 * order),
                  slack=1e-12)
    # modest size keeps 80 exact-rational trials fast; the count is what
    # the guarantee needs, and SweepConfig allows up to EXACT_SWEEP_MAX_M
    n_exact = run(SweepConfig(order=order, trials=exact_trials,
                              max_m=28, scalar_mode="exact",
                              seed=SEED + 10 * order + 1),
                  slack=0.0)
    assert n_float == float_trials and n_exact == exact_trials
    return worst


def test_criterion_06_linear_decay_bounds():
    with criterion(6, "order-2 sandwich, last-column (K=4, q=2/3) and full "
                      "decay (K=36/5) bounds hold on 1000 float partitions "
                      "(m <= 100, slack 1e-12) and 40 exact partitions") as note:
        worst = _run_battery(2, LINEAR_CHECKS, 1000, 40)
        # the diagonal lower bound 3/(20)_n is attained at n = 1
        assert worst["sandwich_lower"] >= 1.0
        rng = random.Random(SEED + 6)
        for _ in range(5):
            ks = _random_exact_ks(rng, 2, rng.randint(1, 12))
            state = invert_iteratively(build_gram(ks), keep_history=True)
            assert state.diag_history[0] == 3 / bracket(ks, 2, 0, 1)
        note["detail"] = ("worst ratios " +
                          ", ".join(f"{k}={worst[k]:.4f}"
                                    for k in sorted(LINEAR_CHECKS)))


def test_criterion_07_quadratic_decay_bounds():
    with criterion(7, "order-3 chain b <= phi <= psi <= 12/(30)_n, offdiag "
                      "pair, theta product <= 87/100, last-column (576/29) "
                      "and full decay (5525568/10933) bounds hold on 1000 "
                      "float partitions (m <= 100, slack 1e-12) and 40 exact "
                      "partitions") as note:
        worst = _run_battery(3, QUADRATIC_CHECKS, 1000, 40)
        ks = KnotSequence(3, [F(1, 4), F(1, 2), F(3, 4)])
        report = decay_report(invert_iteratively(build_gram(ks)).B, ks,
                              decay_constants(3))
        assert report.K == F(5525568, 10933)
        assert report.gamma_sq == F(87, 100)
        note["detail"] = ("worst ratios " +
                          ", ".join(f"{k}={worst[k]:.4f}"
                                    for k in sorted(QUADRATIC_CHECKS)))


def test_criterion_08_symbolic_certificates():
    with criterion(8, "all five nonnegativity certificates succeed within "
                      "the 5M-term budget, phi_step under 5 minutes, each "
                      "spot-validated at 1000 positive rational points") as note:
        assert get_term_budget() == 5_000_000
        timings = {}
        for name in INEQUALITY_NAMES:
            t0 = time.perf_counter()
            cert = certify_inequality(name)
            timings[name] = time.perf_counter() - t0
            assert cert.success and cert.witness is None
            if name == "theta_product":
                assert [p.name for p in cert.prerequisites] == ["tp_minor"]
                assert cert.prerequisites[0].success
        assert timings["phi_step"] <= 300.0
        # the cleared offdiag denominator is the stated bracket product
        basis = GapBasis(5)
        stated = (basis.bracket(1, -1, 1) * basis.bracket(2, 0, 1) ** 2
                  * basis.bracket(3, 1, 1) ** 2 * basis.bracket(4, 2, 1))
        actual = build_inequality("offdiag").denominator_expanded()
        assert actual.primitive()[1] == stated.primitive()[1]
        for i, name in enumerate(INEQUALITY_NAMES + ("tp_minor",)):
            fr = build_inequality(name)
            assert spot_check(fr, 1000, seed=SEED + 8 + i) == 1000
        note["detail"] = f"phi_step certified in {timings['phi_step']:.1f}s"


def test_criterion_09_eta_inequality():
    with criterion(9, "eta_{j,n+1}(t_{n+k}-t_{n+1}) <= "
                      "eta_{j,n}(t_{n+k+1}-t_{n+1}) exactly on 10000 random "
                      "(j,n) queries") as note:
        rng = random.Random(SEED + 9)
        checks = 0
        while checks < 10000:
            order = rng.choice((2, 3, 4, 5))
            ks = _random_exact_ks(rng, order, rng.randint(2, 20))
            for _ in range(100):
                n = rng.randint(1, ks.m - 1)
                j = rng.randint(1, n)
                lhs = eta(ks, j, n + 1) * bracket(ks, order, 1, n)
                rhs = eta(ks, j, n) * bracket(ks, order + 1, 1, n)
                assert lhs <= rhs
                checks += 1
        note["detail"] = f"{checks} queries"


def test_criterion_10_cross_term_identity():
    with criterion(10, "the two quadratic cross-term integrals sum to the "
                       "order-3 off-diagonal Gram entry exactly "
                       "(20 exact partitions)") as note:
        rng = random.Random(SEED + 10)
        pairs = 0
        for _ in range(20):
            ks = _random_exact_ks(rng, 3, rng.randint(1, 16))
            A = build_gram(ks)
            for i in range(1, ks.m):
                first, second = quadratic_cross_terms(ks, i)
                assert first + second == A.get(i, i + 1)
                pairs += 1
        note["detail"] = f"{pairs} entries"
