"""Decay constants, bound functions, and the per-instance lemma batteries."""

import random
from dataclasses import replace
from fractions import Fraction as F
from math import isqrt

import numpy as np
import pytest

from oracles import array_at
from splinegram import (InputError, KnotSequence, build_gram, decay_constants,
                        decay_report, fit_decay_constants, invert_iteratively,
                        report_csv_rows, report_to_json, verify_lemmas)
from splinegram.decay import (_decay_kernel, attach_lemma_checks,
                              minor_formula, phi_inv_formula, psi_inv_formula)
from splinegram.gram import ratio
from splinegram.partitions import shrink_one_gap


def _random_exact(rng, order, count):
    den = rng.randint(count + 2, 4 * count + 12)
    interior = sorted(rng.sample(range(1, den), count)) if count else []
    return KnotSequence(order, [F(p, den) for p in interior])


def _inverted(ks, history=True):
    return invert_iteratively(build_gram(ks), keep_history=history)


# ---------------------------------------------------------------------------
# Constants


def test_constants_order2():
    c = decay_constants(2)
    assert (c.K, c.lastcol_K, c.gamma_sq) == (F(36, 5), F(4), F(4, 9))
    assert c.gamma == 2.0 / 3.0 and c.certified


def test_constants_order3():
    c = decay_constants(3)
    assert c.lastcol_K == F(576, 29)
    # K = C (1 + (16/13) C) with C = 576/29
    assert c.K == F(576, 29) * (1 + F(16, 13) * F(576, 29)) == F(5525568, 10933)
    assert c.gamma_sq == F(87, 100) and c.certified


def test_constants_unknown_order():
    with pytest.raises(InputError):
        decay_constants(4)


# ---------------------------------------------------------------------------
# Bound functions (order 3)


def test_phi_first_index():
    # at n=1 every term with a left-reaching bracket vanishes: phi_1 = 5/(30)_1
    ks = KnotSequence(3, [F(1, 5), F(1, 2)])
    assert array_at(phi_inv_formula, ks, 1) == ks.bracket(3, 0, 1) / 5
    assert 1 / array_at(phi_inv_formula, ks, 1) == 5 / ks.bracket(3, 0, 1)


def test_psi_uniform_value():
    # uniform interior gaps h: psi = 36/(13h); h = 1/6 gives 216/13
    ks = KnotSequence(3, [F(i, 6) for i in range(1, 6)])
    assert 1 / array_at(psi_inv_formula, ks, 4) == F(216, 13)
    assert array_at(psi_inv_formula, ks, 4) == F(13, 216)


def test_bound_chain():
    # b_{n,n}^n <= phi_n <= psi_n <= 12/(30)_n on every leading size
    rng = random.Random(21)
    for _ in range(5):
        ks = _random_exact(rng, 3, rng.randint(2, 9))
        st = _inverted(ks)
        ns = np.arange(1, ks.m + 1)
        phis = 1 / phi_inv_formula(ks.brackets, ratio, ns)
        psis = 1 / psi_inv_formula(ks.brackets, ratio, ns)
        for n in range(1, ks.m + 1):
            b = st.diag_history[n - 1]
            phi, psi = phis[n - 1], psis[n - 1]
            assert b <= phi <= psi <= 12 / ks.bracket(3, 0, n)


def test_minor_adjusted_factor_and_theta():
    ks = KnotSequence(3, [F(1, 6), F(1, 3), F(2, 3), F(5, 6)])
    st = _inverted(ks)
    for n in range(3, ks.m + 1):
        mval = array_at(minor_formula, ks, n)
        theta = st.diag_history[n - 1] * mval
        # <= phi_n M_n
        assert mval >= 0 and 0 <= theta <= mval / array_at(phi_inv_formula, ks, n)
    # M_n needs n >= 3: at n = 2 it divides by a_{0,1} = 0
    with pytest.raises(ZeroDivisionError):
        array_at(minor_formula, ks, 2)


# ---------------------------------------------------------------------------
# Lemma batteries


def test_linear_battery_exact():
    rng = random.Random(22)
    for _ in range(6):
        ks = _random_exact(rng, 2, rng.randint(1, 10))
        if rng.random() < 0.5:
            ks = shrink_one_gap(ks, rng.randrange(len(ks.interior) + 1), F(1, 10 ** 4))
        st = _inverted(ks)
        checks = attach_lemma_checks(decay_report(st.B, ks),
                                     verify_lemmas(ks, st)).lemma_checks
        assert [c.name for c in checks] == [
            "sandwich_lower", "sandwich_middle", "sandwich_outer",
            "lastcol_decay", "full_decay"]
        assert all(c.passed for c in checks), ks.interior


def test_linear_battery_equality_at_first_index():
    # b_{1,1} = 3/(20)_1 exactly: the lower sandwich is tight at n=1
    ks = KnotSequence(2, [F(1, 3), F(2, 3)])
    st = _inverted(ks)
    assert st.diag_history[0] == 3 / ks.bracket(2, 0, 1)
    lower = verify_lemmas(ks, st)[0]
    assert lower.worst_ratio == 1.0 and lower.witness == (1,)


def test_quadratic_battery_exact():
    rng = random.Random(23)
    for _ in range(5):
        ks = _random_exact(rng, 3, rng.randint(2, 9))
        if rng.random() < 0.5:
            ks = shrink_one_gap(ks, rng.randrange(len(ks.interior) + 1), F(1, 10 ** 4))
        st = _inverted(ks)
        checks = attach_lemma_checks(decay_report(st.B, ks),
                                     verify_lemmas(ks, st)).lemma_checks
        assert [c.name for c in checks] == [
            "chain_b_le_phi", "chain_phi_le_psi", "chain_psi_le_12",
            "offdiag_pair", "minor_nonneg", "theta_hat_bound",
            "theta_consec", "lastcol_decay", "full_decay"]
        assert all(c.passed for c in checks), ks.interior


def test_battery_float_with_slack():
    rng = random.Random(24)
    for order in (2, 3):
        for _ in range(4):
            count = rng.randint(2, 30)
            pts = sorted(rng.random() for _ in range(count))
            ks = KnotSequence(order, pts)
            checks = verify_lemmas(ks, _inverted(ks), slack=1e-12)
            assert all(c.passed for c in checks), (order, count)


def test_negative_minor_fails_in_both_modes(monkeypatch):
    # M_n = -a_{n-1,n}/2 breaks M_n >= 0 and theta_n <= phi_n M_n; their signed
    # values pass only at <= 0, so float mode fails them as exact mode does
    from splinegram import decay
    monkeypatch.setattr(decay, "minor_formula",
                        lambda br, ratio, n, a: -a(n - 1, 1) / 2)
    rng = random.Random(27)
    for _ in range(4):
        ks = _random_exact(rng, 3, rng.randint(2, 12))
        if rng.random() < 0.5:
            ks = shrink_one_gap(ks, rng.randrange(len(ks.interior) + 1), F(1, 10 ** 4))
        fks = KnotSequence(3, [float(t) for t in ks.interior])
        exact = verify_lemmas(ks, _inverted(ks))
        floats = verify_lemmas(fks, _inverted(fks), slack=1e-12)
        assert [c.name for c in exact] == [c.name for c in floats]
        for e, f in zip(exact, floats):
            if e.name in ("minor_nonneg", "theta_hat_bound"):
                assert not e.passed and not f.passed, e.name
            else:
                assert e.passed == f.passed, e.name


def test_battery_requires_history():
    ks = KnotSequence(2, [F(1, 2)])
    with pytest.raises(InputError):
        verify_lemmas(ks, _inverted(ks, history=False))
    with pytest.raises(InputError):
        verify_lemmas(KnotSequence(4, [F(1, 2)]),
                      _inverted(KnotSequence(4, [F(1, 2)])))


# ---------------------------------------------------------------------------
# Reports


def test_report_bernstein_linear():
    # B = [[4,-2],[-2,4]], eta_11 = 1: worst ratio 4/(36/5) = 5/9 at (1,1)
    ks = KnotSequence(2, [])
    st = _inverted(ks)
    report = decay_report(st.B, ks)
    assert report.passed and report.certified
    assert report.worst_entry == (1, 1)
    assert abs(report.worst_ratio - 5 / 9) < 1e-15


def test_report_json_shape():
    ks = KnotSequence(3, [F(1, 4), F(1, 2), F(3, 4)])
    st = _inverted(ks)
    report = attach_lemma_checks(decay_report(st.B, ks),
                                 verify_lemmas(ks, st))
    obj = report_to_json(report)
    assert set(obj) == {"k", "m", "K", "gamma_sq", "certified", "passed",
                        "worst_ratio", "worst_entry", "lemma_checks"}
    assert obj["passed"] is True
    assert obj["k"] == 3 and obj["m"] == 6
    assert obj["K"] == "5525568/10933" and obj["gamma_sq"] == "87/100"
    assert obj["certified"] is True
    assert len(obj["lemma_checks"]) == 9
    assert all(c["pass"] for c in obj["lemma_checks"])


def test_attach_lemma_checks_combines_pass():
    ks = KnotSequence(2, [F(1, 2)])
    st = _inverted(ks)
    report = decay_report(st.B, ks)
    own = report.lemma_checks  # the report's own full_decay family
    assert attach_lemma_checks(report, own).passed == report.passed
    from splinegram import LemmaCheck
    bad = LemmaCheck("synthetic", False, 2.0, -1.0, (1,), 1)
    assert not attach_lemma_checks(report, (bad,)).passed


def test_csv_rows():
    ks = KnotSequence(2, [F(1, 2)])
    st = _inverted(ks)
    rows = list(report_csv_rows(st.B, ks, decay_constants(2)))
    assert len(rows) == 9
    i, j, abs_b, eta, d, ratio = rows[0]
    assert (i, j, d) == (1, 1, 0)
    assert abs_b == 7.0 and eta == 0.5  # eta_11 = t_3 - t_1 on (0,0,1/2,1,1)
    assert all(r[5] <= 1.0 for r in rows)


def test_fit_constants_order4():
    ks = KnotSequence(4, [F(i, 8) for i in range(1, 8)])
    st = invert_iteratively(build_gram(ks))
    consts = fit_decay_constants(st.B, ks)
    assert not consts.certified
    assert 0 < consts.gamma <= 1.0
    assert consts.K > 0
    report = decay_report(st.B, ks, consts=consts)
    assert not report.certified


def test_report_validation():
    ks = KnotSequence(2, [F(1, 2)])
    st = _inverted(ks)
    with pytest.raises(InputError):
        decay_report(st.B, KnotSequence(2, [F(1, 3), F(2, 3)]))  # m mismatch
    with pytest.raises(InputError):
        decay_report(st.B, ks, consts=decay_constants(3))


def test_exact_verdicts_at_the_bound_and_tie_witness():
    # over KnotSequence(k, []) every eta_ij is 1, so b_ij is compared with
    # K gamma^|i-j| itself
    K2 = decay_constants(2).K
    at_bound = ((K2, -K2 * F(2, 3)), (-K2 * F(2, 3), K2))
    report = decay_report(at_bound, KnotSequence(2, []))
    assert report.passed and report.worst_ratio == 1.0
    # one part in 10^31 above the bound: the float ratio still reads 1.0
    above = ((K2 + F(1, 10 ** 30), F(0)), (F(0), K2))
    report = decay_report(above, KnotSequence(2, []))
    assert not report.passed and report.worst_ratio == 1.0
    assert report.worst_entry == (1, 1)
    # k = 3 at distance 2: gamma^2 = 87/100 is exact although gamma is not
    K3 = decay_constants(3).K
    for extra, passed in ((F(0), True), (F(1, 10 ** 30), False)):
        corner = K3 * F(87, 100) + extra
        B = ((F(1), F(0), corner), (F(0), F(1), F(0)), (corner, F(0), F(1)))
        report = decay_report(B, KnotSequence(3, []))
        assert report.passed is passed and report.worst_entry == (1, 3)
    # uniform:7, k = 2: (2,2) and (8,8) tie for the worst ratio; the first in
    # row-major order is the witness
    ks = KnotSequence(2, [F(i, 8) for i in range(1, 8)])
    B = _inverted(ks, history=False).B
    ratios = {(i, j): r for i, j, _, _, _, r in
              report_csv_rows(B, ks, decay_constants(2))}
    report = decay_report(B, ks)
    assert ratios[2, 2] == ratios[8, 8] == report.worst_ratio
    assert report.worst_entry == (2, 2)


def _loop_decay(entries, ks, K, gamma, gamma_sq, exact):
    """Per-entry reference for the decay kernel over ((i, j), b_ij) pairs in
    order: (worst ratio, first witness, passed)."""
    worst, witness, passed = float("-inf"), None, True
    for (i, j), x in entries:
        ev, d = ks.eta(i, j), abs(i - j)
        r = float(abs(x)) * float(ev) / (float(K) * gamma ** d)
        if r > worst:
            worst, witness = r, (i, j)
        if exact:
            passed &= ((x * ev) ** 2 * gamma_sq.denominator ** d
                       <= K ** 2 * gamma_sq.numerator ** d)
        else:
            passed &= r <= 1.0
    return worst, witness, passed


def test_kernel_families_match_per_entry_loop():
    rng = random.Random(25)
    for order in (2, 3):
        for exact in (True, False):
            ks = _random_exact(rng, order, rng.randint(1, 12))
            if not exact:
                ks = KnotSequence(order, [float(t) for t in ks.interior])
            st, c, m = _inverted(ks), decay_constants(order), ks.m
            report = attach_lemma_checks(decay_report(st.B, ks),
                                         verify_lemmas(ks, st))
            checks = {check.name: check for check in report.lemma_checks}
            upper = [((i, j), st.B[i - 1][j - 1])
                     for i in range(1, m + 1) for j in range(i, m + 1)]
            full = checks["full_decay"]
            assert (full.worst_ratio, full.witness, full.passed) == _loop_decay(
                upper, ks, c.K, c.gamma, c.gamma_sq, exact)
            assert (report.worst_ratio, report.worst_entry) == (full.worst_ratio,
                                                         full.witness)
            history = [((j, n), st.col_history[n - 1][j - 1])
                       for n in range(1, m + 1) for j in range(1, n + 1)]
            last = checks["lastcol_decay"]
            assert (last.worst_ratio, last.witness, last.passed) == _loop_decay(
                history, ks, c.lastcol_K, c.gamma, c.gamma_sq, exact)
            rows = [(i, j, float(abs(st.B[i - 1][j - 1])), float(ks.eta(i, j)),
                     abs(i - j), float(abs(st.B[i - 1][j - 1])) * float(ks.eta(i, j))
                     / (float(c.K) * c.gamma ** abs(i - j)))
                    for i in range(1, m + 1) for j in range(1, m + 1)]
            assert list(report_csv_rows(st.B, ks, c)) == rows


def _gamma_power(gamma_sq, d):
    """gamma^d: exact when rational, else to about 2^-200 relative."""
    p = gamma_sq ** (d // 2)
    if d % 2 == 0:
        return p
    n, q = gamma_sq.numerator, gamma_sq.denominator
    if isqrt(n) ** 2 == n and isqrt(q) ** 2 == q:
        return p * F(isqrt(n), isqrt(q))
    return p * F(isqrt(n * q * 4 ** 200), q * 2 ** 200)


def _kernel_verdicts(x, lo, hi, ks, K, c):
    """(filtered kernel verdicts, unfiltered per-entry exact comparisons)."""
    import numpy as np

    ok = _decay_kernel(np.array(x, dtype=object), np.array(lo), np.array(hi),
                       ks, K, c.gamma, c.gamma_sq)[3]
    g = c.gamma_sq
    ref = [(v * ks.eta(i + 1, j + 1)) ** 2 * g.denominator ** (j - i)
           <= K ** 2 * g.numerator ** (j - i) for v, i, j in zip(x, lo, hi)]
    return ok.tolist(), ref


@pytest.mark.parametrize("order", [2, 3])
def test_filtered_verdicts_equal_exact_comparison_entrywise(order):
    c, rng = decay_constants(order), random.Random(26 + order)
    # real inverse entries: the upper triangle of a shrunk mesh
    ks = _random_exact(rng, order, 38 - order)
    ks = shrink_one_gap(ks, rng.randrange(39 - order), F(1, 10 ** 4))
    B, m = _inverted(ks, history=False).B, ks.m
    lo, hi = zip(*[(i, j) for i in range(m) for j in range(i, m)])
    ok, ref = _kernel_verdicts([B[i][j] for i, j in zip(lo, hi)], lo, hi, ks, c.K, c)
    assert ok == ref and all(ok)
    # synthetic entries K gamma^d / eta (1 +- 2^-e) straddling the margin, up
    # to d = m - 1 = 299, plus exact ties, a zero and a subnormal float
    for count in (3, 300 - order):
        ks = _random_exact(rng, order, count)
        ks = shrink_one_gap(ks, rng.randrange(count + 1), F(1, 10 ** 4))
        m = ks.m
        for K in (c.K, c.lastcol_K):
            x, lo, hi = [], [], []
            for e in range(20, 101):
                i = rng.randrange(m) if e % 3 else 0
                j = rng.randrange(i, m) if e % 3 else m - 1
                at = K * _gamma_power(c.gamma_sq, j - i) / ks.eta(i + 1, j + 1)
                sign = rng.choice((-1, 1))
                for entry in (at, at * (1 - F(1, 2 ** e)), at * (1 + F(1, 2 ** e))):
                    x.append(sign * entry)
                    lo.append(i)
                    hi.append(j)
            x += [F(0), F(1, 2 ** 1070)]
            lo += [0, m - 1]
            hi += [m - 1, m - 1]
            ok, ref = _kernel_verdicts(x, lo, hi, ks, K, c)
            assert ok == ref
            assert 0 < sum(ok) < len(ok)


def test_filtered_verdicts_with_subnormal_bounds():
    # k = 2 at distance 1790: K gamma^d / eta is a subnormal float, so is
    # gamma ** d, and only the exact comparison can decide
    c, ks = decay_constants(2), KnotSequence(2, [F(i, 1799) for i in range(1, 1799)])
    x, lo, hi = [], [], []
    for i, j in ((0, 1790), (5, 1799), (0, 1799)):
        at = c.K * _gamma_power(c.gamma_sq, j - i) / ks.eta(i + 1, j + 1)
        for e in range(20, 101, 4):
            x += [at, at * (1 - F(1, 2 ** e)), at * (1 + F(1, 2 ** e))]
            lo += [i] * 3
            hi += [j] * 3
    ok, ref = _kernel_verdicts(x, lo, hi, ks, c.K, c)
    assert ok == ref and 0 < sum(ok) < len(ok)


def test_filter_off_for_a_gamma_that_is_not_sqrt_gamma_sq():
    # with gamma = 1.2 against gamma_sq = 87/100 the float ratio of an entry
    # 1.5 times over the bound reads 0.91; the verdict must stay exact
    c = replace(decay_constants(3), gamma=1.2)
    corner = F(3, 2) * c.K * c.gamma_sq
    B = ((F(1), F(0), corner), (F(0), F(1), F(0)), (corner, F(0), F(1)))
    report = decay_report(B, KnotSequence(3, []), consts=c)
    assert report.worst_ratio < 1 and not report.passed
