"""Decay constants, bound functions, and the per-instance lemma batteries."""

import random
from fractions import Fraction as F

import pytest

from splinegram import (InputError, KnotSequence, build_gram, decay_constants,
                        decay_report, fit_decay_constants, invert_iteratively,
                        phi_fn, phi_inv, psi_fn, psi_inv, report_csv_rows,
                        report_to_json, shrink_one_gap, theta_fn,
                        verify_lemmas)
from splinegram.decay import attach_lemma_checks, minor_adjusted_factor


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
    assert phi_inv(ks, 1) == ks.bracket(3, 0, 1) / 5
    assert phi_fn(ks, 1) == 5 / ks.bracket(3, 0, 1)


def test_psi_uniform_value():
    # uniform interior gaps h: psi = 36/(13h); h = 1/6 gives 216/13
    ks = KnotSequence(3, [F(i, 6) for i in range(1, 6)])
    assert psi_fn(ks, 4) == F(216, 13)
    assert psi_inv(ks, 4) == F(13, 216)


def test_bound_chain():
    # b_{n,n}^n <= phi_n <= psi_n <= 12/(30)_n on every leading size
    rng = random.Random(21)
    for _ in range(5):
        ks = _random_exact(rng, 3, rng.randint(2, 9))
        st = _inverted(ks)
        for n in range(1, ks.m + 1):
            b = st.diag_history[n - 1]
            assert b <= phi_fn(ks, n) <= psi_fn(ks, n) <= 12 / ks.bracket(3, 0, n)


def test_minor_adjusted_factor_and_theta():
    ks = KnotSequence(3, [F(1, 6), F(1, 3), F(2, 3), F(5, 6)])
    st = _inverted(ks)
    for n in range(3, ks.m + 1):
        mval = minor_adjusted_factor(ks, n)
        assert mval >= 0
        b = st.diag_history[n - 1]
        assert theta_fn(ks, n, b) == b * mval
    with pytest.raises(InputError):
        theta_fn(ks, 2, F(1))
    with pytest.raises(InputError):
        minor_adjusted_factor(ks, 2)


# ---------------------------------------------------------------------------
# Lemma batteries


def test_linear_battery_exact():
    rng = random.Random(22)
    for _ in range(6):
        ks = _random_exact(rng, 2, rng.randint(1, 10))
        if rng.random() < 0.5:
            ks = shrink_one_gap(ks, rng.randrange(len(ks.interior) + 1), F(1, 10 ** 4))
        checks = verify_lemmas(ks, _inverted(ks))
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
        checks = verify_lemmas(ks, _inverted(ks))
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
    failing = report.lemma_checks  # empty
    assert attach_lemma_checks(report, failing).passed == report.passed
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
