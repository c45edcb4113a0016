"""Decay constants, bound functions, and the per-instance lemma batteries."""

import math
import random
from dataclasses import replace
from fractions import Fraction as F
from math import isqrt

import numpy as np
import pytest

from oracles import array_at, bracket, eta, invert_rowwise
from splinegram import (DecayConstants, InputError, KnotSequence, build_gram,
                        decay_constants, decay_report, invert_iteratively,
                        parse_spec, realize, report_csv_rows, report_to_json,
                        verify_lemmas)
from splinegram.decay import (_abs_floats, _decay_kernel, _observed_constants,
                              minor_formula, phi_inv_formula, psi_inv_formula)
from splinegram.gram import ratio
from splinegram.partitions import shrink_one_gap


def _random_exact(rng, order, count):
    den = rng.randint(count + 2, 4 * count + 12)
    interior = sorted(rng.sample(range(1, den), count)) if count else []
    return KnotSequence(order, [F(p, den) for p in interior])


def _inverted(ks, history=True):
    return invert_iteratively(build_gram(ks), keep_history=history)


def _lemmas(ks, st, slack=0.0):
    return verify_lemmas(ks, build_gram(ks), st, decay_constants(ks.order), slack)


def _full_report(ks, st):
    """The report with the battery in front of full_decay, as verify builds it."""
    return decay_report(st.B, ks, decay_constants(ks.order), lemma_checks=_lemmas(ks, st))


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


def test_gamma_sq_has_one_source(monkeypatch):
    # gamma^2 of order 3 is written once: the derived K and C, the
    # theta_consec family and the theta_product certificate all follow it
    from splinegram import build_inequality, decay
    ks = KnotSequence(3, [F(1, 7), F(1, 3), F(2, 5), F(1, 2), F(4, 5)])
    st = _inverted(ks)
    point = tuple(F(r, 7) for r in range(1, 7))

    def read():
        families = decay._quadratic_families(ks, build_gram(ks), st.diag_history)
        consec = {name: values for name, _, _, values in families}["theta_consec"]
        fr = build_inequality("theta_product")
        return decay_constants(3), consec, fr.scalar, fr(point)

    c, consec, scalar, value = read()
    monkeypatch.setattr(decay, "GAMMA_SQ_3", F(9, 10))
    c9, consec9, scalar9, value9 = read()
    C9 = 12 * F(6, 5) ** 2 / F(9, 10)
    assert (c9.lastcol_K, c9.K, c9.gamma_sq) == (C9, C9 * (1 + F(16, 13) * C9), F(9, 10))
    assert c9.gamma == 0.9 ** 0.5 and (c9.K, c9.lastcol_K) != (c.K, c.lastcol_K)
    assert len(consec) == ks.m - 3 and list(consec9 * F(9, 10)) == list(consec * F(87, 100))
    assert scalar9 != scalar and value9 - value == F(9, 10) - F(87, 100)


def test_constants_unknown_order():
    with pytest.raises(InputError):
        decay_constants(4)


# ---------------------------------------------------------------------------
# Bound functions (order 3)


def test_phi_first_index():
    # at n=1 every term with a left-reaching bracket vanishes: phi_1 = 5/(30)_1
    ks = KnotSequence(3, [F(1, 5), F(1, 2)])
    assert array_at(phi_inv_formula, ks, 1) == bracket(ks, 3, 0, 1) / 5
    assert 1 / array_at(phi_inv_formula, ks, 1) == 5 / bracket(ks, 3, 0, 1)


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
            assert b <= phi <= psi <= 12 / bracket(ks, 3, 0, n)


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
        checks = _full_report(ks, st).lemma_checks
        assert [c.name for c in checks] == [
            "sandwich_lower", "sandwich_middle", "sandwich_outer",
            "lastcol_decay", "full_decay"]
        assert all(c.passed for c in checks), ks.interior


def test_linear_battery_equality_at_first_index():
    # b_{1,1} = 3/(20)_1 exactly: the lower sandwich is tight at n=1
    ks = KnotSequence(2, [F(1, 3), F(2, 3)])
    st = _inverted(ks)
    assert st.diag_history[0] == 3 / bracket(ks, 2, 0, 1)
    lower = _lemmas(ks, st)[0]
    assert lower.worst_ratio == 1.0 and lower.witness == (1,)


def test_quadratic_battery_exact():
    rng = random.Random(23)
    for _ in range(5):
        ks = _random_exact(rng, 3, rng.randint(2, 9))
        if rng.random() < 0.5:
            ks = shrink_one_gap(ks, rng.randrange(len(ks.interior) + 1), F(1, 10 ** 4))
        st = _inverted(ks)
        checks = _full_report(ks, st).lemma_checks
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
            checks = _lemmas(ks, _inverted(ks), 1e-12)
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
        exact = _lemmas(ks, _inverted(ks))
        floats = _lemmas(fks, _inverted(fks), 1e-12)
        assert [c.name for c in exact] == [c.name for c in floats]
        for e, f in zip(exact, floats):
            if e.name in ("minor_nonneg", "theta_hat_bound"):
                assert not e.passed and not f.passed, e.name
            else:
                assert e.passed == f.passed, e.name


def test_lemma_check_compares_exact_values_exactly():
    # values just past their bound round onto it as floats: the exact
    # values (dtype object) fail, and only their float copies pass
    from splinegram.decay import _lemma_check
    n = np.arange(1, 3)
    over = np.array([F(1, 2), 1 + F(1, 10 ** 30)], dtype=object)
    check = _lemma_check("ratio", over, None, (n,), 0.0)
    assert (check.passed, check.worst_ratio, check.witness) == (False, 1.0, (2,))
    assert _lemma_check("ratio", over.astype(float), None, (n,), 0.0).passed
    signed = np.array([F(-1), F(1, 10 ** 400)], dtype=object)  # bound 0
    assert not _lemma_check("sign", signed, None, (n,), 0.0, 0).passed
    assert _lemma_check("sign", signed.astype(float), None, (n,), 0.0, 0).passed


def test_lemma_check_compares_pair_values_exactly():
    # the twin of the test above on unreduced pair arrays: at the bound a
    # value passes and 10^-30 above it fails (its float reads 1.0 at bound
    # 1), for bound 1 and bound 0; the values come from quotients whose
    # divisor is negative, whose sign moves onto the numerator
    from splinegram.decay import _lemma_check
    from splinegram.scalars import _Pairs

    def pairs(num, den):
        return _Pairs(np.array(num, dtype=object), np.array(den, dtype=object))

    n, big = np.arange(1, 4), 10 ** 30
    minus = pairs([-3, -7, -1], [1, 2, 1])  # a negative divisor
    for bound in (1, 0):
        at = pairs([-3 * bound * big, -7 * bound, 2 - 3 * bound], [big, 2, 3]) / minus
        above = at + pairs([0, 1, 0], [1, big, 1])
        assert (at.D > 0).all() and (above.D > 0).all()
        assert at.tolist() == [bound, bound, bound - F(2, 3)]
        check = _lemma_check("pair", at, None, (n,), 0.0, bound)
        assert check.passed and (check.worst_ratio, check.witness) == (bound, (1,))
        check = _lemma_check("pair", above, None, (n,), 0.0, bound)
        assert not check.passed
        assert check.worst_ratio == float(bound + F(1, big))  # 1.0 at bound 1
        # the same values as Fractions get the same verdicts and floats
        for values in (at, above):
            as_fractions = np.array(values.tolist(), dtype=object)
            assert (_lemma_check("pair", values, None, (n,), 0.0, bound)
                    == _lemma_check("pair", as_fractions, None, (n,), 0.0, bound))


def test_pair_arrays_stay_python_ints():
    # entries that fit int64 whose products do not: every step of the exact
    # battery's arithmetic keeps dtype object and equals the Fraction result
    # (an int64 array would wrap around silently)
    from splinegram.decay import _select
    from splinegram.scalars import _object_where, _Pairs, _where

    def exact(p, expected):
        assert isinstance(p, _Pairs) and p.N.dtype == object
        assert type(p.D) is int or p.D.dtype == object
        assert np.all(np.asarray(p.D) > 0)
        assert p.tolist() == expected
        return p

    assert _object_where(np.array([True, False]), 1, 5).dtype == object
    D = 2 ** 41 - 1  # a shared denominator, as the exact brackets have
    x = exact(_Pairs(np.array([0, 2 ** 40 - 3, 3 * 2 ** 38 + 5, 2 ** 39 + 1], object), D),
              [F(0), F(2 ** 40 - 3, D), F(3 * 2 ** 38 + 5, D), F(2 ** 39 + 1, D)])
    y = exact(_Pairs(np.array([0, 2 ** 40 + 9, 2 ** 39 - 7, 2 ** 38 + 3], object), D),
              [F(0), F(2 ** 40 + 9, D), F(2 ** 39 - 7, D), F(2 ** 38 + 3, D)])
    fx, fy = x.tolist(), y.tolist()
    # 0/0 at the first entry: a dead numerator, nothing divided there
    r = exact(ratio((x, y, x), (7, y, y)),
              [F(0)] + [a * b * a / (7 * b * b) for a, b in zip(fx[1:], fy[1:])])
    fr = r.tolist()
    # a negative denominator factor: its sign moves onto N
    exact(ratio((x,), (-3, y)), [F(0)] + [a / (-3 * b) for a, b in zip(fx[1:], fy[1:])])
    # divisions by negative values: an array, and a scalar
    exact(r[1:] / -x[1:], [a / -b for a, b in zip(fr[1:], fx[1:])])
    exact(x / -3, [a / -3 for a in fx])
    exact(3 / -y[1:], [3 / -b for b in fy[1:]])
    # _select's fill, the pair (1, 0), reads +inf
    cond = np.array([False, True, False, True])
    sel = _select(cond, lambda at: r[at] * y[at])
    assert sel.N.dtype == sel.D.dtype == object
    assert sel.tolist() == [math.inf, fr[1] * fy[1], math.inf, fr[3] * fy[3]]
    # theta_hat_bound's where: an int beside a pair array stays a Python int
    val = exact(r - y * y, [a - b * b for a, b in zip(fr, fy)])
    hat = exact(-val / _where(val > 0, val, 1),
                [-v / (v if v > 0 else 1) for v in val.tolist()])
    assert hat.D.dtype == object
    # a 2-D pair array over one shared D, as an exact inverse is read: index
    # arrays (i, j) give a 1-D pair array over the same D, one entry its
    # canonical Fraction
    M = _Pairs(np.array([[2 ** 40 - 3, -(2 ** 70)], [3 * 2 ** 64, 0]], object), D)
    assert M.shape == (2, 2) and len(M) == 2
    assert M.tolist() == [[F(2 ** 40 - 3, D), F(-(2 ** 70), D)], [F(3 * 2 ** 64, D), F(0)]]
    assert M[0, 1] == F(-(2 ** 70), D) and M[1, 1] == 0
    i, j = np.array([0, 1, 1, 0]), np.array([1, 0, 1, 0])
    sub = exact(M[i, j], [F(-(2 ** 70), D), F(3 * 2 ** 64, D), F(0), F(2 ** 40 - 3, D)])
    assert sub.D == D
    exact(abs(sub) * x, [abs(a) * b for a, b in zip(sub.tolist(), fx)])
    assert M.floats().tolist() == [[float(v) for v in row] for row in M.tolist()]
    # and one D per entry, of N's shape
    P = _Pairs(M.N, np.array([[1, 3], [7, 2 ** 70]], object))
    assert P[i, j].tolist() == [F(-(2 ** 70), 3), F(3 * 2 ** 64, 7), F(0), F(2 ** 40 - 3)]
    assert P.fractions().tolist() == P.tolist()
    # == and != compare N * d with n * D, as <= does: the ratio's zero tests
    assert (x == 0).tolist() == [True, False, False, False]
    assert (x != fx[2]).tolist() == [True, True, False, True]
    assert (x == _Pairs(2 * x.N, 2 * D)).all() and not (x != y)[0]
    assert (r == fr[1]).tolist() == [v == fr[1] for v in fr]
    # a where between two shared denominators keeps one, their lcm, so
    # that a quotient by it still cancels the gcd of two shared ints
    w = exact(_where(cond, x, _Pairs(y.N, 3)),
              [a if c else b for a, b, c in zip(fx, [F(v, 3) for v in y.N], cond)])
    assert w.D == 3 * D
    assert type(exact(_where(cond, 1, x), [1 if c else a for a, c in zip(fx, cond)]).D) is int
    # entries beyond the float range, either way, read +-inf, 0.0 and -0.0
    # through the per-entry fallback, as float(Fraction) rounds them
    big = 10 ** 400
    Q = _Pairs(np.array([[big, -big], [1, -1]], object),
               np.array([[1, 3], [big, big]], object))
    out = Q.floats()
    assert out.dtype == float and out.shape == (2, 2)
    assert out.tolist() == [[math.inf, -math.inf], [0.0, 0.0]]
    assert np.signbit(out).tolist() == [[False, True], [False, True]]
    assert _Pairs(Q.N[0], big).floats().tolist() == [1.0, -1.0]


@pytest.mark.parametrize("order", [2, 3])
def test_exact_battery_builds_no_fraction_per_index(order, monkeypatch):
    # verify_lemmas computes on integer pairs: the Fractions it builds are
    # its constants', as many at m = 12 as at m = 40
    real = F.__new__
    counts = []
    for count in (12 - order, 40 - order):
        ks = shrink_one_gap(_random_exact(random.Random(count), order, count), 1,
                            F(1, 10 ** 4))
        A, st = build_gram(ks), _inverted(ks)
        calls = []

        def counted(cls, *args, **kwargs):
            calls.append(1)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counted))
        checks = verify_lemmas(ks, A, st, decay_constants(order))
        monkeypatch.undo()
        assert all(c.passed for c in checks)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_battery_requires_history():
    ks = KnotSequence(2, [F(1, 2)])
    with pytest.raises(InputError):
        _lemmas(ks, _inverted(ks, history=False))
    with pytest.raises(InputError):
        k4 = KnotSequence(4, [F(1, 2)])
        verify_lemmas(k4, build_gram(k4), _inverted(k4), decay_constants(3))
    with pytest.raises(InputError):  # constants of another order
        verify_lemmas(ks, build_gram(ks), _inverted(ks), decay_constants(3))


# ---------------------------------------------------------------------------
# Reports


def test_report_bernstein_linear():
    # B = [[4,-2],[-2,4]], eta_11 = 1: worst ratio 4/(36/5) = 5/9 at (1,1)
    ks = KnotSequence(2, [])
    st = _inverted(ks)
    report = decay_report(st.B, ks, decay_constants(2))
    assert report.passed and report.certified
    assert report.worst_entry == (1, 1)
    assert abs(report.worst_ratio - 5 / 9) < 1e-15


def test_report_json_shape():
    ks = KnotSequence(3, [F(1, 4), F(1, 2), F(3, 4)])
    st = _inverted(ks)
    report = _full_report(ks, st)
    obj = report_to_json(report)
    assert set(obj) == {"k", "m", "K", "gamma_sq", "certified", "passed",
                        "worst_ratio", "worst_entry", "lemma_checks"}
    assert obj["passed"] is True
    assert obj["k"] == 3 and obj["m"] == 6
    assert obj["K"] == "5525568/10933" and obj["gamma_sq"] == "87/100"
    assert obj["certified"] is True
    assert len(obj["lemma_checks"]) == 9
    assert all(c["pass"] for c in obj["lemma_checks"])


def test_report_combines_lemma_checks():
    # the battery goes in front of full_decay, and every family must pass
    ks = KnotSequence(2, [F(1, 2)])
    st = _inverted(ks)
    report = decay_report(st.B, ks, decay_constants(2))
    own = report.lemma_checks  # the report's own full_decay family
    combined = decay_report(st.B, ks, decay_constants(2), lemma_checks=own)
    assert combined.passed == report.passed
    assert combined.lemma_checks == own + own
    from splinegram import LemmaCheck
    bad = LemmaCheck("synthetic", False, 2.0, -1.0, (1,), 1)
    failed = decay_report(st.B, ks, decay_constants(2), lemma_checks=(bad,))
    assert not failed.passed and failed.lemma_checks == (bad, *own)
    assert (failed.worst_ratio, failed.worst_entry) == (report.worst_ratio,
                                                        report.worst_entry)


def test_csv_rows():
    ks = KnotSequence(2, [F(1, 2)])
    st = _inverted(ks)
    rows = list(report_csv_rows(st.B, ks, decay_constants(2)))
    assert len(rows) == 9
    i, j, abs_b, eta, d, ratio = rows[0]
    assert (i, j, d) == (1, 1, 0)
    assert abs_b == 7.0 and eta == 0.5  # eta_11 = t_3 - t_1 on (0,0,1/2,1,1)
    assert all(r[5] <= 1.0 for r in rows)


def _envelope_meshes(k):
    """The golden specs (seed 0) and random:8 with one gap shrunk to 10^-4,
    exact and as floats."""
    meshes = [realize(parse_spec(spec), k, rng=random.Random(0))
              for spec in ("uniform:4", "random:8", "geometric:1/3:6")]
    meshes.append(shrink_one_gap(meshes[1], 3, F(1, 10 ** 4)))
    return [(ks, mode) for ks in meshes for mode in ("exact", "float")]


def _observed(ks, mode):
    if mode == "float":
        ks = KnotSequence(ks.order, [float(x) for x in ks.interior])
    B = invert_iteratively(build_gram(ks)).B
    return ks, B, _observed_constants(B, ks)


@pytest.mark.parametrize("k", [4, 5])
def test_observed_constants_are_the_least_envelope(k):
    # K = M_0 and gamma the least rate with M_0 gamma^d >= M_d, M_d the
    # largest |b_ij| eta_ij at |i - j| = d: no ratio against them exceeds 1,
    # and one off the diagonal reaches it
    for ks, mode in _envelope_meshes(k):
        ks, B, consts = _observed(ks, mode)
        assert not consts.certified and consts.lastcol_K == consts.K > 0
        assert consts.gamma_sq == consts.gamma * consts.gamma and consts.gamma > 0
        report = decay_report(B, ks, consts)
        assert report.passed is None and not report.certified
        assert 1 <= report.worst_ratio <= 1 + 1e-12, (ks, mode)
        rows = list(report_csv_rows(B, ks, consts))
        assert max(r[5] for r in rows) <= 1 + 1e-12
        assert max(r[5] for r in rows if r[4] >= 1) >= 1 - 1e-12, (ks, mode)


def test_observed_constants_at_order_1():
    # a diagonal inverse, b_ii = 1/eta_ii: K = 1, and gamma = 1 as no
    # off-diagonal entry is nonzero
    for ks, mode in _envelope_meshes(1) + [(KnotSequence(1, []), "exact")]:
        _, _, consts = _observed(ks, mode)
        assert consts.K == pytest.approx(1, rel=1e-15) and consts.gamma_sq == 1
        if mode == "exact":
            assert consts.K == 1


def test_report_validation():
    ks = KnotSequence(2, [F(1, 2)])
    st = _inverted(ks)
    with pytest.raises(InputError):
        decay_report(st.B, KnotSequence(2, [F(1, 3), F(2, 3)]), decay_constants(2))  # m mismatch
    with pytest.raises(InputError):
        decay_report(st.B[:, :2], ks, decay_constants(2))  # not square
    with pytest.raises(InputError):
        decay_report((tuple(st.B[0]), tuple(st.B[1]), tuple(st.B[2, :2])), ks,
                     decay_constants(2))  # ragged
    with pytest.raises(InputError):
        decay_report(st.B, ks, consts=decay_constants(3))


def test_exact_verdicts_at_the_bound_and_tie_witness():
    # over KnotSequence(k, []) every eta_ij is 1, so b_ij is compared with
    # K gamma^|i-j| itself
    K2 = decay_constants(2).K
    at_bound = ((K2, -K2 * F(2, 3)), (-K2 * F(2, 3), K2))
    report = decay_report(at_bound, KnotSequence(2, []), decay_constants(2))
    assert report.passed and report.worst_ratio == 1.0
    # one part in 10^31 above the bound: the float ratio still reads 1.0
    above = ((K2 + F(1, 10 ** 30), F(0)), (F(0), K2))
    report = decay_report(above, KnotSequence(2, []), decay_constants(2))
    assert not report.passed and report.worst_ratio == 1.0
    assert report.worst_entry == (1, 1)
    # k = 3 at distance 2: gamma^2 = 87/100 is exact although gamma is not
    K3 = decay_constants(3).K
    for extra, passed in ((F(0), True), (F(1, 10 ** 30), False)):
        corner = K3 * F(87, 100) + extra
        B = ((F(1), F(0), corner), (F(0), F(1), F(0)), (corner, F(0), F(1)))
        report = decay_report(B, KnotSequence(3, []), decay_constants(3))
        assert report.passed is passed and report.worst_entry == (1, 3)
    # uniform:7, k = 2: (2,2) and (8,8) tie for the worst ratio; the first in
    # row-major order is the witness
    ks = KnotSequence(2, [F(i, 8) for i in range(1, 8)])
    B = _inverted(ks, history=False).B
    ratios = {(i, j): r for i, j, _, _, _, r in
              report_csv_rows(B, ks, decay_constants(2))}
    report = decay_report(B, ks, decay_constants(2))
    assert ratios[2, 2] == ratios[8, 8] == report.worst_ratio
    assert report.worst_entry == (2, 2)


def test_integer_verdicts_on_exact_ties():
    # certified-shape constants whose K makes one entry's |b_ij| eta_ij equal
    # K gamma^d exactly, at d = 0 (gamma = 4) and at some d >= 1 (gamma =
    # 1/64): full_decay and lastcol_decay, read from the scaled form (the
    # numerators over lam and over each mu[j]), pass there and fail with K
    # smaller by 10^-30, where the float ratios cannot tell them apart
    rng = random.Random(28)
    ks = shrink_one_gap(_random_exact(rng, 2, 10), 3, F(1, 10 ** 4))
    A, m = build_gram(ks), ks.m
    st, ref = invert_iteratively(A, keep_history=True), invert_rowwise(A, True)
    assert st._scaled[1] > 1 and max(st._scaled[3]) > 1
    upper = [((i, j), ref.B[i - 1, j - 1])
             for i in range(1, m + 1) for j in range(i, m + 1)]
    history = [((j, n), ref.col_history[n - 1][j - 1])
               for n in range(1, m + 1) for j in range(1, n + 1)]

    def least_constant(entries, gamma):
        """The least K over the entries and the distance that attains it."""
        need = {abs(x) * eta(ks, i, j) / gamma ** abs(i - j): abs(i - j)
                for (i, j), x in entries}
        return max(need), need[max(need)]

    for gamma in (F(4), F(1, 64)):
        (K, d), (C, dc) = least_constant(upper, gamma), least_constant(history, gamma)
        assert (d == 0) == (dc == 0) == (gamma > 1)
        for cut, passed in ((0, True), (F(1, 10 ** 30), False)):
            c = DecayConstants(2, K - cut, C - cut, float(gamma), gamma ** 2, True)
            report = decay_report(st, ks, c)
            lastcol = verify_lemmas(ks, A, st, c)[-1]
            assert lastcol.name == "lastcol_decay"
            assert report.passed is lastcol.passed is passed
            assert report.worst_ratio == pytest.approx(1, abs=1e-15)
            assert lastcol.worst_ratio == pytest.approx(1, abs=1e-15)
    assert "B" not in vars(st) and "col_history" not in vars(st)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_readers_agree_on_every_exact_route(order):
    # an exact inverse read from its scaled form (the GrowingInverse), from
    # its Fractions (a replaced B) and as nested rows gives the same report,
    # CSV rows, observed envelope, checkerboard and battery, on meshes with
    # one gap shrunk by 10^-4, whose lam and some mu_j exceed 1
    import dataclasses

    from splinegram import check_checkerboard

    rng = random.Random(29 + order)
    for count in (3, 9):
        ks = shrink_one_gap(_random_exact(rng, order, count), count // 2, F(1, 10 ** 4))
        A = build_gram(ks)
        st = invert_iteratively(A, keep_history=True)
        assert st._scaled[1] > 1 and max(st._scaled[3]) > 1
        routes = (st, dataclasses.replace(st, B=st.B), st.B.tolist())
        assert routes[1]._scaled is None and isinstance(routes[2][0][0], F)
        consts = decay_constants(order) if order < 4 else _observed_constants(st, ks)
        results = [(decay_report(B, ks, consts), list(report_csv_rows(B, ks, consts)),
                    _observed_constants(B, ks), check_checkerboard(B)) for B in routes]
        assert results[0] == results[1] == results[2]
        assert len(results[0][1]) == ks.m ** 2
        if order < 4:  # the battery takes the inversion state, not rows
            battery = [verify_lemmas(ks, A, s, consts) for s in routes[:2]]
            assert battery[0] == battery[1]
            assert all(c.comparisons for c in battery[0])


def _loop_decay(entries, ks, K, gamma, gamma_sq, exact):
    """Per-entry reference for the decay kernel over ((i, j), b_ij) pairs in
    order: (worst ratio, first witness, passed)."""
    worst, witness, passed = float("-inf"), None, True
    for (i, j), x in entries:
        ev, d = eta(ks, i, j), abs(i - j)
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
            report = _full_report(ks, st)
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
            rows = [(i, j, float(abs(st.B[i - 1][j - 1])), float(eta(ks, i, j)),
                     abs(i - j), float(abs(st.B[i - 1][j - 1])) * float(eta(ks, i, j))
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
    ref = [(v * eta(ks, i + 1, j + 1)) ** 2 * g.denominator ** (j - i)
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
                at = K * _gamma_power(c.gamma_sq, j - i) / eta(ks, i + 1, j + 1)
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
        at = c.K * _gamma_power(c.gamma_sq, j - i) / eta(ks, i + 1, j + 1)
        for e in range(20, 101, 4):
            x += [at, at * (1 - F(1, 2 ** e)), at * (1 + F(1, 2 ** e))]
            lo += [i] * 3
            hi += [j] * 3
    ok, ref = _kernel_verdicts(x, lo, hi, ks, c.K, c)
    assert ok == ref and 0 < sum(ok) < len(ok)


def test_kernel_ratio_is_finite_where_gamma_power_underflows():
    # float k = 2 at distances d >= 1838, where gamma ** d is 0.0: an entry
    # that underflowed to 0.0 reads 0, and a subnormal and a normal entry
    # read their true ratio |x| eta / (K gamma^d), computed here exactly
    # from the same float gamma
    c = decay_constants(2)
    ks = KnotSequence(2, [i / 2001 for i in range(1, 2001)])
    x, lo, hi = np.array([0.0, 3 * 5e-324, 1e-300]), np.array([0, 3, 100]), \
        np.array([1838, 1990, 2001])
    assert c.gamma ** 1838 == 0.0 and ks.m == 2002
    eta, raw, ratio, ok = _decay_kernel(x, lo, hi, ks, c.K, c.gamma)
    assert ok is None and np.isfinite(ratio).all() and ratio[0] == 0.0
    for e in (1, 2):
        true = F(x[e]) * F(eta[e]) / (c.K * F(c.gamma) ** int(hi[e] - lo[e]))
        assert ratio[e] == pytest.approx(float(true), rel=1e-12)


def test_filter_off_for_a_gamma_that_is_not_sqrt_gamma_sq():
    # with gamma = 1.2 against gamma_sq = 87/100 the float ratio of an entry
    # 1.5 times over the bound reads 0.91; the verdict must stay exact
    c = replace(decay_constants(3), gamma=1.2)
    corner = F(3, 2) * c.K * c.gamma_sq
    B = ((F(1), F(0), corner), (F(0), F(1), F(0)), (corner, F(0), F(1)))
    report = decay_report(B, KnotSequence(3, []), consts=c)
    assert report.worst_ratio < 1 and not report.passed


def test_abs_floats_of_exact_entries_match_float():
    # |n| / d by int true division is float(x), correctly rounded, bit for
    # bit: random Fractions, ints, values that underflow to 0.0 (from
    # either sign, so never -0.0) and the largest that rounds to a finite
    # float; beyond the float range the fallback gives inf
    def ref(v):
        try:
            return abs(float(v))
        except OverflowError:
            return math.inf

    rng = random.Random(25)
    tiny = F(1, 10 ** 400)
    x = [F(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 30)) for _ in range(200)]
    x += [tiny, -tiny, 3, -7, 0, F(-5, 3), F(0), F(1 - 2 ** 1024 + 2 ** 970)]
    for values in (x, x + [F(10 ** 400), -(10 ** 400), F(2 ** 1024 - 2 ** 970)]):
        out = _abs_floats(np.array(values, dtype=object))
        assert out.dtype == float
        assert out.tolist() == [ref(v) for v in values]
        assert not np.signbit(out).any()
    assert math.isinf(_abs_floats(np.array(x + [F(10 ** 400)], dtype=object))[-1])
    floats = np.array([-1.5, 0.0, -0.0, 2.0])
    assert _abs_floats(floats).tolist() == [1.5, 0.0, 0.0, 2.0]
    # the same values as pair arrays: 1-D over one D per entry, and 2-D over
    # a shared D of 10^400, whose entries 10^+-400 read inf and 0.0
    from splinegram.scalars import _Pairs

    values = x + [F(10 ** 400), -(10 ** 400), F(2 ** 1024 - 2 ** 970)]
    pairs = _Pairs(np.array([F(v).numerator for v in values], dtype=object),
                   np.array([F(v).denominator for v in values], dtype=object))
    assert _abs_floats(pairs).tolist() == [ref(v) for v in values]
    big = 10 ** 400
    square = _Pairs(np.array([[big * big, -big * big, 1], [-1, 3 * big, 0]], dtype=object),
                    big)
    out = _abs_floats(square)
    assert out.tolist() == [[math.inf, math.inf, 0.0], [0.0, 3.0, 0.0]]
    assert not np.signbit(out).any()
