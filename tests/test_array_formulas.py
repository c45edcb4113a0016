"""The array passes over n against per-n evaluation of the same formulas.

build_gram's closed forms and the lemma batteries evaluate the order-2/3
formulas once over whole index arrays (KnotSequence.brackets, gram.ratio
acting elementwise).  The oracle here evaluates the same formulas one index
at a time over the scalar brackets and the scalar zero-numerator ratio of
tests/oracles.py (``bracket``, ``scalar_ratio``), and every value must be
equal: exact values with == and the same type, floats bit for bit (signed
zeros included).
"""

import math
import random
import struct
from fractions import Fraction as F
from functools import partial

import pytest

from oracles import bracket, scalar_ratio
from splinegram import (ArithmeticFailure, KnotSequence, build_gram,
                        invert_iteratively)
from splinegram.decay import (_linear_families, _quadratic_families,
                              minor_formula, phi_inv_formula,
                              psi_inv_formula)
from splinegram.gram import linear_formula, quad_formula
from splinegram.partitions import parse_spec, realize, shrink_one_gap


def oracle_bands(ks):
    br = partial(bracket, ks)
    formula = linear_formula if ks.order == 2 else quad_formula
    return [[formula(br, scalar_ratio, i, d) for i in range(1, ks.m - d + 1)]
            for d in range(ks.order)]


def oracle_families(ks, state):
    """(name, bound, [(n, value)]) of each family, one loop over n."""
    br, inf = partial(bracket, ks), math.inf
    hist = state.diag_history.tolist()  # Python scalars, as the loop makes them
    if ks.order == 2:
        lower, middle, outer = [], [], []
        for n in range(1, ks.m + 1):
            b = hist[n - 1]
            b20, b10, b21 = br(2, 0, n), br(1, 0, n), br(2, 1, n)
            mid_den = 3 * b10 + 4 * b21
            lower.append((n, 3 / (b20 * b) if b > 0 else inf))
            middle.append((n, b * mid_den / 12 if b > 0 else inf))
            outer.append((n, 3 * b20 / mid_den))
        return [("sandwich_lower", 1, lower), ("sandwich_middle", 1, middle),
                ("sandwich_outer", 1, outer)]
    fams = {name: [] for name in ("chain_b_le_phi", "chain_phi_le_psi", "chain_psi_le_12",
                                  "offdiag_pair", "minor_nonneg", "theta_hat_bound",
                                  "theta_consec")}

    def a(i, d):
        return quad_formula(br, scalar_ratio, i, d)

    prev = None
    for n in range(1, ks.m + 1):
        b = hist[n - 1]
        phin_inv = phi_inv_formula(br, scalar_ratio, n)
        psin_inv = psi_inv_formula(br, scalar_ratio, n)
        fams["chain_b_le_phi"].append((n, b * phin_inv if b > 0 else inf))
        fams["chain_phi_le_psi"].append((n, psin_inv / phin_inv))
        fams["chain_psi_le_12"].append((n, br(3, 0, n) / (12 * psin_inv)))
        if n < 2:
            continue
        off = a(n - 1, 1)
        fams["offdiag_pair"].append((n, 5 * (b * off) * br(3, 0, n) / (6 * br(2, 0, n))))
        if n < 3:
            continue
        Mn = minor_formula(br, scalar_ratio, n, a)
        theta = b * Mn
        fams["minor_nonneg"].append((n, -Mn / off))
        hat_val = (1 / phin_inv) * Mn
        diff = hat_val - theta
        fams["theta_hat_bound"].append((n, -diff / (hat_val if hat_val > 0 else 1)))
        q = br(2, 0, n) / br(3, 0, n)
        if prev is not None:
            fams["theta_consec"].append((n - 1, prev[0] * theta / (F(87, 100) * prev[1] * q)))
        prev = theta, q
    bounds = {"minor_nonneg": 0, "theta_hat_bound": 0}
    return [(name, bounds.get(name, 1), rows) for name, rows in fams.items()]


def same(x, y) -> bool:
    """Equal with the same type; floats bit for bit."""
    if isinstance(x, float) or isinstance(y, float):
        return (type(x) is float and type(y) is float
                and struct.pack("<d", x) == struct.pack("<d", y))
    return type(x) is type(y) and x == y


def _meshes():
    """(id, exact KnotSequence) over k in {2, 3}."""
    rng = random.Random(2026)
    out = []
    for k in (2, 3):
        out.append((f"k{k}-m=k", KnotSequence(k, [])))
        out.append((f"k{k}-m=k+1", KnotSequence(k, [F(2, 7)])))
        out.append((f"k{k}-geometric:1/10:14", realize(parse_spec("geometric:1/10:14"), k)))
        for trial in range(3):
            ks = realize(parse_spec(f"random:{rng.randint(3, 30)}"), k, rng=rng)
            out.append((f"k{k}-random{trial}", ks))
            gap = rng.randrange(len(ks.interior) + 1)
            out.append((f"k{k}-random{trial}-shrunk",
                        shrink_one_gap(ks, gap, F(1, 10 ** 4))))
    return out


CASES = [pytest.param(ks, mode, id=f"{name}-{mode}")
         for name, ks in _meshes() for mode in ("exact", "float")]


def _in_mode(ks, mode):
    if mode == "float":
        return KnotSequence(ks.order, tuple(float(x) for x in ks.interior))
    return ks


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ks,mode", CASES)
def test_gram_bands_equal_per_entry_formulas(ks, mode):
    ks = _in_mode(ks, mode)
    A = build_gram(ks)
    expected = oracle_bands(ks)
    assert len(A.bands) == len(expected)
    for band, ref in zip(A.bands, expected):
        assert len(band) == len(ref)
        assert all(same(x, y) for x, y in zip(band.tolist(), ref))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ks,mode", CASES)
def test_battery_families_equal_per_n_loop(ks, mode):
    ks = _in_mode(ks, mode)
    A = build_gram(ks)
    state = invert_iteratively(A, keep_history=True)
    families = {2: _linear_families, 3: _quadratic_families}[ks.order](
        ks, A, state.diag_history)
    expected = oracle_families(ks, state)
    assert [f[0] for f in families] == [e[0] for e in expected]
    for (name, bound, n, values), (_, ref_bound, rows) in zip(families, expected):
        assert bound == ref_bound, name
        assert n.tolist() == [w for w, _ in rows], name
        got = values.tolist()
        assert len(got) == len(rows), name
        assert all(same(x, v) for x, (_, v) in zip(got, rows)), name


def test_first_nonpositive_phi_raises_at_its_step(monkeypatch):
    # 1/phi_n <= 0 at n >= 3 fails at the first such n with its value
    from splinegram import decay

    ks = KnotSequence(3, [F(i, 9) for i in range(1, 8)])
    A = build_gram(ks)
    state = invert_iteratively(A, keep_history=True)
    real = decay.phi_inv_formula

    def bent(br, ratio, n):
        out = real(br, ratio, n).copy()
        out[1] = F(-1)  # n = 2: no check below n = 3
        out[4] = F(-2)
        out[6] = F(0)
        return out

    monkeypatch.setattr(decay, "phi_inv_formula", bent)
    with pytest.raises(ArithmeticFailure) as err:
        decay._quadratic_families(ks, A, state.diag_history)
    assert err.value.step == 5 and type(err.value.step) is int
    assert err.value.context == F(-2) and type(err.value.context) is F
