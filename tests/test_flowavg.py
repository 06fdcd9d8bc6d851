"""Exact flow averages, correlations and classification."""

import csv
import hashlib
import io
import itertools
import json
import math
import tempfile
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchspec import cli, flowavg
from branchspec.errors import DegenerateInput, Mismatch, NotInvariant
from branchspec.flowavg import (
    REGION_SADDLES,
    REGION_TABLE,
    BalancedLaurent as BL,
    PointKind,
    QQi,
    ReducedFunction,
    Region,
    classify_critical_points,
    correlation_C,
    flow_average,
    grid_verify,
    to_action_angle,
    weighted_average_G0,
    zpoly_from_x,
)


def mono(*key, c=1):
    return BL({tuple(key): F(c)})


Z1SQ = mono(1, 0, 1, 0)
Z2SQ = mono(0, 1, 0, 1)
ZSQ = Z1SQ + Z2SQ
CROSS1 = mono(1, 0, 0, 1) + mono(0, 1, 1, 0)
CROSS2 = mono(2, 0, 0, 2) + mono(0, 2, 2, 0)
CROSS3 = mono(3, 0, 0, 3) + mono(0, 3, 3, 0)

Q44 = zpoly_from_x({(4, 0): 1, (0, 4): 1})
Q22 = zpoly_from_x({(2, 2): 1})
Q31 = zpoly_from_x({(3, 1): 1, (1, 3): 1})


def test_averages_bt6_to_bt10():
    assert flow_average(zpoly_from_x({(4, 0): 1})) == mono(2, 0, 2, 0, c=F(3, 8))
    assert flow_average(zpoly_from_x({(0, 4): 1})) == mono(0, 2, 0, 2, c=F(3, 8))
    assert flow_average(zpoly_from_x({(3, 1): 1})) == \
        BL({(1, 1, 2, 0): F(3, 16), (2, 0, 1, 1): F(3, 16)})
    assert flow_average(zpoly_from_x({(1, 3): 1})) == \
        BL({(1, 1, 0, 2): F(3, 16), (0, 2, 1, 1): F(3, 16)})
    assert flow_average(zpoly_from_x({(2, 2): 1})) == \
        BL({(2, 0, 0, 2): F(1, 16), (0, 2, 2, 0): F(1, 16),
            (1, 1, 1, 1): F(1, 4)})


def test_odd_degree_average_vanishes():
    assert not flow_average(zpoly_from_x({(3, 0): 1}))
    assert not flow_average(zpoly_from_x({(1, 2): 1}))


def test_action_angle_bt13_to_bt15():
    aa = to_action_angle(flow_average(zpoly_from_x({(4, 0): 1})))
    assert aa == {(4, 0, 0): (F(3, 2), F(0))}
    aa = to_action_angle(flow_average(zpoly_from_x({(3, 1): 1})))
    assert aa == {(3, 1, 1): (F(3, 2), F(0))}
    aa = to_action_angle(flow_average(zpoly_from_x({(2, 2): 1})))
    assert aa == {(2, 2, 0): (F(1), F(0)), (2, 2, 2): (F(1, 2), F(0))}


def test_action_angle_rejects_noninvariant():
    with pytest.raises(NotInvariant):
        to_action_angle(mono(2, 0, 0, 0))


def test_g0_defining_property_all_monomials_deg_le_6():
    # H_p G0 = {p, G0} = q - <q> for every x-monomial of total degree <= 6
    p_sym = BL({(1, 0, 1, 0): F(1, 2), (0, 1, 0, 1): F(1, 2)})
    for d1 in range(7):
        for d2 in range(7 - d1):
            q = zpoly_from_x({(d1, d2): 1})
            g0 = weighted_average_G0(q)
            want = q - flow_average(q)
            assert _poisson_all_pairs(p_sym, g0) == want


def test_g0_zero_for_constants_and_reality():
    assert not weighted_average_G0(mono(0, 0, 0, 0))
    g0 = weighted_average_G0(zpoly_from_x({(4, 0): 1}))
    assert g0 == g0.conj()


def test_correlation_goldens():
    # four quartic correlation goldens, exact rational identities
    assert correlation_C(Q44, Q44) == F(-17, 16) * (
        mono(3, 0, 3, 0) + mono(0, 3, 0, 3))
    assert correlation_C(Q44, Q31) == F(1, 128) * (
        2 * CROSS3 - (51 * (Z1SQ * Z1SQ + Z2SQ * Z2SQ)
                      + 36 * (Z1SQ * Z2SQ)) * CROSS1)
    assert correlation_C(Q22, Q31) == F(-1, 256) * (
        (17 * (Z1SQ * Z1SQ + Z2SQ * Z2SQ) + 90 * (Z1SQ * Z2SQ)) * CROSS1
        + 12 * CROSS3)
    assert correlation_C(Q31, Q31) == F(-1, 256) * (
        17 * (mono(3, 0, 3, 0) + mono(0, 3, 0, 3))
        + 153 * (Z1SQ * Z2SQ * ZSQ) + 51 * (ZSQ * CROSS2))


def test_correlation_goldens_oracle_confirmed():
    # These two goldens are double-derived: the exact pipeline and an
    # independent finite-difference/quadrature oracle of the defining
    # double average agree (candidate closed forms that failed the
    # oracle were rejected; one was degree-inhomogeneous).
    assert correlation_C(Q44, Q22) == F(-1, 64) * (
        ZSQ * (5 * CROSS2 + 24 * (Z1SQ * Z2SQ)))
    assert correlation_C(Q22, Q22) == F(-1, 64) * (
        ZSQ * (9 * (Z1SQ * Z2SQ) + 4 * CROSS2))


def test_correlation_symmetry_random_pairs():
    rng = np.random.default_rng(42)
    monos4 = [(4, 0), (0, 4), (3, 1), (1, 3), (2, 2)]
    for _ in range(50):
        c1 = {m: int(rng.integers(-3, 4)) for m in monos4}
        c2 = {m: int(rng.integers(-3, 4)) for m in monos4}
        q1 = zpoly_from_x(c1)
        q2 = zpoly_from_x(c2)
        assert correlation_C(q1, q2) == correlation_C(q2, q1)


def test_classify_region_A_example():
    rf = ReducedFunction(F(-1), F(1), F(1, 2))
    rep = classify_critical_points(rf)
    assert rep.region is Region.A
    kinds = {pt.kind: pt for pt in rep.points}
    assert kinds[PointKind.CrossingCf].signature == (-1, -1)
    assert kinds[PointKind.CrossingCb].signature == (-1, -1)
    hor = kinds[PointKind.HorizontalCircle]
    assert hor.signature == (1, -1)
    assert np.cos(hor.locations[0][1]) == pytest.approx(-0.5)
    assert kinds[PointKind.VerticalCircle].signature == (1, 1)
    grid_verify(rf, rep)


def test_classify_region_Bplus_example():
    rf = ReducedFunction(F(-1), F(1), F(2))
    rep = classify_critical_points(rf)
    assert rep.region is Region.Bplus
    kinds = {pt.kind: pt for pt in rep.points}
    assert kinds[PointKind.CrossingCf].signature == (-1, -1)
    assert kinds[PointKind.CrossingCb].signature == (-1, 1)  # the saddle
    assert PointKind.HorizontalCircle not in kinds
    assert kinds[PointKind.VerticalCircle].signature == (1, 1)
    # saddle value between the other critical values
    vals = sorted(float(pt.value) for pt in rep.points)
    v_saddle = float(kinds[PointKind.CrossingCb].value)
    assert vals[0] < v_saddle < vals[-1]
    grid_verify(rf, rep)


def test_classify_pole_branch_c_zero():
    rf = ReducedFunction(F(-1), F(1), F(0))
    rep = classify_critical_points(rf)
    kinds = {pt.kind: pt for pt in rep.points}
    pole = kinds[PointKind.Pole]
    d, b = rf.d, rf.b
    assert pole.signature == (int(np.sign(float(d + b))), int(np.sign(float(d))))
    assert PointKind.VerticalCircle not in kinds
    grid_verify(rf, rep)


def test_classify_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        classify_critical_points(ReducedFunction(F(1, 4), F(1), F(1, 2)))  # d=0
    with pytest.raises(DegenerateInput):
        # on the line c = b
        classify_critical_points(ReducedFunction(F(-1), F(1), F(1)))


REGION_SAMPLES = {
    Region.A: (F(-1), F(1), F(1, 2)),
    Region.Bplus: (F(-1), F(1), F(2)),
    Region.Bminus: (F(-1), F(1), F(-2)),
    Region.Cplus: (F(-1), F(1), F(4)),
    Region.Cminus: (F(-1), F(1), F(-4)),
    Region.D: (F(-1), F(-1), F(1, 4)),
    Region.Eplus: (F(-1), F(-1), F(7, 8)),
    Region.Eminus: (F(-1), F(-1), F(-7, 8)),
    Region.F: (F(-1), F(-3), F(1, 4)),
}


@pytest.mark.parametrize("region", list(REGION_SAMPLES))
def test_all_nine_regions_match_tables(region):
    a, b, c = REGION_SAMPLES[region]
    rf = ReducedFunction(a, b, c)
    rep = classify_critical_points(rf)
    assert rep.region is region
    table = REGION_TABLE[region]
    kinds = {pt.kind: pt for pt in rep.points}
    assert kinds[PointKind.CrossingCf].signature == table["Cf"]
    assert kinds[PointKind.CrossingCb].signature == table["Cb"]
    if table["horizontal"] is None:
        assert PointKind.HorizontalCircle not in kinds
    else:
        assert kinds[PointKind.HorizontalCircle].signature == table["horizontal"]
    if table["vertical"] is None:
        assert PointKind.VerticalCircle not in kinds \
            or not kinds[PointKind.VerticalCircle].locations
    else:
        assert kinds[PointKind.VerticalCircle].signature == table["vertical"]
    assert rep.saddle_count == REGION_SADDLES[region]
    grid_verify(rf, rep)


def test_grid_verify_negative_control():
    rf = ReducedFunction(F(-1), F(1), F(1, 2))
    rep = classify_critical_points(rf)
    # flip a full signature (index change) on the horizontal pair
    for pt in rep.points:
        if pt.kind is PointKind.HorizontalCircle:
            pt.sig_theta, pt.sig_rho = -pt.sig_theta, -pt.sig_rho
    with pytest.raises(Mismatch):
        grid_verify(rf, rep)


def _totality_inputs():
    """300 random nondegenerate ReducedFunctions off the separating lines."""
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 300:
        a = F(int(rng.integers(-40, 40)), 16)
        b = F(int(rng.integers(-40, 40)), 16)
        c = F(int(rng.integers(-40, 40)), 16)
        rf = ReducedFunction(a, b, c)
        d = rf.d
        if d == 0 or (c != 0 and (b == 0 or b + d == 0)):
            continue
        lines = [abs(float(c - b)), abs(float(c + b)),
                 abs(float(c - (b + d))), abs(float(c + (b + d)))]
        if min(lines) < 1e-3:
            continue
        yield rf
        checked += 1


def test_classification_totality_random():
    for rf in _totality_inputs():
        rep = classify_critical_points(rf)
        grid_verify(rf, rep, n=250)
        assert rep.saddle_count == REGION_SADDLES[rep.region]


def test_balanced_laurent_json_roundtrip():
    q = correlation_C(Q44, Q22)
    d = q.to_json_dict()
    back = BL.from_json_dict(d)
    assert back == q


# ---------------------------------------------------------------------------
# golden bytes: the JSON of <q1>, G0(q1) and C(q1, q2), as `average` writes
# it, over fixed pairs; recorded with the Fraction-pair coefficients


XI_MONOMIALS = [m for m in itertools.product(range(7), repeat=4)
                if sum(m) <= 6]     # x1^a1 x2^a2 xi1^b1 xi2^b2, 210 of them


def _byte_pair(n):
    """Fixed pair n: three monomials of degree <= 6 each, with
    coefficients over 3, 5 and 7."""
    def poly(shift):
        return zpoly_from_x({
            XI_MONOMIALS[(37 * n + 71 * i + shift) % len(XI_MONOMIALS)]:
                F((n + i) % 7 - 3 or 1, (3, 5, 7)[(n + i) % 3])
            for i in range(3)})
    return poly(0), poly(101)


BYTE_PAIRS = ([(Q44, Q44), (Q44, Q22), (Q44, Q31), (Q22, Q22), (Q22, Q31),
               (Q31, Q31)] + [_byte_pair(n) for n in range(18)])
BYTE_SHA256 = [
    "403dae004150dcdc874e575b23d1892d19a9a551695c831f75717bc02d6d8eaf",
    "98e53f3c9cd90e4f124a79c53e1cb74daf0fc6d1b282526ca81df2d7cad8fd33",
    "785a8ee9cc2554ff061f83b561a03d0a50f8d2631da49194eef6fe6fc85b3d71",
    "7a94ee88205953d9a7c9fdb37ea54aa6d923f93f03c53eecde43038e0f2cfe3d",
    "0c4597f63337efea89873a6d80e38dc276588d18f6bac69c31a62aa3f2088241",
    "7fb6a69de94717bac798a2fe118c0c6b5827dcd244dec029e910f0d5d8c2305d",
    "9e845183bf65c6f9662d177ebe18dfcb152648d75e6c802b93de50ef8c0e2bb8",
    "bbd2cbdbabc00f3b4d44055971618f2db8c49b8872a29673b59c59d1e70ecb1e",
    "c8721946d72c3e6a001fcf946ba98e2e69497e198ee055d502c173e0aea7c71e",
    "ede1d8b6b795efb8796fd128572aef6b81112b67a26ae266cf8e2fe64624b6fb",
    "b20180a89fa596f65a9dd779fdeca052f4506bbfa11e11392a73548e404d66b2",
    "4e7058d6c4b7fbabafef48cfac639d56f43aa79604dbab824f492f46b5a52cfe",
    "f10afc1686e9bd736ede7892610cc0bde3bbf26cab55eb7a9305e675deb64c0e",
    "b6245f36d9faf1e3b9f86de6d90d4dcbf9d1c8cb7573bed95eda5e0dd72b9d37",
    "e12a2bd72b9499c45d8b81a934407ad879fa8749da3fa55a1bd971055ee6c853",
    "1a2937514cd6a7a2f7aabd301edb9d239e8fff24c96ae4d23bb500e7c2c4caf2",
    "745cc7b060c265c675943e322a5f5ddc6a07bceeda148fe8ffd20159a3bf4868",
    "2971bd91f76ef78d288a30e2d425de11aba46b02650add8f8ed61106edff37f4",
    "062c7e4a8649a904881a3e036166961abe867bd8f1a7d7a5be3d31dbdbe17906",
    "151afae98e5917415f4c2f1d1117dda25c386a72a276476fda12d7da9a668fb0",
    "ddf22d7c02ca875b877c1145733f0847f03338085f91e5fff5f040c67ff0db27",
    "67cd3fe7e46790eba417b848a3b4bd94caabaa8a1325f76d5486ce998d7676b2",
    "365a1ecd44d6c5a2f2d5aee20185fd8f03e15888d55f1878608239d76e3005f8",
    "f0f31de96f852f99419e4b54520228191b75736f749f6456b31f967e1df63ba1",
]


@pytest.mark.parametrize("n", range(len(BYTE_PAIRS)))
def test_average_json_bytes(n):
    q1, q2 = BYTE_PAIRS[n]
    doc = {"average": flow_average(q1).to_json_dict(),
           "G0": weighted_average_G0(q1).to_json_dict(),
           "C": correlation_C(q1, q2).to_json_dict()}
    text = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == BYTE_SHA256[n]


# ---------------------------------------------------------------------------
# oracles: the all-pairs correlation (bracket every pair of terms, then
# take the flow average) and the classification with every subexpression
# written out where it is used


def _fmul(x, y):
    """Product of two Gaussian rationals given as (re, im) pairs."""
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _accumulate(out, key, v):
    cur = out.get(key, (F(0), F(0)))
    out[key] = (cur[0] + v[0], cur[1] + v[1])


def _pairs(q):
    """q's coefficients as (re, im) Fraction pairs, read through terms."""
    return {k: (v.re, v.im) for k, v in q.terms.items()}


def _laurent(pairs):
    """The BalancedLaurent of a dict key -> (re, im) pair."""
    return BL({k: QQi(F(re), F(im)) for k, (re, im) in pairs.items()})


def _poisson_pairs(f, g):
    """{f, g} over dicts key -> (re, im), bracketing every pair of terms."""
    out = {}
    for (a1, a2, t1, t2), v1 in f.items():
        for (b1, b2, u1, u2), v2 in g.items():
            for j, sig in ((0, a1 * u1 - t1 * b1), (1, a2 * u2 - t2 * b2)):
                if sig == 0:
                    continue
                key = [a1 + b1, a2 + b2, t1 + u1, t2 + u2]
                key[j] -= 1
                key[j + 2] -= 1
                _accumulate(out, tuple(key),
                            _fmul(_fmul(v1, v2), (0, 2 * sig)))
    return out


def _poisson_all_pairs(f, g):
    return _laurent(_poisson_pairs(_pairs(f), _pairs(g)))


def _balanced(key):
    return key[0] + key[1] == key[2] + key[3]


def _correlation_C_all_pairs(q1, q2):
    """C(q1, q2) = sum_k Cor_k / (ik): each term of q1, of frequency k,
    bracketed with every term of q2, flow-averaged and divided by ik."""
    g = _pairs(q2)
    out = {}
    for (a1, a2, t1, t2), v1 in _pairs(q1).items():
        k = (t1 + t2) - (a1 + a2)
        if not k:
            continue
        for key, v in _poisson_pairs({(a1, a2, t1, t2): v1}, g).items():
            if _balanced(key):
                _accumulate(out, key, _fmul(v, (0, F(-1, k))))
    return _laurent(out)


def _sign(x):
    return 1 if x > 0 else (-1 if x < 0 else 0)


def _region_if_chain(b, c, d):
    """The region table as one scalar if-chain, raising on a boundary."""
    b, c, d = float(b), float(c), float(d)
    lines = [abs(c - b), abs(c + b), abs(c - (b + d)), abs(c + (b + d))]
    if min(lines) <= flowavg.REGION_LINE_TOL:
        raise DegenerateInput("on a separating line", clause="lines")
    if d < 0:
        return _region_if_chain(-b, -c, -d)
    if b > 0 and -b < c < b:
        return Region.A
    if max(b, -b) < c < b + d:
        return Region.Bplus
    if -(b + d) < c < min(b, -b):
        return Region.Bminus
    if c > max(b + d, -b):
        return Region.Cplus
    if c < min(b, -b - d):
        return Region.Cminus
    if b < 0 and max(b, -b - d) < c < min(-b, b + d):
        return Region.D
    if max(b + d, -b - d) < c < -b:
        return Region.Eplus
    if b < c < min(-b - d, b + d):
        return Region.Eminus
    if b < -d and b + d < c < -b - d:
        return Region.F
    raise DegenerateInput("no region", clause="region table")


def _classify_written_out(rf):
    a, b, c, d = rf.a, rf.b, rf.c, rf.d
    if d == 0:
        raise DegenerateInput("d = 0", clause="d != 0")
    if c != 0 and (b == 0 or b + d == 0):
        raise DegenerateInput("c != 0 requires b != 0 and b+d != 0",
                              clause="b != 0 and b+d != 0")
    region = _region_if_chain(b, c, d)
    pts = [flowavg.CriticalPoint(
        kind=PointKind.CrossingCf,
        signature=(_sign(-c - b - d), _sign(-b - c)),
        sig_theta=_sign(-b - c), sig_rho=_sign(-c - b - d),
        value=a + (d + b) / 4 + c / 2, locations=[(0.5, 0.0)])]
    pts.append(flowavg.CriticalPoint(
        kind=PointKind.CrossingCb,
        signature=(_sign(c - b - d), _sign(c - b)),
        sig_theta=_sign(c - b), sig_rho=_sign(c - b - d),
        value=a + (d + b) / 4 - c / 2, locations=[(0.5, np.pi)]))
    if b != 0 and abs(c) < abs(b):
        th = float(np.arccos(float(-c / b)))
        pts.append(flowavg.CriticalPoint(
            kind=PointKind.HorizontalCircle,
            signature=(_sign(b), -_sign(d)),
            sig_theta=_sign(b), sig_rho=-_sign(d),
            value=a + d / 4 - c * c / (4 * b),
            locations=[(0.5, th), (0.5, 2 * np.pi - th)]))
    if b + d != 0 and c != 0:
        t = c / (b + d)
        if -1 < t < 0:
            gstar, theta0 = -t / 2, 0.0
        elif 0 < t < 1:
            gstar, theta0 = t / 2, np.pi
        else:
            gstar = None
        if gstar is not None:
            disc = float(F(1, 4) - gstar * gstar)
            pts.append(flowavg.CriticalPoint(
                kind=PointKind.VerticalCircle,
                signature=(_sign(d + b), _sign(d)),
                sig_theta=_sign(d), sig_rho=_sign(d + b),
                value=a - c * c / (4 * (b + d)),
                locations=[(0.5 - np.sqrt(disc), theta0),
                           (0.5 + np.sqrt(disc), theta0)]))
    if c == 0:
        pts.append(flowavg.CriticalPoint(
            kind=PointKind.Pole,
            signature=(_sign(d + b), _sign(d)),
            sig_theta=_sign(d + b), sig_rho=_sign(d),
            value=a, locations=[(0.0, 0.0), (1.0, 0.0)]))
    return flowavg.CriticalPointReport(region=region, points=pts,
                                       params={"a": a, "b": b, "c": c, "d": d})


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=8)
X_MONOMIALS = st.tuples(*[st.integers(0, 6)] * 4).filter(lambda m: sum(m) <= 6)


@st.composite
def real_laurent(draw):
    """A real x-polynomial of degree 0-6 with rational coefficients, plus
    real terms carrying a matched negative exponent |z_j|^{-2n}."""
    q = zpoly_from_x(draw(st.dictionaries(X_MONOMIALS, RATIONALS,
                                          min_size=1, max_size=4)))
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, 1))
        n = draw(st.integers(1, 2))
        a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        key = [a, a, b, b]
        key[j] = key[j + 2] = -n
        c = draw(RATIONALS)
        q = q + BL({tuple(key): c}) + BL({tuple(key): c}).conj()
    return q


@settings(derandomize=True, max_examples=40, deadline=None)
@given(q1=real_laurent(), q2=real_laurent())
def test_correlation_equals_all_pairs_oracle(q1, q2):
    assert q1 == q1.conj() and q2 == q2.conj()
    c12 = correlation_C(q1, q2)
    assert c12 == _correlation_C_all_pairs(q1, q2)
    assert c12 == correlation_C(q2, q1)


def _quartic(coeffs):
    return zpoly_from_x(dict(zip([(4, 0), (0, 4), (3, 1), (1, 3), (2, 2)],
                                 coeffs)))


def test_correlation_brackets_only_frequency_matched_pairs(monkeypatch):
    q1, q2 = _quartic([1, -2, 3, -1, 2]), _quartic([-3, 1, 2, 2, -1])
    assert len(q1.num) == len(q2.num) == 35     # 1225 pairs in all
    pairs = []
    bracket = flowavg._bracket_into

    def recorded_bracket(num, f_terms, g_terms):
        pairs.extend((kf, kg) for kf, _ in f_terms for kg, _ in g_terms)
        bracket(num, f_terms, g_terms)

    monkeypatch.setattr(flowavg, "_bracket_into", recorded_bracket)
    c = correlation_C(q1, q2)
    monkeypatch.undo()
    freqs = [(flowavg._frequency(kf), flowavg._frequency(kg))
             for kf, kg in pairs]
    assert all(k1 + k2 == 0 and k1 != 0 for k1, k2 in freqs)
    # the frequency-matched pairs of the nonzero frequencies, each once
    assert len(set(pairs)) == len(pairs) == 5 * 5 + 8 * 8 + 8 * 8 + 5 * 5 \
        == 178
    # C is the sum of the brackets of these pairs alone ...
    g0, g = _g0_pairs(_pairs(q1)), _pairs(q2)
    out = {}
    for kf, kg in pairs:
        for key, v in _poisson_pairs({kf: g0[kf]}, {kg: g[kg]}).items():
            _accumulate(out, key, v)
    assert c == _laurent(out)
    # ... and the all-pairs computation agrees
    assert c == _correlation_C_all_pairs(q1, q2)


# ---------------------------------------------------------------------------
# the integer representation: canonical form, ring laws and the kernels
# against Fraction-pair oracles that read coefficients only through terms


def _is_canonical(q):
    """No zero entry, den > 0, and gcd(den, numerators) = 1."""
    return q.den > 0 and all(re or im for re, im in q.num.values()) \
        and math.gcd(q.den, *itertools.chain(*q.num.values())) == 1


def _g0_pairs(q):
    """G0 over a dict key -> (re, im): a term of frequency k != 0 times
    1/(ik) = -i/k."""
    out = {}
    for key, v in q.items():
        k = (key[2] + key[3]) - (key[0] + key[1])
        if k:
            out[key] = _fmul(v, (0, F(-1, k)))
    return out


# x_j = (z_j + zbar_j)/2 and xi_j = (z_j - zbar_j)/(2i) as dicts
LINEAR_FACTORS = [
    {(1, 0, 0, 0): (F(1, 2), 0), (0, 0, 1, 0): (F(1, 2), 0)},
    {(0, 1, 0, 0): (F(1, 2), 0), (0, 0, 0, 1): (F(1, 2), 0)},
    {(1, 0, 0, 0): (0, F(-1, 2)), (0, 0, 1, 0): (0, F(1, 2))},
    {(0, 1, 0, 0): (0, F(-1, 2)), (0, 0, 0, 1): (0, F(1, 2))},
]


def _zpoly_pairs(monomials):
    """x^a xi^b expanded as a product of linear factors."""
    out = {}
    for key, coeff in monomials.items():
        poly = {(0, 0, 0, 0): (F(coeff), F(0))}
        for factor, power in zip(LINEAR_FACTORS, tuple(key) + (0, 0)):
            for _ in range(power):
                prod = {}
                for k1, v1 in poly.items():
                    for k2, v2 in factor.items():
                        _accumulate(prod, tuple(map(sum, zip(k1, k2))),
                                    _fmul(v1, v2))
                poly = prod
        for k, v in poly.items():
            _accumulate(out, k, v)
    return out


def _action_angle_pairs(pairs):
    """to_action_angle over a dict key -> (re, im) of balanced terms:
    z^a zbar^b = 2^(a1 + a2) rho1^p1 rho2^p2 e^{-i m theta}, m = a1 - b1."""
    out = {}
    for (a1, a2, b1, b2), (re, im) in pairs.items():
        scale, m = F(2) ** (a1 + a2), a1 - b1
        _accumulate(out, (a1 + b1, a2 + b2, abs(m)),
                    (re * scale, _sign(m) * im * scale))
    return {k: v for k, v in out.items() if v != (0, 0)}


@st.composite
def laurent_key(draw):
    """(a1, a2, b1, b2), sometimes with a matched pair a_j = b_j < 0."""
    key = list(draw(st.tuples(*[st.integers(0, 4)] * 4)))
    j = draw(st.sampled_from([None, None, 0, 1]))
    if j is not None:
        key[j] = key[j + 2] = -draw(st.integers(1, 2))
    return tuple(key)


GAUSSIAN_RATIONALS = st.builds(QQi, RATIONALS, RATIONALS)
LAURENTS = st.builds(BL, st.dictionaries(laurent_key(), GAUSSIAN_RATIONALS,
                                         max_size=6))


def test_canonical_form():
    k, k2 = (1, 0, 1, 0), (0, 1, 0, 1)
    assert BL({k: F(2, 4)}) == BL({k: F(1, 2)}) == BL({k: QQi(F(1, 2))})
    q = BL({k: F(1, 2), k2: F(1, 3)})
    assert q.den == 6 and (q - BL({k2: F(1, 3)})).den == 2
    assert q - q == BL() and not (q - q).terms and (q - q).den == 1
    assert BL({k: 0, k2: QQi(0, 0)}) == BL()
    assert BL({k: F(1, 2)}) != BL({k: F(1, 3)})
    # an unreduced JSON coefficient, 2/2 + 0i/5
    assert BL.from_json_dict({"1,0,1,0": [[2, 2], [0, 5]]}) == BL({k: 1})


@settings(derandomize=True, max_examples=60, deadline=None)
@given(q=LAURENTS, r=LAURENTS, s=LAURENTS, c=GAUSSIAN_RATIONALS)
def test_laurent_ring_laws(q, r, s, c):
    for x in (q, q + r, q - r, q * r, q * c, q.conj()):
        assert _is_canonical(x)
    assert (q + r) - r == q
    assert q - q == BL() and not (q - q).terms
    assert q * (r + s) == q * r + q * s
    assert (q + r) * c == q * c + c * r
    assert q.conj().conj() == q
    assert BL.from_json_dict(q.to_json_dict()) == q
    # + and * against Fraction pairs
    total, prod = dict(_pairs(q)), {}
    for k, v in _pairs(r).items():
        _accumulate(total, k, v)
    for k1, v1 in _pairs(q).items():
        for k2, v2 in _pairs(r).items():
            _accumulate(prod, tuple(map(sum, zip(k1, k2))), _fmul(v1, v2))
    assert q + r == _laurent(total) and q * r == _laurent(prod)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(q=LAURENTS)
def test_g0_bracket_identity(q):
    # {|z|^2, G0(q)} = 2 (q - <q>)
    zsq = BL({(1, 0, 1, 0): 1, (0, 1, 0, 1): 1})
    assert _poisson_all_pairs(zsq, weighted_average_G0(q)) \
        == 2 * (q - flow_average(q))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(monomials=st.dictionaries(
    st.one_of(X_MONOMIALS, st.tuples(st.integers(0, 6), st.integers(0, 6))),
    RATIONALS, max_size=4))
def test_zpoly_equals_product_of_linear_factors(monomials):
    q = zpoly_from_x(monomials)
    assert _is_canonical(q) and q == _laurent(_zpoly_pairs(monomials))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(q1=LAURENTS, q2=LAURENTS)
def test_kernels_equal_fraction_oracles(q1, q2):
    pairs = _pairs(q1)
    g0 = weighted_average_G0(q1)
    assert _is_canonical(g0) and g0 == _laurent(_g0_pairs(pairs))
    avg = flow_average(q1)
    assert _is_canonical(avg)
    balanced = {k: v for k, v in pairs.items() if _balanced(k)}
    assert avg == _laurent(balanced)
    assert to_action_angle(avg) == _action_angle_pairs(balanced)
    c = correlation_C(q1, q2)
    assert _is_canonical(c) and c == _correlation_C_all_pairs(q1, q2)


# small denominators, so that d = 0, b = 0, b + d = 0, c = 0 and the
# separating lines are all drawn
GRID_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(a=GRID_RATIONALS, b=GRID_RATIONALS, c=GRID_RATIONALS)
def test_classification_equals_written_out_oracle(a, b, c):
    rf = ReducedFunction(a, b, c)
    try:
        want = _classify_written_out(rf)
    except Exception as exc:
        with pytest.raises(type(exc)):
            classify_critical_points(rf)
        return
    got = classify_critical_points(rf)
    assert got.region is want.region
    assert got.params == want.params
    assert len(got.points) == len(want.points)
    for g, w in zip(got.points, want.points):
        assert (g.kind, g.signature, g.sig_theta, g.sig_rho) == \
            (w.kind, w.signature, w.sig_theta, w.sig_rho)
        assert type(g.value) is F and g.value == w.value
        assert repr(g.locations) == repr(w.locations)


def _scan_per_cell(scan):
    """region_scan.csv classified cell by cell by the written-out oracle:
    each cell's region and the saddle count of its reported points."""
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(["b", "c", "region", "saddles"])
    for b, bq in scan["b_range"]:
        aq = (bq / 2 - scan["d"]) / 2
        for c, cq in scan["c_range"]:
            try:
                rep = _classify_written_out(ReducedFunction(aq, bq, cq))
                w.writerow([repr(b), repr(c), rep.region.value,
                            rep.saddle_count])
            except DegenerateInput:
                w.writerow([repr(b), repr(c), "boundary", -1])
    return fh.getvalue()


@st.composite
def scan_range(draw):
    """[lo, hi, n] whose n points are multiples of 1/4, so that c = 0
    columns, b = 0 and b + d = 0 rows and separating lines occur."""
    n = draw(st.integers(0, 9))
    lo = draw(st.integers(-12, 12)) / 4
    return [lo, lo + draw(st.integers(-6, 6)) / 4 * max(n - 1, 0), n]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(b_range=scan_range(), c_range=scan_range(), d=GRID_RATIONALS)
@example(b_range=[-3, 3, 9], c_range=[-3, 3, 9], d=F(0))
@example(b_range=[-3, 3, 25], c_range=[-3, 3, 25], d=F(3))
@example(b_range=[-3, 3, 13], c_range=[-3, 3, 13], d=F(-3, 2))
@example(b_range=[-2, 2, 5], c_range=[-4, 4, 200], d=F(5, 2))
def test_scan_equals_per_cell_oracle(b_range, c_range, d):
    raw = {"scan": {"b_range": b_range, "c_range": c_range,
                    "d": [d.numerator, d.denominator]}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "c.json")
        path.write_text(json.dumps(raw))
        rc = cli.main(["classify", "--config", str(path), "--out", tmp])
        if 0 in (b_range[2], c_range[2]):
            # an empty range is a config error, not a header-only CSV
            assert rc == 2 and not any(Path(tmp).glob("*.csv"))
            return
        assert rc == 0
        got = Path(tmp, "region_scan.csv").read_bytes()
    want = _scan_per_cell(cli._fill(raw, cli.SCHEMAS["classify"])["scan"])
    assert got == want.encode()


@pytest.mark.parametrize("abc", list(REGION_SAMPLES.values())
                         + [(F(1), F(1), F(1, 2)), (F(1, 2), F(-3), F(5, 4))])
def test_grid_broadcast_equals_meshgrid(abc):
    rf = ReducedFunction(*abc)
    rhos = np.linspace(1e-3, 1 - 1e-3, 400)
    thetas = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
    R, T = np.meshgrid(rhos, thetas, indexing="ij")
    for mesh, bcast in zip(rf.grad(R, T),
                           rf.grad(rhos[:, None], thetas[None, :])):
        assert mesh.shape == bcast.shape == (400, 400)
        assert mesh.tobytes() == bcast.tobytes()


# ---------------------------------------------------------------------------
# closed-form derivatives against central differences, and the closed-form
# critical-point search against the finite-difference one it replaced


def _central_differences(f, x, steps):
    """The Jacobian of a 2-vector field f at x, or the gradient of a
    scalar one, by central differences with the given steps."""
    cols = [(np.array(f(*(x + dx))) - np.array(f(*(x - dx)))) / (2 * h)
            for h, dx in zip(steps, np.diag(steps))]
    return np.array(cols).T


def _assert_close(fd, exact, rtol):
    exact = np.array(exact, dtype=float)
    scale = max(1.0, np.abs(exact).max())
    assert np.allclose(fd, exact, rtol=rtol, atol=rtol * scale), (fd, exact)


RHOS = st.one_of(st.floats(1e-6, 1e-4), st.floats(1e-4, 1 - 1e-4),
                 st.floats(1 - 1e-4, 1 - 1e-6))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(abc=st.tuples(RATIONALS, RATIONALS, RATIONALS), rho=RHOS,
       theta=st.floats(0.0, 2 * np.pi))
def test_hess_equals_central_differences_of_grad(abc, rho, theta):
    rf = ReducedFunction(*abc)
    x = np.array([rho, theta])
    # a rho step well inside (0, 1), where g = sqrt(rho (1 - rho)) is smooth
    steps = (1e-4 * min(rho, 1 - rho), 1e-6)
    _assert_close(_central_differences(rf.grad, x, steps),
                  rf.hess(rho, theta), 1e-5)
    _assert_close(_central_differences(rf.eval, x, steps),
                  rf.grad(rho, theta), 1e-5)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(abc=st.tuples(RATIONALS, RATIONALS, RATIONALS),
       radius=st.floats(0.0, 0.33), angle=st.floats(0.0, 2 * np.pi))
def test_hess_pole_chart_equals_central_differences(abc, radius, angle):
    rf = ReducedFunction(*abc)
    x = radius * np.array([np.cos(angle), np.sin(angle)])
    steps = (1e-6, 1e-6)
    _assert_close(_central_differences(rf.grad_pole_chart, x, steps),
                  rf.hess_pole_chart(*x), 1e-6)
    _assert_close(_central_differences(rf.eval_pole_chart, x, steps),
                  rf.grad_pole_chart(*x), 1e-6)


def _numeric_critical_points_fd(rf, n=400):
    """The critical-point search with finite-difference Newton Jacobians
    and second-difference signatures."""
    sign_eps, sigma_dist = flowavg._sign_eps, flowavg._sigma_dist
    rhos = np.linspace(1e-3, 1 - 1e-3, n)
    thetas = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    gr, gt = rf.grad(rhos[:, None], thetas[None, :])
    g2 = gr * gr + gt * gt
    found = []

    def refine(r0, t0):
        x = np.array([r0, t0])
        for _ in range(60):
            gr, gt = rf.grad(x[0], x[1])
            g = np.array([gr, gt])
            if np.linalg.norm(g) < 1e-13:
                break
            eps = 1e-7
            J = np.empty((2, 2))
            for j, dx in enumerate(np.eye(2) * eps):
                gp = np.array(rf.grad(*(x + dx)))
                gm = np.array(rf.grad(*(x - dx)))
                J[:, j] = (gp - gm) / (2 * eps)
            try:
                step = np.linalg.solve(J, g)
            except np.linalg.LinAlgError:
                return None
            if np.linalg.norm(step) > 0.3:
                step *= 0.3 / np.linalg.norm(step)
            x = x - step
            if not (1e-6 < x[0] < 1 - 1e-6):
                return None
        else:
            return None
        return x[0], x[1] % (2 * np.pi)

    g2w = np.concatenate([g2[:, -1:], g2, g2[:, :1]], axis=1)
    interior = g2w[1:-1, 1:-1]
    neigh = np.minimum.reduce([g2w[:-2, 1:-1], g2w[2:, 1:-1],
                               g2w[1:-1, :-2], g2w[1:-1, 2:]])
    mask = (interior <= neigh) & (interior < 1e-2)
    for i, j in zip(*np.nonzero(mask)):
        res = refine(rhos[i + 1], thetas[j])
        if res is None:
            continue
        r0, t0 = res
        if all(sigma_dist(r0, t0, r1, t1) > 1e-4 for r1, t1, *_ in found):
            eps = 1e-5
            d2r = (rf.eval(r0 + eps, t0) - 2 * rf.eval(r0, t0)
                   + rf.eval(r0 - eps, t0)) / eps ** 2
            d2t = (rf.eval(r0, t0 + eps) - 2 * rf.eval(r0, t0)
                   + rf.eval(r0, t0 - eps)) / eps ** 2
            found.append((r0, t0, sign_eps(d2t), sign_eps(d2r)))

    def chart_grad(u, v):
        return np.array(rf.grad_pole_chart(u, v))

    m = 90
    uu = np.linspace(-0.32, 0.32, m)
    U, V = np.meshgrid(uu, uu, indexing="ij")
    GU, GV = rf.grad_pole_chart(U, V)
    C2 = GU * GU + GV * GV
    interior = C2[1:-1, 1:-1]
    neigh = np.minimum.reduce([C2[:-2, 1:-1], C2[2:, 1:-1],
                               C2[1:-1, :-2], C2[1:-1, 2:]])
    cmask = (interior <= neigh) & (interior < 1e-2)
    chart_pts = []
    for i, j in zip(*np.nonzero(cmask)):
        x = np.array([U[i + 1, j + 1], V[i + 1, j + 1]])
        okc = False
        for _ in range(80):
            g = chart_grad(*x)
            if np.linalg.norm(g) < 1e-12:
                okc = True
                break
            J = np.empty((2, 2))
            for jj, dx in enumerate(np.eye(2) * 1e-6):
                J[:, jj] = (chart_grad(*(x + dx))
                            - chart_grad(*(x - dx))) / 2e-6
            try:
                step = np.linalg.solve(J, g)
            except np.linalg.LinAlgError:
                break
            if np.linalg.norm(step) > 0.1:
                step *= 0.1 / np.linalg.norm(step)
            x = x - step
            if np.linalg.norm(x) > 0.4:
                break
        if okc and np.linalg.norm(x) <= 0.33:
            if all(np.hypot(x[0] - w[0], x[1] - w[1]) > 1e-6
                   for w in chart_pts):
                chart_pts.append((x[0], x[1]))
    for u, v in chart_pts:
        s = u * u + v * v
        if s < 1e-12:
            e = 1e-5
            d2u = (rf.eval_pole_chart(e, 0) - 2 * rf.eval_pole_chart(0, 0)
                   + rf.eval_pole_chart(-e, 0)) / e ** 2
            d2v = (rf.eval_pole_chart(0, e) - 2 * rf.eval_pole_chart(0, 0)
                   + rf.eval_pole_chart(0, -e)) / e ** 2
            for pole_rho in (0.0, 1.0):
                found.append((pole_rho, 0.0, sign_eps(d2u), sign_eps(d2v)))
            continue
        rho0 = s
        th0 = np.arctan2(-v, u) % (2 * np.pi)
        for r0 in (rho0, 1.0 - rho0):
            if any(sigma_dist(r0, th0, r1, t1) <= 1e-4
                   for r1, t1, *_ in found):
                continue
            e = min(1e-5, r0 / 3, (1 - r0) / 3)
            d2r = (rf.eval(r0 + e, th0) - 2 * rf.eval(r0, th0)
                   + rf.eval(r0 - e, th0)) / e ** 2
            d2t = (rf.eval(r0, th0 + 1e-5) - 2 * rf.eval(r0, th0)
                   + rf.eval(r0, th0 - 1e-5)) / 1e-10
            found.append((r0, th0, sign_eps(d2t), sign_eps(d2r)))
    return found


def test_closed_form_search_equals_fd_oracle():
    cases = [(rf, 250) for rf in _totality_inputs()]
    cases += [(ReducedFunction(*abc), 400) for abc in REGION_SAMPLES.values()]
    cases.append((ReducedFunction(F(-1), F(1), F(0)), 400))    # the poles
    for rf, n in cases:
        got = flowavg._numeric_critical_points(rf, n=n)
        want = _numeric_critical_points_fd(rf, n=n)
        assert [p[2:] for p in got] == [p[2:] for p in want]
        for (r0, t0, *_), (r1, t1, *_) in zip(got, want):
            assert flowavg._sigma_dist(r0, t0, r1, t1) <= 1e-9
