"""Exact flow averages, correlations and classification."""

import copy
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
from hypothesis.extra import numpy as hnp

from branchspec import cli, flowavg
from branchspec.errors import DegenerateInput, Mismatch, NotInvariant
from branchspec.flowavg import (
    REGION_SADDLES,
    REGION_TABLE,
    BalancedLaurent as BL,
    PointKind,
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
    assert g0 == _conj(g0)


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


def test_classification_totality_random(monkeypatch):
    monkeypatch.setattr(flowavg, "GRID_N", 250)
    for rf in _totality_inputs():
        rep = classify_critical_points(rf)
        grid_verify(rf, rep)
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
    """q's coefficients as (re, im) Fraction pairs."""
    return {k: (F(re, q.den), F(im, q.den)) for k, (re, im) in q.num.items()}


def _laurent(pairs):
    """The BalancedLaurent of a dict key -> (re, im) pair, read as JSON."""
    return BL.from_json_dict({",".join(map(str, k)): [F(x).as_integer_ratio()
                                                      for x in v]
                              for k, v in pairs.items()})


def _conj(q):
    """The complex conjugate of q: z_j and zbar_j swap, and each
    coefficient is conjugated."""
    return _laurent({(k[2], k[3], k[0], k[1]): (re, -im)
                     for k, (re, im) in _pairs(q).items()})


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
    return flowavg.CriticalPointReport(region=region, points=pts)


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
        q = q + BL({tuple(key): c}) + _conj(BL({tuple(key): c}))
    return q


@settings(derandomize=True, max_examples=40, deadline=None)
@given(q1=real_laurent(), q2=real_laurent())
def test_correlation_equals_all_pairs_oracle(q1, q2):
    assert q1 == _conj(q1) and q2 == _conj(q2)
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
# against Fraction-pair oracles that read coefficients only through num
# and den


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


LAURENTS = st.builds(_laurent, st.dictionaries(
    laurent_key(), st.tuples(RATIONALS, RATIONALS), max_size=6))


def test_canonical_form():
    k, k2 = (1, 0, 1, 0), (0, 1, 0, 1)
    assert BL({k: F(2, 4)}) == BL({k: F(1, 2)}) == _laurent({k: (F(1, 2), 0)})
    q = BL({k: F(1, 2), k2: F(1, 3)})
    assert q.den == 6 and (q - BL({k2: F(1, 3)})).den == 2
    assert q - q == BL() and not (q - q).num and (q - q).den == 1
    assert BL({k: 0, k2: F(0)}) == _laurent({k: (0, 0)}) == BL()
    assert BL({k: F(1, 2)}) != BL({k: F(1, 3)})
    # an unreduced JSON coefficient, 2/2 + 0i/5
    assert BL.from_json_dict({"1,0,1,0": [[2, 2], [0, 5]]}) == BL({k: 1})


@settings(derandomize=True, max_examples=60, deadline=None)
@given(q=LAURENTS, r=LAURENTS, s=LAURENTS, c=RATIONALS)
def test_laurent_ring_laws(q, r, s, c):
    for x in (q, q + r, q - r, q * r, q * c, _conj(q)):
        assert _is_canonical(x)
    assert (q + r) - r == q
    assert q - q == BL() and not (q - q).num
    assert q * (r + s) == q * r + q * s
    assert (q + r) * c == q * c + c * r
    assert _conj(_conj(q)) == q
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


@pytest.mark.parametrize("abc", list(REGION_SAMPLES.values())
                         + [(F(1), F(1), F(1, 2)), (F(1, 2), F(-3), F(5, 4))])
def test_grid_equals_out_of_place_expressions(abc):
    rf = ReducedFunction(*abc)
    a, b, c, d = rf.floats
    rho = np.linspace(1e-3, 1 - 1e-3, 400)[:, None]
    theta = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)[None, :]
    g2 = rho * (1.0 - rho)
    g = np.sqrt(np.maximum(g2, 1e-300))
    y = np.cos(theta)
    dgdr = (1.0 - 2.0 * rho) / (2.0 * g)
    gr = (d + b * y * y) * (1.0 - 2.0 * rho) + c * y * dgdr
    gt = -np.sin(theta) * (2.0 * b * g2 * y + c * g)
    got = rf.grad(rho, theta)
    assert got[0].tobytes() == gr.tobytes()
    assert got[1].tobytes() == gt.tobytes()
    assert flowavg._grad_sq(rf.grad, rho[:, 0], theta[0]).tobytes() == \
        (gr * gr + gt * gt).tobytes()


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


def test_closed_form_search_equals_fd_oracle(monkeypatch):
    cases = [(rf, 250) for rf in _totality_inputs()]
    cases += [(ReducedFunction(*abc), 400) for abc in REGION_SAMPLES.values()]
    cases.append((ReducedFunction(F(-1), F(1), F(0)), 400))    # the poles
    for rf, n in cases:
        monkeypatch.setattr(flowavg, "GRID_N", n)
        got = flowavg._numeric_critical_points(rf)
        want = _numeric_critical_points_fd(rf, n=n)
        assert [p[2:] for p in got] == [p[2:] for p in want]
        for (r0, t0, *_), (r1, t1, *_) in zip(got, want):
            assert flowavg._sigma_dist(r0, t0, r1, t1) <= 1e-9


# ---------------------------------------------------------------------------
# the array critical-point search against the scalar one it replaced: its
# recorded answers, its Newton loop and its stacked-minimum formula

# The 9 REGION_SAMPLES, the pole case and 50 seeded random (a, b, c) off the
# separating lines: grid_verify's return dict and _numeric_critical_points'
# [(rho, theta, sig_theta, sig_rho)], recorded on the scalar Newton search.
PINNED_SEARCH = [
    (('-1', '1', '1/2'), {'matched': 6, 'numeric': 6}, [
        (0.005128340694606488, 3.141592653589793, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 2.0943951023931957, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 4.188790204786391, 1, -1),
        (0.9948716593053936, 3.141592653589793, 1, 1),
    ]),
    (('-1', '1', '2'), {'matched': 4, 'numeric': 4}, [
        (0.08967409667585508, 3.141592653589793, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 3.141592653589793, 1, -1),
        (0.910325903324145, 3.141592653589793, 1, 1),
    ]),
    (('-1', '1', '-2'), {'matched': 4, 'numeric': 4}, [
        (0.08967409667585508, 0.0, 1, 1),
        (0.5, 0.0, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.910325903324145, 0.0, 1, 1),
    ]),
    (('-1', '1', '4'), {'matched': 2, 'numeric': 2}, [
        (0.5, 0.0, -1, -1),
        (0.5, 3.141592653589793, 1, 1),
    ]),
    (('-1', '1', '-4'), {'matched': 2, 'numeric': 2}, [
        (0.5, 0.0, 1, 1),
        (0.5, 3.141592653589793, -1, -1),
    ]),
    (('-1', '-1', '1/4'), {'matched': 6, 'numeric': 6}, [
        (0.06698729810776492, 3.1415926535898357, 1, 1),
        (0.5, 0.0, 1, -1),
        (0.5, 1.318116071652818, -1, -1),
        (0.5, 3.141592653589793, 1, -1),
        (0.5, 4.9650692355267685, -1, -1),
        (0.9330127018922194, 3.141592653589793, 1, 1),
    ]),
    (('-1', '-1', '7/8'), {'matched': 4, 'numeric': 4}, [
        (0.5, 0.0, 1, -1),
        (0.5, 0.5053605102841573, -1, -1),
        (0.5, 3.141592653589793, 1, 1),
        (0.5, 5.7778247968954295, -1, -1),
    ]),
    (('-1', '-1', '-7/8'), {'matched': 4, 'numeric': 4}, [
        (0.5, 0.0, 1, 1),
        (0.5, 2.636232143305636, -1, -1),
        (0.5, 3.141592653589793, 1, -1),
        (0.5, 3.6469531638739507, -1, -1),
    ]),
    (('-1', '-3', '1/4'), {'matched': 6, 'numeric': 6}, [
        (0.0025062814466900226, 6.283185307179586, 1, -1),
        (0.4999999999999473, 1.4873662401843166, -1, -1),
        (0.4999999999999473, 4.79581906699527, -1, -1),
        (0.5, 0.0, 1, 1),
        (0.5, 3.141592653589793, 1, 1),
        (0.9974937185533099, 6.283185307179586, 1, -1),
    ]),
    (('-1', '1', '0'), {'matched': 6, 'numeric': 6}, [
        (0.5, 0.0, -1, -1),
        (0.5, 1.5707963267948966, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 4.71238898038469, 1, -1),
        (0.0, 0.0, 1, 1),
        (1.0, 0.0, 1, 1),
    ]),
    (('-23/24', '13/12', '1/4'), {'matched': 6, 'numeric': 6}, [
        (0.5, 0.0, -1, -1),
        (0.5, 1.803664505052979, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 4.479520802126608, 1, -1),
        (0.0012472303239654482, 3.141592653589793, 1, 1),
        (0.9987527696760345, 3.141592653589793, 1, 1),
    ]),
    (('-1/12', '7/3', '3/2'), {'matched': 6, 'numeric': 6}, [
        (0.043753184093528845, 3.141592653589793, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 2.2690188001574567, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 4.01416650702213, 1, -1),
        (0.9562468159064712, 3.141592653589793, 1, 1),
    ]),
    (('0', '47/24', '-29/24'), {'matched': 6, 'numeric': 6}, [
        (0.04426070510187537, 0.0, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 0.9058444327942561, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 5.377340874385331, 1, -1),
        (0.9557392948981246, 1.1732947770543552e-17, 1, 1),
    ]),
    (('-29/12', '-59/24', '11/24'), {'matched': 6, 'numeric': 6}, [
        (0.041742430504416034, 3.141592653589793, 1, 1),
        (0.5, 0.0, 1, -1),
        (0.5, 1.3832582785972845, -1, -1),
        (0.5, 3.141592653589793, 1, -1),
        (0.5, 4.899927028582302, -1, -1),
        (0.958257569495584, 3.141592653589793, 1, 1),
    ]),
    (('7/8', '-35/24', '-5/2'), {'matched': 4, 'numeric': 4}, [
        (0.11371131670990613, 3.141592653589793, -1, -1),
        (0.5, 0.0, 1, 1),
        (0.5, 3.141592653589793, -1, 1),
        (0.8862886832900939, 3.141592653589793, -1, -1),
    ]),
    (('13/6', '-3/4', '7/4'), {'matched': 4, 'numeric': 4}, [
        (0.02639447127205547, 6.283185307179586, -1, -1),
        (0.5, 0.0, -1, 1),
        (0.5, 3.141592653589793, 1, 1),
        (0.9736055287279445, 6.283185307179586, -1, -1),
    ]),
    (('13/12', '-19/8', '-5/24'), {'matched': 6, 'numeric': 6}, [
        (0.5, 0.0, 1, 1),
        (0.5, 1.6586285116132005, -1, 1),
        (0.5, 3.141592653589793, 1, 1),
        (0.5, 4.624556795566386, -1, 1),
        (0.000330687866861784, 3.1415926535899197, -1, -1),
        (0.9996693121331383, 3.1415926535899197, -1, -1),
    ]),
    (('17/24', '11/24', '-11/8'), {'matched': 2, 'numeric': 2}, [
        (0.5, 0.0, 1, 1),
        (0.5, 3.141592653589793, -1, -1),
    ]),
    (('19/24', '7/6', '2'), {'matched': 2, 'numeric': 2}, [
        (0.5, 0.0, -1, -1),
        (0.5, 3.141592653589793, 1, 1),
    ]),
    (('-15/8', '5/6', '-19/12'), {'matched': 4, 'numeric': 4}, [
        (0.02573155749559347, 3.735256386221491e-28, 1, 1),
        (0.5, 0.0, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.9742684425044066, 0.0, 1, 1),
    ]),
    (('-37/24', '7/6', '53/24'), {'matched': 4, 'numeric': 4}, [
        (0.05524008132965932, 3.141592653589793, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 3.141592653589793, 1, -1),
        (0.9447599186703407, 3.141592653589793, 1, 1),
    ]),
    (('-13/8', '3/2', '-7/12'), {'matched': 6, 'numeric': 6}, [
        (0.5, 0.0, -1, -1),
        (0.5, 1.171371086914302, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 5.111814220265285, 1, -1),
        (0.0028201663778847194, 6.283185307179586, 1, 1),
        (0.9971798336221153, 6.283185307179586, 1, 1),
    ]),
    (('-7/4', '13/24', '-5/8'), {'matched': 4, 'numeric': 4}, [
        (0.005278864095701909, 6.283185307179586, 1, 1),
        (0.5, 0.0, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.9947211359042981, 6.283185307179586, 1, 1),
    ]),
    (('-3/4', '-19/24', '7/8'), {'matched': 2, 'numeric': 2}, [
        (0.5, 0.0, -1, -1),
        (0.5, 3.141592653589793, 1, 1),
    ]),
    (('29/24', '25/24', '3/8'), {'matched': 6, 'numeric': 6}, [
        (0.05076242789283265, 3.002172869491653e-22, -1, -1),
        (0.5, 0.0, -1, 1),
        (0.5, 1.9390642202315365, 1, 1),
        (0.5, 3.141592653589793, -1, 1),
        (0.5, 4.34412108694805, 1, 1),
        (0.9492375721071674, 0.0, -1, -1),
    ]),
    (('-37/24', '-2/3', '17/12'), {'matched': 4, 'numeric': 4}, [
        (0.13339394440353283, 3.141592653589793, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 3.141592653589793, 1, -1),
        (0.8666060555964672, 3.141592653589793, 1, 1),
    ]),
    (('-49/24', '13/6', '13/12'), {'matched': 6, 'numeric': 6}, [
        (0.005485932229283786, 3.141592653589793, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 2.0943951023931953, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 4.188790204786391, 1, -1),
        (0.9945140677707162, 3.141592653589793, 1, 1),
    ]),
    (('-23/24', '-3/2', '13/24'), {'matched': 4, 'numeric': 4}, [
        (0.5, 0.0, 1, -1),
        (0.5, 1.2013371968951267, -1, -1),
        (0.5, 3.141592653589793, 1, 1),
        (0.5, 5.08184811028446, -1, -1),
    ]),
    (('-13/24', '23/12', '-47/24'), {'matched': 4, 'numeric': 4}, [
        (0.06547858019894119, 0.0, 1, 1),
        (0.5, 0.0, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.9345214198010587, 0.0, 1, 1),
    ]),
    (('5/8', '-41/24', '-47/24'), {'matched': 4, 'numeric': 4}, [
        (0.0710034471673885, 3.141592653589793, -1, -1),
        (0.5, 0.0, 1, 1),
        (0.5, 3.141592653589793, -1, 1),
        (0.9289965528326115, 3.141592653589793, -1, -1),
    ]),
    (('59/24', '-2', '-13/24'), {'matched': 6, 'numeric': 6}, [
        (0.5, 0.0, 1, 1),
        (0.5, 1.8450549402835268, -1, 1),
        (0.5, 3.141592653589793, 1, 1),
        (0.5, 4.438130366896059, -1, 1),
        (0.0011717330691887549, 3.141592653589793, -1, -1),
        (0.9988282669308113, 3.141592653589793, -1, -1),
    ]),
    (('-19/12', '15/8', '25/24'), {'matched': 6, 'numeric': 6}, [
        (0.007646271560880485, 3.141592653589793, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 2.1598272970111707, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 4.123358010168416, 1, -1),
        (0.9923537284391195, 3.141592653589793, 1, 1),
    ]),
    (('-31/24', '59/24', '-5/3'), {'matched': 6, 'numeric': 6}, [
        (0.017983246379378603, 9.129435670021688e-18, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 0.8258040928597936, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 5.457381214319793, 1, -1),
        (0.9820167536206214, 0.0, 1, 1),
    ]),
    (('2/3', '-5/12', '-17/8'), {'matched': 2, 'numeric': 2}, [
        (0.5, 0.0, 1, 1),
        (0.5, 3.141592653589793, -1, -1),
    ]),
    (('-25/24', '5/4', '55/24'), {'matched': 4, 'numeric': 4}, [
        (0.09231754250448233, 3.141592653589793, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 3.141592653589793, 1, -1),
        (0.9076824574955177, 3.141592653589793, 1, 1),
    ]),
    (('-13/24', '-2', '-59/24'), {'matched': 2, 'numeric': 2}, [
        (0.5, 0.0, 1, 1),
        (0.5, 3.141592653589793, -1, -1),
    ]),
    (('-23/24', '2/3', '13/24'), {'matched': 6, 'numeric': 6}, [
        (0.008698106028067339, 3.141592653589793, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 2.519224165034772, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 3.7639611421448143, 1, -1),
        (0.9913018939719328, 3.1415926535897936, 1, 1),
    ]),
    (('-1/4', '-1/24', '-13/6'), {'matched': 2, 'numeric': 2}, [
        (0.5, 0.0, 1, 1),
        (0.5, 3.141592653589793, -1, -1),
    ]),
    (('-13/24', '5/4', '3/2'), {'matched': 4, 'numeric': 4}, [
        (0.06903940054100725, 3.141592653589793, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 3.141592653589793, 1, -1),
        (0.9309605994589927, 3.141592653589793, 1, 1),
    ]),
    (('9/4', '-17/12', '19/24'), {'matched': 6, 'numeric': 6}, [
        (0.003582710423368079, 6.283185307179586, -1, -1),
        (0.5, 0.0, 1, 1),
        (0.5, 0.9778298598226777, -1, 1),
        (0.5, 3.141592653589793, 1, 1),
        (0.5, 5.305355447356909, -1, 1),
        (0.9964172895766319, 6.283185307179586, -1, -1),
    ]),
    (('23/12', '-9/8', '-2/3'), {'matched': 6, 'numeric': 6}, [
        (0.0036588123259347375, 3.141592653589793, -1, -1),
        (0.5, 0.0, 1, 1),
        (0.5, 2.2050699749173925, -1, 1),
        (0.5, 3.141592653589793, 1, 1),
        (0.5, 4.078115332262194, -1, 1),
        (0.9963411876740652, 3.141592653589793, -1, -1),
    ]),
    (('-2', '7/8', '19/8'), {'matched': 4, 'numeric': 4}, [
        (0.052747719875991445, 3.141592653589793, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 3.141592653589793, 1, -1),
        (0.9472522801240085, 3.141592653589793, 1, 1),
    ]),
    (('9/4', '13/24', '17/24'), {'matched': 4, 'numeric': 4}, [
        (0.009311381840721115, 5.175097304145867e-19, -1, -1),
        (0.5, 0.0, -1, 1),
        (0.5, 3.141592653589793, 1, 1),
        (0.9906886181592789, 4.476817797410626e-20, -1, -1),
    ]),
    (('-19/12', '11/12', '9/4'), {'matched': 4, 'numeric': 4}, [
        (0.0656711746949464, 3.141592653589793, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 3.141592653589793, 1, -1),
        (0.9343288253050536, 3.141592653589793, 1, 1),
    ]),
    (('3/8', '-53/24', '11/6'), {'matched': 6, 'numeric': 6}, [
        (0.05380931481297593, 0.0, -1, -1),
        (0.5, 0.0, 1, 1),
        (0.5, 0.5913502789460475, -1, 1),
        (0.5, 3.141592653589793, 1, 1),
        (0.5, 5.691835028233539, -1, 1),
        (0.9461906851870241, 0.0, -1, -1),
    ]),
    (('4/3', '3/4', '47/24'), {'matched': 2, 'numeric': 2}, [
        (0.5, 0.0, -1, -1),
        (0.5, 3.141592653589793, 1, 1),
    ]),
    (('-19/12', '2/3', '1/6'), {'matched': 6, 'numeric': 6}, [
        (0.5, 0.0, -1, -1),
        (0.5, 1.8234765819369754, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 4.459708725242611, 1, -1),
        (0.0004001601281268526, 3.1415926535893917, 1, 1),
        (0.9995998398718732, 3.1415926535893917, 1, 1),
    ]),
    (('19/12', '2', '-17/24'), {'matched': 4, 'numeric': 4}, [
        (0.5, 0.0, -1, 1),
        (0.5, 1.2087735018894243, 1, 1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 5.074411805290162, 1, 1),
    ]),
    (('-13/24', '-1/24', '-35/24'), {'matched': 2, 'numeric': 2}, [
        (0.5, 0.0, 1, 1),
        (0.5, 3.141592653589793, -1, -1),
    ]),
    (('-1/6', '-23/24', '11/24'), {'matched': 6, 'numeric': 6}, [
        (0.04511081316070587, 1.259442371017729e-13, -1, -1),
        (0.5, 0.0, 1, 1),
        (0.5, 1.0721229797330063, -1, 1),
        (0.5, 3.141592653589793, 1, 1),
        (0.5, 5.21106232744658, -1, 1),
        (0.9548891868392904, 3.781804620119204e-19, -1, -1),
    ]),
    (('-31/24', '-1/3', '1/24'), {'matched': 6, 'numeric': 6}, [
        (0.5, 0.0, 1, -1),
        (0.5, 1.4454684956268646, -1, -1),
        (0.5, 3.141592653589793, 1, -1),
        (0.5, 4.837716811552722, -1, -1),
        (0.0001000100020004001, 3.14159265359002, 1, 1),
        (0.9998999899979996, 3.14159265359002, 1, 1),
    ]),
    (('5/4', '-1/6', '-1/24'), {'matched': 6, 'numeric': 6}, [
        (0.5, 0.0, 1, 1),
        (0.4999999999999994, 1.8234765819361087, -1, 1),
        (0.5, 3.141592653589793, 1, 1),
        (0.4999999999999994, 4.459708725243478, -1, 1),
        (5.739539707787389e-05, 3.1415926535912555, -1, -1),
        (0.9999426046029222, 3.1415926535912555, -1, -1),
    ]),
    (('-23/24', '5/4', '-43/24'), {'matched': 4, 'numeric': 4}, [
        (0.05934202954366103, 0.0, 1, 1),
        (0.5, 0.0, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.9406579704563389, 0.0, 1, 1),
    ]),
    (('-5/12', '25/12', '47/24'), {'matched': 6, 'numeric': 6}, [
        (0.06547858019894118, 3.141592653589793, 1, 1),
        (0.5, 0.0, -1, -1),
        (0.5, 2.793426632316832, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 3.4897586748627547, 1, -1),
        (0.9345214198010589, 3.141592653589793, 1, 1),
    ]),
    (('-11/6', '-4/3', '17/24'), {'matched': 6, 'numeric': 6}, [
        (0.04740332524420819, 3.141592653589793, 1, 1),
        (0.5, 0.0, 1, -1),
        (0.5, 1.0107210205683146, -1, -1),
        (0.5, 3.141592653589793, 1, -1),
        (0.5, 5.272464286611272, -1, -1),
        (0.9525966747557936, 3.141592653589793, 1, 1),
    ]),
    (('-17/8', '-17/24', '-9/8'), {'matched': 4, 'numeric': 4}, [
        (0.03217724351215098, 6.283185307179586, 1, 1),
        (0.5, 0.0, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.967822756487849, 8.298816722925044e-28, 1, 1),
    ]),
    (('-2/3', '-1/2', '-13/6'), {'matched': 2, 'numeric': 2}, [
        (0.5, 0.0, 1, 1),
        (0.5, 3.141592653589793, -1, -1),
    ]),
    (('-37/24', '31/24', '-1/24'), {'matched': 6, 'numeric': 6}, [
        (0.5, 0.0, -1, -1),
        (0.5, 1.5385326651266504, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.5, 4.7446526420529365, 1, -1),
        (1.721763085909721e-05, 6.2831853071795605, 1, 1),
        (0.999982782369141, 6.2831853071795605, 1, 1),
    ]),
    (('2/3', '-15/8', '5/12'), {'matched': 6, 'numeric': 6}, [
        (0.5, 0.0, 1, 1),
        (0.5, 1.3467032344935257, -1, 1),
        (0.5, 3.141592653589793, 1, 1),
        (0.5, 4.9364820726860605, -1, 1),
        (0.0025315977450021507, 1.2891949197336227e-23, -1, -1),
        (0.9974684022549979, 1.2891949197336227e-23, -1, -1),
    ]),
    (('-1/3', '13/8', '-17/8'), {'matched': 4, 'numeric': 4}, [
        (0.13552350531894083, 0.0, 1, 1),
        (0.5, 0.0, 1, -1),
        (0.5, 3.141592653589793, -1, -1),
        (0.8644764946810591, 0.0, 1, 1),
    ]),
]

# grid_verify's discrepancy list on each REGION_SAMPLES report and the pole
# case, with each point record's signature flipped in turn, with each
# location removed in turn and with each location's theta moved by 0.01
# in turn (None: no discrepancy, as for a pole, matched by rho alone)
PINNED_DISCREPANCIES = {
    ('-1', '1', '1/2'): (
        [
            ['Cf signature (-1,-1) != (1,1) at rho=0.5000, th=0.0000'],
            ['Cb signature (-1,-1) != (1,1) at rho=0.5000, th=3.1416'],
            ['horizontal signature (1,-1) != (-1,1) at rho=0.5000, th=2.0944',
             'horizontal signature (1,-1) != (-1,1) at rho=0.5000, th=4.1888'],
            ['vertical signature (1,1) != (-1,-1) at rho=0.0051, th=3.1416',
             'vertical signature (1,1) != (-1,-1) at rho=0.9949, th=3.1416'],
        ],
        [
            ['unreported critical point at rho=0.5000, th=0.0000'],
            ['unreported critical point at rho=0.5000, th=3.1416'],
            ['unreported critical point at rho=0.5000, th=2.0944'],
            ['unreported critical point at rho=0.5000, th=4.1888'],
            ['unreported critical point at rho=0.0051, th=3.1416'],
            ['unreported critical point at rho=0.9949, th=3.1416'],
        ],
        [
            ['missing Cf at rho=0.5, th=0.01',
             'unreported critical point at rho=0.5000, th=0.0000'],
            ['missing Cb at rho=0.5, th=3.151592653589793',
             'unreported critical point at rho=0.5000, th=3.1416'],
            ['missing horizontal at rho=0.5, th=2.1043951023931955',
             'unreported critical point at rho=0.5000, th=2.0944'],
            ['missing horizontal at rho=0.5, th=4.19879020478639',
             'unreported critical point at rho=0.5000, th=4.1888'],
            ['missing vertical at rho=0.0051283406946064924, '
             'th=3.151592653589793',
             'unreported critical point at rho=0.0051, th=3.1416'],
            ['missing vertical at rho=0.9948716593053935, '
             'th=3.151592653589793',
             'unreported critical point at rho=0.9949, th=3.1416'],
        ],
    ),
    ('-1', '1', '2'): (
        [
            ['Cf signature (-1,-1) != (1,1) at rho=0.5000, th=0.0000'],
            ['Cb signature (1,-1) != (-1,1) at rho=0.5000, th=3.1416'],
            ['vertical signature (1,1) != (-1,-1) at rho=0.0897, th=3.1416',
             'vertical signature (1,1) != (-1,-1) at rho=0.9103, th=3.1416'],
        ],
        [
            ['unreported critical point at rho=0.5000, th=0.0000'],
            ['unreported critical point at rho=0.5000, th=3.1416'],
            ['unreported critical point at rho=0.0897, th=3.1416'],
            ['unreported critical point at rho=0.9103, th=3.1416'],
        ],
        [
            ['missing Cf at rho=0.5, th=0.01',
             'unreported critical point at rho=0.5000, th=0.0000'],
            ['missing Cb at rho=0.5, th=3.151592653589793',
             'unreported critical point at rho=0.5000, th=3.1416'],
            ['missing vertical at rho=0.08967409667585513, '
             'th=3.151592653589793',
             'unreported critical point at rho=0.0897, th=3.1416'],
            ['missing vertical at rho=0.9103259033241449, '
             'th=3.151592653589793',
             'unreported critical point at rho=0.9103, th=3.1416'],
        ],
    ),
    ('-1', '1', '-2'): (
        [
            ['Cf signature (1,-1) != (-1,1) at rho=0.5000, th=0.0000'],
            ['Cb signature (-1,-1) != (1,1) at rho=0.5000, th=3.1416'],
            ['vertical signature (1,1) != (-1,-1) at rho=0.0897, th=0.0000',
             'vertical signature (1,1) != (-1,-1) at rho=0.9103, th=0.0000'],
        ],
        [
            ['unreported critical point at rho=0.5000, th=0.0000'],
            ['unreported critical point at rho=0.5000, th=3.1416'],
            ['unreported critical point at rho=0.0897, th=0.0000'],
            ['unreported critical point at rho=0.9103, th=0.0000'],
        ],
        [
            ['missing Cf at rho=0.5, th=0.01',
             'unreported critical point at rho=0.5000, th=0.0000'],
            ['missing Cb at rho=0.5, th=3.151592653589793',
             'unreported critical point at rho=0.5000, th=3.1416'],
            ['missing vertical at rho=0.08967409667585513, th=0.01',
             'unreported critical point at rho=0.0897, th=0.0000'],
            ['missing vertical at rho=0.9103259033241449, th=0.01',
             'unreported critical point at rho=0.9103, th=0.0000'],
        ],
    ),
    ('-1', '1', '4'): (
        [
            ['Cf signature (-1,-1) != (1,1) at rho=0.5000, th=0.0000'],
            ['Cb signature (1,1) != (-1,-1) at rho=0.5000, th=3.1416'],
        ],
        [
            ['unreported critical point at rho=0.5000, th=0.0000'],
            ['unreported critical point at rho=0.5000, th=3.1416'],
        ],
        [
            ['missing Cf at rho=0.5, th=0.01',
             'unreported critical point at rho=0.5000, th=0.0000'],
            ['missing Cb at rho=0.5, th=3.151592653589793',
             'unreported critical point at rho=0.5000, th=3.1416'],
        ],
    ),
    ('-1', '1', '-4'): (
        [
            ['Cf signature (1,1) != (-1,-1) at rho=0.5000, th=0.0000'],
            ['Cb signature (-1,-1) != (1,1) at rho=0.5000, th=3.1416'],
        ],
        [
            ['unreported critical point at rho=0.5000, th=0.0000'],
            ['unreported critical point at rho=0.5000, th=3.1416'],
        ],
        [
            ['missing Cf at rho=0.5, th=0.01',
             'unreported critical point at rho=0.5000, th=0.0000'],
            ['missing Cb at rho=0.5, th=3.151592653589793',
             'unreported critical point at rho=0.5000, th=3.1416'],
        ],
    ),
    ('-1', '-1', '1/4'): (
        [
            ['Cf signature (1,-1) != (-1,1) at rho=0.5000, th=0.0000'],
            ['Cb signature (1,-1) != (-1,1) at rho=0.5000, th=3.1416'],
            ['horizontal signature (-1,-1) != (1,1) at rho=0.5000, th=1.3181',
             'horizontal signature (-1,-1) != (1,1) at rho=0.5000, th=4.9651'],
            ['vertical signature (1,1) != (-1,-1) at rho=0.0670, th=3.1416',
             'vertical signature (1,1) != (-1,-1) at rho=0.9330, th=3.1416'],
        ],
        [
            ['unreported critical point at rho=0.5000, th=0.0000'],
            ['unreported critical point at rho=0.5000, th=3.1416'],
            ['unreported critical point at rho=0.5000, th=1.3181'],
            ['unreported critical point at rho=0.5000, th=4.9651'],
            ['unreported critical point at rho=0.0670, th=3.1416'],
            ['unreported critical point at rho=0.9330, th=3.1416'],
        ],
        [
            ['missing Cf at rho=0.5, th=0.01',
             'unreported critical point at rho=0.5000, th=0.0000'],
            ['missing Cb at rho=0.5, th=3.151592653589793',
             'unreported critical point at rho=0.5000, th=3.1416'],
            ['missing horizontal at rho=0.5, th=1.328116071652818',
             'unreported critical point at rho=0.5000, th=1.3181'],
            ['missing horizontal at rho=0.5, th=4.975069235526768',
             'unreported critical point at rho=0.5000, th=4.9651'],
            ['missing vertical at rho=0.0669872981077807, '
             'th=3.151592653589793',
             'unreported critical point at rho=0.0670, th=3.1416'],
            ['missing vertical at rho=0.9330127018922193, '
             'th=3.151592653589793',
             'unreported critical point at rho=0.9330, th=3.1416'],
        ],
    ),
    ('-1', '-1', '7/8'): (
        [
            ['Cf signature (1,-1) != (-1,1) at rho=0.5000, th=0.0000'],
            ['Cb signature (1,1) != (-1,-1) at rho=0.5000, th=3.1416'],
            ['horizontal signature (-1,-1) != (1,1) at rho=0.5000, th=0.5054',
             'horizontal signature (-1,-1) != (1,1) at rho=0.5000, th=5.7778'],
        ],
        [
            ['unreported critical point at rho=0.5000, th=0.0000'],
            ['unreported critical point at rho=0.5000, th=3.1416'],
            ['unreported critical point at rho=0.5000, th=0.5054'],
            ['unreported critical point at rho=0.5000, th=5.7778'],
        ],
        [
            ['missing Cf at rho=0.5, th=0.01',
             'unreported critical point at rho=0.5000, th=0.0000'],
            ['missing Cb at rho=0.5, th=3.151592653589793',
             'unreported critical point at rho=0.5000, th=3.1416'],
            ['missing horizontal at rho=0.5, th=0.5153605102841573',
             'unreported critical point at rho=0.5000, th=0.5054'],
            ['missing horizontal at rho=0.5, th=5.787824796895428',
             'unreported critical point at rho=0.5000, th=5.7778'],
        ],
    ),
    ('-1', '-1', '-7/8'): (
        [
            ['Cf signature (1,1) != (-1,-1) at rho=0.5000, th=0.0000'],
            ['Cb signature (1,-1) != (-1,1) at rho=0.5000, th=3.1416'],
            ['horizontal signature (-1,-1) != (1,1) at rho=0.5000, th=2.6362',
             'horizontal signature (-1,-1) != (1,1) at rho=0.5000, th=3.6470'],
        ],
        [
            ['unreported critical point at rho=0.5000, th=0.0000'],
            ['unreported critical point at rho=0.5000, th=3.1416'],
            ['unreported critical point at rho=0.5000, th=2.6362'],
            ['unreported critical point at rho=0.5000, th=3.6470'],
        ],
        [
            ['missing Cf at rho=0.5, th=0.01',
             'unreported critical point at rho=0.5000, th=0.0000'],
            ['missing Cb at rho=0.5, th=3.151592653589793',
             'unreported critical point at rho=0.5000, th=3.1416'],
            ['missing horizontal at rho=0.5, th=2.6462321433056357',
             'unreported critical point at rho=0.5000, th=2.6362'],
            ['missing horizontal at rho=0.5, th=3.65695316387395',
             'unreported critical point at rho=0.5000, th=3.6470'],
        ],
    ),
    ('-1', '-3', '1/4'): (
        [
            ['Cf signature (1,1) != (-1,-1) at rho=0.5000, th=0.0000'],
            ['Cb signature (1,1) != (-1,-1) at rho=0.5000, th=3.1416'],
            ['horizontal signature (-1,-1) != (1,1) at rho=0.5000, th=1.4874',
             'horizontal signature (-1,-1) != (1,1) at rho=0.5000, th=4.7958'],
            ['vertical signature (1,-1) != (-1,1) at rho=0.0025, th=6.2832',
             'vertical signature (1,-1) != (-1,1) at rho=0.9975, th=6.2832'],
        ],
        [
            ['unreported critical point at rho=0.5000, th=0.0000'],
            ['unreported critical point at rho=0.5000, th=3.1416'],
            ['unreported critical point at rho=0.5000, th=1.4874'],
            ['unreported critical point at rho=0.5000, th=4.7958'],
            ['unreported critical point at rho=0.0025, th=6.2832'],
            ['unreported critical point at rho=0.9975, th=6.2832'],
        ],
        [
            ['missing Cf at rho=0.5, th=0.01',
             'unreported critical point at rho=0.5000, th=0.0000'],
            ['missing Cb at rho=0.5, th=3.151592653589793',
             'unreported critical point at rho=0.5000, th=3.1416'],
            ['missing horizontal at rho=0.5, th=1.4973662401842815',
             'unreported critical point at rho=0.5000, th=1.4874'],
            ['missing horizontal at rho=0.5, th=4.805819066995305',
             'unreported critical point at rho=0.5000, th=4.7958'],
            ['missing vertical at rho=0.0025062814466900174, th=0.01',
             'unreported critical point at rho=0.0025, th=6.2832'],
            ['missing vertical at rho=0.9974937185533099, th=0.01',
             'unreported critical point at rho=0.9975, th=6.2832'],
        ],
    ),
    ('-1', '1', '0'): (
        [
            ['Cf signature (-1,-1) != (1,1) at rho=0.5000, th=0.0000'],
            ['Cb signature (-1,-1) != (1,1) at rho=0.5000, th=3.1416'],
            ['horizontal signature (1,-1) != (-1,1) at rho=0.5000, th=1.5708',
             'horizontal signature (1,-1) != (-1,1) at rho=0.5000, th=4.7124'],
            ['pole signature (1, 1) != (-1, -1)',
             'pole signature (1, 1) != (-1, -1)'],
        ],
        [
            ['unreported critical point at rho=0.5000, th=0.0000'],
            ['unreported critical point at rho=0.5000, th=3.1416'],
            ['unreported critical point at rho=0.5000, th=1.5708'],
            ['unreported critical point at rho=0.5000, th=4.7124'],
            ['unreported critical point at rho=0.0000, th=0.0000'],
            ['unreported critical point at rho=1.0000, th=0.0000'],
        ],
        [
            ['missing Cf at rho=0.5, th=0.01',
             'unreported critical point at rho=0.5000, th=0.0000'],
            ['missing Cb at rho=0.5, th=3.151592653589793',
             'unreported critical point at rho=0.5000, th=3.1416'],
            ['missing horizontal at rho=0.5, th=1.5807963267948966',
             'unreported critical point at rho=0.5000, th=1.5708'],
            ['missing horizontal at rho=0.5, th=4.7223889803846895',
             'unreported critical point at rho=0.5000, th=4.7124'],
            None,
            None,
        ],
    ),
}


def _discrepancies(rf, rep):
    """grid_verify's discrepancy list on rep, or None when it passes."""
    try:
        grid_verify(rf, rep)
    except Mismatch as exc:
        return exc.discrepancies
    return None


@pytest.mark.parametrize("abc, verdict, points", PINNED_SEARCH,
                         ids=[" ".join(abc) for abc, *_ in PINNED_SEARCH])
def test_numeric_search_equals_pinned(abc, verdict, points):
    rf = ReducedFunction(*map(F, abc))
    got = flowavg._numeric_critical_points(rf)
    assert [p[2:] for p in got] == [p[2:] for p in points]
    for (r0, t0, *_), (r1, t1, *_) in zip(got, points):
        assert flowavg._sigma_dist(r0, t0, r1, t1) <= 1e-12
    assert grid_verify(rf, classify_critical_points(rf)) == verdict


@pytest.mark.parametrize("abc", list(PINNED_DISCREPANCIES))
def test_grid_verify_discrepancies_pinned(abc):
    rf = ReducedFunction(*map(F, abc))
    report = classify_critical_points(rf)
    flips, drops, moves = [], [], []
    for k, pt in enumerate(report.points):
        rep = copy.deepcopy(report)
        flip = rep.points[k]
        flip.sig_theta, flip.sig_rho = -flip.sig_theta, -flip.sig_rho
        flips.append(_discrepancies(rf, rep))
        for m, (r, t) in enumerate(pt.locations):
            rep = copy.deepcopy(report)
            del rep.points[k].locations[m]
            drops.append(_discrepancies(rf, rep))
            rep = copy.deepcopy(report)
            rep.points[k].locations[m] = (r, t + 0.01)
            moves.append(_discrepancies(rf, rep))
    assert (flips, drops, moves) == PINNED_DISCREPANCIES[abc]


def _newton_2d_scalar(grad, hess, x, tol, cap, max_iter, inside):
    """Newton's method for grad = 0 from x, each step capped at length
    cap; the root, or None on a singular Hessian, on leaving the domain
    (inside(x) false) or after max_iter steps."""
    x = np.asarray(x, dtype=float)
    for _ in range(max_iter):
        g = np.array(grad(*x))
        if np.linalg.norm(g) < tol:
            return x
        try:
            step = np.linalg.solve(np.array(hess(*x)), g)
        except np.linalg.LinAlgError:
            return None
        norm = np.linalg.norm(step)
        if norm > cap:
            step *= cap / norm
        x = x - step
        if not inside(x):
            return None
    return None


def _newton_outcome(grad, hess, x, tol, cap, max_iter, inside):
    """The scalar root from x and how the run ended: "start", "steps",
    "left", "singular" or "max_iter"."""
    seen = {"grad": 0, "inside": 0, "left": False}

    def counted_grad(*x):
        seen["grad"] += 1
        return grad(*x)

    def counted_inside(x):
        seen["inside"] += 1
        seen["left"] |= not inside(x)
        return inside(x)

    root = _newton_2d_scalar(counted_grad, hess, x, tol, cap, max_iter,
                             counted_inside)
    if root is not None:
        return root, "start" if seen["grad"] == 1 else "steps"
    if seen["left"]:
        return root, "left"
    # a singular Hessian ends a step before its inside test
    return root, "max_iter" if seen["inside"] == max_iter else "singular"


def _inside_rho(x):
    return (1e-6 < x[..., 0]) & (x[..., 0] < 1 - 1e-6)


def _inside_pole(x):
    return np.linalg.norm(x, axis=-1) <= 0.4


def _outside_band(x):
    """A domain without the band around the rho = 1/2 roots, so that rows
    which would converge there leave it instead."""
    return _inside_rho(x) & (np.abs(x[..., 0] - 0.5) > 0.05)


NEWTON_CHARTS = {
    # b = 1/2, c = -0.4 (the float): at rho = 0.2, theta = 0 the float g is
    # 0.4, so q_rt = 0 and q_tt = -g^2 - c g = 0 exactly, while q_r != 0
    "rho": (ReducedFunction(F(0), F(1, 2), F(-0.4)), "grad", "hess",
            [(0.2, 0.0), (0.5, 0.0), (2e-6, 0.1), (1 - 2e-6, 3.0)],
            np.linspace(0.01, 0.99, 11),
            np.linspace(0, 2 * np.pi, 12, endpoint=False),
            (1e-13, 0.3, 8, _inside_rho)),
    "rho without a band": (ReducedFunction(F(0), F(1, 2), F(-0.4)), "grad",
                           "hess", [(0.2, 0.0), (0.5, 0.0)],
                           np.linspace(0.01, 0.99, 11),
                           np.linspace(0, 2 * np.pi, 12, endpoint=False),
                           (1e-13, 0.3, 8, _outside_band)),
    # d = 1, b = 14, c = 0: at (1/4, 0) q_uv = q_vv = 0 exactly, q_u != 0
    "pole": (ReducedFunction(F(3), F(14), F(0)), "grad_pole_chart",
             "hess_pole_chart", [(0.25, 0.0), (0.0, 0.0), (0.39, 0.1)],
             np.linspace(-0.38, 0.38, 11), np.linspace(-0.38, 0.38, 11),
             (1e-12, 0.1, 6, _inside_pole)),
}


@pytest.mark.parametrize("chart", list(NEWTON_CHARTS))
def test_lockstep_newton_equals_scalar_oracle(chart):
    rf, grad, hess, rows, xs, ys, args = NEWTON_CHARTS[chart]
    grad, hess = getattr(rf, grad), getattr(rf, hess)
    starts = np.array(rows + [(x, y) for x in xs for y in ys])
    want = [_newton_outcome(grad, hess, x, *args) for x in starts]
    # every way a row can end occurs in the batch
    assert {why for _, why in want} == {"start", "steps", "left",
                                        "singular", "max_iter"}
    # the whole batch, and each row in a batch of one
    batches = [(starts, want)] + [(x[None, :], [w])
                                  for x, w in zip(starts, want)]
    for batch, expect in batches:
        roots, ok = flowavg._newton_2d(grad, hess, batch, *args)
        assert ok.tolist() == [root is not None for root, _ in expect]
        for x, (root, _) in zip(roots[ok],
                                [w for w in expect if w[0] is not None]):
            assert np.abs(x - root).max() <= 1e-12


def _grid_minima_stacked(g2, periodic):
    """Interior local minima of |grad|^2 below 1e-2 as (i, j) index
    arrays into g2, from the stacked minimum of the four neighbours; a
    periodic grid wraps its columns."""
    if periodic:
        g2 = np.concatenate([g2[:, -1:], g2, g2[:, :1]], axis=1)
    interior = g2[1:-1, 1:-1]
    neigh = np.minimum.reduce([g2[:-2, 1:-1], g2[2:, 1:-1],
                               g2[1:-1, :-2], g2[1:-1, 2:]])
    i, j = np.nonzero((interior <= neigh) & (interior < 1e-2))
    return i + 1, j + (0 if periodic else 1)


def _assert_same_minima(g2):
    for periodic in (True, False):
        got = flowavg._grid_minima(g2, periodic)
        want = _grid_minima_stacked(g2, periodic)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert all(a.dtype.kind == "i" for a in got)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hnp.arrays(np.int8, hnp.array_shapes(min_dims=2, max_dims=2,
                                            max_side=9),
                  elements=st.integers(0, 3)))
def test_grid_minima_equals_stacked_oracle(levels):
    # multiples of 1/200: ties everywhere, and some cells at 1e-2 itself
    _assert_same_minima(levels / 200)


@pytest.mark.parametrize("abc", list(REGION_SAMPLES.values()))
def test_grid_minima_equals_stacked_oracle_on_region_grids(abc):
    rf = ReducedFunction(*abc)
    rhos = np.linspace(1e-3, 1 - 1e-3, 400)
    thetas = np.linspace(0.0, 2 * np.pi, 400, endpoint=False)
    uu = np.linspace(-0.32, 0.32, 90)
    for grad, x, y in [(rf.grad, rhos, thetas),
                       (rf.grad_pole_chart, uu, uu)]:
        g0, g1 = grad(x[:, None], y[None, :])
        g2 = flowavg._grad_sq(grad, x, y)
        assert np.array_equal(g2, g0 * g0 + g1 * g1)
        _assert_same_minima(g2)
