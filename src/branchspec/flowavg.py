"""Exact flow averages over the 1:1 resonant harmonic oscillator.

All symbolic computations (averages, the weighted average G0, Poisson
brackets, correlations C) are exact over the Gaussian rationals: a
monomial z^alpha zbar^beta is a dict key, and a polynomial holds its
coefficients as Gaussian integers over one common denominator, so every
kernel runs on Python ints.  Floating point enters only in the
numerical verifier.

The frequency ratio 1:1 is hard-wired (flow z_j(t) = e^{-it} z_j);
general rational ratios would change only the balance condition
|alpha| = |beta| to a weighted one and are an untested extension point.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm

import numpy as np

from .calibration import CALIBRATION
from .errors import DegenerateInput, Mismatch, NotInvariant

REGION_LINE_TOL = CALIBRATION["region_line_tol"]
# points per axis of the (rho, theta) grid the numerical verifier searches
GRID_N = 400


def _fraction(x):
    """x as a Fraction, without a copy when it already is one."""
    return x if isinstance(x, Fraction) else Fraction(x)


def _add(num, key, re, im):
    """num[key] += (re, im)."""
    cur = num.get(key)
    num[key] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)


def _laurent(num, den):
    """The canonical BalancedLaurent of num / den (den > 0): zero entries
    dropped and the common factor of den and the numerators divided out."""
    num = {k: v for k, v in num.items() if v[0] or v[1]}
    g = gcd(den, *chain.from_iterable(num.values()))
    if g != 1:
        num = {k: (re // g, im // g) for k, (re, im) in num.items()}
        den //= g
    out = object.__new__(BalancedLaurent)
    out.num, out.den = num, den
    return out


def _over_lcm(terms):
    """num, den of the sum of the terms (key, (re, im, d)), each one
    (re + i im) / d, over the lcm of the d."""
    terms = list(terms)
    den = lcm(*(d for _, (_, _, d) in terms))
    num = {}
    for key, (re, im, d) in terms:
        s = den // d
        _add(num, key, re * s, im * s)
    return num, den


class BalancedLaurent:
    """Exact polynomial in z1, z2, zbar1, zbar2 with |z_j|^-2 factors.

    num: dict (a1, a2, b1, b2) -> (re, im) of ints, and den > 0 an int:
    the coefficient of z^a zbar^b is (re + i im) / den.  Negative
    exponents appear only in matched pairs a_j = b_j < 0.  The form is
    canonical (no zero entries, and den and all numerators have gcd 1),
    so equality is equality of num and den.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms=None):
        """From a dict key -> int or Fraction coefficient."""
        num, den = _over_lcm((k, (v.numerator, 0, v.denominator))
                             for k, v in (terms or {}).items())
        out = _laurent(num, den)
        self.num, self.den = out.num, out.den

    def _combine(self, o, sign):
        den = lcm(self.den, o.den)
        s, t = den // self.den, sign * (den // o.den)
        num = {k: (re * s, im * s) for k, (re, im) in self.num.items()}
        for k, (re, im) in o.num.items():
            _add(num, k, re * t, im * t)
        return _laurent(num, den)

    def __add__(self, o):
        return self._combine(o, 1)

    def __sub__(self, o):
        return self._combine(o, -1)

    def __mul__(self, o):
        if isinstance(o, (int, Fraction)):
            r = o.numerator
            return _laurent({k: (p * r, q * r)
                             for k, (p, q) in self.num.items()},
                            self.den * o.denominator)
        num = {}
        for (a1, a2, b1, b2), (p, q) in self.num.items():
            for (c1, c2, d1, d2), (r, s) in o.num.items():
                _add(num, (a1 + c1, a2 + c2, b1 + d1, b2 + d2),
                     p * r - q * s, p * s + q * r)
        return _laurent(num, self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, o):
        return self.num == o.num and self.den == o.den

    def __bool__(self):
        return bool(self.num)

    def to_json_dict(self):
        out = {}
        for k, (re, im) in sorted(self.num.items()):
            re, im = Fraction(re, self.den), Fraction(im, self.den)
            out[",".join(map(str, k))] = [[re.numerator, re.denominator],
                                          [im.numerator, im.denominator]]
        return out

    @classmethod
    def from_json_dict(cls, d):
        # rn/rd + i im_n/im_d = (rn im_d + i im_n rd) / (rd im_d)
        num, den = _over_lcm(
            (tuple(int(s) for s in k.split(",")),
             (rn * im_d, im_n * rd, rd * im_d))
            for k, ((rn, rd), (im_n, im_d)) in d.items())
        return _laurent(num, den)

    def __repr__(self):
        return f"BalancedLaurent({self.num} / {self.den})"


def zpoly_from_x(monomials):
    """BalancedLaurent from x/xi monomials.

    monomials: dict (a1, a2) or (a1, a2, b1, b2) -> rational coefficient
    of x1^a1 x2^a2 xi1^b1 xi2^b2; conversion x = (z+zbar)/2,
    xi = (z-zbar)/(2i).  A monomial of degree n with coefficient p/q
    expands to integers over q 2^n, all over the lcm of those.
    """
    parts = []
    for key, coeff in monomials.items():
        a1, a2, b1, b2 = key if len(key) == 4 else (*key, 0, 0)
        coeff = Fraction(coeff)
        parts.append((a1, a2, b1, b2, coeff.numerator,
                      coeff.denominator << (a1 + a2 + b1 + b2)))
    den = lcm(*(d for *_, d in parts))
    num = {}
    for a1, a2, b1, b2, p, d in parts:
        c0 = p * (den // d)
        # c0 (-i)^(b1 + b2), from 1/(2i)^b = (-i)^b / 2^b
        re, im = ((c0, 0), (0, -c0), (-c0, 0), (0, c0))[(b1 + b2) % 4]
        for i1 in range(a1 + 1):
            for i2 in range(a2 + 1):
                for j1 in range(b1 + 1):
                    for j2 in range(b2 + 1):
                        c = comb(a1, i1) * comb(a2, i2) \
                            * comb(b1, j1) * comb(b2, j2) \
                            * (-1) ** ((b1 - j1) + (b2 - j2))
                        k = (i1 + j1, i2 + j2,
                             (a1 - i1) + (b1 - j1), (a2 - i2) + (b2 - j2))
                        _add(num, k, c * re, c * im)
    return _laurent(num, den)


def flow_average(q):
    """Time average along the periodic flow: keep the |alpha| = |beta|
    (time-independent) part; exact."""
    return _laurent({k: v for k, v in q.num.items()
                     if k[0] + k[1] == k[2] + k[3]}, q.den)


def _frequency(key):
    """k = |beta| - |alpha| of z^alpha zbar^beta: the term goes as e^{ikt}."""
    return (key[2] + key[3]) - (key[0] + key[1])


def weighted_average_G0(q):
    """G0 = (1/T) int_0^T (t - T/2) q(exp(t H_p)) dt, T = 2 pi.

    A term with frequency k = |beta| - |alpha| != 0 picks up the Fourier
    factor 1/(i k); k = 0 terms drop.  Satisfies H_p G0 = q - <q>.  Over
    L = lcm(|k|), the term (re + i im) / den becomes
    (im - i re) (L / k) / (L den): a swap and one integer scale.
    """
    freq = {key: _frequency(key) for key in q.num}
    scale = lcm(*(k for k in freq.values() if k))
    num = {}
    for key, (re, im) in q.num.items():
        if freq[key]:
            s = scale // freq[key]
            num[key] = (im * s, -re * s)
    return _laurent(num, q.den * scale)


def _bracket_into(num, f_terms, g_terms):
    """Add the numerators of {f, g} over den(f) den(g) to the dict num;
    f_terms and g_terms are re-iterable collections of (key, (re, im))
    numerator terms.

    {z^a zb^at, z^b zb^bt} = 2i sum_j (a_j bt_j - at_j b_j)
    z^{a+b} zb^{at+bt} / |z_j|^2; its frequency is the sum of the two
    factors' frequencies.
    """
    for (a1, a2, t1, t2), (p, q) in f_terms:
        for (b1, b2, u1, u2), (r, s) in g_terms:
            sig1 = a1 * u1 - t1 * b1
            sig2 = a2 * u2 - t2 * b2
            if not (sig1 or sig2):
                continue
            # 2i (p + i q)(r + i s)
            re, im = -2 * (p * s + q * r), 2 * (p * r - q * s)
            if sig1:
                _add(num, (a1 + b1 - 1, a2 + b2, t1 + u1 - 1, t2 + u2),
                     sig1 * re, sig1 * im)
            if sig2:
                _add(num, (a1 + b1, a2 + b2 - 1, t1 + u1, t2 + u2 - 1),
                     sig2 * re, sig2 * im)


def _by_frequency(q):
    """The numerator terms of q grouped by frequency:
    k -> [(key, (re, im))]."""
    groups = {}
    for key, v in q.num.items():
        groups.setdefault(_frequency(key), []).append((key, v))
    return groups


def correlation_C(q1, q2):
    """C(q1, q2) = (1/T) int_0^T (s - T/2) Cor(q1, q2; s) ds, exact.

    Piece k of Cor picks up the factor 1/(ik) and k = 0 drops, so C is
    the flow average of {G0(q1), q2}; each term of G0(q1) is bracketed
    only with the terms of q2 of the opposite frequency.
    """
    g0 = weighted_average_G0(q1)
    by_k = _by_frequency(q2)
    num = {}
    for k, terms in _by_frequency(g0).items():
        _bracket_into(num, terms, by_k.get(-k, ()))
    return _laurent(num, g0.den * q2.den)


def to_action_angle(avg):
    """Rewrite a real flow-invariant element in (rho_1, rho_2, theta).

    z_j = sqrt(2 rho_j) e^{-i theta_j}; returns a dict
    (2*p1, 2*p2, m) -> (cos_coeff, sin_coeff) meaning
    rho1^p1 rho2^p2 (cos_coeff cos(m theta) + sin_coeff sin(m theta))
    with theta = theta1 - theta2 and m >= 0; coefficients are Fractions.
    """
    # z^a zb^b carries 2^(p1 + p2) = 2^(a1 + a2); over the denominator
    # den 2^-low, that is an integer shift by a1 + a2 - low >= 0
    low = min([a1 + a2 for a1, a2, _, _ in avg.num] + [0])
    out = {}
    for (a1, a2, b1, b2), (re, im) in avg.num.items():
        if a1 + a2 != b1 + b2:
            raise NotInvariant(f"term {(a1, a2, b1, b2)} depends on theta1+theta2")
        m = a1 - b1  # = -(a2 - b2); e^{-i m theta}
        shift = a1 + a2 - low
        # v e^{-i m theta} + (the conjugate partner handles itself):
        # Re part -> cos, +-Im -> sin
        _add(out, (a1 + b1, a2 + b2, abs(m)),
             re << shift, ((m > 0) - (m < 0)) * im << shift)
    den = avg.den << -low
    return {k: (Fraction(c, den), Fraction(s, den))
            for k, (c, s) in out.items() if c or s}


# ---------------------------------------------------------------------------
# reduced function on Sigma and its critical points


class Region(enum.Enum):
    A = "A"
    Bplus = "B+"
    Bminus = "B-"
    Cplus = "C+"
    Cminus = "C-"
    D = "D"
    Eplus = "E+"
    Eminus = "E-"
    F = "F"
    Boundary = "boundary"


class PointKind(enum.Enum):
    HorizontalCircle = "horizontal"
    VerticalCircle = "vertical"
    CrossingCf = "Cf"
    CrossingCb = "Cb"
    Pole = "pole"


@dataclass
class CriticalPoint:
    kind: PointKind
    signature: tuple        # paper-order sign pair
    sig_theta: int          # sign of the second theta-derivative
    sig_rho: int            # sign of the second rho-derivative
    value: Fraction
    locations: list         # [(rho, theta)] real coordinates on Sigma

    @property
    def is_saddle(self):
        return self.sig_theta * self.sig_rho < 0


@dataclass
class CriticalPointReport:
    region: Region
    points: list

    @property
    def saddles(self):
        return [pt for pt in self.points if pt.is_saddle]

    @property
    def saddle_count(self):
        """Number of saddle locations (records carry symmetric pairs)."""
        return sum(len(pt.locations) for pt in self.saddles)


@dataclass
class ReducedFunction:
    """<q> = a + d g^2 + b g^2 y^2 + c g y on Sigma, d = b/2 - 2a."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        self.a = _fraction(self.a)
        self.b = _fraction(self.b)
        self.c = _fraction(self.c)
        # a, b, c, d as floats, converted once for the numerical methods
        self.floats = tuple(map(float, (self.a, self.b, self.c, self.d)))

    @property
    def d(self):
        return self.b / 2 - 2 * self.a

    def eval(self, rho, theta):
        g2 = rho * (1.0 - rho)
        g = np.sqrt(np.maximum(g2, 0.0))
        y = np.cos(theta)
        a, b, c, d = self.floats
        return a + d * g2 + b * g2 * y * y + c * g * y

    def grad(self, rho, theta):
        a, b, c, d = self.floats
        g2 = rho * (1.0 - rho)
        g = np.sqrt(np.maximum(g2, 1e-300))
        y = np.cos(theta)
        dgdr = (1.0 - 2.0 * rho) / (2.0 * g)
        dq_drho = (d + b * y * y) * (1.0 - 2.0 * rho)
        dq_drho += c * y * dgdr
        dq_dth = 2.0 * b * g2 * y
        dq_dth += c * g
        dq_dth *= -np.sin(theta)
        return dq_drho, dq_dth

    def hess(self, rho, theta):
        """Closed-form Hessian ((q_rr, q_rt), (q_rt, q_tt)); uses
        g'' = -1/(4 g^3), from (1 - 2 rho)^2 = 1 - 4 g^2."""
        a, b, c, d = self.floats
        g2 = rho * (1.0 - rho)
        g = np.sqrt(np.maximum(g2, 1e-300))
        y, sn = np.cos(theta), np.sin(theta)
        q_rr = -2.0 * (d + b * y * y) - c * y / (4.0 * g2 * g)
        q_rt = -sn * (1.0 - 2.0 * rho) * (2.0 * b * y + c / (2.0 * g))
        q_tt = 2.0 * b * g2 * (sn * sn - y * y) - c * g * y
        return (q_rr, q_rt), (q_rt, q_tt)

    def eval_pole_chart(self, u, v):
        """Exact <q> near rho = 0 in the (Re zeta1, Im zeta1) chart."""
        a, b, c, d = self.floats
        s = u * u + v * v
        return a + d * s * (1.0 - s) + b * u * u * (1.0 - s) \
            + c * u * np.sqrt(np.maximum(1.0 - s, 0.0))

    def grad_pole_chart(self, u, v):
        """Analytic chart gradient (avoids finite-difference noise)."""
        a, b, c, d = self.floats
        s = u * u + v * v
        root = np.sqrt(np.maximum(1.0 - s, 1e-300))
        du = 2 * u * d * (1 - 2 * s) + 2 * u * b * (1 - s) \
            - 2 * b * u ** 3 + c * (root - u * u / root)
        dv = 2 * v * d * (1 - 2 * s) - 2 * b * u * u * v - c * u * v / root
        return du, dv

    def hess_pole_chart(self, u, v):
        """Closed-form chart Hessian ((q_uu, q_uv), (q_uv, q_vv))."""
        a, b, c, d = self.floats
        s = u * u + v * v
        root = np.sqrt(np.maximum(1.0 - s, 1e-300))
        r3 = root ** 3
        q_uu = 2 * d * (1 - 2 * s) - 8 * d * u * u + 2 * b * (1 - s) \
            - 10 * b * u * u - c * u * (3 / root + u * u / r3)
        q_uv = -8 * d * u * v - 4 * b * u * v - c * v * (1 / root + u * u / r3)
        q_vv = 2 * d * (1 - 2 * s) - 8 * d * v * v - 2 * b * u * u \
            - c * u * (1 / root + v * v / r3)
        return (q_uu, q_uv), (q_uv, q_vv)


def _sign(x):
    """Sign of a rational, read off its numerator."""
    n = x.numerator
    return (n > 0) - (n < 0)


def _region_of(b, c, d):
    """The Region of (b, c, d), elementwise over broadcast arrays.

    Float comparisons in the order of the region table; Region.Boundary
    within REGION_LINE_TOL of a separating line c = +-b, c = +-(b+d)
    (and in no open region, which the table leaves only on those lines).
    """
    b, c, d = (np.asarray(x, dtype=float) for x in (b, c, d))
    on_line = np.minimum.reduce([abs(c - b), abs(c + b), abs(c - (b + d)),
                                 abs(c + (b + d))]) <= REGION_LINE_TOL
    # classify via the sign-flipped parameters where d < 0; the point
    # list is computed from the general formulas either way
    flip = d < 0
    b, c, d = (np.where(flip, -x, x) for x in (b, c, d))
    return np.select([
        on_line,
        (b > 0) & (-b < c) & (c < b),
        (np.maximum(b, -b) < c) & (c < b + d),
        (-(b + d) < c) & (c < np.minimum(b, -b)),
        c > np.maximum(b + d, -b),
        c < np.minimum(b, -b - d),
        (b < 0) & (np.maximum(b, -b - d) < c) & (c < np.minimum(-b, b + d)),
        (np.maximum(b + d, -b - d) < c) & (c < -b),
        (b < c) & (c < np.minimum(-b - d, b + d)),
        (b < -d) & (b + d < c) & (c < -b - d),
    ], [Region.Boundary, Region.A, Region.Bplus, Region.Bminus, Region.Cplus,
        Region.Cminus, Region.D, Region.Eplus, Region.Eminus, Region.F],
        Region.Boundary)


def classify_critical_points(rf):
    """Critical points of <q> on Sigma with signatures and exact values.

    Preconditions: d != 0; when c != 0 also b != 0 and b + d != 0;
    parameters strictly inside one of the nine open regions.
    """
    a, b, c, d = rf.a, rf.b, rf.c, rf.d
    if d == 0:
        raise DegenerateInput("d = 0", clause="d != 0")
    bd = b + d
    if c != 0 and (b == 0 or bd == 0):
        raise DegenerateInput("c != 0 requires b != 0 and b+d != 0",
                              clause="b != 0 and b+d != 0")
    region = _region_of(b, c, d).item()
    if region is Region.Boundary:
        raise DegenerateInput("parameters on a separating line",
                              clause="c = +-b or c = +-(b+d)")
    s_d, s_bd = _sign(d), _sign(bd)
    s_cf_theta, s_cf_rho = -_sign(b + c), -_sign(c + bd)
    s_cb_theta, s_cb_rho = _sign(c - b), _sign(c - bd)
    centre, half_c, c2 = a + bd / 4, c / 2, c * c
    pts = []
    # crossing points, always critical
    pts.append(CriticalPoint(
        kind=PointKind.CrossingCf,
        signature=(s_cf_rho, s_cf_theta),
        sig_theta=s_cf_theta, sig_rho=s_cf_rho,
        value=centre + half_c,
        locations=[(0.5, 0.0)]))
    pts.append(CriticalPoint(
        kind=PointKind.CrossingCb,
        signature=(s_cb_rho, s_cb_theta),
        sig_theta=s_cb_theta, sig_rho=s_cb_rho,
        value=centre - half_c,
        locations=[(0.5, np.pi)]))
    # horizontal circle: cos(theta) = -c/b, two points, iff |c/b| < 1
    if b != 0 and abs(c) < abs(b):
        th = float(np.arccos(float(-c / b)))
        s_b = _sign(b)
        pts.append(CriticalPoint(
            kind=PointKind.HorizontalCircle,
            signature=(s_b, -s_d),
            sig_theta=s_b, sig_rho=-s_d,
            value=a + d / 4 - c2 / (4 * b),
            locations=[(0.5, th), (0.5, 2 * np.pi - th)]))
    # vertical circle: g = -+ c/(2(b+d)) at theta = 0 / pi
    if bd != 0 and c != 0:
        t = c / bd
        if -1 < t < 0:
            gstar, theta0 = -t / 2, 0.0
        elif 0 < t < 1:
            gstar, theta0 = t / 2, np.pi
        else:
            gstar = None
        if gstar is not None:
            root = np.sqrt(float(Fraction(1, 4) - gstar * gstar))
            pts.append(CriticalPoint(
                kind=PointKind.VerticalCircle,
                signature=(s_bd, s_d),
                sig_theta=s_d, sig_rho=s_bd,
                value=a - c2 / (4 * bd),
                locations=[(0.5 - root, theta0), (0.5 + root, theta0)]))
    # poles: critical iff c = 0
    if c == 0:
        pts.append(CriticalPoint(
            kind=PointKind.Pole,
            signature=(s_bd, s_d),
            sig_theta=s_bd, sig_rho=s_d,
            value=a,
            locations=[(0.0, 0.0), (1.0, 0.0)]))
    return CriticalPointReport(region=region, points=pts)


# region tables from the classification: paper-order signatures
REGION_TABLE = {
    Region.A: {"Cf": (-1, -1), "Cb": (-1, -1),
               "horizontal": (1, -1), "vertical": (1, 1)},
    Region.Bplus: {"Cf": (-1, -1), "Cb": (-1, 1),
                   "horizontal": None, "vertical": (1, 1)},
    Region.Bminus: {"Cf": (-1, 1), "Cb": (-1, -1),
                    "horizontal": None, "vertical": (1, 1)},
    Region.Cplus: {"Cf": (-1, -1), "Cb": (1, 1),
                   "horizontal": None, "vertical": None},
    Region.Cminus: {"Cf": (1, 1), "Cb": (-1, -1),
                    "horizontal": None, "vertical": None},
    Region.D: {"Cf": (-1, 1), "Cb": (-1, 1),
               "horizontal": (-1, -1), "vertical": (1, 1)},
    Region.Eplus: {"Cf": (-1, 1), "Cb": (1, 1),
                   "horizontal": (-1, -1), "vertical": None},
    Region.Eminus: {"Cf": (1, 1), "Cb": (-1, 1),
                    "horizontal": (-1, -1), "vertical": None},
    Region.F: {"Cf": (1, 1), "Cb": (1, 1),
               "horizontal": (-1, -1), "vertical": (-1, 1)},
}

REGION_SADDLES = {Region.A: 2, Region.Bplus: 1, Region.Bminus: 1,
                  Region.Cplus: 0, Region.Cminus: 0, Region.D: 2,
                  Region.Eplus: 1, Region.Eminus: 1, Region.F: 2}


def scan_regions(bs, cs, d):
    """The Region that classify_critical_points reports at every (b, c)
    of a grid with one d, as a len(bs) x len(cs) object array, with
    Region.Boundary wherever it raises DegenerateInput.

    bs, cs and d are exact rationals.  A scan's rf.d is d itself, so the
    exact preconditions split into one test per grid (d != 0), per row
    (b != 0 and b + d != 0) and per column (c != 0).
    """
    region = _region_of(np.array(bs, dtype=float)[:, None],
                        np.array(cs, dtype=float), d)
    degenerate = (np.array([b == 0 or b + d == 0 for b in bs],
                           dtype=bool)[:, None]
                  & np.array([c != 0 for c in cs], dtype=bool)[None, :])
    return np.where(degenerate | (d == 0), Region.Boundary, region)


def _newton_2d(grad, hess, x, tol, cap, max_iter, inside):
    """Newton's method for grad = 0 from every row of the (m, 2) array x
    in lockstep, each step capped at length cap.  Returns (roots, ok): a
    row is ok once |grad| < tol, and is dropped on a singular Hessian, on
    leaving the domain (inside false on the (k, 2) iterates) or after
    max_iter steps."""
    x = np.array(x, dtype=float)
    ok = np.zeros(len(x), dtype=bool)
    live = np.arange(len(x))
    for _ in range(max_iter):
        if not live.size:
            break
        r, t = x[live].T
        g0, g1 = grad(r, t)
        (h00, h01), (h10, h11) = hess(r, t)
        det = h00 * h11 - h01 * h10
        done = np.hypot(g0, g1) < tol
        ok[live[done]] = True
        go = ~done & (det != 0)
        live = live[go]
        step = np.stack([h11 * g0 - h01 * g1, h00 * g1 - h10 * g0],
                        axis=1)[go] / det[go, None]
        norm = np.hypot(step[:, 0], step[:, 1])
        long = norm > cap
        step[long] *= (cap / norm[long])[:, None]
        x[live] -= step
        live = live[inside(x[live])]
    return x, ok


def _grid_minima(g2, periodic):
    """Indices (i, j), in row-major order, of the cells of g2 = |grad|^2
    below 1e-2 that are no larger than their four neighbours: interior
    rows, and interior columns unless periodic, when columns wrap."""
    n = g2.shape[1]
    i, j = np.nonzero(g2 < 1e-2)
    keep = (0 < i) & (i < len(g2) - 1)
    if not periodic:
        keep &= (0 < j) & (j < n - 1)
    i, j = i[keep], j[keep]
    v = g2[i, j]
    low = ((v <= g2[i - 1, j]) & (v <= g2[i + 1, j])
           & (v <= g2[i, (j - 1) % n]) & (v <= g2[i, (j + 1) % n]))
    return i[low], j[low]


def _grad_sq(grad, x, y):
    """|grad|^2 on the grid x[:, None], y[None, :], built in place."""
    g0, g1 = grad(x[:, None], y[None, :])
    g0 *= g0
    g1 *= g1
    g0 += g1
    return g0


def _numeric_critical_points(rf):
    """All critical points of <q> on Sigma by grid + Newton, plus the
    pole-chart check; returns [(rho, theta, sig_theta, sig_rho)] with
    poles encoded as rho in {0, 1} and chart signs.  Signs are those of
    the closed-form Hessian's diagonal."""
    rhos = np.linspace(1e-3, 1 - 1e-3, GRID_N)
    thetas = np.linspace(0.0, 2 * np.pi, GRID_N, endpoint=False)
    found = []

    def add(r0, t0):
        """Record (r0, t0) unless a point within 1e-4 is already found."""
        if all(_sigma_dist(r0, t0, r1, t1) > 1e-4 for r1, t1, *_ in found):
            (q_rr, _), (_, q_tt) = rf.hess(r0, t0)
            found.append((r0, t0, _sign_eps(q_tt), _sign_eps(q_rr)))

    # candidates: local minima of |grad|^2, with periodic wrap in theta
    i, j = _grid_minima(_grad_sq(rf.grad, rhos, thetas), periodic=True)
    roots, ok = _newton_2d(
        rf.grad, rf.hess, np.stack([rhos[i], thetas[j]], axis=1), 1e-13, 0.3,
        60, lambda x: (1e-6 < x[:, 0]) & (x[:, 0] < 1 - 1e-6))
    for r0, t0 in roots[ok]:
        add(r0, t0 % (2 * np.pi))
    # pole chart around rho = 0: covers the region the (rho, theta) grid
    # resolves poorly; by the exact rho <-> 1-rho symmetry of <q>, every
    # chart finding is mirrored to the opposite hemisphere
    uu = np.linspace(-0.32, 0.32, 90)
    i, j = _grid_minima(_grad_sq(rf.grad_pole_chart, uu, uu), periodic=False)
    roots, ok = _newton_2d(rf.grad_pole_chart, rf.hess_pole_chart,
                           np.stack([uu[i], uu[j]], axis=1), 1e-12, 0.1, 80,
                           lambda x: np.linalg.norm(x, axis=1) <= 0.4)
    chart_pts = []
    for x in roots[ok]:
        if np.linalg.norm(x) <= 0.33 and all(
                np.hypot(x[0] - w[0], x[1] - w[1]) > 1e-6 for w in chart_pts):
            chart_pts.append((x[0], x[1]))
    for u, v in chart_pts:
        s = u * u + v * v
        if s < 1e-12:
            # the pole itself; chart axes are the vertical-circle and
            # transverse directions
            (q_uu, _), (_, q_vv) = rf.hess_pole_chart(0.0, 0.0)
            signs = _sign_eps(q_uu), _sign_eps(q_vv)
            found += [(0.0, 0.0, *signs), (1.0, 0.0, *signs)]
            continue
        th0 = np.arctan2(-v, u) % (2 * np.pi)
        for r0 in (s, 1.0 - s):
            add(r0, th0)
    return found


def _sign_eps(x):
    return 1 if x > 1e-7 else (-1 if x < -1e-7 else 0)


def _sigma_dist(r0, t0, r1, t1):
    dt = abs((t0 - t1 + np.pi) % (2 * np.pi) - np.pi)
    return np.hypot(r0 - r1, dt)


def grid_verify(rf, report):
    """Numerical critical-point search; bijection against the report.

    Raises Mismatch with the discrepancy list when a reported point has
    no numerical point within 1e-6, an extra point is found, or a
    signature disagrees.
    """
    numeric = _numeric_critical_points(rf)
    expected = [(r, t, pt) for pt in report.points for (r, t) in pt.locations]
    problems = []
    used = [False] * len(numeric)
    for r, t, pt in expected:
        # poles are matched by rho alone
        pole = r in (0.0, 1.0)
        best_d, best = min(
            ((abs(r - rn) if pole else _sigma_dist(r, t, rn, tn), i)
             for i, (rn, tn, *_) in enumerate(numeric) if not used[i]),
            default=(np.inf, None))
        if best_d > 1e-6:
            problems.append(f"missing {pt.kind.value} at rho={r}, th={t}")
            continue
        used[best] = True
        rn, tn, snt, snr = numeric[best]
        st, sr = pt.sig_theta, pt.sig_rho
        # pole chart signs: (u, v) directions correspond to the
        # vertical-circle and transverse directions
        if (snt, snr) != (st, sr):
            problems.append(
                f"pole signature {snt, snr} != {st, sr}" if pole else
                f"{pt.kind.value} signature ({snt},{snr}) != ({st},{sr})"
                f" at rho={rn:.4f}, th={tn:.4f}")
    problems += [f"unreported critical point at rho={rn:.4f}, th={tn:.4f}"
                 for (rn, tn, *_), u in zip(numeric, used) if not u]
    if problems:
        raise Mismatch("; ".join(problems), discrepancies=problems)
    return {"matched": len(expected), "numeric": len(numeric)}
