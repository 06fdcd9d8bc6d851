"""Modulus-balance curves, their crossings, and the skeleton/body.

Each curve Gamma_{j,k} is the locus |a_j| = |a_k|, written as
(Im mu) ln(1/|mu|) = F_{j,k}(mu) away from the origin and, inside the
|mu| = O(h) disk, as (Im mu) ln(1/h) = F_small(mu).  The two residual
functions are algebraically identical, so one Newton solve covers both;
the small form is simply better conditioned near mu = 0.
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calibration import CALIBRATION, SCHEMA_VERSION, embed
from .errors import NoConvergence
from .quantization import SMALL_C1, SemiclassicalParams, case1_admissible
from .specfun import LOG_SQRT_2PI, StirlingRegime, _remainder, log_gamma

WORK_DISK = 0.3     # |mu| radius where the curve machinery is trusted
X_MAX = WORK_DISK - 0.02   # the skeleton is traced over |Re mu| <= X_MAX
Y_CLAMP = 0.45
# bisection levels find_crossings solves per batch; 5 measured faster than
# 3 and 4, and no slower than 6 and 7
LOOKAHEAD = 5
# exceptional box half-width C (eps + h^2/eps)
BOX_C = CALIBRATION["box_C"]


def mu_h_norm(x, h):
    """<x>_h = sqrt(h^2 + |x|^2)."""
    return np.sqrt(h * h + np.abs(x) ** 2)


# Gamma_{j,k} right sides.  T_large excludes X; the small form uses
# T_small = T_large + (pi/2) Re mu and the exact Gamma-based X.
_T_LARGE = {
    "1,2": lambda s12, s34, x: s34,
    "3,4+": lambda s12, s34, x: s34,
    "1,3": lambda s12, s34, x: s12,
    "2,4+": lambda s12, s34, x: s12,
    "1,4+": lambda s12, s34, x: 0.5 * (s12 + s34),
    "3,4-": lambda s12, s34, x: s34 - 2 * np.pi * x,
    "2,4-": lambda s12, s34, x: s12 - 2 * np.pi * x,
    "1,4-": lambda s12, s34, x: 0.5 * (s12 + s34) - np.pi * x,
}

PAIRS = tuple(_T_LARGE)


def curve_residual(pair, mu, p, am):
    """(Im mu) ln(1/|mu|) - F_pair(mu) on an array mu; the defining
    function.

    Uses the exact remainder form for <mu>_h > C1 h and the exact
    log-Gamma form inside; the two agree identically.
    """
    mu = np.asarray(mu, dtype=complex)
    h = p.h
    x = mu.real
    s12 = np.imag(am.S12(mu))
    s34 = np.imag(am.S34(mu))
    t = _T_LARGE[pair](s12, s34, x)
    small = mu_h_norm(x, h) <= SMALL_C1 * h
    out = np.empty(mu.shape, dtype=float)
    if np.any(~small):
        m = mu[~small]
        rem = _remainder(m, h, StirlingRegime.MinusBranch)
        Y = m.real * np.angle(-1j * m) - m.imag + h * np.real(rem)
        X = np.pi / 2 * m.real + Y
        out[~small] = m.imag * np.log(1.0 / np.abs(m)) - (t[~small] + X)
    if np.any(small):
        m = mu[small]
        lg = np.real(log_gamma(0.5 - 1j * m / h)) - LOG_SQRT_2PI
        xs = h * lg
        out[small] = m.imag * np.log(1.0 / h) \
            - (t[small] + np.pi / 2 * m.real + xs)
    return out


def _newton_y(residual, xs, h):
    """Damped Newton in y for residual(x + iy) = 0 at all abscissas at
    once, to |residual| <= 1e-12 in at most 80 steps; returns ys and the
    converged mask.

    residual is vectorized and has the y ln(1/|mu|) - F(mu) form, so its
    value at y = 0 is -F(x), which seeds the two Appendix-B regimes.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.zeros_like(xs)
    F0 = -residual(xs + 0j)
    ax = np.abs(xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.log(1.0 / np.maximum(ax, 1e-300))
        reg = np.abs(F0) <= ax * lx
        ys = np.where(reg, F0 / np.where(lx > 0, lx, 1.0), ys)
        z = np.abs(F0)
        bigz = np.log(1.0 / np.maximum(z, 1e-300))
        alt = np.sign(F0) * z / np.maximum(bigz + np.log(np.maximum(bigz, 2.0)), 1.0)
        ys = np.where(~reg & (z > 0), alt, ys)
    active = np.ones(xs.shape, dtype=bool)
    for _ in range(80):
        idx = np.flatnonzero(active)
        if len(idx) == 0:
            break
        xa, ya = xs[idx], ys[idx]
        r = residual(xa + 1j * ya)
        done = np.abs(r) <= 1e-12
        active[idx[done]] = False
        idx = idx[~done]
        if len(idx) == 0:
            break
        xa, ya, r = xa[~done], ya[~done], r[~done]
        dy = np.maximum(1e-9, 1e-6 * mu_h_norm(xa, h))
        rp = residual(xa + 1j * (ya + dy))
        rm = residual(xa + 1j * (ya - dy))
        step = r * (2 * dy) / (rp - rm)
        cap = 0.5 * np.maximum(np.abs(ya), mu_h_norm(xa, h))
        step = np.clip(step, -cap, cap)
        ys[idx] = np.clip(ya - step, -Y_CLAMP, Y_CLAMP)
    ok = ~active
    return ys, ok


def _no_convergence(residual, x, y):
    """NoConvergence of the curve solve at x, whose last iterate was y."""
    r = float(residual(np.array([complex(x, y)]))[0])
    return NoConvergence(f"curve solve failed at x={x}", last=y, residual=r)


def _solve_one(residual, x, h):
    """_newton_y at one abscissa; raises NoConvergence with the last y."""
    ys, ok = _newton_y(residual, np.array([float(x)]), h)
    y = float(ys[0])
    if not ok[0]:
        raise _no_convergence(residual, x, y)
    return y


def solve_curve(F, x):
    """Solve y ln(1/|x+iy|) = F(x+iy) at abscissa x (Appendix-B form),
    for F real, uniformly Lipschitz and vectorized over complex arrays,
    with the Newton step scales of h = 1e-3."""
    def residual(mu):
        return mu.imag * np.log(1.0 / np.maximum(np.abs(mu), 1e-300)) \
            - F(mu)
    return _solve_one(residual, x, h=1e-3)


def default_steps(p, x_lo, x_hi):
    """Adaptive abscissas with step h/(4 ln(1/<x>_h)), on Python floats.

    np.log stays: math.log rounds differently on some arguments (about 3
    in 10^4), and one such step moves every later sample.
    """
    h = p.h
    x = x_lo
    xs = [x]
    while x < x_hi:
        x += h / (4.0 * np.log(1.0 / math.sqrt(h * h + abs(x) ** 2)))
        xs.append(x)
    xs[-1] = x_hi
    return np.array(xs)


@dataclass
class SkeletonCurve:
    """Samples of one Gamma_{j,k}: y = gamma(x), failed abscissas in gaps."""

    xs: np.ndarray
    ys: np.ndarray
    gaps: list


def trace_gamma(pair, p, am, x_range, steps=None):
    """Trace Gamma_pair over x_range = (x_lo, x_hi).

    steps are the abscissas, default_steps of the range; callers that
    trace several pairs over one range compute them once and pass them.
    Samples that fail to converge are dropped and recorded in .gaps.
    """
    x_lo, x_hi = x_range
    if pair.endswith("4+") and x_lo < -SMALL_C1 * p.h:
        x_lo = -SMALL_C1 * p.h
    if pair.endswith("4-") and x_hi > SMALL_C1 * p.h:
        x_hi = SMALL_C1 * p.h
    if x_hi <= x_lo:
        raise ValueError(f"empty x-range for pair {pair}")
    if steps is None:
        steps = default_steps(p, x_lo, x_hi)
    return _trace_at(pair, p, am, steps)


def _trace_at(pair, p, am, xs):
    """Gamma_pair at the abscissas xs, failed samples dropped into .gaps."""
    ys, ok = _newton_y(lambda mu: curve_residual(pair, mu, p, am),
                       xs, p.h)
    # clip samples that drift out of case 1 (into the cone around the
    # negative imaginary axis) outside the small disk; gaps are recorded,
    # never interpolated across
    small = mu_h_norm(xs, p.h) <= SMALL_C1 * p.h
    ok &= small | case1_admissible(xs + 1j * ys)
    gaps = [float(x) for x in xs[~ok]]
    return SkeletonCurve(xs=xs[ok], ys=ys[ok], gaps=gaps)


def _midpoints(lo, hi, depth):
    """The midpoints of the first `depth` bisection levels of [lo, hi],
    each computed as the bisection computes it.  A midpoint equal to an
    end stops the bisection, so it and its subtree are left out."""
    mid = 0.5 * (lo + hi)
    if depth == 0 or mid == lo or mid == hi:
        return []
    return [mid] + _midpoints(lo, mid, depth - 1) \
        + _midpoints(mid, hi, depth - 1)


def find_crossings(p, am, curve):
    """Crossing points mu_A, mu_B of Gamma_{1,4-} with the lines
    A: -2 pi Re mu = Im S12 - Im S34 and B: the sign-swapped line.
    Returns None for a crossing hidden outside the working range.

    curve is Gamma_{1,4-} traced over (-X_MAX, X_MAX).  Both crossings
    are bisected in rounds: each round solves the midpoints of the next
    LOOKAHEAD levels of every open bracket in one _newton_y batch, then
    walks each bracket down its own levels by the one-at-a-time rules.
    _newton_y solves each abscissa independently of its batch, so a
    midpoint's y has the bits of a one-point solve; only a visited
    midpoint may raise.
    """
    mu = curve.xs + 1j * curve.ys

    def residual(m):
        return curve_residual("1,4-", m, p, am)

    def line_val(sign, x, m):
        return -2 * np.pi * x \
            - sign * (np.imag(am.S12(m)) - np.imag(am.S34(m)))

    # brackets[sign] = (lo, hi, f(lo), curve point at lo, curve point at
    # hi or None while hi is still the traced sample)
    found, brackets = {}, {}
    for sign in (+1.0, -1.0):
        vals = line_val(sign, curve.xs, mu)
        exact = np.flatnonzero(vals == 0.0)
        idx = np.flatnonzero(np.diff(np.sign(vals)) != 0)
        if len(exact):
            found[sign] = complex(curve.xs[exact[0]], curve.ys[exact[0]])
        elif len(idx) == 0:
            found[sign] = None
        else:
            lo = float(curve.xs[idx[0]])
            m_lo = complex(lo, curve.ys[idx[0]])
            brackets[sign] = (lo, float(curve.xs[idx[0] + 1]),
                              line_val(sign, lo, m_lo), m_lo, None)
    # a walk uses up its whole tree or ends, so the open brackets share
    # one step count
    step = 0
    while brackets:
        depth = min(LOOKAHEAD, 60 - step)
        trees = {sign: _midpoints(b[0], b[1], depth)
                 for sign, b in brackets.items()}
        xs = np.array([x for tree in trees.values() for x in tree])
        ys, ok = _newton_y(residual, xs, p.h)
        solved = iter(zip(ys.tolist(), ok.tolist()))
        step += depth
        for sign, tree in trees.items():
            levels = {x: next(solved) for x in tree}
            lo, hi, flo, m_lo, m_hi = brackets.pop(sign)
            mid = 0.5 * (lo + hi)
            # a midpoint equal to an end is the fixed point of adjacent
            # doubles, and _midpoints leaves it out
            while mid != lo and mid != hi and mid in levels:
                y, converged = levels[mid]
                if not converged:
                    raise _no_convergence(residual, mid, y)
                m_mid = complex(mid, y)
                fmid = line_val(sign, mid, m_mid)
                if np.sign(fmid) == np.sign(flo):
                    lo, flo, m_lo = mid, fmid, m_mid
                else:
                    hi, m_hi = mid, m_mid
                mid = 0.5 * (lo + hi)
            if step < 60 and mid != lo and mid != hi:
                brackets[sign] = (lo, hi, flo, m_lo, m_hi)
            elif mid == lo:
                found[sign] = m_lo
            elif mid == hi and m_hi is not None:
                found[sign] = m_hi
            else:
                found[sign] = complex(mid, _solve_one(residual, mid, p.h))
    return found[+1.0], found[-1.0]


@dataclass
class CurvePiece:
    label: str
    xs: np.ndarray
    ys: np.ndarray


@dataclass
class Skeleton:
    s_prime: list
    gamma_vertical: tuple | None   # (y_lo, y_hi) on the imaginary axis
    diamonds: list                 # (center imag part, half-width)
    mu_A: complex | None
    mu_B: complex | None
    body_constant: float
    h: float

    def _covering(self, x):
        # tolerate one step of slack at piece endpoints (pieces start a
        # hair off the imaginary axis)
        slack = 0.5 * self.h
        return [np.interp(np.clip(x, pc.xs[0], pc.xs[-1]), pc.xs, pc.ys)
                for pc in self.s_prime
                if pc.xs[0] - slack <= x <= pc.xs[-1] + slack]

    def lower(self, x):
        """Lower envelope of S' at abscissa x (nan when uncovered)."""
        ys = self._covering(x)
        return min(ys) if ys else np.nan

    def upper(self, x):
        ys = self._covering(x)
        return max(ys) if ys else np.nan

    def all_samples(self):
        xs = np.concatenate([pc.xs for pc in self.s_prime])
        ys = np.concatenate([pc.ys for pc in self.s_prime])
        return xs, ys


@dataclass
class Body:
    """Thickened skeleton plus B_v, B_e and the exceptional box."""

    skeleton: Skeleton
    C: float
    p: SemiclassicalParams

    @cached_property
    def _discs(self):
        """The S' samples and the squared radii of their discs, computed
        once per body: they do not depend on the point tested."""
        xs, ys = self.skeleton.all_samples()
        rad = self.C * self.p.h / np.log(1.0 / mu_h_norm(xs + 1j * ys,
                                                          self.p.h))
        return xs, ys, rad ** 2

    def contains(self, mu):
        """Membership in the body: discs around S', the below-S' strip
        |Re mu| < C h, and B_v, B_e; monotone in C."""
        mu = complex(mu)
        xs, ys, rad2 = self._discs
        d2 = (xs - mu.real) ** 2 + (ys - mu.imag) ** 2
        if np.any(d2 <= rad2):
            return True
        if abs(mu.real) < self.C * self.p.h:
            low = self.skeleton.lower(mu.real)
            if not np.isnan(low) and mu.imag <= low:
                return True
        return self.in_B_v(mu) or self.in_B_e(mu)

    def in_B_e(self, mu):
        mu = complex(mu)
        if abs(mu.real) >= self.p.h:
            return False
        low = self.skeleton.lower(mu.real)
        if np.isnan(low) or mu.imag > low:
            return False
        n = mu_h_norm(mu, self.p.h)
        width = self.C * self.p.h * np.log(np.log(1.0 / n)) / np.log(1.0 / n) \
            if np.log(1.0 / n) > np.e else self.C * self.p.h
        return (low - mu.imag) <= width

    def in_B_v(self, mu):
        mu = complex(mu)
        if self.skeleton.gamma_vertical is None:
            return False
        y_lo, y_hi = self.skeleton.gamma_vertical
        for c, w in self.skeleton.diamonds:
            if abs(mu.real) + abs(mu.imag - c) <= w:
                return True
        return abs(mu.real) <= 1e-12 and y_lo <= mu.imag <= y_hi

    def exceptional_box(self):
        """Half-widths (a, b) of the box around mu = 0; (0, 0) if eps = 0."""
        w = self.p.width
        if w <= 0:
            return 0.0, 0.0
        a = BOX_C * w
        b = a / abs(np.log(w))
        return a, b

    def in_exceptional_box(self, mu):
        a, b = self.exceptional_box()
        mu = complex(mu)
        return abs(mu.real) <= a and abs(mu.imag) <= b


def assemble(p, am, C_body=CALIBRATION["body_C"]):
    """Assemble the Case-1 skeleton S' (both half-planes), the vertical
    segment with its diamonds, and the body."""
    eps_x = 1e-6 * p.h
    # right half-plane: upper = max(g12, g13), lower = min(g24+, g34+).
    # In case 1, a1 a4+ = a2 a3, so Gamma_{3,4+} is Gamma_{1,2} and
    # Gamma_{2,4+} is Gamma_{1,3}: the same residual on the same steps
    steps = default_steps(p, eps_x, X_MAX)
    g12, g13 = (trace_gamma(pair, p, am, (eps_x, X_MAX), steps)
                for pair in ("1,2", "1,3"))
    g24p, g34p = g13, g12
    xs_r = g12.xs
    up = np.maximum(g12.ys, np.interp(xs_r, g13.xs, g13.ys))
    lo = np.minimum(np.interp(xs_r, g24p.xs, g24p.ys),
                    np.interp(xs_r, g34p.xs, g34p.ys))
    pieces = [CurvePiece("right_upper", xs_r, up),
              CurvePiece("right_lower", xs_r, lo)]

    g14m = trace_gamma("1,4-", p, am, (-X_MAX, X_MAX))
    mu_A, mu_B = find_crossings(p, am, curve=g14m)
    # left half-plane: follow the branch whose crossing has Re <= 0;
    # with both crossings to the right, gamma_{1,4-} covers the whole half
    use_A = True
    xc = 0.0
    if mu_A is not None and mu_A.real <= 0:
        xc = mu_A.real
    elif mu_B is not None and mu_B.real <= 0:
        use_A = False
        xc = mu_B.real
    # the piece is g14m up to x_end: both step from -X_MAX, so the samples
    # below x_end are g14m's and only x_end itself is new
    x_end = min(xc, -eps_x)
    k = np.searchsorted(g14m.xs, x_end)
    end = _trace_at("1,4-", p, am, np.array([x_end]))
    pieces.append(CurvePiece("left_1,4-",
                             np.concatenate((g14m.xs[:k], end.xs)),
                             np.concatenate((g14m.ys[:k], end.ys))))
    if xc < -eps_x:
        upper_pair = "1,3" if use_A else "1,2"
        lower_pair = "3,4-" if use_A else "2,4-"
        steps = default_steps(p, xc, -eps_x)
        gu = trace_gamma(upper_pair, p, am, (xc, -eps_x), steps)
        gl = trace_gamma(lower_pair, p, am, (xc, -eps_x), steps)
        pieces.append(CurvePiece("left_upper_" + upper_pair, gu.xs, gu.ys))
        pieces.append(CurvePiece("left_lower_" + lower_pair, gl.xs, gl.ys))

    # vertical segment on the positive imaginary axis up to the lower
    # right-half part of S'
    y_top = float(lo[0])
    gamma_vertical = None
    diamonds = []
    if y_top > 0:
        gamma_vertical = (0.0, y_top)
        k = 0
        while (k + 0.5) * p.h <= y_top:
            c = (k + 0.5) * p.h
            w = C_body * p.h / np.log(1.0 / mu_h_norm(1j * c, p.h))
            diamonds.append((c, w))
            k += 1

    sk = Skeleton(s_prime=pieces, gamma_vertical=gamma_vertical,
                  diamonds=diamonds, mu_A=mu_A, mu_B=mu_B,
                  body_constant=C_body, h=p.h)
    return sk, Body(skeleton=sk, C=C_body, p=p)


def _csv_field(value):
    """value as csv.writer writes it among other fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([value, ""])
    return buf.getvalue()[:-1]


def export_csv(path, pieces):
    """CSV of CurvePieces with columns curve_label,x,y,regime, the regime
    always "assembled"; the bytes csv.writer writes, formatted a piece at
    a time."""
    with open(path, "w", newline="") as fh:
        fh.write("curve_label,x,y,regime\r\n")
        for pc in pieces:
            label = _csv_field(pc.label)
            fh.writelines(f"{label},{x!r},{y!r},assembled\r\n"
                          for x, y in zip(map(float, pc.xs),
                                          map(float, pc.ys)))


def export_json(path, skeleton, body):
    """skeleton.json: the skeleton's summary, then the calibration block."""
    a, b = body.exceptional_box()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "body_constant": skeleton.body_constant,
        "h": skeleton.h,
        "mu_A": None if skeleton.mu_A is None else
            [skeleton.mu_A.real, skeleton.mu_A.imag],
        "mu_B": None if skeleton.mu_B is None else
            [skeleton.mu_B.real, skeleton.mu_B.imag],
        "gamma_vertical": skeleton.gamma_vertical,
        "diamonds": skeleton.diamonds,
        "exceptional_box": [a, b],
        "pieces": [{"label": pc.label,
                    "x_range": [float(pc.xs[0]), float(pc.xs[-1])],
                    "n_samples": int(len(pc.xs))}
                   for pc in skeleton.s_prime],
    }
    doc = embed(doc, body_C=skeleton.body_constant)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return doc
