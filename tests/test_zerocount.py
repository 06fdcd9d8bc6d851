"""Winding counts, zero location, admissible-curve phase sums, bijections."""

import functools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from branchspec import cli, zerocount
from branchspec.cli import main
from branchspec.errors import (
    CellBudgetExceeded,
    CountNotConserved,
    NotAdmissible,
    OnContourZero,
)
from branchspec.quantization import (
    ActionModel,
    Regime,
    SemiclassicalParams,
    _log_terms,
    term_set,
)
from branchspec.skeleton import assemble, mu_h_norm
from branchspec.zerocount import (
    AdmissibleCurve,
    Contour,
    GProvider,
    ZeroSet,
    grid_newton_count,
    locate_zeros,
    match_bijection,
    phase_sum_count,
    winding_count,
)


def test_winding_z3():
    assert winding_count(lambda z: z ** 3, Contour.rectangle(-1, 1, -1, 1),
                         h=1e-3) == 3


def test_winding_cosh_ladder():
    h = 0.01
    f = lambda z: np.cosh(np.pi * z / h)
    assert winding_count(f, Contour.rectangle(-h, h, 0, 3 * h), h=h) == 3


def test_winding_stable_under_perturbation():
    h = 0.01
    f = lambda z: np.cosh(np.pi * z / h)
    base = Contour.rectangle(-h, h, 0, 3 * h)
    assert winding_count(f, base.expanded(h / 200), h=h) == 3


def _physical_model(rng, eps):
    """A random model drawn as criterion 7 draws its models."""
    im = eps * rng.uniform(0.2, 1.0, 2)
    re = rng.uniform(-0.05, 0.05, 2)
    sl = rng.uniform(-0.3, 0.3, 2)
    return ActionModel([re[0] + 1j * im[0], sl[0]],
                       [re[1] + 1j * im[1], sl[1]])


@functools.cache
def _aliasing_cell():
    """Criterion 7's third model at h = 3e-4, a cell whose top edge turns
    2.1-2.2 times in each of eight of its 32 first steps, and its count
    summed from 2^17 wrapped steps per edge."""
    p = SemiclassicalParams(h=3e-4, epsilon=3e-2)
    rng = np.random.default_rng(11)
    for _ in range(3):
        am = _physical_model(rng, p.epsilon)
    f = GProvider(p, am).normalized_G
    contour = Contour.rectangle(0.05257, 0.1, -0.00415, 0.00834)
    t = np.linspace(0.0, 1.0, 2 ** 17 + 1)
    turns = sum(zerocount._wrapped_increments(f(za + (zb - za) * t)).sum()
                for za, zb in contour.edges()) / (2 * np.pi)
    return f, contour, p.h, turns


def test_fine_edges_count_82_zeros_in_the_aliasing_cell():
    *_, turns = _aliasing_cell()
    assert abs(turns - 82) < 1e-6


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12: each 32-step start "
                   "of an edge can alias whole turns; this cell counts 65")
def test_winding_count_does_not_alias_in_the_aliasing_cell():
    f, contour, h, turns = _aliasing_cell()
    assert winding_count(f, contour, h=h) == round(turns)


def _general_polygon(v):
    """The vertices the former general-polygon constructor stored: a
    repeated closing vertex dropped and clockwise input reversed."""
    v = np.asarray(v, dtype=complex)
    if abs(v[0] - v[-1]) < 1e-300:
        v = v[:-1]
    x, y = v.real, v.imag
    if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) < 0:
        v = v[::-1]
    return v


@pytest.mark.parametrize("re0, re1, im0, im1", [
    # every sign pattern of the two sides
    (-1.0, 2.0, -0.5, 3.0), (2.0, -1.0, -0.5, 3.0),
    (-1.0, 2.0, 3.0, -0.5), (2.0, -1.0, 3.0, -0.5),
    (0.0125, 0.0128125, -0.0025, -0.0021875),   # a locator cell
    (0.5, 0.5, -1.0, 2.0), (0.5, 0.5, 2.0, -1.0),        # zero width
    (-1.0, 2.0, 0.25, 0.25), (2.0, -1.0, 0.25, 0.25),    # zero height
    (0.0, 0.0, 0.0, 0.0)])
def test_rectangle_equals_general_constructor(re0, re1, im0, im1):
    # an increasing rectangle keeps the vertices, bit for bit, that the
    # general-polygon constructor stored; any other rectangle is refused
    if not (re0 < re1 and im0 < im1):
        with pytest.raises(ValueError):
            Contour.rectangle(re0, re1, im0, im1)
        return
    fast = Contour.rectangle(re0, re1, im0, im1)
    general = _general_polygon([re0 + 1j * im0, re1 + 1j * im0,
                                re1 + 1j * im1, re0 + 1j * im1])
    assert fast.vertices.tobytes() == general.tobytes()
    assert fast.edges() == list(zip(general, np.roll(general, -1)))


# a quintic with its roots spread over [-1, 1]^2
ROOTS = np.array([0.31 + 0.22j, -0.53 - 0.11j, 0.12 - 0.64j,
                  -0.27 + 0.71j, 0.83 + 0.05j])


def _quintic(z):
    return np.prod(z[..., None] - ROOTS, axis=-1)


def _inside(re0, re1, im0, im1):
    return int(np.sum((re0 < ROOTS.real) & (ROOTS.real < re1)
                      & (im0 < ROOTS.imag) & (ROOTS.imag < im1)))


def _clear_of_roots(lines_re, lines_im, gap=1e-3):
    return (np.abs(ROOTS.real[:, None] - lines_re).min() > gap
            and np.abs(ROOTS.imag[:, None] - lines_im).min() > gap)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(re0=st.floats(-1.2, 1.0), im0=st.floats(-1.2, 1.0),
       w=st.floats(0.05, 2.0), t=st.floats(0.05, 2.0),
       s=st.floats(0.1, 0.9), u=st.floats(0.1, 0.9))
def test_rectangle_count_is_roots_inside_and_additive(re0, im0, w, t, s, u):
    re1, im1 = re0 + w, im0 + t
    re_m, im_m = re0 + s * w, im0 + u * t
    assume(_clear_of_roots([re0, re_m, re1], [im0, im_m, im1]))
    n = winding_count(_quintic, Contour.rectangle(re0, re1, im0, im1),
                      h=1e-3)
    assert n == _inside(re0, re1, im0, im1)
    # winding additivity over the four sub-rectangles of an interior split
    kids = [(re0, re_m, im0, im_m), (re_m, re1, im0, im_m),
            (re0, re_m, im_m, im1), (re_m, re1, im_m, im1)]
    assert sum(winding_count(_quintic, Contour.rectangle(*k), h=1e-3)
               for k in kids) == n
    for bad in [(re1, re0, im0, im1), (re0, re0, im0, im1),
                (re0, re1, im1, im0), (re0, re1, im0, im0),
                (re0, re1, np.nan, im1)]:
        with pytest.raises(ValueError):
            Contour.rectangle(*bad)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 20), re0=st.floats(-0.25, 0.15),
       im0=st.floats(-0.05, 0.0), w=st.floats(0.02, 0.1),
       t=st.floats(0.02, 0.06), s=st.floats(0.1, 0.9), u=st.floats(0.1, 0.9))
def test_g_winding_count_is_additive(seed, re0, im0, w, t, s, u):
    # winding additivity for G itself: a random physical model at h = 0.01
    # and a random interior split of a rectangle in the working disk
    p = SemiclassicalParams(h=0.01, epsilon=3e-2)
    rng = np.random.default_rng(seed)
    im = p.epsilon * rng.uniform(0.2, 1.0, 2)
    re = rng.uniform(-0.05, 0.05, 2)
    sl = rng.uniform(-0.3, 0.3, 2)
    am = ActionModel([re[0] + 1j * im[0], sl[0]],
                     [re[1] + 1j * im[1], sl[1]])
    f = GProvider(p, am).normalized_G
    re1, im1 = re0 + w, im0 + t
    re_m, im_m = re0 + s * w, im0 + u * t
    n = winding_count(f, Contour.rectangle(re0, re1, im0, im1), h=p.h)
    kids = [(re0, re_m, im0, im_m), (re_m, re1, im0, im_m),
            (re0, re_m, im_m, im1), (re_m, re1, im_m, im1)]
    assert sum(winding_count(f, Contour.rectangle(*k), h=p.h)
               for k in kids) == n


def test_locate_exact_ladder():
    # a4-style function: cosh ladder times a nonvanishing analytic factor
    h = 0.01
    p = SemiclassicalParams(h=h, epsilon=0.0)
    f = lambda z: np.cosh(np.pi * z / h) * np.exp(z ** 2 - 0.3 * z)
    zs = locate_zeros(f, (-2 * h, 2 * h, -0.2 * h, 4.2 * h), p)
    got = zs.locations()
    got = got[np.argsort(got.imag)]
    want = np.array([1j * (k + 0.5) * h for k in range(4)])
    assert len(got) == 4
    assert np.max(np.abs(got - want)) <= 1e-10


def test_phase_increments_refine_steps_that_turn_a_third_at_midpoints():
    # one full turn per coarse step of [0, 1], so every coarse increment
    # wraps to 0 and so does the bisected total; only the bisected steps
    # themselves, 2 pi/3 each, show that the edge is unresolved
    def f(z):
        t = 32 * np.real(z)
        j = np.floor(t)
        return np.exp(2j * np.pi * (j + (t - j) ** np.log2(3)))

    total, _ = zerocount._phase_increments(f, 0j, 1 + 0j)
    assert total == pytest.approx(32 * 2 * np.pi, abs=1e-9)


def test_locate_zeros_raises_on_cell_budget_with_partial_zeros(monkeypatch):
    # the zero in the lower-left quadrant is found before the one in the
    # upper-right, so a budget one count short ends between them
    p = SemiclassicalParams(h=0.01, epsilon=0.0)
    first, second = -0.0213 - 0.0171j, 0.0131 + 0.0072j
    f = lambda z: (z - first) * (z - second) / 1e-3
    region = (-0.05, 0.05, -0.05, 0.05)
    calls = []
    winding = zerocount.winding_count

    def counted_winding(*args, **kwargs):
        calls.append(args[1])
        return winding(*args, **kwargs)

    monkeypatch.setattr(zerocount, "winding_count", counted_winding)
    full = locate_zeros(f, region, p)
    assert len(full) == 2
    monkeypatch.undo()
    with pytest.raises(CellBudgetExceeded) as exc:
        locate_zeros(f, region, p, cell_budget=len(calls) - 1)
    partial = exc.value.partial
    assert isinstance(partial, ZeroSet)
    assert len(partial) == 1
    assert abs(partial.zeros[0].location - first) <= 1e-12


def test_locate_matches_grid_newton_on_G():
    p = SemiclassicalParams(h=0.01, epsilon=3e-2)
    am = ActionModel([0.01 + 0.012j, 0.3], [0.02 + 0.02j, -0.2])
    prov = GProvider(p, am)
    region = (0.05, 0.15, -0.05, 0.05)
    zs = locate_zeros(prov.normalized_G, region, p)
    n, _ = grid_newton_count(prov.normalized_G, region, p)
    assert len(zs) == n
    assert max(z.residual for z in zs.zeros) <= 1e-9


def _bs_residual_mod(mu, p, s, k_round=True):
    """mu ln mu - mu + pi h/4 + s + i h O-(h/mu), distance to the nearest
    2 pi h (k + 1/2)."""
    from branchspec.specfun import StirlingRegime, _remainder
    val = mu * np.log(mu) - mu + np.pi * p.h / 4 + s \
        + 1j * p.h * _remainder(mu, p.h, StirlingRegime.MinusBranch)
    k = np.round(val.real / (2 * np.pi * p.h) - 0.5)
    return abs(val - 2 * np.pi * p.h * (k + 0.5))


def test_zeros_of_1_plus_a2_over_a4_satisfy_interior_quantization():
    p = SemiclassicalParams(h=0.01, epsilon=0.0)
    am = ActionModel([0.015 + 0.002j, 0.1], [0.04 - 0.001j, -0.3])

    def f(z):
        # terms "2" and "4+" of the Case 1 large form
        logs, _ = _log_terms(z, p, am, Regime.Case1Large)
        return 1.0 + np.exp(logs[1] - logs[3])

    zs = locate_zeros(f, (0.08, 0.16, -0.03, 0.03), p)
    assert len(zs) >= 2
    for z in zs.zeros:
        assert _bs_residual_mod(z.location, p, am.S12(z.location)) <= 1e-9


def _single_region_curve(p, am, y=0.06):
    # horizontal segment in the a1-dominance region (well above S')
    xs = np.linspace(0.05, 0.22, 400)
    path = xs + 1j * y
    return AdmissibleCurve(path=path, segments=[("J", 0, len(path) - 1, "1")])


def test_phase_sum_single_dominance():
    p = SemiclassicalParams(h=1e-3, epsilon=3e-2)
    am = ActionModel([0.01 + 0.01j, 0.2], [0.015 + 0.008j, -0.1])
    prov = GProvider(p, am)
    curve = _single_region_curve(p, am)
    est, direct, disc = phase_sum_count(curve, prov)
    assert disc <= 2.0


def build_crossing_curve(x0, p, am, sk, c_i=2.0):
    """Vertical admissible curve at Re mu = x0 crossing the two
    right-half skeleton curves; J/I partition derived from the skeleton."""
    low = sk.lower(x0)
    up = sk.upper(x0)
    ln = np.log(1.0 / mu_h_norm(x0, p.h))
    w = c_i * p.h / ln
    y0, y1 = low - 12 * p.h / ln, up + 12 * p.h / ln
    ys = np.linspace(y0, y1, 1200)
    path = x0 + 1j * ys

    def idx_of(y):
        return int(np.argmin(np.abs(ys - y)))

    segs = [("J", 0, idx_of(low - w), "4+"),
            ("I", idx_of(low - w), idx_of(low + w), None),
            ("J", idx_of(low + w), idx_of(up - w), None),  # label filled below
            ("I", idx_of(up - w), idx_of(up + w), None),
            ("J", idx_of(up + w), len(ys) - 1, "1")]
    # middle label: whichever of a2/a3 dominates between the curves
    mid = path[(segs[2][1] + segs[2][2]) // 2]
    ts = term_set(complex(mid), p, am)
    label = "2" if p.h * ts["2"].real >= p.h * ts["3"].real else "3"
    segs[2] = ("J", segs[2][1], segs[2][2], label)
    return AdmissibleCurve(path=path, segments=segs,
                           touches_Be=[False, False])


def test_phase_sum_with_crossings():
    p = SemiclassicalParams(h=1e-3, epsilon=3e-2)
    am = ActionModel([0.01 + 0.012j, 0.2], [0.015 + 0.025j, -0.1])
    sk, _ = assemble(p, am)
    prov = GProvider(p, am)
    curve = build_crossing_curve(0.12, p, am, sk)
    est, direct, disc = phase_sum_count(curve, prov)
    assert disc <= 5.0


def test_admissibility_rejects_long_I():
    p = SemiclassicalParams(h=1e-3, epsilon=0.0)
    xs = np.linspace(0.05, 0.2, 300)
    path = xs + 0.05j
    curve = AdmissibleCurve(
        path=path,
        segments=[("J", 0, 99, "1"), ("I", 99, 250, None),
                  ("J", 250, 299, "1")],
        touches_Be=[False])
    am = ActionModel([0.0], [0.0])
    with pytest.raises(NotAdmissible):
        phase_sum_count(curve, GProvider(p, am))


def test_prop81_dominance_and_no_zeros():
    # in each dominance region with margin 10h/ln, the named term exceeds
    # twice the sum of the others and G has no zeros nearby
    p = SemiclassicalParams(h=1e-3, epsilon=3e-2)
    am = ActionModel([0.01 + 0.01j, 0.2], [0.015 + 0.02j, -0.1])
    sk, _ = assemble(p, am)
    prov = GProvider(p, am)
    x0 = 0.1
    ln = np.log(1.0 / x0)
    margin = 10 * p.h / ln
    checks = [(sk.upper(x0) + 2 * margin, "1"),
              (sk.lower(x0) - 2 * margin, "4+")]
    mid = 0.5 * (sk.lower(x0) + sk.upper(x0))
    ts_mid = term_set(complex(x0, mid), p, am)
    lab = "2" if p.h * ts_mid["2"].real >= p.h * ts_mid["3"].real else "3"
    if sk.upper(x0) - sk.lower(x0) > 4 * margin:
        checks.append((mid, lab))
    for y, label in checks:
        mu = complex(x0, y)
        ts = term_set(mu, p, am)
        dom = np.exp(ts[label] - ts[label])
        others = sum(abs(np.exp(v - ts[label]))
                     for lab, v in ts.items() if lab != label)
        assert 1.0 >= 2 * others or others < 0.5, (label, others)
        side = p.h / 4
        zs = locate_zeros(prov.normalized_G,
                          (x0 - side, x0 + side, y - side, y + side), p)
        assert len(zs) == 0


def test_match_bijection_and_negative_control():
    rng = np.random.default_rng(9)
    base = rng.uniform(0, 1, 12) + 1j * rng.uniform(0, 1, 12)
    jitter = base + 1e-6 * rng.standard_normal(12)
    rep = match_bijection(base, jitter, rate=lambda mu: 1e-4)
    assert rep["ok"] and rep["max_distance"] <= 1e-4
    bad = match_bijection(base, jitter + 10 * 0.01, rate=lambda mu: 1e-4)
    assert not bad["ok"] and bad["violations"]


def _match_bijection_reference(zeros, predicted, rate):
    """match_bijection's original O(n^3) greedy loop: repeatedly take the
    closest remaining pair, ties to the smallest (i, j).  Oracle for the
    sorted scan."""
    za = list(np.asarray(zeros, dtype=complex))
    zb = list(np.asarray(predicted, dtype=complex))
    pairs = []
    ia = list(range(len(za)))
    ib = list(range(len(zb)))
    while ia and ib:
        best = None
        for i in ia:
            for j in ib:
                d = abs(za[i] - zb[j])
                if best is None or d < best[0]:
                    best = (d, i, j)
        d, i, j = best
        pairs.append((za[i], zb[j], d))
        ia.remove(i)
        ib.remove(j)
    unmatched_a = [za[i] for i in ia]
    unmatched_b = [zb[j] for j in ib]
    bad = [(a, b, d) for a, b, d in pairs if d > rate(0.5 * (a + b))]
    return {
        "pairs": pairs,
        "unmatched_zeros": unmatched_a,
        "unmatched_predicted": unmatched_b,
        "violations": bad,
        "max_distance": max((d for _, _, d in pairs), default=0.0),
        "ok": not unmatched_a and not unmatched_b and not bad,
    }


# points on a coarse grid, so equal distances (exact ties) are common
_grid_points = st.lists(
    st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda z: 0.25 * z), max_size=9)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(zeros=_grid_points, predicted=_grid_points,
       cap=st.sampled_from([0.0, 0.3, 1.0, 10.0]))
def test_match_bijection_equals_greedy_loop(zeros, predicted, cap):
    rate = lambda mu: cap
    got = match_bijection(zeros, predicted, rate)
    want = _match_bijection_reference(zeros, predicted, rate)
    # repr tells the pair order, -0.0 and the numpy scalar types apart
    assert repr(got) == repr(want)


@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 20))
def test_mirrored_model_zeros_are_conjugates(seed):
    # the mirrored model (conjugated coefficients) has the conjugate
    # zero set; exercises the case-2 evaluation paths by symmetry
    p = SemiclassicalParams(h=0.01, epsilon=3e-2)
    am = _physical_model(np.random.default_rng(seed), p.epsilon)
    zs_up = locate_zeros(GProvider(p, am).normalized_G,
                         (0.05, 0.2, -0.04, 0.04), p)
    mirrored = ActionModel(np.conj(am.s12), np.conj(am.s34))
    zs_dn = locate_zeros(GProvider(p, mirrored).normalized_G,
                         (0.05, 0.2, -0.04, 0.04), p)
    a = np.sort_complex(zs_up.locations())
    b = np.sort_complex(np.conj(zs_dn.locations()))
    assert len(a) == len(b) >= 8
    assert np.max(np.abs(a - b)) <= 1e-12


def test_unconserved_child_counts_raise_typed_error(tmp_path, monkeypatch):
    # the root cell counts one zero, every child counts none
    calls = []

    def fake_winding(f, contour, h=None):
        calls.append(np.ptp(contour.vertices.real))
        return 1 if calls[-1] == max(calls) else 0

    monkeypatch.setattr(zerocount, "winding_count", fake_winding)
    p = SemiclassicalParams(h=0.01, epsilon=0.0)
    with pytest.raises(CountNotConserved) as exc:
        locate_zeros(lambda z: z, (-1.0, 1.0, -1.0, 1.0), p)
    assert exc.value.cell == (-1.0, 1.0, -1.0, 1.0)
    assert exc.value.count == 1
    assert exc.value.children == [0, 0, 0, 0]
    # the CLI reports it as a numerical failure: the model's seeds find
    # more zeros than the one counted, so the rectangle is quadrisected
    calls.clear()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "h": 0.01, "epsilon": 0.03, "S12": [[0.01, 0.012], [0.3, 0.0]],
        "S34": [[0.02, 0.02], [-0.2, 0.0]],
        "rectangle": [0.06, 0.14, -0.04, 0.04]}))
    assert main(["model", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def _phase_increments_reference(f, za, zb, n0=32, max_depth=26):
    """_phase_increments as it was before its verification increments
    were computed once: the oracle of the call-sequence tests."""
    fv = f
    pts = za + (zb - za) * np.linspace(0.0, 1.0, n0 + 1)
    vals = fv(pts)
    for _ in range(max_depth):
        d = zerocount._wrapped_increments(vals)
        bad = np.abs(d) >= zerocount.PHASE_CAP
        if np.any(bad):
            mids = 0.5 * (pts[:-1][bad] + pts[1:][bad])
            fm = fv(mids)
            pts = np.insert(pts, np.flatnonzero(bad) + 1, mids)
            vals = np.insert(vals, np.flatnonzero(bad) + 1, fm)
            continue
        mids = 0.5 * (pts[:-1] + pts[1:])
        fm = fv(mids)
        pts2 = np.empty(len(pts) + len(mids), dtype=complex)
        vals2 = np.empty_like(pts2)
        pts2[0::2], pts2[1::2] = pts, mids
        vals2[0::2], vals2[1::2] = vals, fm
        total_before = float(np.sum(d))
        total_after = float(np.sum(zerocount._wrapped_increments(vals2)))
        pts, vals = pts2, vals2
        if abs(total_after - total_before) < 1e-9 and not np.any(
                np.abs(zerocount._wrapped_increments(vals))
                >= zerocount.PHASE_CAP):
            return total_after, float(np.min(np.abs(vals)))
    raise OnContourZero("phase tracking did not stabilize (zero on path?)")


def _winding_once_reference(f, contour):
    total = 0.0
    min_abs = np.inf
    max_abs = 0.0
    for za, zb in contour.edges():
        t, m = _phase_increments_reference(f, za, zb)
        total += t
        min_abs = min(min_abs, m)
        v = np.abs(f(np.array([za])))[0]
        max_abs = max(max_abs, v)
    return total / (2 * np.pi), min_abs, max_abs


def _bits(a):
    return np.asarray(a, dtype=complex).view(np.uint64).tolist()


def _recorded(run, f, reference):
    """The point batches f sees during run(f), and run's outcome; with
    reference=True the winding loop is the oracle copy."""
    batches = []

    def rec(z):
        batches.append(_bits(z))
        return f(z)

    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(zerocount, "_winding_once", _winding_once_reference)
        try:
            outcome = run(rec)
        except OnContourZero as exc:
            outcome = repr(exc)
    return batches, outcome


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 20), h=st.sampled_from([1e-2, 1e-3]))
def test_winding_loop_sees_the_same_points_as_reference(seed, h):
    # the winding loop must make the same f calls on the same points,
    # bit for bit, and reach the same count
    rng = np.random.default_rng(seed)
    p = SemiclassicalParams(h=h, epsilon=3e-2)
    am = ActionModel([complex(*rng.uniform(-0.05, 0.05, 2)), 0.3],
                     [complex(*rng.uniform(-0.05, 0.05, 2)), -0.2])
    re0, im0 = rng.uniform(-20 * h, 20 * h, 2)
    w, t = rng.uniform(h, 10 * h, 2)
    contour = Contour.rectangle(re0, re0 + w, im0, im0 + t)
    run = lambda f: winding_count(f, contour, h=h)
    f = GProvider(p, am).normalized_G
    new, n_new = _recorded(run, f, reference=False)
    old, n_old = _recorded(run, f, reference=True)
    assert n_new == n_old
    assert new == old


def test_expanded_contour_sees_the_same_points_as_reference():
    # the zero at -i is a sample point of the bottom edge, so the count
    # retries on contours pushed out by h/100
    f = lambda z: (z + 1j) * (z - 0.3 - 0.2j)
    run = lambda g: winding_count(g, Contour.rectangle(-1, 1, -1, 1), h=1e-3)
    new, n_new = _recorded(run, f, reference=False)
    old, n_old = _recorded(run, f, reference=True)
    assert n_new == n_old == 2
    assert new == old
    assert np.abs(np.asarray(new[-1]).view(complex).imag).max() > 1


def test_locate_zeros_sees_the_same_points_as_reference():
    # the whole locator: winding counts, jitters and the Newton polish
    p = SemiclassicalParams(h=0.01, epsilon=3e-2)
    f = GProvider(p, ActionModel([0.01 + 0.012j, 0.3],
                                 [0.02 + 0.02j, -0.2])).normalized_G
    run = lambda g: repr(locate_zeros(g, (0.05, 0.12, -0.03, 0.03), p))
    new, zs_new = _recorded(run, f, reference=False)
    old, zs_old = _recorded(run, f, reference=True)
    assert zs_new == zs_old
    assert new == old and len(new) > 1000


def _newton_polish_reference(f, z0, h):
    """_newton_polish as it was before it polished its seeds as lanes:
    a scalar loop of one-point calls.  The oracle of the polish tests."""
    z = complex(z0)
    delta = h * 1e-3
    fz = complex(f(np.array([z]))[0])
    for _ in range(50):
        if abs(fz) <= 0.0:
            return z, abs(fz)
        d = complex((f(np.array([z + delta])) - f(np.array([z - delta])))[0]) \
            / (2 * delta)
        if d == 0:
            break
        step = fz / d
        if abs(step) > h:
            step *= h / abs(step)
        z_new = z - step
        f_new = complex(f(np.array([z_new]))[0])
        if abs(f_new) >= abs(fz) and abs(fz) <= zerocount.NEWTON_TOL:
            return z, abs(fz)
        z, fz = z_new, f_new
        if abs(step) < 1e-17 * max(1.0, abs(z)):
            break
    return z, abs(fz)


@pytest.mark.parametrize("region", [(0.05, 0.12, -0.03, 0.03),
                                    (-0.05, 0.03, -0.03, 0.03)])
def test_quadtree_polish_sees_the_same_points_as_the_scalar_polish(region):
    # the quadtree polishes one seed per leaf, so the lane polish must make
    # the scalar loop's one-point calls, bit for bit, and the same zeros
    p = SemiclassicalParams(h=0.01, epsilon=3e-2)
    f = GProvider(p, ActionModel([0.01 + 0.012j, 0.3],
                                 [0.02 + 0.02j, -0.2])).normalized_G
    run = lambda g: repr(locate_zeros(g, region, p))
    new, zs_new = _recorded(run, f, reference=False)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zerocount, "_newton_polish", lambda g, seeds, h: [
            _newton_polish_reference(g, s, h) for s in seeds])
        old, zs_old = _recorded(run, f, reference=False)
    assert zs_new == zs_old and "Zero(" in zs_new
    assert new == old


@settings(derandomize=True, max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 20), h=st.sampled_from([1e-2, 1e-3]))
def test_lane_polish_equals_one_seed_polishes(seed, h):
    # the strip's seeds, as _model_zeros takes them, polished together
    # and one by one: eval_G rounds a point by its batch, so a lane may
    # move by ulps from its lone polish, but no further
    rng = np.random.default_rng(seed)
    p = SemiclassicalParams(h=h, epsilon=3e-2)
    am = ActionModel([complex(*rng.uniform(-0.05, 0.05, 2)), 0.3],
                     [complex(*rng.uniform(-0.05, 0.05, 2)), -0.2])
    f = GProvider(p, am).normalized_G
    seeds = zerocount._grid_seeds(f, (-6 * h, 6 * h, -0.03, 0.02),
                                  192, int(0.05 * 16 / h))
    assert len(seeds) > 5
    calls = []
    counting = lambda z: calls.append(len(z)) or f(z)
    lanes = zerocount._newton_polish(counting, seeds, h)
    assert len(lanes) == len(seeds) and max(calls) == len(seeds)
    for s, (z, res) in zip(seeds, lanes):
        calls.clear()
        (z1, res1), = zerocount._newton_polish(counting, [s], h)
        assert set(calls) == {1}
        assert abs(z - z1) <= 1e-12
        assert (res <= zerocount.NEWTON_TOL) == (res1 <= zerocount.NEWTON_TOL)
    assert zerocount._newton_polish(counting, [], h) == []


# --- the seeded locator ---------------------------------------------------

SEEDED_P = SemiclassicalParams(h=0.01, epsilon=3e-2)
SEEDED_AM = ActionModel([0.01 + 0.012j, 0.3], [0.02 + 0.02j, -0.2])
SEEDED_RECT = (-0.2, 0.2, -0.05, 0.05)


@functools.cache
def _quadtree(region):
    """The seedless locate_zeros on region."""
    return locate_zeros(GProvider(SEEDED_P, SEEDED_AM).normalized_G, region,
                        SEEDED_P)


def _same_zeros(zs, region):
    """zs is the zero set locate_zeros finds in region, to 1e-12."""
    ref = _quadtree(region).locations()
    got = zs.locations()
    assert len(got) == len(ref) > 0
    d = np.abs(got[:, None] - ref[None, :])
    assert max(d.min(axis=0).max(), d.min(axis=1).max()) <= 1e-12
    residuals = [z.residual for z in zs.zeros]
    assert residuals == sorted(residuals)


def _dropping(keep):
    """cli.locate_zeros, given only the seeds that keep(i, seed) keeps."""
    locate = cli.locate_zeros
    return lambda f, region, p, seeds, cell_budget: locate(
        f, region, p, seeds=[z for i, z in enumerate(seeds) if keep(i, z)],
        cell_budget=cell_budget)


def _solved(seeds):
    """The locator block of a rectangle whose seeds all land."""
    return {"counts": 1, "deficit_cells": 0, "seeds": seeds, "bs_failed": 0}


@pytest.mark.parametrize("region,solved", [
    (SEEDED_RECT, _solved(35)),
    # wholly right, starting exactly at the split 6h: no strip grid
    ((0.06, 0.14, -0.04, 0.04), _solved(7)),
    ((-0.05, 0.05, -0.04, 0.04), _solved(15)),
    ((-0.2, -0.07, -0.04, 0.04), _solved(8)),
    # a strip narrower than one step h/16 of its grid, which has no minima
    ((0.0599, 0.14, -0.04, 0.04), _solved(7)),
])
def test_seeded_locator_finds_the_quadtree_zeros(region, solved):
    # every seed lands, so the count of the whole rectangle certifies the
    # zeros they reach, and it is the only count
    zs, _, locator = cli._model_zeros(SEEDED_P, SEEDED_AM, region, 100000)
    assert locator == solved
    _same_zeros(zs, region)


def _fell_back(locator, region):
    """Some cells were quadrisected, but fewer counts were made than by
    the seedless quadtree."""
    assert locator["deficit_cells"] > 0
    assert 1 < locator["counts"] < _quadtree(region).counts


@pytest.mark.parametrize("side", ["left_seeds", "right_seeds"])
def test_a_dropped_seed_makes_its_side_fall_back(monkeypatch, side):
    # the cells that hold the dropped Bohr-Sommerfeld root's zero fall
    # back to quadrisection, and the zero is found there
    cut = zerocount.SEED_SPLIT_C * SEEDED_P.h
    on_side = (lambda z: z.real <= -cut) if side == "left_seeds" \
        else (lambda z: z.real >= cut)
    dropped = []   # the first seed on the side, and only it
    monkeypatch.setattr(cli, "locate_zeros", _dropping(
        lambda i, z: dropped or not on_side(z) or dropped.append(z)))
    zs, _, locator = cli._model_zeros(SEEDED_P, SEEDED_AM, SEEDED_RECT,
                                      100000)
    assert len(dropped) == 1
    assert min(abs(zs.locations() - dropped[0])) < SEEDED_P.h
    _fell_back(locator, SEEDED_RECT)
    _same_zeros(zs, SEEDED_RECT)


def test_a_dropped_grid_seed_makes_the_strip_fall_back(monkeypatch):
    # the strip's first three grid seeds all drain to its zero nearest 0,
    # and its last is the only seed of the zero at 0.0423 + 0.0059j
    seeds = cli._grid_seeds
    tried = []
    monkeypatch.setattr(cli, "_grid_seeds",
                        lambda *args: tried.append(seeds(*args)[:-1])
                        or tried[-1])
    zs, _, locator = cli._model_zeros(SEEDED_P, SEEDED_AM, SEEDED_RECT,
                                      100000)
    # the report shows the seeds tried: 9 Ext roots, 10 interior ones
    assert locator["seeds"] == 9 + 10 + len(tried[0])
    _fell_back(locator, SEEDED_RECT)
    _same_zeros(zs, SEEDED_RECT)


def test_a_seed_of_a_zero_outside_the_region_is_not_counted(monkeypatch):
    # the seeds of the whole rectangle, given to the locator of its right
    # part: the zeros they reach outside that part certify nothing and
    # are not reported
    region = (0.06, 0.14, -0.04, 0.04)
    given = []
    locate = cli.locate_zeros
    monkeypatch.setattr(cli, "locate_zeros",
                        lambda f, rect, p, seeds, cell_budget:
                        given.append(seeds) or locate(f, rect, p, seeds=seeds,
                                                      cell_budget=cell_budget))
    cli._model_zeros(SEEDED_P, SEEDED_AM, SEEDED_RECT, 100000)
    zs = locate_zeros(GProvider(SEEDED_P, SEEDED_AM).normalized_G, region,
                      SEEDED_P, seeds=given[0])
    assert len(given[0]) > 3 * len(zs)
    assert zs.counts == 1 and zs.deficit_cells == 0
    _same_zeros(zs, region)


@settings(derandomize=True, max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 20), re0=st.floats(-0.14, -0.065),
       re1=st.floats(0.065, 0.14), im0=st.floats(-0.05, -0.01),
       im1=st.floats(0.01, 0.05), drop=st.sampled_from([0.0, 0.1, 0.5]))
def test_seeded_locator_equals_the_quadtree_on_random_models(seed, re0, re1,
                                                            im0, im1, drop):
    # a random physical model at h = 0.01, a random rectangle that
    # straddles the branching strip, and a random share of its seeds lost
    p = SemiclassicalParams(h=0.01, epsilon=3e-2)
    rng = np.random.default_rng(seed)
    am = _physical_model(rng, p.epsilon)
    region = (re0, re1, im0, im1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "locate_zeros",
                   _dropping(lambda i, z: rng.uniform() >= drop))
        zs, _, locator = cli._model_zeros(p, am, region, 100000)
    ref = locate_zeros(GProvider(p, am).normalized_G, region, p)
    assert 1 <= locator["counts"] <= ref.counts
    got, want = zs.locations(), ref.locations()
    assert len(got) == len(want)
    if len(want):
        d = np.abs(got[:, None] - want[None, :])
        assert max(d.min(axis=0).max(), d.min(axis=1).max()) <= 1e-12


def test_cell_budget_bounds_every_count_of_the_seeded_locator(monkeypatch):
    # with a seed dropped, so that cells are quadrisected
    calls = []
    count = zerocount.winding_count
    monkeypatch.setattr(zerocount, "winding_count",
                        lambda f, contour, h: calls.append(contour)
                        or count(f, contour, h=h))
    monkeypatch.setattr(cli, "locate_zeros", _dropping(lambda i, z: i > 0))
    _, _, locator = cli._model_zeros(SEEDED_P, SEEDED_AM, SEEDED_RECT, 100000)
    used = len(calls)
    assert used == locator["counts"] > 1
    calls.clear()
    cli._model_zeros(SEEDED_P, SEEDED_AM, SEEDED_RECT, used)
    assert len(calls) == used
    for budget in (used - 1, 0):
        with pytest.raises(CellBudgetExceeded):
            cli._model_zeros(SEEDED_P, SEEDED_AM, SEEDED_RECT, budget)
