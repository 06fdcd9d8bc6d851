"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Criterion 11's Fig-run sub-checks at h = 1e-3 are implemented literally
and are expected to fail: individual eigenvalues of these operators at
h = 1e-3 are exponentially ill-conditioned in double precision (see the
xfail reason and README).  The same structural checks pass at h = 0.01
and are part of criterion 11's attainable half.
"""

import time
from fractions import Fraction as F

import numpy as np
import pytest

from branchspec.cli import _bijection_rate, _model_zeros
from branchspec.quantization import (
    ActionModel,
    BSBranch,
    GrushinVariant,
    SemiclassicalParams,
    det_E_minus_plus,
    quantization_residual,
    term_set,
)
from branchspec.skeleton import assemble, mu_h_norm, solve_curve
from branchspec.specfun import (
    StirlingRegime,
    reflection_residual,
    stirling_remainder,
)
from branchspec.transition import Entry, Sector, asymptotic_entry, exact_matrix, renormalize
from branchspec.zerocount import (
    AdmissibleCurve,
    Contour,
    GProvider,
    grid_newton_count,
    locate_zeros,
    match_bijection,
    phase_sum_count,
    winding_count,
)


# criterion 11's Fig runs at h = 1e-3: L = 1.2 is a measured-necessary
# deviation from L = 2.5, with N and the resolution step dN
FIG_RUN = {"L": 1.2, "N": 1000, "dN": 100}


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {tag}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def physical_model(rng, eps):
    im = eps * rng.uniform(0.2, 1.0, 2)
    re = rng.uniform(-0.05, 0.05, 2)
    sl = rng.uniform(-0.3, 0.3, 2)
    return ActionModel([re[0] + 1j * im[0], sl[0]],
                       [re[1] + 1j * im[1], sl[1]])


def test_criterion_01_transition_determinant():
    t0 = time.time()
    worst = 0.0
    grid = np.linspace(-0.5, 0.5, 40)
    for h in (1.0, 0.1, 0.01):
        for x in grid:
            for y in grid:
                mu = complex(x, y)
                if abs(mu) > 0.5:
                    continue
                worst = max(worst, exact_matrix(mu, h).det_residual())
    report(1, worst <= 1e-10,
           f"max |det-1| residual {worst:.2e} over 40x40 grid, "
           f"h in {{1, 0.1, 0.01}} ({time.time() - t0:.1f}s)")


def test_criterion_02_stirling_tableau():
    t0 = time.time()
    h = 1e-3
    worst = 0.0
    cases = [(Sector.RightReal, 1.0), (Sector.UpperHalf, 1j),
             (Sector.LeftReal, -1.0), (Sector.LowerHalf, -1j)]
    for sector, direction in cases:
        for ratio in (5, 10, 20, 50, 100):
            mu = direction * ratio * h
            tm = exact_matrix(mu, h)
            for entry, log_exact in ((Entry.A23, tm.log_a23),
                                     (Entry.A14, tm.log_a14)):
                asym = asymptotic_entry(entry, mu, h, sector)
                rel = abs(np.expm1(asym - log_exact))
                worst = max(worst, rel * abs(mu) / h)
    # decay slope of Re remainder on the real axis
    ratios = np.linspace(3, 8, 11)
    vals = [abs(stirling_remainder(r * 1.0, 1.0,
                                   StirlingRegime.MinusBranch).real)
            for r in ratios]
    slope = np.polyfit(ratios, np.log(vals), 1)[0]
    slope_ok = abs(slope + 2 * np.pi) <= 0.1 * 2 * np.pi
    report(2, worst <= 1.0 and slope_ok,
           f"tableau rel err * |mu|/h max {worst:.3f} (cap 1.0); "
           f"Re-remainder slope {slope:.3f} vs -2pi "
           f"({time.time() - t0:.1f}s)")


def test_criterion_03_reflection_identity():
    t0 = time.time()
    worst = 0.0
    grid = np.linspace(-0.5, 0.5, 40)
    for h in (1.0, 0.1, 0.01):
        X, Y = np.meshgrid(grid, grid)
        mu = (X + 1j * Y).ravel()
        # stay off the Gamma poles at mu = -+ i h (k + 1/2)
        keep = np.abs(np.abs(mu.imag / h) % 1.0 - 0.5) > 0.02
        keep &= np.abs(mu) <= 0.5
        res = reflection_residual(mu[keep], h)
        worst = max(worst, float(np.max(res)))
    report(3, worst <= 1e-11,
           f"max reflection residual {worst:.2e} ({time.time() - t0:.1f}s)")


def test_criterion_04_golden_closed_forms():
    t0 = time.time()
    from branchspec.cli import _golden_check
    from branchspec.flowavg import (
        BalancedLaurent as BL,
        correlation_C,
        flow_average,
        to_action_angle,
        zpoly_from_x,
    )
    ok = True
    detail = []
    # quartic monomial averages and their action-angle forms
    ok &= flow_average(zpoly_from_x({(4, 0): 1})) == \
        BL({(2, 0, 2, 0): F(3, 8)})
    ok &= flow_average(zpoly_from_x({(2, 2): 1})) == \
        BL({(2, 0, 0, 2): F(1, 16), (0, 2, 2, 0): F(1, 16),
            (1, 1, 1, 1): F(1, 4)})
    ok &= to_action_angle(flow_average(zpoly_from_x({(4, 0): 1}))) == \
        {(4, 0, 0): (F(3, 2), F(0))}
    ok &= to_action_angle(flow_average(zpoly_from_x({(3, 1): 1}))) == \
        {(3, 1, 1): (F(3, 2), F(0))}
    # the six quartic correlation goldens (double-derived; README)
    bad = _golden_check()
    ok &= not bad
    if bad:
        detail.append(f"failed identities: {bad}")
    # symmetry on 50 random degree-4 pairs
    rng = np.random.default_rng(42)
    monos = [(4, 0), (0, 4), (3, 1), (1, 3), (2, 2)]
    for _ in range(50):
        q1 = zpoly_from_x({m: int(rng.integers(-3, 4)) for m in monos})
        q2 = zpoly_from_x({m: int(rng.integers(-3, 4)) for m in monos})
        if correlation_C(q1, q2) != correlation_C(q2, q1):
            ok = False
            detail.append("C symmetry violated")
            break
    report(4, ok,
           "exact rational average/correlation identities "
           "(goldens double-derived, README) + symmetry x50 "
           f"({time.time() - t0:.1f}s) " + "; ".join(detail))


def test_criterion_05_critical_point_classification():
    t0 = time.time()
    from branchspec.flowavg import (
        REGION_TABLE,
        PointKind,
        ReducedFunction,
        Region,
        classify_critical_points,
        grid_verify,
    )
    samples = {
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
    checked = 0
    for region, (a, b, c) in samples.items():
        rf = ReducedFunction(a, b, c)
        rep = classify_critical_points(rf)
        assert rep.region is region
        table = REGION_TABLE[region]
        kinds = {pt.kind: pt for pt in rep.points}
        assert kinds[PointKind.CrossingCf].signature == table["Cf"]
        assert kinds[PointKind.CrossingCb].signature == table["Cb"]
        for name, kind in (("horizontal", PointKind.HorizontalCircle),
                           ("vertical", PointKind.VerticalCircle)):
            if table[name] is None:
                assert kind not in kinds
            else:
                assert kinds[kind].signature == table[name]
        grid_verify(rf, rep)
        checked += 1
    report(5, checked == 9,
           f"all 9 regions match the tables, grid-verified to 1e-6 "
           f"({time.time() - t0:.1f}s)")


def test_criterion_06_zero_counting():
    t0 = time.time()
    h = 0.01
    p = SemiclassicalParams(h=h, epsilon=3e-2)
    f = lambda z: np.cosh(np.pi * z / h)
    ladder = winding_count(f, Contour.rectangle(-h, h, 0, 3 * h), h=h)
    ok = ladder == 3
    rng = np.random.default_rng(7)
    agree = 0
    counts = []
    for i in range(20):
        am = physical_model(rng, p.epsilon)
        prov = GProvider(p, am)
        region = (0.03, 0.35, -0.06, 0.06)
        n_wind = winding_count(prov.normalized_G,
                               Contour.rectangle(*region), h=h)
        n_grid, _ = grid_newton_count(prov.normalized_G, region, p)
        counts.append(n_wind)
        if n_wind == n_grid:
            agree += 1
    ok &= agree == 20
    ok &= all(10 <= n <= 100 for n in counts)
    report(6, ok,
           f"cosh ladder = {ladder}; winding == grid+Newton on {agree}/20 "
           f"random models, counts {min(counts)}..{max(counts)} "
           f"({time.time() - t0:.1f}s)")


def test_criterion_07_skeleton_containment():
    t0 = time.time()
    p = SemiclassicalParams(h=1e-3, epsilon=3e-2)
    rng = np.random.default_rng(11)
    total = 0
    violations = 0
    for i in range(10):
        am = physical_model(rng, p.epsilon)
        sk, body = assemble(p, am, C_body=10.0)
        zs = _model_zeros(p, am, sk, (-0.1, 0.1, -0.03, 0.02), 400000)[0]
        total += len(zs)
        for z in zs.zeros:
            if not body.contains(z.location):
                violations += 1
    report(7, violations == 0 and total > 500,
           f"{total} zeros over 10 random physical models, "
           f"{violations} outside the C=10 body ({time.time() - t0:.1f}s)")


def test_criterion_08_bijection_strip():
    t0 = time.time()
    h = 0.01
    p = SemiclassicalParams(h=h, epsilon=3e-2)
    rng = np.random.default_rng(23)
    am = physical_model(rng, p.epsilon)
    prov = GProvider(p, am)
    x_lo, x_hi = 5 * h, 0.3
    zs = locate_zeros(prov.normalized_G, (x_lo, x_hi, -0.05, 0.05), p)
    from branchspec.cli import _bs_roots_in_strip
    predicted = []
    for branch in (BSBranch.LeftInt, BSBranch.RightInt):
        predicted.extend(r.mu for r in
                         _bs_roots_in_strip(p, am, branch, x_lo, x_hi)[0])
    # the model command's rate, with its numerical position floor: the
    # BS-branch Newton stops at residual 1e-12, i.e. position error
    # ~1e-12/|phi'|; the analytic bound dips far below double precision
    # for Re mu >~ 0.12 (README)
    rep = match_bijection([z.location for z in zs.zeros], predicted,
                          _bijection_rate(h))
    report(8, rep["ok"] and len(zs) >= 10,
           f"{len(zs)} zeros vs {len(predicted)} BS roots, max distance "
           f"{rep['max_distance']:.2e}, unmatched "
           f"{len(rep['unmatched_zeros']) + len(rep['unmatched_predicted'])} "
           f"({time.time() - t0:.1f}s)")


def _crossing_curve(x0, p, am, sk, c_i=2.0, n=1200):
    low, up = sk.lower(x0), sk.upper(x0)
    ln = np.log(1.0 / mu_h_norm(x0, p.h))
    w = c_i * p.h / ln
    ys = np.linspace(low - 12 * p.h / ln, up + 12 * p.h / ln, n)
    path = x0 + 1j * ys

    def idx(y):
        return int(np.argmin(np.abs(ys - y)))

    mid = 0.5 * (low + up)
    ts = term_set(complex(x0, mid), p, am)
    lab = "2" if p.h * ts["2"].real >= p.h * ts["3"].real else "3"
    segs = [("J", 0, idx(low - w), "4+"),
            ("I", idx(low - w), idx(low + w), None),
            ("J", idx(low + w), idx(up - w), lab),
            ("I", idx(up - w), idx(up + w), None),
            ("J", idx(up + w), n - 1, "1")]
    return AdmissibleCurve(path=path, segments=segs,
                           touches_Be=[False, False])


def _closed_loop_curve(x0, x1, lo, up, p, am, sk, n_side=500):
    """Closed rectangle as one admissible curve: counterclockwise from the
    bottom-left corner, with I intervals where the sides cross S'."""
    ln = np.log(1.0 / mu_h_norm(0.5 * (x0 + x1), p.h))
    w = 2 * p.h / ln
    bottom = np.linspace(x0, x1, n_side) + 1j * lo
    right = x1 + 1j * np.linspace(lo, up, n_side)
    top = np.linspace(x1, x0, n_side) + 1j * up
    left = x0 + 1j * np.linspace(up, lo, n_side)
    path = np.concatenate([bottom, right[1:], top[1:], left[1:]])

    def mid_label(x):
        mid = 0.5 * (sk.lower(x) + sk.upper(x))
        ts = term_set(complex(x, mid), p, am)
        return "2" if p.h * ts["2"].real >= p.h * ts["3"].real else "3"

    def idx_on(base, val, off):
        return off + int(np.argmin(np.abs(base - val)))

    nb = n_side
    nr = n_side - 1
    segs = []
    # bottom: a4+ everywhere
    segs.append(("J", 0, nb - 1, "4+"))
    # right side: 4+ | I | mid | I | 1
    ys = np.linspace(lo, up, n_side)
    r_off = nb - 1
    l1 = idx_on(ys, sk.lower(x1) - w, r_off)
    l2 = idx_on(ys, sk.lower(x1) + w, r_off)
    u1 = idx_on(ys, sk.upper(x1) - w, r_off)
    u2 = idx_on(ys, sk.upper(x1) + w, r_off)
    segs += [("I", nb - 1, nb - 1, None)] if False else []
    segs += [("J", nb - 1, l1, "4+"), ("I", l1, l2, None),
             ("J", l2, u1, mid_label(x1)), ("I", u1, u2, None),
             ("J", u2, r_off + nr, "1")]
    # top: a1
    t_off = r_off + nr
    segs.append(("J", t_off, t_off + nr, "1"))
    # left side (downwards): 1 | I | mid | I | 4+
    ysd = np.linspace(up, lo, n_side)
    l_off = t_off + nr
    a1 = idx_on(ysd, sk.upper(x0) + w, l_off)
    a2 = idx_on(ysd, sk.upper(x0) - w, l_off)
    b1 = idx_on(ysd, sk.lower(x0) + w, l_off)
    b2 = idx_on(ysd, sk.lower(x0) - w, l_off)
    segs += [("J", l_off, a1, "1"), ("I", a1, a2, None),
             ("J", a2, b1, mid_label(x0)), ("I", b1, b2, None),
             ("J", b2, len(path) - 1, "4+")]
    return path, segs


def test_criterion_09_phase_sum():
    t0 = time.time()
    p = SemiclassicalParams(h=1e-3, epsilon=3e-2)
    am = ActionModel([0.01 + 0.012j, 0.2], [0.015 + 0.025j, -0.1])
    sk, _ = assemble(p, am)
    prov = GProvider(p, am)
    discrepancies = []
    # two single-dominance curves
    for y, lab in ((0.05, "1"), (-0.05, "4-")):
        xs = np.linspace(-0.2, -0.05, 500) if lab == "4-" \
            else np.linspace(0.05, 0.2, 500)
        curve = AdmissibleCurve(path=xs + 1j * y,
                                segments=[("J", 0, 499, lab)])
        _, _, d = phase_sum_count(curve, prov)
        discrepancies.append(d)
    # two crossing curves
    for x0 in (0.1, 0.16):
        curve = _crossing_curve(x0, p, am, sk)
        _, _, d = phase_sum_count(curve, prov)
        discrepancies.append(d)
    # closed admissible contour around a skeleton arc vs winding count
    x0, x1 = 0.08, 0.14
    up = max(sk.upper(x0), sk.upper(x1)) + 0.02
    lo = min(sk.lower(x0), sk.lower(x1)) - 0.02
    n_exact = winding_count(prov.normalized_G,
                            Contour.rectangle(x0, x1, lo, up), h=p.h)
    loop, segs = _closed_loop_curve(x0, x1, lo, up, p, am, sk)
    est_loop, direct_loop, _ = phase_sum_count(
        AdmissibleCurve(path=loop, segments=segs,
                        touches_Be=[False] * 4), prov)
    d5 = abs(n_exact - est_loop)
    discrepancies.append(d5)
    ok = all(d <= 5.0 for d in discrepancies)

    # one B_e-touching curve
    h = p.h
    lvl = 12 * h * np.log(1 / h)
    am2 = ActionModel([1j * lvl], [1.5j * lvl])
    sk2, body2 = assemble(p, am2)
    prov2 = GProvider(p, am2)
    x0 = 0.5 * h
    low, up = sk2.lower(x0), sk2.upper(x0)
    n_hn = mu_h_norm(x0, h)
    ln = np.log(1.0 / n_hn)
    w_e = 2 * h * np.log(ln) / ln
    w = 2 * h / ln
    ys = np.linspace(low - 30 * h * np.log(ln) / ln, up + 12 * h / ln, 1600)
    path = x0 + 1j * ys

    def idx(y):
        return int(np.argmin(np.abs(ys - y)))

    ts = term_set(complex(x0, 0.5 * (low + up)), p, am2)
    lab = "2" if p.h * ts["2"].real >= p.h * ts["3"].real else "3"
    curve = AdmissibleCurve(
        path=path,
        segments=[("J", 0, idx(low - w_e), "4+"),
                  ("I", idx(low - w_e), idx(low + w_e), None),
                  ("J", idx(low + w_e), idx(up - w), lab),
                  ("I", idx(up - w), idx(up + w), None),
                  ("J", idx(up + w), len(ys) - 1, "1")],
        touches_Be=[True, False])
    _, _, d_be = phase_sum_count(curve, prov2)
    bound_be = 5 * np.log(np.log(1.0 / h))
    ok &= d_be <= bound_be
    report(9, ok,
           f"discrepancies {[f'{d:.2f}' for d in discrepancies]} (cap 5); "
           f"B_e-touching {d_be:.2f} (cap {bound_be:.2f}) "
           f"({time.time() - t0:.1f}s)")


def test_criterion_10_appendix_b_solver():
    t0 = time.time()
    x = 0.01
    lx = np.log(1.0 / x)
    worst_res, worst_small, worst_large = 0.0, 0.0, 0.0
    for F0 in np.geomspace(1e-6, 0.15, 60):
        y = solve_curve(lambda mu, F0=F0: F0, x)
        res = abs(y * np.log(1.0 / abs(complex(x, y))) - F0)
        worst_res = max(worst_res, res)
        if F0 <= x * lx:
            worst_small = max(worst_small, abs(y - F0 / lx) * lx ** 2 / F0)
        if F0 >= 10 * x * lx:
            lf = np.log(1.0 / F0)
            worst_large = max(worst_large,
                              abs(y * lf / F0 - 1.0) * lf / np.log(lf))
    ok = worst_res <= 1e-12 and worst_small <= 5.0 and worst_large <= 5.0
    report(10, ok,
           f"residual {worst_res:.1e} (cap 1e-12); measured constants "
           f"small-F {worst_small:.2f}, large-F {worst_large:.2f} (cap 5) "
           f"({time.time() - t0:.1f}s)")


def test_criterion_11_direct_numerics_attainable():
    t0 = time.time()
    from branchspec.schrodinger import (
        OperatorSpec,
        phase_space_count,
        resolved_spectrum,
        solve_operator,
        spurious_filter,
    )
    # harmonic oscillator h(2k+1), k <= 10, to 1e-8 relative
    spec = OperatorSpec(V=[0, 0, 1], W=[0.0], h=0.01, epsilon=0.0,
                        L=3.0, N=300)
    lam = np.sort(solve_operator(spec).eigenvalues.real)
    harm_ok = all(abs(lam[k] - spec.h * (2 * k + 1)) <= 1e-8 * spec.h * (2 * k + 1)
                  for k in range(11))
    # Fig-1 containment at h = 1e-3 (L, N and dN of FIG_RUN)
    fig1 = OperatorSpec(V=[0, 0, -1, 0, 1], W=[0, 0, 1], h=1e-3, epsilon=0.8,
                        L=FIG_RUN["L"], N=FIG_RUN["N"])
    s1 = resolved_spectrum(fig1, dN=FIG_RUN["dN"])
    all_lam = s1.eigenvalues
    contain_ok = all_lam.imag.min() >= -1e-6 and \
        all_lam.imag.max() <= fig1.epsilon * fig1.w_at(fig1.L) + 1e-6
    # structural evidence at h = 0.01 where doubles represent the spectrum
    def filtered(V, W):
        a = solve_operator(OperatorSpec(V=V, W=W, h=0.01, epsilon=0.8,
                                        L=1.2, N=400))
        b = solve_operator(OperatorSpec(V=V, W=W, h=0.01, epsilon=0.8,
                                        L=1.2, N=440))
        return spurious_filter(a, b, tol_scale=1e-4)

    sA = filtered([0, 0, -1, 0, 1], [0, 0, 1])
    lamA = sA.resolved_values()
    below = lamA[(lamA.real >= -0.2) & (lamA.real <= -0.02)]
    below = below[np.argsort(below.real)]
    gaps = [abs(below[i + 1] - below[i]) for i in range(0, len(below) - 1, 2)]
    pair_ok = len(gaps) >= 2 and max(gaps) <= 1e-3
    win = lamA[(lamA.real >= -0.2) & (lamA.real <= 0.2)]
    heur = phase_space_count(OperatorSpec(V=[0, 0, -1, 0, 1], W=[0, 0, 1],
                                          h=0.01, epsilon=0.8, L=1.2, N=400),
                             -0.2, 0.2)
    count_ok = abs(len(win) - heur) <= 0.15 * heur
    sB = filtered([0, 0, -1, 0, 1], [0, 0, 0, 1])
    lamB = sB.resolved_values()
    belowB = lamB[(lamB.real < 0)]
    neg, pos = int(np.sum(belowB.imag < 0)), int(np.sum(belowB.imag > 0))
    split_ok = neg + pos >= 6 and abs(neg - pos) <= 2
    ok = harm_ok and contain_ok and pair_ok and count_ok and split_ok
    report(11, ok,
           f"harmonic 1e-8 {harm_ok}; Fig-1 containment (h=1e-3) "
           f"{contain_ok}; h=0.01 structure: pairing max "
           f"{max(gaps) if gaps else np.nan:.1e}, count {len(win)} vs "
           f"{heur:.1f}, Fig-2 split {neg}/{pos} ({time.time() - t0:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason="Fig-run sub-checks at h = 1e-3 are unattainable in double "
    "precision: eigenvalue condition numbers are exponentially large "
    "(measured N- and L-perturbation wobble ~1e-3..4e-2 >> the 1e-6 "
    "resolved tolerance), so the 1e-6-resolved set is empty below the "
    "barrier; measurements summarized in the README")
def test_criterion_11_fig_runs_literal():
    from branchspec.schrodinger import (
        OperatorSpec,
        phase_space_count,
        resolved_spectrum,
    )
    fig1 = OperatorSpec(V=[0, 0, -1, 0, 1], W=[0, 0, 1], h=1e-3, epsilon=0.8,
                        L=FIG_RUN["L"], N=FIG_RUN["N"])
    s1 = resolved_spectrum(fig1, dN=FIG_RUN["dN"])
    lam = s1.resolved_values()
    below = lam[(lam.real >= -0.2) & (lam.real <= -0.02)]
    below = below[np.argsort(below.real)]
    gaps = [abs(below[i + 1] - below[i]) for i in range(0, len(below) - 1, 2)]
    pair_ok = len(gaps) >= 1 and max(gaps) <= 1e-3
    win = lam[(lam.real >= -0.2) & (lam.real <= 0.2)]
    heur = phase_space_count(fig1, -0.2, 0.2)
    raw = s1.eigenvalues
    raw_win = raw[(raw.real >= -0.2) & (raw.real <= 0.2)]
    count_ok = abs(len(win) - heur) <= 0.15 * heur
    fig2 = OperatorSpec(V=[0, 0, -1, 0, 1], W=[0, 0, 0, 1], h=1e-3,
                        epsilon=0.8, L=FIG_RUN["L"], N=FIG_RUN["N"])
    s2 = resolved_spectrum(fig2, dN=FIG_RUN["dN"])
    lam2 = s2.resolved_values()
    bb = lam2[lam2.real < 0]
    neg, pos = int(np.sum(bb.imag < 0)), int(np.sum(bb.imag > 0))
    split_ok = neg + pos >= 2 and abs(neg - pos) <= 2
    print(f"ACCEPTANCE 11 (literal fig-runs, h=1e-3): "
          f"resolved {len(lam)}/{len(s1)}; below-barrier pairs {len(gaps)}; "
          f"resolved window count {len(win)} vs heuristic {heur:.1f} "
          f"(raw count {len(raw_win)} is within "
          f"{abs(len(raw_win) - heur) / heur:.1%}); "
          f"Fig-2 split {neg}/{pos}")
    assert pair_ok and count_ok and split_ok, \
        "literal h=1e-3 sub-checks failed as analyzed in the README"


def test_criterion_12_grushin_cross_check():
    t0 = time.time()
    h = 0.01
    p = SemiclassicalParams(h=h, epsilon=3e-2)
    am = ActionModel([0.02 + 0.01j, 0.15], [0.03 + 0.015j, -0.2])
    prov = GProvider(p, am)
    rng = np.random.default_rng(31)
    theta = (0.21, -0.37)
    # the parenthesis identity at 20 random mu
    worst_up, worst_lo = 0.0, 0.0
    n_checked = 0
    while n_checked < 20:
        mu = complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.02, 0.2))
        if abs(mu) < 3 * h:
            continue
        d = tuple(rng.uniform(-0.3, 0.3, 4))
        rc = renormalize(exact_matrix(mu, h), d)
        par = quantization_residual(mu, p, am, rc, theta)
        up = det_E_minus_plus(GrushinVariant.UpperGrushin, mu, p, rc, theta, am)
        lo = det_E_minus_plus(GrushinVariant.LowerGrushin, mu, p, rc, theta, am)
        ref = np.log(par.value) + par.offset / h
        d1 = np.log(up.value) + up.offset / h + rc.log_c23 - ref
        d1 -= 2j * np.pi * np.round(d1.imag / (2 * np.pi))
        worst_up = max(worst_up, abs(np.expm1(d1)))
        s12r = am.S12(mu) - rc.theta(1, 2) - 2 * np.pi * h * theta[1] - h * np.pi / 2
        s34r = am.S34(mu) - rc.theta(3, 4) - 2 * np.pi * h * theta[0] - h * np.pi / 2
        tw = 2j * np.pi * (theta[0] + theta[1]) + 1j * (s12r + s34r) / h
        d2 = np.log(lo.value) + lo.offset / h + rc.log_c14 + tw - ref
        d2 -= 2j * np.pi * np.round(d2.imag / (2 * np.pi))
        worst_lo = max(worst_lo, abs(np.expm1(d2)))
        n_checked += 1
    identity_ok = worst_up <= 1e-12 and worst_lo <= 1e-12
    # vanishing at quantization roots
    zs = locate_zeros(prov.normalized_G, (0.07, 0.2, -0.04, 0.04), p)
    worst_root = 0.0
    for z in zs.zeros:
        rc = renormalize(exact_matrix(z.location, h), (0.1, -0.2, 0.05, 0.3))
        for variant in GrushinVariant:
            det = det_E_minus_plus(variant, z.location, p, rc, theta, am)
            worst_root = max(worst_root, abs(det.value))
    roots_ok = len(zs) >= 3 and worst_root <= 1e-9
    report(12, identity_ok and roots_ok,
           f"identities to {max(worst_up, worst_lo):.1e} at 20 random mu; "
           f"both det variants <= {worst_root:.1e} at {len(zs)} roots "
           f"({time.time() - t0:.1f}s)")
