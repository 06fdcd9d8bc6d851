"""Implicit-curve solver, Gamma tracing, crossings, skeleton assembly."""

import csv
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchspec import skeleton
from branchspec.errors import NoConvergence
from branchspec.quantization import ActionModel, SemiclassicalParams, term_set
from branchspec.skeleton import (
    Body,
    CurvePiece,
    assemble,
    curve_residual,
    default_steps,
    export_csv,
    export_json,
    find_crossings,
    mu_h_norm,
    solve_curve,
    trace_gamma,
)


def test_solve_curve_zero_rhs():
    for x in [1e-6, 1e-3, 0.1, -0.2]:
        assert solve_curve(lambda mu: 0.0, x) == pytest.approx(0.0, abs=1e-14)


def test_solve_curve_no_root_raises_with_last_iterate():
    # y ln(1/|mu|) <= 1/e for |y| <= Y_CLAMP < 1, so F = 1 has no root
    with pytest.raises(NoConvergence) as info:
        solve_curve(lambda mu: 1.0, 0.05)
    assert info.value.last is not None
    assert abs(info.value.last) <= skeleton.Y_CLAMP
    assert info.value.residual < -0.5


def _bisect_y_ln(target, lo=1e-9, hi=0.2):
    # oracle for y ln(1/y) = target on the real line
    f = lambda y: y * np.log(1.0 / y) - target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sign(f(mid)) == np.sign(f(lo)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_solve_curve_constant_rhs_at_origin():
    F0 = 1e-3
    y = solve_curve(lambda mu: F0, 0.0)
    oracle = _bisect_y_ln(F0)
    assert y == pytest.approx(oracle, rel=1e-10)
    # log-inverted estimate: y = (1 + O(lnln/ln)) z/ln(1/z)
    z = F0
    approx = z / np.log(1.0 / z)
    ln = np.log(1.0 / z)
    assert abs(y / approx - 1.0) <= np.log(ln) / ln


def test_solve_curve_lipschitz_vs_simplified():
    F = lambda mu: 0.01 + 0.1 * mu.imag
    x = 0.05
    y_full = solve_curve(F, x)
    # simplified: F frozen at the real axis
    y_simpl = solve_curve(lambda mu: F(complex(x, 0)), x)
    ln = np.log(1.0 / abs(complex(x, y_full)))
    assert abs(y_full - y_simpl) <= 5 * abs(y_full) / ln


def test_a322_a323_measured_constants():
    # sweep F through both regimes; measured constants <= 5
    worst_small, worst_large = 0.0, 0.0
    x = 0.01
    lx = np.log(1.0 / x)
    for F0 in np.geomspace(1e-6, 0.15, 40):
        y = solve_curve(lambda mu, F0=F0: F0, x)
        if F0 <= x * lx:  # regularized small-F regime
            c = abs(y - F0 / lx) * lx ** 2 / F0
            worst_small = max(worst_small, c)
        if F0 >= 10 * x * lx:  # log-inverted large-F regime
            lf = np.log(1.0 / F0)
            dev = abs(y * lf / F0 - 1.0) * lf / np.log(lf)
            worst_large = max(worst_large, dev)
    assert worst_small <= 5.0
    assert worst_large <= 5.0


def params(h=1e-3, eps=3e-2):
    return SemiclassicalParams(h=h, epsilon=eps)


def physical_model(seed=0, scale=3e-2):
    rng = np.random.default_rng(seed)
    im12, im34 = scale * rng.uniform(0.2, 1.0, 2)
    re = rng.uniform(-0.05, 0.05, 2)
    sl = rng.uniform(-0.3, 0.3, 2)
    return ActionModel([re[0] + 1j * im12, sl[0]],
                       [re[1] + 1j * im34, sl[1]])


def test_trace_residual_and_slope():
    p = params()
    am = physical_model(3)
    c = trace_gamma("2,4+", p, am, (1e-6, 0.25))
    res = curve_residual("2,4+", c.xs + 1j * c.ys, p, am)
    assert np.max(np.abs(res)) <= 1e-10
    slopes = np.abs(np.diff(c.ys) / np.diff(c.xs))
    ln = np.log(1.0 / np.abs(c.xs[:-1] + 1j * c.ys[:-1]))
    assert np.max(slopes * ln) <= 10.0


def test_coincident_pairs():
    p = params()
    am = physical_model(1)
    a = trace_gamma("1,3", p, am, (1e-6, 0.2))
    b = trace_gamma("2,4+", p, am, (1e-6, 0.2))
    assert np.max(np.abs(a.ys - np.interp(a.xs, b.xs, b.ys))) <= 1e-12


@settings(derandomize=True, max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 20), h=st.sampled_from([1e-2, 1e-3, 3e-4]),
       a=st.floats(-1.0, 1.0), w=st.floats(1e-3, 0.05))
def test_right_half_curve_pairs_trace_bitwise_equal(seed, h, a, w):
    # a1 a4+ = a2 a3 in case 1, so assemble traces Gamma_{1,2} for
    # Gamma_{3,4+} and Gamma_{1,3} for Gamma_{2,4+}; on any range the
    # 4+ pair does not clip, each pair's trace has the other's bits
    p = params(h=h)
    am = physical_model(seed)
    x_lo = max(-skeleton.SMALL_C1 * h, a * (skeleton.X_MAX - w))
    x_range = (x_lo, x_lo + w)
    for pair, twin in (("3,4+", "1,2"), ("2,4+", "1,3")):
        got, want = (trace_gamma(q, p, am, x_range) for q in (pair, twin))
        assert got.xs.tobytes() == want.xs.tobytes()
        assert got.ys.tobytes() == want.ys.tobytes()
        assert got.gaps == want.gaps


def test_curve_ordering_in_im_s():
    # Im S34 = 2 Im S12 > 0: gamma_{3,4+} above gamma_{2,4+} at x = 0.1
    p = params()
    am = ActionModel([0.01j], [0.02j])
    c34 = trace_gamma("3,4+", p, am, (0.09, 0.11))
    c24 = trace_gamma("2,4+", p, am, (0.09, 0.11))
    y34, y24 = np.interp(0.1, c34.xs, c34.ys), np.interp(0.1, c24.xs, c24.ys)
    assert y34 > y24


def test_crossings_symmetric_actions():
    p = params()
    am = ActionModel([0.01 + 0.02j, 0.1], [0.03 + 0.02j, 0.1])
    mu_a, mu_b = find_crossings(p, am, _full_trace(p, am))
    assert mu_a is not None and mu_b is not None
    assert abs(mu_a.real) <= 1e-9
    assert abs(mu_b.real) <= 1e-9


def test_crossings_constant_offset():
    # Im S12 - Im S34 = 2 pi delta, constant: Re mu_A ~ -delta
    p = params()
    delta = 1e-3
    am = ActionModel([0.01 + 1j * (0.02 + 2 * np.pi * delta)], [0.03 + 0.02j])
    mu_a, mu_b = find_crossings(p, am, _full_trace(p, am))
    assert mu_a is not None
    assert mu_a.real == pytest.approx(-delta, rel=0.05)
    if mu_b is not None:
        assert mu_a.real * mu_b.real <= 0
        assert abs(mu_a.real) <= 10 * abs(mu_b.real)
        assert abs(mu_b.real) <= 10 * abs(mu_a.real)


def test_assemble_envelope_and_band():
    p = params()
    am = physical_model(5)
    sk, body = assemble(p, am)
    w = p.width
    for pc in sk.s_prime:
        mu = pc.xs + 1j * pc.ys
        bound = 10 * w * np.maximum(
            1.0 / np.log(1.0 / mu_h_norm(pc.xs, p.h)),
            1.0 / np.log(1.0 / w))
        assert np.all(np.abs(pc.ys) <= bound + 1e-12)


def test_gamma4_nonempty_condition():
    # Im S both >= 10 h ln(1/h), same sign: vertical segment nonempty
    p = params()
    lvl = 12 * p.h * np.log(1.0 / p.h)
    am = ActionModel([1j * lvl], [1j * 1.5 * lvl])
    sk, _ = assemble(p, am)
    assert sk.gamma_vertical is not None
    assert sk.gamma_vertical[1] > 8 * p.h
    assert len(sk.diamonds) >= 1
    # tiny actions: S' dips to the real axis and the segment is empty
    am0 = ActionModel([1e-6j], [1e-6j])
    sk0, _ = assemble(p, am0)
    assert sk0.gamma_vertical is None or sk0.gamma_vertical[1] < 8 * p.h


def test_body_membership_monotone():
    p = params()
    am = physical_model(7)
    sk, body10 = assemble(p, am, C_body=10.0)
    body20 = Body(skeleton=sk, C=20.0, p=p)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.2, 0.2, 200) + 1j * rng.uniform(-0.05, 0.05, 200)
    for mu in pts:
        if body10.contains(mu):
            assert body20.contains(mu)


def _body_contains_reference(body, mu):
    """Body.contains as it was: the samples and radii of every disc
    recomputed at each point."""
    mu = complex(mu)
    xs, ys = body.skeleton.all_samples()
    d2 = (xs - mu.real) ** 2 + (ys - mu.imag) ** 2
    rad = body.C * body.p.h / np.log(1.0 / mu_h_norm(xs + 1j * ys, body.p.h))
    if np.any(d2 <= rad ** 2):
        return True
    if abs(mu.real) < body.C * body.p.h:
        low = body.skeleton.lower(mu.real)
        if not np.isnan(low) and mu.imag <= low:
            return True
    return body.in_B_v(mu) or body.in_B_e(mu)


@pytest.mark.parametrize("C", [10.0, -5.0])
def test_body_contains_equals_per_point_reference(monkeypatch, C):
    # the discs are computed once per body, and each answer is the one
    # the per-point form gives (a negative C squares its radius too)
    p = params()
    sk, _ = assemble(p, physical_model(7))
    body = Body(skeleton=sk, C=C, p=p)
    rng = np.random.default_rng(5)
    xs, ys = (v[::7] for v in sk.all_samples())
    near = xs + 1j * (ys + rng.normal(scale=3 * p.h, size=len(xs)))
    pts = np.concatenate([near, rng.uniform(-0.2, 0.2, 300)
                          + 1j * rng.uniform(-0.05, 0.05, 300)])
    want = [_body_contains_reference(body, mu) for mu in pts]
    calls = []
    all_samples = skeleton.Skeleton.all_samples
    monkeypatch.setattr(skeleton.Skeleton, "all_samples",
                        lambda self: calls.append(1) or all_samples(self))
    assert [body.contains(mu) for mu in pts] == want
    assert len(calls) == 1
    assert 0 < sum(want) < len(want)


def test_case1_case2_skeleton_distance():
    p = params()
    am = physical_model(11)
    sk1, _ = assemble(p, am)
    # the case-2 curves of am are the reflections y -> -y of the case-1
    # curves of the mirrored model
    skm, _ = assemble(p, ActionModel(np.conj(am.s12), np.conj(am.s34)))
    for x in [0.1, 0.15, 0.2, -0.12, -0.18]:
        y1u, y2u = sk1.upper(x), -skm.lower(x)
        y1l, y2l = sk1.lower(x), -skm.upper(x)
        if np.isnan(y1u) or np.isnan(y2u):
            continue
        bound = 10 * (p.h / np.log(1.0 / mu_h_norm(x, p.h))) \
            * np.exp(-2 * np.pi * abs(x) / p.h) + 1e-8
        assert abs(y1u - y2u) <= bound
        assert abs(y1l - y2l) <= bound


def test_gamma34_combined_vs_pm():
    # the |a3| = |a4| curve is within (C h/ln) ln(h/d) of gamma_{3,4+}
    from scipy.optimize import brentq
    p = SemiclassicalParams(h=1e-2, epsilon=0.0)
    am = ActionModel([0.03j], [0.025j])

    def y_combined(x):
        def g(y):
            ts = term_set(complex(x, y), p, am)
            l4p, l4m = ts["4+"], ts["4-"]
            m = max(l4p.real, l4m.real)
            comb = m + np.log(abs(np.exp(l4p - m) + np.exp(l4m - m)))
            return p.h * ts["3"].real - p.h * comb
        return brentq(g, -1.5 * p.h, 10 * p.h, xtol=1e-14)

    for x in [0.5 * p.h, 1.5 * p.h, 3 * p.h]:
        yc = y_combined(x)
        c = trace_gamma("3,4+", p, am, (x - 1e-4, x + 1e-4))
        yp = np.interp(x, c.xs, c.ys)
        n = mu_h_norm(complex(x, yc), p.h)
        d = max(p.h / np.log(1.0 / n), abs(x))  # distance to a4 zeros line
        bound = 10 * p.h / np.log(1.0 / n) * max(np.log(p.h / min(d, p.h / 2)), 1.0)
        assert abs(yc - yp) <= bound


def test_exceptional_box():
    p = params()
    am = physical_model(13)
    _, body = assemble(p, am)
    a, b = body.exceptional_box()
    w = p.width
    assert a == pytest.approx(skeleton.BOX_C * w)
    assert b == pytest.approx(skeleton.BOX_C * w / abs(np.log(w)))
    # the box contains the crossing points
    if body.skeleton.mu_A is not None:
        assert body.in_exceptional_box(body.skeleton.mu_A)
    if body.skeleton.mu_B is not None:
        assert body.in_exceptional_box(body.skeleton.mu_B)
    assert body.in_exceptional_box(0.0)
    assert not body.in_exceptional_box(a + b * 1j + 0.1)


def test_export_roundtrip(tmp_path):
    from branchspec.skeleton import export_csv, export_json
    p = params()
    am = physical_model(17)
    sk, body = assemble(p, am)
    csv_path = tmp_path / "sk.csv"
    export_csv(csv_path, sk.s_prime)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "curve_label,x,y,regime"
    assert len(lines) > 100
    doc = export_json(tmp_path / "sk.json", sk, body)
    assert doc["schema_version"] == 1
    assert doc["body_constant"] == 10.0


def _find_crossings_reference(p, am, x_max=skeleton.WORK_DISK - 0.02):
    """find_crossings with its original bisection: 60 full steps and a
    fresh curve solve at the final midpoint.  Oracle for the fixed-point
    early stop."""
    curve = trace_gamma("1,4-", p, am, (-x_max, x_max))
    mu = curve.xs + 1j * curve.ys

    def residual(m):
        return skeleton.curve_residual("1,4-", m, p, am)

    def crossing(sign):
        vals = -2 * np.pi * curve.xs - sign * (
            np.imag(am.S12(mu)) - np.imag(am.S34(mu)))
        exact = np.flatnonzero(vals == 0.0)
        if len(exact):
            return complex(curve.xs[exact[0]], curve.ys[exact[0]])
        idx = np.flatnonzero(np.diff(np.sign(vals)) != 0)
        if len(idx) == 0:
            return None
        lo, hi = float(curve.xs[idx[0]]), float(curve.xs[idx[0] + 1])

        def line_val(x):
            m = complex(x, skeleton._solve_one(residual, x, p.h))
            return -2 * np.pi * x - sign * (np.imag(am.S12(m))
                                            - np.imag(am.S34(m)))

        flo = line_val(lo)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = line_val(mid)
            if np.sign(fmid) == np.sign(flo):
                lo, flo = mid, fmid
            else:
                hi = mid
        x_star = 0.5 * (lo + hi)
        return complex(x_star, skeleton._solve_one(residual, x_star, p.h))

    return crossing(+1.0), crossing(-1.0)


@settings(derandomize=True, max_examples=8, deadline=None)
@given(seed=st.integers(0, 2 ** 20), h=st.sampled_from([1e-3, 3e-4]))
def test_crossings_bitwise_equal_to_full_bisection(seed, h):
    p = params(h=h)
    am = physical_model(seed)
    # repr is exact for doubles and tells -0.0 from 0.0
    assert repr(find_crossings(p, am, _full_trace(p, am))) \
        == repr(_find_crossings_reference(p, am))


def _recording_newton(monkeypatch, fail=lambda x: False):
    """Route skeleton._newton_y through a wrapper that records every
    abscissa it is given and reports those with fail(x) unconverged."""
    solved = []
    newton = skeleton._newton_y

    def recorded(residual, xs, h, **kwargs):
        solved.extend(np.asarray(xs).tolist())
        ys, ok = newton(residual, xs, h, **kwargs)
        return ys, ok & ~np.array([fail(x) for x in np.asarray(xs)], bool)

    monkeypatch.setattr(skeleton, "_newton_y", recorded)
    return solved


def _full_trace(p, am, x_max=skeleton.WORK_DISK - 0.02):
    return trace_gamma("1,4-", p, am, (-x_max, x_max))


def test_crossings_reuse_the_fixed_point_solve(monkeypatch):
    # the bisection ends when the midpoint equals a bracket end; the
    # crossing is that end's curve point, solved once as a midpoint, and
    # no closing solve follows
    p = params()
    am = physical_model(0)
    curve = _full_trace(p, am)
    solved = _recording_newton(monkeypatch)

    def closing(residual, x, h):
        raise AssertionError(f"closing solve at x={x}")

    monkeypatch.setattr(skeleton, "_solve_one", closing)
    crossings = find_crossings(p, am, curve=curve)
    assert all(mu is not None for mu in crossings)
    assert [solved.count(mu.real) for mu in crossings] == [1, 1]
    monkeypatch.undo()
    assert repr(crossings) == repr(_find_crossings_reference(p, am))


def test_crossings_ignore_unvisited_failures(monkeypatch):
    # a lookahead midpoint that the walk never visits was never solved by
    # the one-at-a-time bisection, so its failure must not raise
    p = params()
    am = physical_model(0)
    curve = _full_trace(p, am)
    want = find_crossings(p, am, curve=curve)
    # one level per round: the batches hold exactly the visited midpoints
    monkeypatch.setattr(skeleton, "LOOKAHEAD", 1)
    visited = _recording_newton(monkeypatch)
    assert repr(find_crossings(p, am, curve=curve)) == repr(want)
    monkeypatch.undo()
    visited = set(visited)
    solved = _recording_newton(monkeypatch, fail=lambda x: x not in visited)
    assert repr(find_crossings(p, am, curve=curve)) == repr(want)
    assert len(set(solved) - visited) > len(visited)


def test_crossings_raise_for_a_visited_failure(monkeypatch):
    # the first midpoint of the first bracket is always visited
    p = params()
    am = physical_model(0)
    curve = _full_trace(p, am)
    first = []
    newton = skeleton._newton_y

    def first_fails(residual, xs, h, **kwargs):
        ys, ok = newton(residual, xs, h, **kwargs)
        if not first:
            first.append((float(xs[0]), float(ys[0])))
            ok[0] = False
        return ys, ok

    monkeypatch.setattr(skeleton, "_newton_y", first_fails)
    with pytest.raises(NoConvergence) as info:
        find_crossings(p, am, curve=curve)
    x, y = first[0]
    assert info.value.last == y
    assert str(x) in str(info.value)
    assert abs(info.value.residual) <= 1e-12


@pytest.mark.parametrize("seed", [0, 17, 23])
def test_assemble_left_piece_is_its_own_trace(seed):
    # assemble cuts the left 1,4- piece from the full trace it gives
    # find_crossings; it must be the trace of the piece's own range
    p = params()
    am = physical_model(seed)
    sk, _ = assemble(p, am)
    xc = next((mu.real for mu in (sk.mu_A, sk.mu_B)
               if mu is not None and mu.real <= 0), 0.0)
    x_max = skeleton.WORK_DISK - 0.02
    own = trace_gamma("1,4-", p, am, (-x_max, min(xc, -1e-6 * p.h)))
    piece = next(pc for pc in sk.s_prime if pc.label == "left_1,4-")
    assert piece.xs.tobytes() == own.xs.tobytes()
    assert piece.ys.tobytes() == own.ys.tobytes()


# SHA-256 of the export_csv and export_json bytes of assemble(params(h),
# physical_model(seed)), recorded with one Gamma trace per piece and a
# one-point solve per bisection step; the export_json hashes include the
# calibration block it embeds, as in the CLI's skeleton.json.  The bits
# rest on numpy's float64 log, exp and trig loops, so a different numpy
# build may need new values.
EXPORT_SHA256 = {
    (3e-4, 0): ("c3338fe8e1b78ce6c6a4024ddfea49ae3bbc2b80a50176ce9532aeeea855e82e",
                "567d573ac031e141ecd93beefd085a7e7371677a000068875c85ae97287a9124"),
    (3e-4, 17): ("7f4dcb2574a26c978d8f89e7d75ca5b9d912419e59adc05bdf4831e8e7e8efd7",
                 "81a70eac40ac0363996663a6b832687f9d9d80febe7c85eeb425123c94010418"),
    (3e-4, 23): ("1ef4fd12dc107c95b72d99a804306aa3126613108738143474ffe84a85282698",
                 "3046bd1ca6013965990e826b7652c32bdcf836fc16dbce49cc02c38a1daf2b13"),
    (1e-3, 0): ("38a58fc578005eb99b70022fbf03fd425dba8ee3776c9c6bdf161a7d34970ccd",
                "dbb3cb33684e38647b2899bc36f8af11ce03e8785d5d4d47befaccd98c9316e5"),
    (1e-3, 17): ("8525a92e2e2a08b06fbe899e7d9af86a72ecf70560abf9fa965519bda1d86759",
                 "2a73e56e3eacd220e94c4bc467e1cf174450c9a0f9dcc3307047d488cb703aad"),
    (1e-3, 23): ("aaecf9898ba176ded69342b225f652fe8352d8e83e54bf898c10e7d0b2291462",
                 "1e5c75f04b40a94ac78f65ad1b0d366d7acc4e6e243f4c2dc9cb5b3ccfc683bd"),
}


@pytest.mark.parametrize("h, seed", sorted(EXPORT_SHA256))
def test_assemble_export_bytes(tmp_path, h, seed):
    sk, body = assemble(params(h=h), physical_model(seed))
    export_csv(tmp_path / "sk.csv", sk.s_prime)
    export_json(tmp_path / "sk.json", sk, body)
    got = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("sk.csv", "sk.json"))
    assert got == EXPORT_SHA256[h, seed]


def _export_csv_reference(path, pieces):
    """export_csv as one csv.writer row per sample."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["curve_label", "x", "y", "regime"])
        for pc in pieces:
            for x, y in zip(pc.xs, pc.ys):
                w.writerow([pc.label, repr(float(x)), repr(float(y)),
                            "assembled"])


def test_export_csv_equals_csv_writer(tmp_path):
    rng = np.random.default_rng(4)
    xs = np.concatenate([[-0.0, 0.0, 1e-300, 5e-324, -1.0 / 3, np.inf],
                         rng.normal(scale=0.1, size=50)])
    ys = np.concatenate([[0.0, -0.0, np.nan, 1e22, 2.0 ** 60, -np.inf],
                         rng.normal(scale=0.01, size=50)])
    curves = [CurvePiece("right_upper", xs, ys),
              CurvePiece("left_1,4-", ys[:20], xs[:20]),
              CurvePiece('say "a,b"', xs[:3], ys[:3]),
              CurvePiece("empty", xs[:0], ys[:0])]
    export_csv(tmp_path / "got.csv", curves)
    _export_csv_reference(tmp_path / "want.csv", curves)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert b'\r\n"left_1,4-",' in got and b",-0.0," in got


def _default_steps_reference(p, x_lo, x_hi):
    """default_steps as a numpy-scalar recurrence, before it moved to
    Python floats."""
    h = p.h
    xs = [x_lo]
    while xs[-1] < x_hi:
        x = xs[-1]
        xs.append(x + h / (4.0 * np.log(1.0 / mu_h_norm(x, h))))
    xs[-1] = x_hi
    return np.array(xs)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(h=st.floats(1e-4, 1e-2), a=st.floats(-0.3, 0.3),
       b=st.floats(-0.3, 0.3))
# math.log in place of np.log moves a sample of this range by one ulp
@example(h=0.004284403649780654, a=0.11322145859240818,
         b=0.27249910194012367)
def test_default_steps_bitwise_equal_to_numpy_recurrence(h, a, b):
    p = SemiclassicalParams(h=h, epsilon=0.0)
    x_lo, x_hi = min(a, b), max(a, b)
    got = default_steps(p, x_lo, x_hi)
    assert got.tobytes() == _default_steps_reference(p, x_lo, x_hi).tobytes()
