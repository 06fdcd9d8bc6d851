"""Regime selection, term sets, G evaluation, quantization residual, BS roots."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from branchspec import quantization
from branchspec.errors import (
    BranchspecError,
    NoConvergence,
    RegimeError,
    SectorEscape,
)
from branchspec.quantization import (
    ActionModel,
    BSBranch,
    GrushinVariant,
    Regime,
    SemiclassicalParams,
    _log_terms,
    bohr_sommerfeld_solve,
    choose_regime,
    det_E_minus_plus,
    eval_G,
    quantization_residual,
    term_set,
)
from branchspec.scaled import sum_exp_many
from branchspec.specfun import (
    LOG_SQRT_2PI,
    StirlingRegime,
    _angdist,
    _remainder,
    log_gamma,
    stirling_remainder,
)
from branchspec.transition import exact_matrix, renormalize

ZERO_AM = ActionModel([0.0], [0.0])


def params(h=0.001, eps=0.0):
    return SemiclassicalParams(h=h, epsilon=eps)


def _forced(mu, p, am, regime):
    """G in one given regime, as eval_G evaluates a one-regime batch."""
    mu = np.asarray(mu, dtype=complex)
    vals, offs = sum_exp_many(_log_terms(mu.ravel(), p, am, regime)[0], p.h)
    return vals.reshape(mu.shape), offs.reshape(mu.shape)


def _bs_solve(branch, k, p, am):
    """bohr_sommerfeld_solve of the one-k family from k's own bs_seeds
    seed; raises the error the solve ends in."""
    seeds = quantization.bs_seeds(branch, [k], p, am)
    r, = bohr_sommerfeld_solve(branch, [k], p, am, seeds)
    if isinstance(r, BranchspecError):
        raise r
    return r


def test_choose_regime_examples():
    p = params(h=0.001)
    assert choose_regime(0.1, p) is Regime.Case1Large
    assert choose_regime(0.003j, p) is Regime.Case1Small
    assert choose_regime(-0.1j, p) is Regime.Case2Large
    assert choose_regime(-0.003j, p) is Regime.Case2Small
    assert choose_regime(0.0, p) is Regime.Case1Small
    with pytest.raises(RegimeError):
        choose_regime(complex(np.nan, 0.0), p)
    # one ulp either side of the sector edges arg mu = -pi/2 -+ 1/C and of
    # |mu| = C1 h, and the four signed zeros: choose_regime names the form
    # whose one-point sum eval_G returns, bit for bit
    am = ActionModel([0.02, 0.3 + 0.01j], [0.01j, -0.2])
    rs = quantization.SMALL_C1 * p.h
    radii = [np.nextafter(rs, 0), rs, np.nextafter(rs, 1), 0.5 * rs, 5 * rs]
    mus = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
    mus += [sgn * r for r in radii for sgn in (1, -1, 1j, -1j)]
    for edge in (-np.pi / 2 - _EDGE, -np.pi / 2 + _EDGE):
        for th in (np.nextafter(edge, -4), edge, np.nextafter(edge, 4)):
            mus += [r * np.exp(1j * th) for r in radii]
    seen = set()
    for mu in mus:
        regime = choose_regime(mu, p)
        seen.add(regime)
        want = _bits(_forced([mu], p, am, regime))
        assert _bits(eval_G(np.array([mu]), p, am)) == want, (mu, regime)
    assert seen == set(Regime)


def test_rate_example_and_sum_rule():
    # mu = 0.2, h = 0.01, zero actions: r2 = r3 = (pi/2) * 0.2,
    # r4+ = pi * 0.2 + Y(mu), and r2 + r3 = r1 + r4+.
    p = params(h=0.01)
    ts = term_set(0.2, p, ZERO_AM)
    assert choose_regime(0.2, p) is Regime.Case1Large
    assert p.h * ts["2"].real == pytest.approx(np.pi / 2 * 0.2, abs=1e-12)
    assert p.h * ts["3"].real == pytest.approx(np.pi / 2 * 0.2, abs=1e-12)
    # Y(mu) = Re mu arg(-i mu) - Im mu + h Re(remainder), minus branch
    y = 0.2 * np.angle(-0.2j) + p.h * stirling_remainder(
        0.2, p.h, StirlingRegime.MinusBranch).real
    assert p.h * ts["4+"].real == pytest.approx(np.pi * 0.2 + y, abs=1e-12)
    lhs = p.h * ts["2"].real + p.h * ts["3"].real
    rhs = p.h * ts["1"].real + p.h * ts["4+"].real
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_sum_rule_small_regime():
    p = params(h=0.01)
    am = ActionModel([0.05j], [0.02j])
    ts = term_set(0.03 + 0.01j, p, am)
    assert choose_regime(0.03 + 0.01j, p) is Regime.Case1Small
    assert p.h * ts["2"].real + p.h * ts["3"].real == pytest.approx(
        p.h * ts["1"].real + p.h * ts["4+"].real, abs=1e-12)


def test_factorization_identity_case1():
    # a1 a4+ = a2 a3 holds exactly in log space
    p = params(h=0.01)
    am = ActionModel([0.1, 0.2j], [0.03, -0.1])
    mus = np.array([0.2, 0.1 + 0.03j, -0.12 + 0.05j])
    logs, labels = _log_terms(mus, p, am, Regime.Case1Large)
    assert labels == ("1", "2", "3", "4+", "4-")
    lhs = logs[0] + logs[3]
    rhs = logs[1] + logs[2]
    assert (abs(lhs - rhs) <= 1e-10 * np.maximum(1.0, abs(lhs))).all()


def test_a4_vanishes_on_cosh_ladder():
    p = params(h=0.001)
    mu = 1j * 3.5 * p.h
    ts = term_set(mu, p, ZERO_AM)
    a4 = np.exp(ts["4+"]) + np.exp(ts["4-"])
    assert abs(a4) <= 1e-10 * abs(np.exp(ts["4+"]))


def test_regime_overlap_consistency():
    # all four representations are exact rewritings of the same G
    p = params(h=0.01)
    am = ActionModel([0.05, 0.1j], [0.02, -0.05])
    mu = 0.05  # |mu|/h = 5: small by selection, all four admissible
    gs = [_forced([mu], p, am, r) for r in Regime]
    ref_v, ref_o = gs[0]
    for v, o in gs[1:]:
        num = v * np.exp((o - ref_o) / p.h)
        assert abs(num - ref_v) <= 1e-6 * abs(ref_v)
        # in fact exact rewriting: much tighter
        assert abs(num - ref_v) <= 1e-10 * abs(ref_v)


def test_conjugation_symmetry_zero_actions():
    # with S = 0, |G(conj mu)| = |G(mu)| (case 1 <-> case 2 reflection)
    p = params(h=0.01)
    for mu in [0.05 + 0.02j, -0.08 + 0.03j, 0.15 + 0.1j]:
        v1, o1 = eval_G(np.array([mu]), p, ZERO_AM)
        v2, o2 = eval_G(np.array([np.conj(mu)]), p, ZERO_AM)
        log1 = np.log(abs(v1[0])) + o1[0] / p.h
        log2 = np.log(abs(v2[0])) + o2[0] / p.h
        assert log1 == pytest.approx(log2, abs=1e-8)


def test_eval_g_vectorized_matches_scalar():
    p = params(h=0.005)
    am = ActionModel([0.02 + 0.01j, 0.3], [0.05, -0.1])
    mus = np.array([0.2, 0.03 + 0.01j, -0.1 - 0.05j, -0.002j, 0.25j])
    vals, offs = eval_G(mus, p, am)
    for i, mu in enumerate(mus):
        v, o = eval_G(mus[i:i + 1], p, am)
        assert offs[i] == pytest.approx(o[0], abs=1e-12)
        assert vals[i] == pytest.approx(v[0], rel=1e-12)


def _coeffs_theta(mu, p, d=(0, 0, 0, 0)):
    tm = exact_matrix(mu, p.h)
    return renormalize(tm, d)


def test_residual_proportional_to_F():
    # residual = -exp(-i theta14/h) * exp(pi mu/(2h)) * G, checked at
    # 20 random mu with random renormalization phases
    rng = np.random.default_rng(21)
    p = params(h=0.01)
    am = ActionModel([0.04, 0.2j], [0.01, -0.3])
    for _ in range(20):
        mu = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.05, 0.25))
        if abs(mu) < 3 * p.h:
            continue
        d = tuple(rng.uniform(-0.5, 0.5, 4) + 1j * p.h * rng.uniform(-1, 1, 4))
        rc = _coeffs_theta(mu, p, d)
        res = quantization_residual(mu, p, am, rc, (0.0, 0.0))
        (g_value,), (g_offset,) = eval_G(np.array([mu]), p, am)
        diff = (np.log(res.value) - np.log(-g_value)
                + (res.offset - g_offset) / p.h
                - np.pi * mu / (2 * p.h) + 1j * rc.theta(1, 4) / p.h)
        diff -= 2j * np.pi * np.round(diff.imag / (2 * np.pi))
        assert abs(np.expm1(diff)) <= 1e-9


def test_residual_floquet_periodicity():
    p = params(h=0.02)
    am = ActionModel([0.1], [0.05])
    mu = 0.11 + 0.01j
    rc = _coeffs_theta(mu, p)
    r0 = quantization_residual(mu, p, am, rc, (0.13, -0.4))
    r1 = quantization_residual(mu, p, am, rc, (1.13, -0.4))
    assert r1.value * np.exp((r1.offset - r0.offset) / p.h) == \
        pytest.approx(r0.value, rel=1e-10)


def test_det_E_identities():
    rng = np.random.default_rng(4)
    p = params(h=0.01)
    am = ActionModel([0.03, 0.1j], [0.06, -0.2j])
    theta = (0.21, -0.37)
    for _ in range(20):
        mu = complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.02, 0.2))
        if abs(mu) < 3 * p.h:
            continue
        d = tuple(rng.uniform(-0.3, 0.3, 4))
        rc = _coeffs_theta(mu, p, d)
        par = quantization_residual(mu, p, am, rc, theta)
        up = det_E_minus_plus(GrushinVariant.UpperGrushin, mu, p, rc, theta, am)
        lo = det_E_minus_plus(GrushinVariant.LowerGrushin, mu, p, rc, theta, am)
        # up * c23 = parenthesis
        up_back = np.log(up.value) + up.offset / p.h + rc.log_c23
        ref = np.log(par.value) + par.offset / p.h
        d1 = up_back - ref
        d1 -= 2j * np.pi * np.round(d1.imag / (2 * np.pi))
        assert abs(np.expm1(d1)) <= 1e-12
        # lo * c14 * e^{2 pi i (th~1+th~2)} = parenthesis
        s12, s34 = am.S12(mu), am.S34(mu)
        raw12 = s12 - rc.theta(1, 2) - 2 * np.pi * p.h * theta[1] - p.h * np.pi / 2
        raw34 = s34 - rc.theta(3, 4) - 2 * np.pi * p.h * theta[0] - p.h * np.pi / 2
        tw = 2j * np.pi * (theta[0] + theta[1]) + 1j * (raw12 + raw34) / p.h
        lo_back = np.log(lo.value) + lo.offset / p.h + rc.log_c14 + tw
        d2 = lo_back - ref
        d2 -= 2j * np.pi * np.round(d2.imag / (2 * np.pi))
        assert abs(np.expm1(d2)) <= 1e-12


def test_bs_leftint_root_and_spacing():
    p = params(h=0.01)
    root = None
    # pick k so the root lands near mu ~ 0.1
    target = 0.1 * np.log(0.1) - 0.1 + np.pi * p.h / 4
    k = int(np.round(target / (2 * np.pi * p.h) - 0.5))
    r1 = _bs_solve(BSBranch.LeftInt, k, p, ZERO_AM)
    r2 = _bs_solve(BSBranch.LeftInt, k - 1, p, ZERO_AM)
    assert r1.residual <= 1e-12 and r2.residual <= 1e-12
    lhs = r1.mu * np.log(r1.mu) - r1.mu + np.pi * p.h / 4
    assert abs(lhs - 2 * np.pi * p.h * (k + 0.5)) <= 1e-4
    # spacing ~ 2 pi h / ln(1/mu); mu ln mu decreasing here so k-1 sits above
    gap = abs(r2.mu - r1.mu)
    assert gap == pytest.approx(2 * np.pi * p.h / np.log(1.0 / abs(r1.mu)),
                                rel=0.15)


def test_bs_ext_imaginary_part_small():
    p = params(h=0.01)
    am = ActionModel([0.0], [0.0])
    target = 2 * (-0.1) * (np.log(0.1) - 1) + np.pi * p.h / 2
    k = int(np.round(target / (2 * np.pi * p.h) - 0.5))
    r = _bs_solve(BSBranch.Ext, k, p, am)
    assert r.mu.real < 0
    # only imaginary source is the exponentially small remainder
    bound = 10 * p.h * np.exp(-2 * np.pi * abs(r.mu.real) / p.h) + 1e-12
    assert abs(r.mu.imag) <= bound


def test_bs_monotone_in_k_with_positive_derivative():
    # derivative ln(mu) + S' must be positive for the monotonicity claim;
    # S = 4 mu gives ln(mu) + 4 > 0 on mu > e^-4
    p = params(h=0.01)
    am = ActionModel([0.0, 4.0], [0.0, 4.0])
    base = 0.1 * np.log(0.1) - 0.1 + 4 * 0.1 + np.pi * p.h / 4
    k0 = int(np.round(base / (2 * np.pi * p.h) - 0.5))
    roots = [_bs_solve(BSBranch.RightInt, k, p, am)
             for k in range(k0, k0 + 4)]
    for r in roots:
        assert np.log(abs(r.mu)) + 4.0 > 0
    res = [r.mu.real for r in roots]
    assert all(b > a for a, b in zip(res, res[1:]))


def test_bs_no_real_seed_raises_no_convergence():
    # no sign change of the phase on the seed grid: nothing to iterate
    p = params(h=0.01)
    with pytest.raises(NoConvergence) as info:
        _bs_solve(BSBranch.LeftInt, 10 ** 6, p, ZERO_AM)
    assert info.value.last is None


def test_bs_sector_escape_raises():
    # a real seed far from any root of this k: Newton leaves the sector
    p = params(h=0.01)
    r, = bohr_sommerfeld_solve(BSBranch.LeftInt, [-40], p, ZERO_AM, [0.016])
    assert isinstance(r, SectorEscape)
    last = r.last
    assert last is not None
    assert not quantization._in_sector(BSBranch.LeftInt, last, p)


def test_exponent_geometry_identities():
    # Y = Re mu arg(-i mu) - Im mu + h Re(remainder, minus branch) and
    # Ytilde = Re mu arg(i mu) - Im mu - h Re(remainder, plus branch)
    p = params(h=0.01)
    for mu in [0.1, 0.08 + 0.03j, -0.12 + 0.04j, -0.07 - 0.02j]:
        mu = complex(mu)
        rm = stirling_remainder(mu, p.h, StirlingRegime.MinusBranch)
        rp = stirling_remainder(mu, p.h, StirlingRegime.PlusBranch)
        y = mu.real * np.angle(-1j * mu) - mu.imag + p.h * rm.real
        yt = mu.real * np.angle(1j * mu) - mu.imag - p.h * rp.real
        # Ytilde - Y = +- pi Re mu + O(h e^{-2 pi |Re mu|/h}) in the
        # sectors |arg(+-mu)| <= pi/2 - 1/C
        if abs(np.real(mu)) >= abs(np.imag(mu)):
            sign = 1.0 if np.real(mu) > 0 else -1.0
            err = yt - y - sign * np.pi * np.real(mu)
            bound = 100 * p.h * np.exp(-2 * np.pi * abs(np.real(mu)) / p.h)
            assert abs(err) <= max(bound, 1e-13)


def test_g_sign_change_near_skeleton_curve():
    # log|G| changes sign (relative to the balanced pair) across the
    # gamma_{2,4+} curve within C h / ln(1/|mu|)
    from branchspec.skeleton import trace_gamma
    p = params(h=0.001, eps=3e-2)
    am = ActionModel([0.01 + 0.012j, 0.2], [0.015 + 0.025j, -0.1])
    x0 = 0.12
    curve = trace_gamma("2,4+", p, am, (x0 - 1e-3, x0 + 1e-3))
    y_curve = np.interp(x0, curve.xs, curve.ys)
    # along a vertical segment the dominant-term switch (rate of a2 vs
    # rate of a4+) happens at the curve
    ys = np.linspace(y_curve - 0.01, y_curve + 0.01, 801)
    diffs = []
    for y in ys:
        ts = term_set(complex(x0, y), p, am)
        diffs.append(p.h * ts["2"].real - p.h * ts["4+"].real)
    diffs = np.array(diffs)
    crossings = ys[:-1][np.diff(np.sign(diffs)) != 0]
    assert len(crossings) >= 1
    tol = 10 * p.h / np.log(1.0 / x0)
    assert min(abs(c - y_curve) for c in crossings) <= tol


def test_bs_ext_generator_continuous_at_zero():
    # the Ext generating function minus 2 mu ln(-mu) extends continuously
    # to mu = 0 along the negative real axis
    p = params(h=0.01)
    am = ActionModel([0.03, 0.1], [0.02, -0.05])
    from branchspec.quantization import _bs_target
    xs = -np.geomspace(1e-6, 0.1, 40)
    vals = []
    for x in xs:
        mu = complex(x)
        t = _bs_target(BSBranch.Ext, mu, p, am, 0) + 2 * np.pi * p.h * 0.5
        vals.append(t - 2 * mu * (np.log(-mu) - 1))
    vals = np.array(vals)
    # limit along the axis exists: values near 0 cluster tightly
    near = vals[np.abs(xs) < 1e-4]
    assert np.max(np.abs(near - near[-1])) <= 1e-3


def test_band_localization_envelope_for_zeros():
    # all located zeros satisfy the band envelope with one calibrated C
    from branchspec.skeleton import mu_h_norm
    from branchspec.zerocount import GProvider, locate_zeros
    p = params(h=0.01, eps=3e-2)
    am = ActionModel([0.01 + 0.012j, 0.3], [0.02 + 0.02j, -0.2])
    prov = GProvider(p, am)
    zs = locate_zeros(prov.normalized_G, (0.05, 0.3, -0.06, 0.06), p)
    assert len(zs) >= 8
    w = p.width
    for z in zs.zeros:
        mu = z.location
        bound = 10 * w * max(1.0 / np.log(1.0 / mu_h_norm(mu.real, p.h)),
                             1.0 / np.log(1.0 / w))
        assert abs(mu.imag) <= bound


def test_factored_form_reproduces_eval_g():
    # G = a4+ (1 + a2/a4+)(1 + a3/a4+) + a4- in the case-1 large regime
    p = params(h=0.01)
    am = ActionModel([0.04, 0.2j], [0.01, -0.3])
    mus = np.array([0.15, 0.1 + 0.02j, 0.2 - 0.01j])
    (_, l2, l3, l4p, l4m), _ = _log_terms(mus, p, am, Regime.Case1Large)
    f1 = 1.0 + np.exp(l2 - l4p)
    f2 = 1.0 + np.exp(l3 - l4p)
    tail = np.exp(l4m - l4p)
    vals, offs = _forced(mus, p, am, Regime.Case1Large)
    factored = (f1 * f2 + tail) * np.exp(l4p - offs / p.h)
    assert factored == pytest.approx(vals, rel=1e-12)


def _bs_solve_reference(branch, k, p, am, x_max=0.45, max_iter=60, tol=1e-12):
    """The BS solver with its original seed bisection: 60 full steps, each
    evaluating the target at both mid and lo.  Oracle for the
    fixed-point early stop of bohr_sommerfeld_solve."""
    f = quantization._bs_target
    h = p.h
    sgn = -1.0 if branch is BSBranch.Ext else 1.0
    xs = sgn * np.geomspace(1.8 * h, x_max, 400)
    vals = np.real(f(branch, xs + 0j, p, am, k))
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if len(sign_change) == 0:
        raise NoConvergence("no real seed", last=None)
    i = sign_change[0]
    lo, hi = xs[i], xs[i + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.sign(np.real(f(branch, mid + 0j, p, am, k))) == \
                np.sign(np.real(f(branch, lo + 0j, p, am, k))):
            lo = mid
        else:
            hi = mid
    mu = complex(0.5 * (lo + hi))
    delta = h * 1e-3
    for it in range(max_iter):
        fv = f(branch, mu, p, am, k)
        if abs(fv) <= tol:
            return mu, abs(fv), it
        step = fv / ((f(branch, mu + delta, p, am, k)
                      - f(branch, mu - delta, p, am, k)) / (2 * delta))
        max_step = 0.2 * max(abs(mu), h)
        if abs(step) > max_step:
            step *= max_step / abs(step)
        mu = mu - step
        if not quantization._in_sector(branch, mu, p):
            raise SectorEscape("left its sector", last=mu)
    raise NoConvergence("did not converge", last=mu)


def _physical(seed, eps):
    rng = np.random.default_rng(seed)
    im = eps * rng.uniform(0.2, 1.0, 2)
    re = rng.uniform(-0.05, 0.05, 2)
    sl = rng.uniform(-0.3, 0.3, 2)
    return ActionModel([re[0] + 1j * im[0], sl[0]],
                       [re[1] + 1j * im[1], sl[1]])


def _k_near(branch, x, p, am):
    """The index k whose leading-equation root lies near |Re mu| = x."""
    sgn = -1.0 if branch is BSBranch.Ext else 1.0
    phase = quantization._bs_target(branch, sgn * x + 0j, p, am, -0.5).real
    return int(np.round(phase / (2 * np.pi * p.h) - 0.5))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 20),
       h=st.sampled_from([1e-2, 1e-3, 3e-4]),
       x=st.floats(0.004, 0.3),
       dk=st.integers(-2, 2),
       branch=st.sampled_from(list(BSBranch)))
def test_bs_roots_bitwise_equal_to_full_bisection(seed, h, x, dk, branch):
    p = params(h=h, eps=3e-2)
    am = _physical(seed, p.epsilon)
    k = _k_near(branch, x, p, am) + dk
    try:
        want = _bs_solve_reference(branch, k, p, am)
    except BranchspecError as exc:
        with pytest.raises(type(exc)) as got:
            _bs_solve(branch, k, p, am)
        if exc.last is not None:
            assert got.value.last == exc.last
        return
    r = _bs_solve(branch, k, p, am)
    # repr is exact for doubles and tells -0.0 from 0.0
    assert repr((r.mu, r.residual, r.iterations)) == repr(want)


@pytest.mark.parametrize("branch", list(BSBranch))
def test_bs_seed_bisection_call_budget(branch, monkeypatch):
    p = params(h=1e-3, eps=3e-2)
    am = _physical(4, p.epsilon)
    phase = quantization._bs_phase
    calls = []

    # every evaluation, scalar target or array grid and bisection step,
    # goes through the phase
    def counting(br, mu, *args):
        calls.append(mu)
        return phase(br, mu, *args)

    monkeypatch.setattr(quantization, "_bs_phase", counting)
    for x in (0.01, 0.05, 0.2):
        calls.clear()
        r = _bs_solve(branch, _k_near(branch, x, p, am), p, am)
        # Newton: three evaluations per iteration plus the converged one
        assert len(calls) - (3 * r.iterations + 1) <= 64


def _cubic(seed, eps):
    """_physical plus complex quadratic and cubic terms in both actions,
    so that every Horner step of the phase multiplies two complex
    numbers."""
    rng = np.random.default_rng(seed)
    lin = _physical(seed, eps)
    hi = rng.uniform(-1, 1, (2, 2)) + 1j * eps * rng.uniform(-1, 1, (2, 2))
    return ActionModel(list(lin.s12) + list(hi[0] * [0.5, 1.0]),
                       list(lin.s34) + list(hi[1] * [0.5, 1.0]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 20),
       h=st.sampled_from([1e-2, 1e-3, 3e-4]),
       x=st.one_of(st.floats(0.004, 0.3), st.sampled_from(["grid_lo", 0.45])),
       lo=st.integers(-8, 0), n=st.integers(0, 12),
       branch=st.sampled_from(list(BSBranch)),
       model=st.sampled_from([_physical, _cubic]))
def test_bs_family_equals_per_k_reference(seed, h, x, lo, n, branch, model):
    # whole k-ranges, near the grid ends too, where some k have no real
    # seed: one bs_seeds call plus one family solve must give every k the
    # original per-k solver's answer bit for bit, failures included
    p = params(h=h, eps=3e-2)
    am = model(seed, p.epsilon)
    if x == "grid_lo":
        x = 1.8 * h
    k0 = _k_near(branch, x, p, am)
    ks = range(k0 + lo, k0 + lo + n)
    seeds = quantization.bs_seeds(branch, ks, p, am)
    assert seeds.shape == (len(ks),)
    family = bohr_sommerfeld_solve(branch, ks, p, am, seeds)
    assert len(family) == len(ks)
    for k, r in zip(ks, family):
        try:
            want = _bs_solve_reference(branch, k, p, am)
        except BranchspecError as exc:
            assert type(r) is type(exc)
            assert repr(r.last) == repr(exc.last)
            continue
        assert repr((r.mu, r.residual, r.iterations)) == repr(want)


def _bs_phase_reference(branch, mu, p, am):
    """_bs_phase as it was when Newton evaluated it at one Python complex
    mu at a time: numpy's scalar products, which fuse no multiply-add.
    The oracle of the phase's bits."""
    h = p.h
    rem = _remainder(mu, h, StirlingRegime.MinusBranch)
    if branch is BSBranch.Ext:
        return (am.S12(mu) + am.S34(mu) + 2 * mu * (np.log(-mu) - 1)
                + np.pi * h / 2 + 2j * h * rem)
    s = am.S34(mu) if branch is BSBranch.LeftInt else am.S12(mu)
    return mu * np.log(mu) - mu + np.pi * h / 4 + s + 1j * h * rem


def test_bs_phase_has_the_scalar_bits_at_every_point():
    # random complex cubic actions, complex mu on each branch's side: one
    # array call, and each scalar call, give every point the bits of the
    # scalar phase (numpy's array products would differ on about a
    # quarter of them)
    rng = np.random.default_rng(5)
    for t in range(150):
        p = params(h=(1e-2, 1e-3, 3e-4)[t % 3], eps=3e-2)
        am = ActionModel(*(rng.uniform(-0.5, 0.5, (2, 4))
                           + 1j * rng.uniform(-0.05, 0.05, (2, 4))))
        for branch in BSBranch:
            sgn = -1.0 if branch is BSBranch.Ext else 1.0
            mus = sgn * rng.uniform(0.005, 0.4, 8) \
                + 1j * rng.uniform(-0.05, 0.05, 8)
            want = _bits([_bs_phase_reference(branch, complex(m), p, am)
                          for m in mus])
            assert _bits(quantization._bs_phase(branch, mus, p, am)) == want
            assert _bits([quantization._bs_phase(branch, complex(m), p, am)
                          for m in mus]) == want


def test_bs_family_marks_k_without_a_real_seed():
    # the zero-action LeftInt phase decreases from about -0.08 at the
    # first grid point (h = 0.01), so k >= -1 has no sign change
    p = params(h=0.01)
    seeds = quantization.bs_seeds(BSBranch.LeftInt, range(-3, 2), p, ZERO_AM)
    assert np.isfinite(seeds[:2]).all() and np.isnan(seeds[2:]).all()
    r, = bohr_sommerfeld_solve(BSBranch.LeftInt, [-1], p, ZERO_AM, seeds[2:3])
    assert isinstance(r, NoConvergence) and "no real seed" in str(r)
    assert r.last is None
    assert quantization.bs_seeds(BSBranch.Ext, [], p, ZERO_AM).shape == (0,)


@pytest.mark.parametrize("h,epsilon", [
    (float("nan"), 0.0), (float("inf"), 0.0), (0.0, 0.0), (-0.01, 0.0),
    (0.01, float("nan")), (0.01, float("inf")), (0.01, -0.03),
])
def test_params_reject_nonpositive_and_nonfinite(h, epsilon):
    # NaN passed the old `h <= 0` check and winding_count never returned;
    # only the constructor runs here, so a regression cannot hang
    with pytest.raises(ValueError):
        SemiclassicalParams(h=h, epsilon=epsilon)


# --- eval_G against the masked evaluation it replaced ------------------------

def _remainder_reference(mu, h, regime):
    """specfun._remainder as it was, with its own Stirling exponent."""
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    if regime is StirlingRegime.MinusBranch:
        approx = 1j * mu / h - 1j * (mu / h) * np.log(-1j * mu) \
            + 1j * (mu / h) * np.log(h)
        exact = log_gamma(0.5 + -1.0 * 1j * mu / h) - LOG_SQRT_2PI
    else:
        approx = -1j * mu / h + 1j * (mu / h) * np.log(1j * mu) \
            - 1j * (mu / h) * np.log(h)
        exact = log_gamma(0.5 + 1.0 * 1j * mu / h) - LOG_SQRT_2PI
    rem = np.atleast_1d(exact - approx)
    real_axis = mu.imag == 0
    if real_axis.any():
        x = np.abs(mu.real[real_axis]) / h
        rem[real_axis] = -0.5 * np.log1p(np.exp(-2 * np.pi * x)) \
            + 1j * rem[real_axis].imag
    return rem


def _log_terms_reference(mu, p, am, regime):
    """_log_terms as it was: polyval actions and one np.stack."""
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    h = p.h
    i_h = 1j / h
    s12 = npoly.polyval(mu, am.s12)
    s34 = npoly.polyval(mu, am.s34)
    l2 = i_h * s12 + np.pi * mu / (2 * h)
    l3 = i_h * s34 + np.pi * mu / (2 * h)
    if regime is Regime.Case1Large:
        rem = _remainder_reference(mu, h, StirlingRegime.MinusBranch)
        core = i_h * (mu * np.log(-1j * mu) - mu + np.pi * h / 4)
        l1 = i_h * (s12 + s34) + core - rem
        l4 = -core + rem
        return np.stack([l1, l2, l3,
                         l4 + np.pi * mu / h, l4 - np.pi * mu / h])
    if regime is Regime.Case2Large:
        rem = _remainder_reference(mu, h, StirlingRegime.PlusBranch)
        core = i_h * (mu * np.log(1j * mu) - mu + np.pi * h / 4)
        l1 = i_h * (s12 + s34) + core + rem
        l4 = -core - rem
        return np.stack([l1 + np.pi * mu / h, l1 - np.pi * mu / h,
                         l2, l3, l4])
    if regime is Regime.Case1Small:
        lg = log_gamma(0.5 - 1j * mu / h) - LOG_SQRT_2PI
        base = 1j * (mu / h) * np.log(h) - lg + 1j * np.pi / 4
        l1 = i_h * (s12 + s34) + base
        return np.stack([l1, l2, l3,
                         -base + np.pi * mu / h, -base - np.pi * mu / h])
    lg = log_gamma(0.5 + 1j * mu / h) - LOG_SQRT_2PI
    base = lg + 1j * (mu / h) * np.log(h) + 1j * np.pi / 4
    l1 = i_h * (s12 + s34) + base
    return np.stack([l1 + np.pi * mu / h, l1 - np.pi * mu / h,
                     l2, l3, -base])


def _sum_exp_reference(logs, h):
    m = np.max(logs.real, axis=0, keepdims=True)
    return np.sum(np.exp(logs - m), axis=0), np.squeeze(m, axis=0) * h


def _eval_G_reference(mu, p, am, regime=None):
    """eval_G as it was: four regime masks, each scattered back; with a
    regime, that one regime at every point."""
    mu = np.asarray(mu, dtype=complex)
    flat = mu.ravel()
    vals = np.empty(flat.shape, dtype=complex)
    offs = np.empty(flat.shape, dtype=float)
    if regime is not None:
        masks = [(regime, np.ones(flat.shape, dtype=bool))]
    else:
        small = np.abs(flat) < quantization.SMALL_C1 * p.h
        c1 = (_angdist(np.angle(flat), np.pi / 2)
              <= np.pi - 1.0 / quantization.SECTOR_C) | (flat == 0)
        masks = [(Regime.Case1Large, c1 & ~small),
                 (Regime.Case1Small, c1 & small),
                 (Regime.Case2Large, ~c1 & ~small),
                 (Regime.Case2Small, ~c1 & small)]
    for r, mask in masks:
        if not np.any(mask):
            continue
        v, o = _sum_exp_reference(
            _log_terms_reference(flat[mask], p, am, r), p.h)
        vals[mask] = v
        offs[mask] = o
    return vals.reshape(mu.shape), offs.reshape(mu.shape)


def _bits(a):
    return np.asarray(a, dtype=complex).reshape(-1).view(np.uint64).tolist()


def _outcome(fn):
    """Bit patterns of (values, offsets), or the type of the error."""
    try:
        with np.errstate(all="ignore"):
            out = fn()
    except BranchspecError as exc:
        return type(exc)
    return _bits(out[0]), _bits(out[1]), np.shape(out[0])


_EDGE = 1.0 / quantization.SECTOR_C   # case 1 excludes this cone around -i


def _regime_points(rng, kind, h, n):
    """n points of one kind: inside one regime, or on a boundary."""
    rs = quantization.SMALL_C1 * h
    case1 = rng.uniform(-np.pi / 2 + _EDGE, 3 * np.pi / 2 - _EDGE, n)
    case2 = rng.uniform(-np.pi / 2 - _EDGE, -np.pi / 2 + _EDGE, n)
    large = rng.uniform(1.001 * rs, 200 * rs, n)
    small = rng.uniform(0.0, 0.999 * rs, n)
    if kind == "boundary":
        r = rng.choice([rs, np.nextafter(rs, 0), np.nextafter(rs, 1)], n)
        th = rng.choice([-np.pi / 2 - _EDGE, -np.pi / 2 + _EDGE, 0.0, np.pi,
                         rng.uniform(-np.pi, np.pi)], n)
        pts = np.where(rng.random(n) < 0.5, r, large) * np.exp(1j * th)
        # mu = 0 and points on the real axis, which _remainder special-cases
        specials = [0j, rs + 0j, -rs + 0j, large[0] + 0j, -small[0] + 0j]
        return np.where(rng.random(n) < 0.3, rng.choice(specials, n), pts)
    if kind == "mixed":
        kinds = rng.choice(["case1large", "case2large", "case1small",
                            "case2small", "boundary"], n)
        return np.array([_regime_points(rng, k, h, 1)[0] for k in kinds])
    if kind in ("both_large", "both_small"):   # one size, both cases
        r = large if kind == "both_large" else small
        return r * np.exp(1j * np.where(rng.random(n) < 0.5, case1, case2))
    r = large if kind.endswith("large") else small
    return r * np.exp(1j * (case1 if kind.startswith("case1") else case2))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 20), h=st.sampled_from([1e-2, 1e-3, 3e-4]),
       kind=st.sampled_from(["case1large", "case2large", "case1small",
                             "case2small", "boundary", "mixed",
                             "both_large", "both_small"]),
       shape=st.sampled_from([(1,), (21,), (3, 7)]))
def test_eval_g_bitwise_equal_to_masked_reference(seed, h, kind, shape):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(scale=0.1, size=(2, 3)) \
        + 1j * rng.normal(scale=0.03, size=(2, 3))
    coeffs[rng.random((2, 3)) < 0.2] = -0.0
    am = ActionModel(coeffs[0, :rng.integers(1, 4)], coeffs[1])
    p = params(h=h, eps=3e-2)
    mu = _regime_points(rng, kind, h, int(np.prod(shape))).reshape(shape)
    for m in (mu, mu.reshape(-1)[:1]):
        want = _outcome(lambda: _eval_G_reference(m, p, am))
        assert _outcome(lambda: eval_G(m, p, am)) == want
        for regime in Regime:
            want = _outcome(lambda: _eval_G_reference(m, p, am, regime))
            assert _outcome(lambda: _forced(m, p, am, regime)) == want
    if not kind.startswith("case") or mu.size < 4:
        return
    # a one-regime batch equals its subsets of two or more points; numpy
    # sums the terms of a one-point batch in another order (README)
    vals, offs = eval_G(mu, p, am)
    idx = rng.permutation(mu.size)[:rng.integers(2, mu.size)]
    v, o = eval_G(mu.ravel()[idx], p, am)
    assert _bits([v, o]) == _bits([vals.ravel()[idx], offs.ravel()[idx]])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 20), degree=st.integers(0, 6),
       n=st.sampled_from([0, 1, 21]), real_x=st.booleans())
def test_horner_bitwise_equal_to_polyval(seed, degree, n, real_x):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    c[rng.random(degree + 1) < 0.3] = -0.0
    c.imag[rng.random(degree + 1) < 0.3] = -0.0
    am = ActionModel(c, c[::-1])
    x = rng.normal(size=n) * 0.3
    if not real_x:
        x = x + 1j * rng.normal(size=n) * 0.3
    for mu in (x, x[:1].reshape(()) if n else -0.0, complex(x[0]) if n else 0j):
        for got, coef in ((am.S12(mu), am.s12), (am.S34(mu), am.s34)):
            want = npoly.polyval(mu, coef)
            assert type(got) is type(want)
            assert _bits(got) == _bits(want)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 20), h=st.sampled_from([1e-2, 1e-3, 3e-4]),
       near=st.sampled_from(["small_C1", "sector", "real_axis"]))
def test_regime_overlap_consistency_near_boundaries(seed, h, near):
    # where two or more regimes are admissible they are exact rewritings
    # of one G: their values, aligned by offset, agree to 1e-10
    rng = np.random.default_rng(seed)
    p = params(h=h, eps=3e-2)
    am = _physical(seed, p.epsilon)
    rs = quantization.SMALL_C1 * h
    r = rs * np.exp(rng.uniform(np.log(0.5), np.log(0.2 / rs), 21))
    if near == "small_C1":
        r, th = rs * rng.uniform(0.9, 1.1, 21), rng.uniform(-np.pi, np.pi, 21)
    elif near == "sector":
        th = -np.pi / 2 + rng.choice([-1, 1], 21) * _EDGE \
            + rng.uniform(-0.02, 0.02, 21)
    else:
        th = rng.choice([0.0, np.pi], 21) + rng.uniform(-0.3, 0.3, 21)
    mu = r * np.exp(1j * th)
    g = {rg: _forced(mu, p, am, rg) for rg in Regime}
    case1 = quantization.case1_admissible(mu)
    case2 = quantization.case2_admissible(mu)
    for i in range(len(mu)):
        regimes = [rg for rg in Regime
                   if (case1 if rg.name.startswith("Case1") else case2)[i]]
        ref_v, ref_o = g[regimes[0]][0][i], g[regimes[0]][1][i]
        for rg in regimes[1:]:
            v, o = g[rg][0][i], g[rg][1][i]
            num = v * np.exp((o - ref_o) / h)
            assert abs(num - ref_v) <= 1e-10 * abs(ref_v), (mu[i], rg)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 20), h=st.sampled_from([1e-2, 1e-3, 3e-4]),
       regime=st.sampled_from([Regime.Case1Large, Regime.Case1Small]))
def test_case1_terms_satisfy_a1_a4p_equals_a2_a3(seed, h, regime):
    # log a1 + log a4+ and log a2 + log a3 are both i(S12 + S34)/h +
    # pi mu/h, which makes Gamma_{3,4+} Gamma_{1,2} and Gamma_{2,4+}
    # Gamma_{1,3}; the forms differ by rounding only
    rng = np.random.default_rng(seed)
    p = params(h=h, eps=3e-2)
    am = _physical(seed, p.epsilon)
    rs = quantization.SMALL_C1 * h
    lo, hi = (rs, 0.3) if regime is Regime.Case1Large else (0.0, rs)
    mu = rng.uniform(lo, hi, 50) * np.exp(1j * rng.uniform(-np.pi, np.pi, 50))
    mu = mu[quantization.case1_admissible(mu)]
    (l1, l2, l3, l4p, _), _ = _log_terms(mu, p, am, regime)
    scale = np.abs(l1) + np.abs(l2) + np.abs(l3) + np.abs(l4p)
    assert np.all(np.abs(l1 + l4p - l2 - l3)
                  <= 8 * np.finfo(float).eps * scale)
