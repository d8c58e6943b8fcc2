import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsplate import (
    PhysicalParams,
    build_canonical_boundary_data,
    compute_A,
    compute_m_constants,
    derive_constants,
    kappa0_bound,
    sigma_bar,
)
from memsplate.errors import NonConstantPermittivity, UnboundedGrowth
import memsplate.params
from memsplate.params import EPS_M, SAFETY, _certified_max


def test_param_validation():
    with pytest.raises(ValueError):
        PhysicalParams(beta=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(tau=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(H=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(V=-0.5)
    with pytest.raises(ValueError):
        PhysicalParams(sigma1=-2.0)
    for name in ("beta", "tau", "L", "H", "d", "sigma1", "sigma2", "V"):
        with pytest.raises(ValueError, match=name):
            PhysicalParams(**{name: np.inf})


def test_canonical_structural_identities(unit_params, canonical):
    # interface matching and flux matching at z = -H, the grounded electrode at
    # z = -H - d and the plate held at V, on deflections in [-H, 2H]
    p, f = unit_params, canonical
    x = np.linspace(-p.L, p.L, 41)[:, None]
    w = np.linspace(-p.H, 2.0 * p.H, 41)[None, :]
    zi = -p.H
    residuals = {
        "matching": f.h1(x, zi, w) - f.h2(x, zi, w),
        "flux": p.sigma1 * f.dz_h1(x, zi, w) - p.sigma2 * f.dz_h2(x, zi, w),
        "grounding": f.h1(x, -p.H - p.d, w),
        "plate_value": f.h2(x, w, w) - p.V,
    }
    for key, r in residuals.items():
        assert np.max(np.abs(r)) <= 1e-12, key


def test_canonical_grounding_and_plate_rows(canonical, unit_params):
    p = unit_params
    x = np.linspace(-p.L, p.L, 7)
    w = np.linspace(-p.H, 3.0, 7)
    assert np.all(canonical.h1(x[:, None], -p.H - p.d, w[None, :]) == 0.0)
    assert np.allclose(canonical.h2(x[:, None], w[None, :], w[None, :]), p.V, atol=1e-14)


def test_canonical_interface_value_hand_case():
    # sigma1 = sigma2 = d = H = 1, V = 2, w = 0, z = -1: both sides give 1
    p = PhysicalParams(V=2.0)
    f = build_canonical_boundary_data(p)
    assert f.h1(0.3, -1.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert f.h2(0.3, -1.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_canonical_requires_constant_sigma1():
    p = PhysicalParams(sigma1=lambda x, z: 1.0 + 0.1 * np.cos(x) + 0.0 * z)
    with pytest.raises(NonConstantPermittivity):
        build_canonical_boundary_data(p)


def test_m_constants_zero_voltage():
    p = PhysicalParams(V=0.0)
    f = build_canonical_boundary_data(p)
    m1, m2, m3 = compute_m_constants(f, p, w_max=4.0)
    assert m1 == EPS_M and m2 == EPS_M and m3 == EPS_M


def test_m_constants_gap_branch_matches_analytic_max(unit_params, canonical):
    # max over w of |dz_h2|^2 (H + w) is sigma1 V^2 / (4 sigma2 d), at w + H = sigma2 d / sigma1
    p, f = unit_params, canonical
    x = np.linspace(-p.L, p.L, 9)[:, None]

    def branch(w):
        w2 = w[None, :]
        return np.max(np.abs(f.dz_h2(x, w2, w2)) ** 2 * (p.H + w2), axis=0)

    grid_max = _certified_max(branch, -p.H, 4.0, "m1 (gap)")
    analytic = p.sigma1 * p.V**2 / (4.0 * p.sigma2 * p.d)
    assert grid_max == pytest.approx(analytic, rel=1e-2)


def test_m_constants_canonical_values(unit_params, canonical):
    p = unit_params
    m1, m2, m3 = compute_m_constants(canonical, p, w_max=4.0)
    assert m2 == EPS_M  # all partials bounded in w
    # layer branch dominates m1: (V/d)^2; m3 max{V^2, V^2/4} = V^2
    assert m1 == pytest.approx(SAFETY * (p.V / p.d) ** 2, rel=1e-2)
    assert m3 == pytest.approx(SAFETY * p.V**2, rel=1e-2)


def test_K_canonical_at_floor():
    p = PhysicalParams(V=2.0)
    canonical = build_canonical_boundary_data(p)
    c = derive_constants(p, canonical)
    assert c.K == EPS_M
    assert c.G0 == p.sigma2 * EPS_M**2
    # trace identities behind it, checked directly
    x = np.linspace(-p.L, p.L, 33)[:, None]
    w = np.linspace(-p.H, c.w_max, 33)[None, :]
    assert np.max(np.abs(canonical.dx_h2(x, w, w))) <= 1e-12
    assert np.max(np.abs(canonical.dz_h2(x, w, w) + canonical.dw_h2(x, w, w))) <= 1e-12


def test_K_canonical_is_the_floor_at_any_voltage():
    # the builtin plate trace is the constant V, so K is the floor at every V; a
    # sample of dz_h2 + dw_h2 would read rounding noise that grows with V
    for V in (1e4, 1e20):
        p = PhysicalParams(V=V)
        c = derive_constants(p, build_canonical_boundary_data(p))
        assert c.K == EPS_M and c.G0 == p.sigma2 * EPS_M**2
        assert c.w_max == 50.0 and np.isfinite(c.A)


def test_overflowing_constants_raise_unbounded_growth():
    # no bare OverflowError or overflow RuntimeWarning: an uncertifiable device
    import warnings

    for V in (1e100, 1e200):
        p = PhysicalParams(V=V)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(UnboundedGrowth) as exc:
                derive_constants(p, build_canonical_boundary_data(p))
        if V == 1e200:
            # m1 overflows on the first grid: nothing was refined, so no growth is claimed
            assert str(exc.value) == "m1 (layer) samples are not finite: they overflow (or are NaN)"


def test_K_zero_voltage_floor():
    p = PhysicalParams(V=0.0)
    c = derive_constants(p, build_canonical_boundary_data(p))
    assert c.K == EPS_M and c.G0 == p.sigma2 * EPS_M**2


def test_compute_A_hand_values():
    assert compute_A(0.0, 0.0, 1.0, 1.0, 1.0) == 0.0
    assert compute_A(1.0, 0.0, 1.0, 1.0, 1.0) == pytest.approx(24.0, rel=1e-14)
    assert compute_A(0.0, 1.0, 2.0, 1.0, 4.0) == pytest.approx(32.0, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(
    m2=st.floats(0.0, 10.0), m3=st.floats(0.0, 10.0),
    sbar=st.floats(0.1, 10.0), d=st.floats(0.1, 5.0), beta=st.floats(0.1, 10.0),
    bump=st.floats(1e-3, 1.0),
)
def test_compute_A_monotonicity(m2, m3, sbar, d, beta, bump):
    base = compute_A(m2, m3, sbar, d, beta)
    assert compute_A(m2 + bump, m3, sbar, d, beta) >= base
    assert compute_A(m2, m3 + bump, sbar, d, beta) >= base
    assert compute_A(m2, m3, sbar + bump, d, beta) >= base
    assert compute_A(m2, m3, sbar, d + bump, beta) >= base
    assert compute_A(m2, m3, sbar, d, beta + bump) <= base


def test_unbounded_growth_detected(unit_params, canonical):
    from dataclasses import replace

    # |dw_h2|^2 (H + w) ~ 1/(H + w): diverges at the bottom of the range
    f = replace(
        canonical,
        dw_h2=lambda x, z, w: 1.0 / (np.broadcast_arrays(x, z, w)[2] + 1.0 + 1e-12),
    )
    with pytest.raises(UnboundedGrowth):
        compute_m_constants(f, unit_params, w_max=4.0)


@pytest.mark.xfail(
    strict=True, raises=UnboundedGrowth,
    reason="known defect, ROADMAP item 7: the sampled m1 steps over the gap ratio's narrow "
    "peak on a long working range and reports a bounded ratio as unbounded growth",
)
def test_certified_m1_covers_a_narrow_gap_peak():
    # the gap ratio V^2 s1^2 (w+H) / (s2 d + s1 (w+H))^2 peaks at w + H = s2 d / s1
    # with sup V^2 s1 / (4 s2 d) = 138.54; w_max is about 2747, so the 601-point grid
    # over [-H, w_max] steps 4.6 against a peak at 0.144
    p = PhysicalParams(beta=0.785, tau=2.636, L=1.628, H=1.704, d=0.408,
                       sigma1=4.349, sigma2=1.538, V=8.942)
    c = derive_constants(p, build_canonical_boundary_data(p))
    assert c.m1 >= p.V**2 * p.sigma1 / (4.0 * p.sigma2 * p.d)


def test_derive_constants_deterministic(unit_params, canonical):
    c1 = derive_constants(unit_params, canonical)
    c2 = derive_constants(unit_params, canonical)
    assert c1.as_dict() == c2.as_dict()


def test_derive_constants_ranges(unit_params, canonical):
    c = derive_constants(unit_params, canonical)
    p = unit_params
    assert c.sigma_bar == sigma_bar(p) == 1.0
    assert c.kappa0 >= p.H
    assert c.kappa0 == kappa0_bound(p.beta, p.tau, p.L, p.H, c.G0)
    assert c.w_max >= 2.0 * c.kappa0 * (1.0 - 1e-12)
    assert c.A == compute_A(c.m2, c.m3, c.sigma_bar, p.d, p.beta)


def test_sigma_bar_with_varying_layer():
    p = PhysicalParams(sigma1=lambda x, z: 2.0 + np.sin(x) * 0.5 + 0.0 * z, sigma2=1.0)
    assert sigma_bar(p) == pytest.approx(2.0 + 0.5 * np.sin(1.0), abs=1e-3)


# The two-pass certification that _certified_max replaced, kept as its reference:
# a 301- and a 601-point growth check, then a 601-point grid refined twice.
def _reference_refined_max(eval_on_w, w_lo, w_hi, n_w=601, passes=3):
    lo, hi = w_lo, w_hi
    best = -np.inf
    for _ in range(passes):
        w = np.linspace(lo, hi, n_w)
        vals = eval_on_w(w)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        dw = (hi - lo) / (n_w - 1)
        lo = max(w_lo, w[i] - 2.0 * dw)
        hi = min(w_hi, w[i] + 2.0 * dw)
        n_w = 101
        if hi <= lo:
            break
    return best


def _reference_certified_max(eval_on_w, w_lo, w_hi, label):
    coarse = _reference_refined_max(eval_on_w, w_lo, w_hi, n_w=301, passes=1)
    fine = _reference_refined_max(eval_on_w, w_lo, w_hi, n_w=601, passes=1)
    if not np.isfinite(fine):
        raise UnboundedGrowth(f"{label} samples are not finite: they overflow (or are NaN)")
    if fine > 1.25 * max(coarse, EPS_M):
        raise UnboundedGrowth(
            f"{label} keeps growing under grid refinement ({coarse:.3e} -> {fine:.3e})"
        )
    return _reference_refined_max(eval_on_w, w_lo, w_hi)


def _outcome(certify, eval_on_w, w_lo, w_hi, label):
    try:
        return certify(eval_on_w, w_lo, w_hi, label)
    except UnboundedGrowth as exc:
        return ("UnboundedGrowth", str(exc))


def _assert_matches_reference(eval_on_w, w_lo, w_hi, label):
    n_points = []

    def counted(w):
        n_points.append(len(w))
        return eval_on_w(w)

    got = _outcome(_certified_max, counted, w_lo, w_hi, label)
    assert got == _outcome(_reference_certified_max, eval_on_w, w_lo, w_hi, label), label
    assert sum(n_points) <= 601 + 2 * 101
    return got


def _device_case(case):
    """(params, family) for a case id: "V<volts>" or "tau0.5" (V=3)."""
    p = PhysicalParams(V=3.0, tau=0.5) if case == "tau0.5" else PhysicalParams(V=float(case[1:]))
    return p, build_canonical_boundary_data(p)


@pytest.mark.parametrize("case", ["V0", "V1", "V3", "V11", "tau0.5"])
def test_certified_max_matches_two_pass_reference(case, monkeypatch):
    p, f = _device_case(case)
    calls = []

    def recording(eval_on_w, w_lo, w_hi, label):
        calls.append((eval_on_w, w_lo, w_hi, label))
        return _certified_max(eval_on_w, w_lo, w_hi, label)

    monkeypatch.setattr(memsplate.params, "_certified_max", recording)
    derive_constants(p, f)
    # K is the floor, not sampled: only the four growth ratios are
    assert [c[3] for c in calls] == ["m1 (layer)", "m1 (gap)", "m3 (layer)", "m3 (gap)"]
    for eval_on_w, w_lo, w_hi, label in calls:
        _assert_matches_reference(eval_on_w, w_lo, w_hi, label)


def test_certified_max_raises_where_the_reference_raises():
    def with_nan(w):
        v = np.sin(3.0 * w)
        v[len(w) // 3] = np.nan
        return v

    # a hat on one odd point of the fine [-1, 4] grid, missed by its even (coarse) points
    w_odd, step = np.linspace(-1.0, 4.0, 601)[301], 5.0 / 600

    def hat(height):
        return lambda w: 1.0 + height * np.maximum(0.0, 1.0 - np.abs(w - w_odd) / step)

    cases = {
        "interior peak": lambda w: -((w - 1.3) ** 2),
        "hat 1.2x between coarse points": hat(0.2),
        "hat 1.35x between coarse points": hat(0.35),
        "oscillating": lambda w: np.sin(7.0 * w) * np.exp(-0.1 * w),
        "peak at the left end": lambda w: np.exp(-w),
        "structural zero": lambda w: np.zeros_like(w),
        "pole next to the left end": lambda w: (w + 1.0) / (w + 1.0 + 1e-12) ** 2,
        "narrow spike": lambda w: 1.0 / (1e-6 + (w - 0.123456789) ** 2),
        "a NaN sample": with_nan,
        "overflow": lambda w: np.where(w > 3.9, np.inf, 0.0),
    }
    raised = set()
    for label, fn in cases.items():
        for w_lo, w_hi in [(-1.0, 4.0), (-1.0, 175.35)]:
            got = _assert_matches_reference(fn, w_lo, w_hi, label)
            if isinstance(got, tuple):
                raised.add(label)
    assert raised == {
        "hat 1.35x between coarse points", "pole next to the left end", "narrow spike",
        "a NaN sample", "overflow",
    }


def _materialized_family(p, v, dv, x, z, w):
    """The transmission profile evaluated on inputs broadcast to their full shape first."""
    s1, s2, d, H = float(p.sigma1), p.sigma2, p.d, p.H

    def denom(w):
        return s2 * d + s1 * (w + H)

    formulas = {
        "h1": lambda x, z, w: v(x) * s2 * (z + H + d) / denom(w),
        "h2": lambda x, z, w: v(x) * (s1 * (z + H) + s2 * d) / denom(w),
        "dx_h1": lambda x, z, w: dv(x) * s2 * (z + H + d) / denom(w),
        "dz_h1": lambda x, z, w: v(x) * s2 / denom(w) + 0.0 * z,
        "dw_h1": lambda x, z, w: -v(x) * s2 * s1 * (z + H + d) / denom(w) ** 2,
        "dx_h2": lambda x, z, w: dv(x) * (s1 * (z + H) + s2 * d) / denom(w),
        "dz_h2": lambda x, z, w: v(x) * s1 / denom(w) + 0.0 * z,
        "dw_h2": lambda x, z, w: -v(x) * s1 * (s1 * (z + H) + s2 * d) / denom(w) ** 2,
    }
    x, z, w = np.broadcast_arrays(np.asarray(x, float), np.asarray(z, float), np.asarray(w, float))
    return {name: fn(x, z, w) for name, fn in formulas.items()}


def _shape_samples(p, n=9, m=7, k=11):
    x = np.linspace(-p.L, p.L, n)[:, None, None]
    z = np.linspace(-p.H - p.d, 2.0, m)[None, :, None]
    w = np.linspace(-p.H, 3.0 * p.H, k)[None, None, :]
    return x, z, w


@pytest.mark.parametrize(
    "p",
    [PhysicalParams(V=2.0), PhysicalParams(V=11.0, sigma1=2.5, sigma2=0.7, d=0.3, H=1.7, L=0.8)],
    ids=["unit", "scaled"],
)
def test_builtin_family_carries_no_x_axis(p):
    f = build_canonical_boundary_data(p)
    x, z, w = _shape_samples(p)
    reference = _materialized_family(p, lambda x: p.V, lambda x: 0.0, x, z, w)
    for name, ref in reference.items():
        got = getattr(f, name)(x, z, w)
        assert np.shape(got) == (1, z.shape[1], w.shape[2]), name
        assert np.array_equal(np.broadcast_to(got, ref.shape), ref), name


# derive_constants(...).as_dict() recorded when the family still broadcast its inputs
# to the full (x, z, w) block, as float.hex strings
_GOLDEN_CONSTANTS = {
    "V0": {"sigma_bar": "0x1.0000000000000p+0", "m1": "0x1.19799812dea11p-40", "m2": "0x1.19799812dea11p-40", "m3": "0x1.19799812dea11p-40", "K": "0x1.19799812dea11p-40", "G0": "0x1.357c299a88ea7p-80", "A": "0x1.a636641c505cap-36", "kappa0": "0x1.9000000000000p+4", "w_max": "0x1.9000000000000p+5", "eps_m": "0x1.19799812dea11p-40"},
    "V2": {"sigma_bar": "0x1.0000000000000p+0", "m1": "0x1.0cccccccccccdp+2", "m2": "0x1.19799812dea11p-40", "m3": "0x1.0cccccccccccdp+2", "K": "0x1.19799812dea11p-40", "G0": "0x1.357c299a88ea7p-80", "A": "0x1.1a3d70a3d7177p+9", "kappa0": "0x1.9000000000000p+4", "w_max": "0x1.9000000000000p+5", "eps_m": "0x1.19799812dea11p-40"},
    "V11": {"sigma_bar": "0x1.0000000000000p+0", "m1": "0x1.fc33333333334p+6", "m2": "0x1.19799812dea11p-40", "m3": "0x1.fc33333333334p+6", "K": "0x1.19799812dea11p-40", "G0": "0x1.357c299a88ea7p-80", "A": "0x1.f86d9eb851ebap+18", "kappa0": "0x1.9000000000000p+4", "w_max": "0x1.9000000000000p+5", "eps_m": "0x1.19799812dea11p-40"},
    "tau0.5": {"sigma_bar": "0x1.0000000000000p+0", "m1": "0x1.2e66666666667p+3", "m2": "0x1.19799812dea11p-40", "m3": "0x1.2e66666666667p+3", "K": "0x1.19799812dea11p-40", "G0": "0x1.357c299a88ea7p-80", "A": "0x1.6535c28f5c2c6p+11", "kappa0": "0x1.4400000000000p+6", "w_max": "0x1.4400000000000p+7", "eps_m": "0x1.19799812dea11p-40"},
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_CONSTANTS))
def test_derived_constants_golden(case):
    p, f = _device_case(case)
    expected = {name: float.fromhex(h) for name, h in _GOLDEN_CONSTANTS[case].items()}
    assert derive_constants(p, f).as_dict() == expected
