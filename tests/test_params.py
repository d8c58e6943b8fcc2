from dataclasses import fields

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
from memsplate.params import EPS_M

ROUND_UP = 1.0 + 2.0**-48  # the relative round-up of every closed-form growth constant


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
    # z = -H - d and the plate held at V, on deflections in [-H, 2H]; h1 and h2
    # are linear in z, so their slopes are difference quotients
    p, f = unit_params, canonical
    x = np.linspace(-p.L, p.L, 41)[:, None]
    w = np.linspace(-p.H, 2.0 * p.H, 41)[None, :]
    zi = -p.H
    slope1 = (f.h1(x, zi, w) - f.h1(x, zi - p.d, w)) / p.d
    slope2 = f.h2(x, zi + 1.0, w) - f.h2(x, zi, w)
    residuals = {
        "matching": f.h1(x, zi, w) - f.h2(x, zi, w),
        "flux": p.sigma1 * slope1 - p.sigma2 * slope2,
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
    with pytest.raises(NonConstantPermittivity):
        derive_constants(p)


def test_m_constants_zero_voltage():
    m1, m2, m3 = compute_m_constants(PhysicalParams(V=0.0), w_max=4.0)
    assert m1 == EPS_M and m2 == EPS_M and m3 == EPS_M


def test_m_constants_gap_branch_matches_analytic_max():
    # with d = 10 both gap ratios V^2 s1^2 g / (s2 d + s1 g)^2 outgrow the layer
    # ratios (V/d)^2 = (V s1 / (s2 d))^2 = V^2 / 100; they peak at g = w + H = s2 d / s1
    # = 10 with sup s1 V^2 / (4 s2 d) = V^2 / 40, or at the end of a shorter range
    p = PhysicalParams(V=2.0, d=10.0)
    m1, m2, m3 = compute_m_constants(p, w_max=50.0)
    assert m1 == m3 == pytest.approx(p.sigma1 * p.V**2 / (4.0 * p.sigma2 * p.d) * ROUND_UP, rel=1e-15)
    # g <= w_max + H = 5: 4 * 5 / (10 + 5)^2 = 4 / 45
    m1, m2, m3 = compute_m_constants(p, w_max=4.0)
    assert m1 == m3 == pytest.approx(p.V**2 / 45.0 * ROUND_UP, rel=1e-15)
    assert m2 == EPS_M


def test_m_constants_canonical_values(unit_params):
    # the layer ratios dominate: (V/d)^2 = (V s1 / (s2 d))^2 = V^2, against the gap's V^2 / 4
    p = unit_params
    m1, m2, m3 = compute_m_constants(p, w_max=4.0)
    assert m2 == EPS_M  # no datum depends on x
    assert m1 == m3 == p.V**2 * ROUND_UP


def test_K_canonical_at_floor():
    # the plate trace h2(x, w, w) = V behind it is checked in
    # test_canonical_grounding_and_plate_rows
    p = PhysicalParams(V=2.0)
    c = derive_constants(p)
    assert c.K == EPS_M
    assert c.G0 == p.sigma2 * EPS_M**2


def test_K_canonical_is_the_floor_at_any_voltage():
    # the builtin plate trace is the constant V, so K is the floor at every V; a
    # sample of the trace partials would read rounding noise that grows with V
    for V in (1e4, 1e20):
        p = PhysicalParams(V=V)
        c = derive_constants(p)
        assert c.K == EPS_M and c.G0 == p.sigma2 * EPS_M**2
        assert c.w_max == 50.0 and np.isfinite(c.A)


def test_overflowing_constants_raise_unbounded_growth():
    # no bare OverflowError or overflow RuntimeWarning: at V = 1e100 A overflows,
    # at V = 1e200 m1 and m3 already do
    import warnings

    for V in (1e100, 1e200):
        p = PhysicalParams(V=V)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(UnboundedGrowth):
                derive_constants(p)


def test_K_zero_voltage_floor():
    p = PhysicalParams(V=0.0)
    c = derive_constants(p)
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


def test_certified_m1_covers_a_narrow_gap_peak():
    # the gap ratio V^2 s1^2 (w+H) / (s2 d + s1 (w+H))^2 peaks at w + H = s2 d / s1
    # with sup V^2 s1 / (4 s2 d) = 138.54, a narrow peak at 0.144 on a working
    # range about 2750 long, which a 601-point grid over it steps over
    p = PhysicalParams(beta=0.785, tau=2.636, L=1.628, H=1.704, d=0.408,
                       sigma1=4.349, sigma2=1.538, V=8.942)
    c = derive_constants(p)
    assert c.m1 >= p.V**2 * p.sigma1 / (4.0 * p.sigma2 * p.d)


def test_derive_constants_deterministic(unit_params):
    c1 = derive_constants(unit_params)
    c2 = derive_constants(unit_params)
    assert c1.as_dict() == c2.as_dict()


def test_derive_constants_ranges(unit_params):
    c = derive_constants(unit_params)
    p = unit_params
    assert c.sigma_bar == sigma_bar(p) == 1.0
    assert c.kappa0 >= p.H
    assert c.kappa0 == kappa0_bound(p.beta, p.tau, p.L, p.H, c.G0)
    assert c.w_max >= 2.0 * c.kappa0 * (1.0 - 1e-12)
    assert c.A == compute_A(c.m2, c.m3, c.sigma_bar, p.d, p.beta)


def test_sigma_bar_with_varying_layer():
    # a varying layer has no closed-form sup here: sigma_bar refuses it, as
    # build_canonical_boundary_data and derive_constants do, rather than sample it
    p = PhysicalParams(sigma1=lambda x, z: 2.0 + np.sin(x) * 0.5 + 0.0 * z, sigma2=1.0)
    with pytest.raises(NonConstantPermittivity):
        sigma_bar(p)


def _device_case(case):
    """The params of a case id: "V<volts>" or "tau0.5" (V=3)."""
    return PhysicalParams(V=3.0, tau=0.5) if case == "tau0.5" else PhysicalParams(V=float(case[1:]))


def _materialized_family(p, v, dv, x, z, w):
    """The transmission profile and the partials of h1 and h2, written out and
    evaluated on inputs broadcast to their full shape first."""
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
    for name in (field.name for field in fields(f)):
        ref = reference[name]
        got = getattr(f, name)(x, z, w)
        assert np.shape(got) == (1, z.shape[1], w.shape[2]), name
        assert np.array_equal(np.broadcast_to(got, ref.shape), ref), name


def _random_device(rng):
    def log_uniform(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    return PhysicalParams(
        beta=log_uniform(0.1, 10.0), tau=float(rng.uniform(0.0, 5.0)), L=log_uniform(0.3, 3.0),
        H=log_uniform(0.1, 3.0), d=log_uniform(0.05, 20.0), sigma1=log_uniform(0.1, 10.0),
        sigma2=log_uniform(0.1, 10.0), V=float(rng.uniform(0.0, 20.0)),
    )


def _sampled_growth_ratios(p, w_max):
    """Max of the m1 and m3 ratios over dense (z, w) samples of the written-out family.

    The w samples cover [-H, w_max] evenly and geometrically towards -H, and hold
    the gap ratios' peak g* - H; the z samples cover the layer and, per column, the
    gap from the interface to the plate.
    """
    H = p.H
    g_star = min(p.sigma2 * p.d / float(p.sigma1), w_max + H)
    w = np.unique(np.concatenate([
        np.linspace(-H, w_max, 2001),
        -H + (w_max + H) * np.geomspace(1e-9, 1.0, 2001),
        [g_star - H],
    ]))[None, None, :]
    x = np.zeros((1, 1, 1))  # the data do not depend on x
    t = np.linspace(0.0, 1.0, 41)[None, :, None]
    v, dv = (lambda x: p.V), (lambda x: 0.0)
    layer = _materialized_family(p, v, dv, x, -H - p.d + p.d * t, w)
    gap = _materialized_family(p, v, dv, x, -H + t * (w + H), w)
    layer_ratio = (np.abs(layer["dx_h1"]) + np.abs(layer["dz_h1"])) ** 2
    gap_ratio = (np.abs(gap["dx_h2"]) + np.abs(gap["dz_h2"])) ** 2 * (H + w)
    return {
        "m1": max(np.max(layer_ratio), np.max(gap_ratio)),
        "m3": max(np.max(layer["dw_h1"] ** 2), np.max(gap["dw_h2"] ** 2 * (H + w))),
    }


_GROWTH_CASES = {
    **{case: [_device_case(case)] for case in ("V0", "V1", "V3", "V11", "tau0.5")},
    # s2 d / s1 = 100 > w_max + H = 51: the gap ratios peak at the end of the
    # working range, and there they exceed the layer ratios
    "gap-clamped": [PhysicalParams(V=2.0, d=50.0, sigma2=2.0)],
    "random": [_random_device(np.random.default_rng(20261020)) for _ in range(40)],
}


@pytest.mark.parametrize("case", list(_GROWTH_CASES))
def test_closed_form_m_constants_bound_dense_samples(case):
    # the closed forms bound every sample of the growth ratios and are their sampled max
    for p in _GROWTH_CASES[case]:
        c = derive_constants(p)
        if case == "gap-clamped":
            assert p.sigma2 * p.d / p.sigma1 > c.w_max + p.H
        sampled = _sampled_growth_ratios(p, c.w_max)
        for name in ("m1", "m3"):
            closed = getattr(c, name)
            assert closed >= sampled[name], name
            assert closed == pytest.approx(max(sampled[name], EPS_M), rel=1e-6), name


# derive_constants(...).as_dict() as float.hex strings, recorded when the family still
# broadcast its inputs to the full (x, z, w) block; m1, m3 and A re-recorded for the
# closed-form growth constants (m1 = m3 = V^2 (1 + 2^-48) on these devices)
_GOLDEN_CONSTANTS = {
    "V0": {"sigma_bar": "0x1.0000000000000p+0", "m1": "0x1.19799812dea11p-40", "m2": "0x1.19799812dea11p-40", "m3": "0x1.19799812dea11p-40", "K": "0x1.19799812dea11p-40", "G0": "0x1.357c299a88ea7p-80", "A": "0x1.a636641c505cap-36", "kappa0": "0x1.9000000000000p+4", "w_max": "0x1.9000000000000p+5", "eps_m": "0x1.19799812dea11p-40"},
    "V2": {"sigma_bar": "0x1.0000000000000p+0", "m1": "0x1.0000000000010p+2", "m2": "0x1.19799812dea11p-40", "m3": "0x1.0000000000010p+2", "K": "0x1.19799812dea11p-40", "G0": "0x1.357c299a88ea7p-80", "A": "0x1.00000000000f3p+9", "kappa0": "0x1.9000000000000p+4", "w_max": "0x1.9000000000000p+5", "eps_m": "0x1.19799812dea11p-40"},
    "V11": {"sigma_bar": "0x1.0000000000000p+0", "m1": "0x1.e40000000001ep+6", "m2": "0x1.19799812dea11p-40", "m3": "0x1.e40000000001ep+6", "K": "0x1.19799812dea11p-40", "G0": "0x1.357c299a88ea7p-80", "A": "0x1.c988000000039p+18", "kappa0": "0x1.9000000000000p+4", "w_max": "0x1.9000000000000p+5", "eps_m": "0x1.19799812dea11p-40"},
    "tau0.5": {"sigma_bar": "0x1.0000000000000p+0", "m1": "0x1.2000000000012p+3", "m2": "0x1.19799812dea11p-40", "m3": "0x1.2000000000012p+3", "K": "0x1.19799812dea11p-40", "G0": "0x1.357c299a88ea7p-80", "A": "0x1.440000000005ep+11", "kappa0": "0x1.4400000000000p+6", "w_max": "0x1.4400000000000p+7", "eps_m": "0x1.19799812dea11p-40"},
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_CONSTANTS))
def test_derived_constants_golden(case):
    expected = {name: float.fromhex(h) for name, h in _GOLDEN_CONSTANTS[case].items()}
    assert derive_constants(_device_case(case)).as_dict() == expected
