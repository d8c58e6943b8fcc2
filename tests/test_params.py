import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memsplate import (
    PhysicalParams,
    build_canonical_boundary_data,
    build_varying_potential_family,
    compute_A,
    compute_K_and_G0,
    compute_m_constants,
    derive_constants,
    family_invariant_report,
    kappa0_bound,
    sigma_bar,
    validate_family,
)
from memsplate.errors import AssumptionViolated, NonConstantPermittivity, UnboundedGrowth
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
    rep = family_invariant_report(canonical, unit_params)
    for key in ("matching", "flux", "grounding", "plate_value"):
        assert rep[key] <= 1e-12


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


def test_K_canonical_at_floor(unit_params, canonical):
    p = unit_params
    K, G0 = compute_K_and_G0(canonical, p, w_max=4.0)
    assert K == EPS_M
    assert G0 == p.sigma2 * EPS_M**2
    # trace identities behind it, checked directly
    x = np.linspace(-p.L, p.L, 33)[:, None]
    w = np.linspace(-p.H, 4.0, 33)[None, :]
    assert np.max(np.abs(canonical.dx_h2(x, w, w))) <= 1e-12
    assert np.max(np.abs(canonical.dz_h2(x, w, w) + canonical.dw_h2(x, w, w))) <= 1e-12


def test_K_user_family_with_offset_trace(unit_params, canonical):
    from dataclasses import replace

    f = replace(
        canonical,
        dx_h2=lambda x, z, w: np.full(np.broadcast(x, z, w).shape, 0.5),
        tag="user-supplied",
    )
    K, G0 = compute_K_and_G0(f, unit_params, w_max=4.0)
    assert K == pytest.approx(0.525, rel=1e-12)
    assert G0 == pytest.approx(unit_params.sigma2 * 0.525**2, rel=1e-12)


def test_K_zero_voltage_floor():
    p = PhysicalParams(V=0.0)
    f = build_canonical_boundary_data(p)
    K, G0 = compute_K_and_G0(f, p, w_max=4.0)
    assert K == EPS_M and G0 == p.sigma2 * EPS_M**2


def test_kbound0_violation_detected(unit_params, canonical):
    from dataclasses import replace

    f = replace(canonical, dw_h1=lambda x, z, w: np.full(np.broadcast(x, z, w).shape, 0.3))
    with pytest.raises(AssumptionViolated):
        compute_K_and_G0(f, unit_params, w_max=4.0)


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
        tag="user-supplied",
    )
    with pytest.raises(UnboundedGrowth):
        compute_m_constants(f, unit_params, w_max=4.0)


def test_varying_potential_family(unit_params):
    p = unit_params
    fam = build_varying_potential_family(
        p, lambda x: p.V * (1.0 + 0.3 * np.sin(np.pi * x / p.L)),
        lambda x: p.V * 0.3 * np.pi / p.L * np.cos(np.pi * x / p.L),
    )
    rep = validate_family(fam, p)  # matching/flux must hold; plate value may not
    assert rep["matching"] <= 1e-12 and rep["flux"] <= 1e-12 and rep["grounding"] <= 1e-12
    assert not fam.constant_potential
    K, G0 = compute_K_and_G0(fam, p, w_max=4.0)
    # dx_h2(x, w, w) = V'(x); the vertical trace combination still cancels
    assert K == pytest.approx(SAFETY * p.V * 0.3 * np.pi / p.L, rel=1e-3)
    assert G0 == pytest.approx(p.sigma2 * K**2, rel=1e-14)


def test_validate_family_rejects_broken_matching(unit_params, canonical):
    from dataclasses import replace

    f = replace(canonical, h1=lambda x, z, w: canonical.h2(x, z, w) + 0.1, tag="user-supplied")
    with pytest.raises(AssumptionViolated):
        validate_family(f, unit_params)


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
    if not np.isfinite(fine) or fine > 1.25 * max(coarse, EPS_M):
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


@pytest.mark.parametrize("case", ["V0", "V1", "V3", "V11", "tau0.5", "varying"])
def test_certified_max_matches_two_pass_reference(case, monkeypatch):
    if case == "varying":
        p = PhysicalParams(V=2.0)
        f = build_varying_potential_family(
            p, lambda x: p.V * (1.0 + 0.3 * np.sin(np.pi * x)), lambda x: p.V * 0.3 * np.pi * np.cos(np.pi * x)
        )
    else:
        p = PhysicalParams(V=3.0, tau=0.5) if case == "tau0.5" else PhysicalParams(V=float(case[1:]))
        f = build_canonical_boundary_data(p)
    calls = []

    def recording(eval_on_w, w_lo, w_hi, label):
        calls.append((eval_on_w, w_lo, w_hi, label))
        return _certified_max(eval_on_w, w_lo, w_hi, label)

    monkeypatch.setattr(memsplate.params, "_certified_max", recording)
    derive_constants(p, f)
    labels = [c[3] for c in calls]
    assert labels[-4:] == ["m1 (layer)", "m1 (gap)", "m3 (layer)", "m3 (gap)"]
    assert set(labels[:-4]) == {"K"}
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
