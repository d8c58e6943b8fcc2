"""Device parameters, the boundary-data family, and derived constants.

The boundary-data family is the one-dimensional transmission profile
(the potential that is linear-in-z within each dielectric for a flat plate):

    h1(x, z, w) = V s2 (z + H + d) / (s2 d + s1 (w + H))        in the layer,
    h2(x, z, w) = V (s1 (z + H) + s2 d) / (s2 d + s1 (w + H))   in the gap,

which satisfies the interface matching and flux-matching identities exactly,
grounds the bottom electrode, and holds the plate at potential V.  The plate
trace is that constant, so the trace constant K is the floor EPS_M.  The
growth constants used by the energy regularization are certified by grid
maximization over the working deflection range and inflated by a small
safety factor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from .bounds import kappa0_bound
from .errors import NonConstantPermittivity, UnboundedGrowth

__all__ = [
    "PhysicalParams",
    "BoundaryDataFamily",
    "DerivedConstants",
    "build_canonical_boundary_data",
    "compute_m_constants",
    "compute_A",
    "sigma_bar",
    "derive_constants",
    "EPS_M",
]

EPS_M = 1e-12  # floor for certified constants that are structurally zero

SAFETY = 1.05  # inflation factor on grid-maximized constants

# sampling of the certified maxima: w grid (its even points are the coarse grid),
# local refinement, and the x / z samples of the growth ratios
_N_W = 601
_N_REFINE = 101
_REFINE_PASSES = 2
_N_X_M = 33
_N_ZT = 41

Sigma1 = Union[float, Callable[[np.ndarray, np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class PhysicalParams:
    """Physical device parameters.

    The super-quadratic stretching coefficient is fixed to zero throughout;
    tension enters only through the quadratic term tau.
    """

    beta: float = 1.0
    tau: float = 0.0
    L: float = 1.0
    H: float = 1.0
    d: float = 1.0
    sigma2: float = 1.0
    V: float = 1.0
    sigma1: Sigma1 = 1.0

    def __post_init__(self):
        checks = [
            (0.0 < self.beta < np.inf, "beta must be finite and > 0"),
            (0.0 <= self.tau < np.inf, "tau must be finite and >= 0"),
            (0.0 < self.L < np.inf, "L must be finite and > 0"),
            (0.0 < self.H < np.inf, "H must be finite and > 0"),
            (0.0 < self.d < np.inf, "d must be finite and > 0"),
            (0.0 < self.sigma2 < np.inf, "sigma2 must be finite and > 0"),
            (0.0 <= self.V < np.inf, "V must be finite and >= 0"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(msg)
        if self.sigma1_is_constant:
            if not 0.0 < float(self.sigma1) < np.inf:  # type: ignore[arg-type]
                raise ValueError("sigma1 must be finite and > 0")
        else:
            if self.sigma1_min() <= 0.0:
                raise ValueError("sigma1 must be positive throughout the layer")

    @property
    def sigma1_is_constant(self) -> bool:
        return not callable(self.sigma1)

    def sigma1_at(self, x, z) -> np.ndarray:
        if self.sigma1_is_constant:
            return np.broadcast_to(float(self.sigma1), np.broadcast(x, z).shape).copy()  # type: ignore[arg-type]
        return np.asarray(self.sigma1(np.asarray(x, float), np.asarray(z, float)), dtype=float)

    def _sigma1_samples(self, n: int = 64) -> np.ndarray:
        x = np.linspace(-self.L, self.L, n)
        z = np.linspace(-self.H - self.d, -self.H, n)
        return self.sigma1_at(x[:, None], z[None, :])

    def sigma1_min(self) -> float:
        if self.sigma1_is_constant:
            return float(self.sigma1)  # type: ignore[arg-type]
        return float(self._sigma1_samples().min())

    def sigma1_max(self) -> float:
        if self.sigma1_is_constant:
            return float(self.sigma1)  # type: ignore[arg-type]
        return float(self._sigma1_samples().max())

    def with_V(self, V: float) -> "PhysicalParams":
        return replace(self, V=float(V))


def sigma_bar(p: PhysicalParams) -> float:
    """max of the layer permittivity sup and the gap permittivity."""
    return max(p.sigma1_max(), p.sigma2)


@dataclass(frozen=True)
class BoundaryDataFamily:
    """Dirichlet data h1 (layer) / h2 (gap) with closed-form first partials.

    All callables take (x, z, w); w is the plate deflection at the column
    being evaluated.  A result broadcasts against the inputs but need not have
    their full shape: data that do not depend on x carry no x axis (the
    builtin h1 of x (n,1,1), z (1,m,1), w (1,1,k) has shape (1,m,k)).
    """

    h1: Callable
    h2: Callable
    dx_h1: Callable
    dz_h1: Callable
    dw_h1: Callable
    dx_h2: Callable
    dz_h2: Callable
    dw_h2: Callable


def build_canonical_boundary_data(p: PhysicalParams) -> BoundaryDataFamily:
    """Transmission-profile family with the plate held at V; requires a spatially uniform layer."""
    if not p.sigma1_is_constant:
        raise NonConstantPermittivity("transmission-profile family needs constant sigma1")
    s1 = float(p.sigma1)  # type: ignore[arg-type]
    s2, d, H, V = p.sigma2, p.d, p.H, p.V

    def denom(w):
        return s2 * d + s1 * (w + H)

    def h1(x, z, w):
        return V * s2 * (z + H + d) / denom(w)

    def h2(x, z, w):
        return V * (s1 * (z + H) + s2 * d) / denom(w)

    def dx_h1(x, z, w):
        return 0.0 * s2 * (z + H + d) / denom(w)

    def dz_h1(x, z, w):
        return V * s2 / denom(w) + 0.0 * z

    def dw_h1(x, z, w):
        return -V * s2 * s1 * (z + H + d) / denom(w) ** 2

    def dx_h2(x, z, w):
        return 0.0 * (s1 * (z + H) + s2 * d) / denom(w)

    def dz_h2(x, z, w):
        return V * s1 / denom(w) + 0.0 * z

    def dw_h2(x, z, w):
        return -V * s1 * (s1 * (z + H) + s2 * d) / denom(w) ** 2

    return BoundaryDataFamily(
        h1=h1, h2=h2,
        dx_h1=dx_h1, dz_h1=dz_h1, dw_h1=dw_h1,
        dx_h2=dx_h2, dz_h2=dz_h2, dw_h2=dw_h2,
    )


@np.errstate(over="ignore", invalid="ignore")
def _certified_max(eval_on_w, w_lo: float, w_hi: float, label: str) -> float:
    """Max over w in [w_lo, w_hi] of eval_on_w(w_array), certified against growth.

    One _N_W-point grid is evaluated; its even points form the coarse grid.  A
    fine maximum that is not finite (an overflow or a NaN sample) raises
    UnboundedGrowth, and so does one that exceeds 1.25x the coarse one.  Then
    _REFINE_PASSES grids of _N_REFINE points refine around the running argmax,
    two steps of the previous grid to each side.
    """
    w = np.linspace(w_lo, w_hi, _N_W)
    vals = eval_on_w(w)
    coarse = max(-np.inf, float(np.max(vals[::2])))  # a NaN sample counts as -inf
    i = int(np.argmax(vals))
    best = max(-np.inf, float(vals[i]))
    if not np.isfinite(best):
        raise UnboundedGrowth(f"{label} samples are not finite: they overflow (or are NaN)")
    if best > 1.25 * max(coarse, EPS_M):
        raise UnboundedGrowth(
            f"{label} keeps growing under grid refinement ({coarse:.3e} -> {best:.3e})"
        )
    dw = (w_hi - w_lo) / (_N_W - 1)
    for _ in range(_REFINE_PASSES):
        lo = max(w_lo, w[i] - 2.0 * dw)
        hi = min(w_hi, w[i] + 2.0 * dw)
        if hi <= lo:
            break
        w = np.linspace(lo, hi, _N_REFINE)
        vals = eval_on_w(w)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        dw = (hi - lo) / (_N_REFINE - 1)
    return best


def compute_m_constants(f: BoundaryDataFamily, p: PhysicalParams, w_max: float) -> tuple[float, float, float]:
    """Growth constants (m1, m2, m3) certified on deflections in [-H, w_max].

    m2 is pinned to the floor and m1 absorbs the whole (x, z, w) dependence on
    the certified range; the gap-side ratios weight the squared gradient by
    the local gap height.  Gap evaluations use z between the interface and the
    plate, the only region where the gap data is ever sampled.
    """
    if w_max < p.H:
        raise ValueError("w_max must cover at least the gap height")
    x = np.linspace(-p.L, p.L, _N_X_M)[:, None, None]
    z1 = np.linspace(-p.H - p.d, -p.H, _N_ZT)[None, :, None]
    t = np.linspace(0.0, 1.0, _N_ZT)[None, :, None]

    def layer_ratio(w):
        w = w[None, None, :]
        return np.max((np.abs(f.dx_h1(x, z1, w)) + np.abs(f.dz_h1(x, z1, w))) ** 2, axis=(0, 1))

    def gap_ratio(w):
        w = w[None, None, :]
        z = -p.H + t * (w + p.H)
        r = (np.abs(f.dx_h2(x, z, w)) + np.abs(f.dz_h2(x, z, w))) ** 2 * (p.H + w)
        return np.max(r, axis=(0, 1))

    def layer_w_ratio(w):
        w = w[None, None, :]
        return np.max(f.dw_h1(x, z1, w) ** 2, axis=(0, 1))

    def gap_w_ratio(w):
        w = w[None, None, :]
        z = -p.H + t * (w + p.H)
        return np.max(f.dw_h2(x, z, w) ** 2 * (p.H + w), axis=(0, 1))

    m1_layer, m1_gap, m3_layer, m3_gap = (
        _certified_max(fn, -p.H, w_max, label)
        for fn, label in [(layer_ratio, "m1 (layer)"), (gap_ratio, "m1 (gap)"),
                          (layer_w_ratio, "m3 (layer)"), (gap_w_ratio, "m3 (gap)")]
    )
    m2 = EPS_M
    m1 = max(EPS_M, SAFETY * max(m1_layer, m1_gap))
    m3 = max(EPS_M, SAFETY * max(m3_layer, m3_gap))
    return m1, m2, m3


def compute_A(m2: float, m3: float, sbar: float, d: float, beta: float) -> float:
    """Regularization strength: 8 (d+1) sbar (3 m2 / 2 + m3^2 (d+1) sbar / beta)."""
    if m2 < 0 or m3 < 0 or sbar < 0:
        raise ValueError("m2, m3, sigma_bar must be nonnegative")
    try:
        return 8.0 * (d + 1.0) * sbar * (1.5 * m2 + m3**2 * (d + 1.0) * sbar / beta)
    except OverflowError:
        raise UnboundedGrowth(f"A overflows at m3 = {m3:.3e}") from None


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from (params, family) on the working range [-H, w_max]."""

    sigma_bar: float
    m1: float
    m2: float
    m3: float
    K: float
    G0: float
    A: float
    kappa0: float
    w_max: float
    eps_m: float = EPS_M

    def as_dict(self) -> dict:
        return {
            "sigma_bar": self.sigma_bar, "m1": self.m1, "m2": self.m2, "m3": self.m3,
            "K": self.K, "G0": self.G0, "A": self.A, "kappa0": self.kappa0,
            "w_max": self.w_max, "eps_m": self.eps_m,
        }


def derive_constants(p: PhysicalParams, f: BoundaryDataFamily) -> DerivedConstants:
    """All derived constants, on the working range [-H, 2 max(kappa0, H)].

    The plate trace h2(x, w, w) = V is constant, so its gradient
    dx_h2 + dz_h2 + dw_h2 is exactly zero and the trace constant K is the
    floor EPS_M, with the force floor magnitude G0 = sigma2 K^2.
    """
    sbar = sigma_bar(p)
    K = EPS_M
    G0 = p.sigma2 * K**2
    kappa0 = kappa0_bound(p.beta, p.tau, p.L, p.H, G0)
    w0 = 2.0 * max(kappa0, p.H)
    m1, m2, m3 = compute_m_constants(f, p, w0)
    A = compute_A(m2, m3, sbar, p.d, p.beta)
    out = DerivedConstants(
        sigma_bar=sbar, m1=m1, m2=m2, m3=m3, K=K, G0=G0, A=A, kappa0=kappa0, w_max=w0
    )
    if not np.all(np.isfinite(list(out.as_dict().values()))):
        raise UnboundedGrowth(f"derived constants overflow: {out.as_dict()}")
    return out
