"""Device parameters, the boundary-data family, and derived constants.

The boundary-data family is the one-dimensional transmission profile
(the potential that is linear-in-z within each dielectric for a flat plate):

    h1(x, z, w) = V s2 (z + H + d) / (s2 d + s1 (w + H))        in the layer,
    h2(x, z, w) = V (s1 (z + H) + s2 d) / (s2 d + s1 (w + H))   in the gap,

which satisfies the interface matching and flux-matching identities exactly,
grounds the bottom electrode, and holds the plate at potential V.  The plate
trace is that constant, so the trace constant K is the floor EPS_M and the
force is its square term (``forces``).  The
growth constants used by the energy regularization are the exact suprema of
their ratios over the working deflection range, in closed form, rounded up
by 2^-48 relative.
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
        # a callable sigma1 is checked where the field solver evaluates it
        if self.sigma1_is_constant and not 0.0 < float(self.sigma1) < np.inf:  # type: ignore[arg-type]
            raise ValueError("sigma1 must be finite and > 0")

    @property
    def sigma1_is_constant(self) -> bool:
        return not callable(self.sigma1)

    def sigma1_at(self, x, z) -> np.ndarray:
        if self.sigma1_is_constant:
            return np.broadcast_to(float(self.sigma1), np.broadcast(x, z).shape).copy()  # type: ignore[arg-type]
        return np.asarray(self.sigma1(np.asarray(x, float), np.asarray(z, float)), dtype=float)

    def with_V(self, V: float) -> "PhysicalParams":
        return replace(self, V=float(V))


def _constant_sigma1(p: PhysicalParams) -> float:
    if not p.sigma1_is_constant:
        raise NonConstantPermittivity("transmission-profile family needs constant sigma1")
    return float(p.sigma1)  # type: ignore[arg-type]


def sigma_bar(p: PhysicalParams) -> float:
    """max of the layer permittivity and the gap permittivity; needs a constant sigma1."""
    return max(_constant_sigma1(p), p.sigma2)


@dataclass(frozen=True)
class BoundaryDataFamily:
    """Dirichlet data h1 (layer) / h2 (gap).

    Both callables take (x, z, w); w is the plate deflection at the column
    being evaluated.  A result broadcasts against the inputs but need not have
    their full shape: data that do not depend on x carry no x axis (the
    builtin h1 of x (n,1,1), z (1,m,1), w (1,1,k) has shape (1,m,k)).  The
    plate trace h2(x, w, w) is V, so the force needs no partial of the data.
    """

    h1: Callable
    h2: Callable


def build_canonical_boundary_data(p: PhysicalParams) -> BoundaryDataFamily:
    """Transmission-profile family with the plate held at V; requires a spatially uniform layer."""
    s1 = _constant_sigma1(p)
    s2, d, H, V = p.sigma2, p.d, p.H, p.V

    def denom(w):
        return s2 * d + s1 * (w + H)

    def h1(x, z, w):
        return V * s2 * (z + H + d) / denom(w)

    def h2(x, z, w):
        return V * (s1 * (z + H) + s2 * d) / denom(w)

    return BoundaryDataFamily(h1=h1, h2=h2)


def compute_m_constants(p: PhysicalParams, w_max: float) -> tuple[float, float, float]:
    """Growth constants (m1, m2, m3): the exact suprema on deflections in [-H, w_max].

    With g = w + H and D = s2 d + s1 g, the layer ratios |dz_h1|^2 = (V s2 / D)^2
    and |dw_h1|^2 = (V s1 s2 (z + H + d) / D^2)^2 peak at w = -H, z = -H, where they
    are (V / d)^2 and (V s1 / (s2 d))^2.  The gap ratios |dz_h2|^2 g and |dw_h2|^2 g
    (the latter largest at z = w) are both V^2 s1^2 g / D^2, which peaks at
    g* = min(s2 d / s1, w_max + H).  No datum depends on x, so m2 is the floor.
    Each supremum is rounded up by 2^-48 relative, as the kappa0 bound rounds
    Q(y*): well above the rounding error of its few operations.  It is floored at
    EPS_M.  Squares are products, so an overflow reads inf, not OverflowError,
    and is left to the finiteness check of derive_constants.
    """
    if w_max < p.H:
        raise ValueError("w_max must cover at least the gap height")
    s1 = _constant_sigma1(p)
    s2, d, V = p.sigma2, p.d, p.V
    g = min(s2 * d / s1, w_max + p.H)
    dz_gap = V * s1 / (s2 * d + s1 * g)
    gap = dz_gap * dz_gap * g
    dz_layer, dw_layer = V / d, V * s1 / (s2 * d)
    up = 1.0 + 2.0**-48
    m1 = max(EPS_M, max(dz_layer * dz_layer, gap) * up)
    m3 = max(EPS_M, max(dw_layer * dw_layer, gap) * up)
    return m1, EPS_M, m3


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
    """Constants derived from the params on the working range [-H, w_max]; m1-m3 are closed forms."""

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


def derive_constants(p: PhysicalParams) -> DerivedConstants:
    """All derived constants, on the working range [-H, 2 max(kappa0, H)].

    The plate trace h2(x, w, w) = V is constant, so its x-derivative and
    (d/dz + d/dw) h2 on the plate are exactly zero and the trace constant K is
    the floor EPS_M, with the force floor magnitude G0 = sigma2 K^2.  A constant
    that overflows raises UnboundedGrowth.
    """
    sbar = sigma_bar(p)
    K = EPS_M
    G0 = p.sigma2 * K**2
    kappa0 = kappa0_bound(p.beta, p.tau, p.L, p.H, G0)
    w0 = 2.0 * max(kappa0, p.H)
    m1, m2, m3 = compute_m_constants(p, w0)
    A = compute_A(m2, m3, sbar, p.d, p.beta)
    out = DerivedConstants(
        sigma_bar=sbar, m1=m1, m2=m2, m3=m3, K=K, G0=G0, A=A, kappa0=kappa0, w_max=w0
    )
    if not np.all(np.isfinite(list(out.as_dict().values()))):
        raise UnboundedGrowth(f"derived constants overflow: {out.as_dict()}")
    return out
