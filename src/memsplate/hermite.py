"""Cubic Hermite discretization of the clamped plate on an interval.

Degrees of freedom are (value, slope) pairs at equispaced nodes, interleaved
as ``[v0, s0, v1, s1, ...]``, which makes the discrete space C^1 and therefore
conforming for energies containing second derivatives.  Clamped ends are
handled by the callers through :func:`clamped_dof_indices`; states always
carry the full vector so that non-clamped test shapes (e.g. flat offsets) are
representable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np
import scipy.sparse as sp

from .errors import SingularAssembly

__all__ = [
    "PlateGrid",
    "PlateState",
    "assemble_bending_and_stretch",
    "assemble_mass",
    "mechanical_energy",
    "project_obstacle",
    "interpolate",
    "clamped_dof_indices",
    "gauss_rule",
]

# a read-only view, for the tables kept per grid and shared by every caller and thread
_read_only = partial(np.lib.stride_tricks.as_strided, writeable=False)
# Nodes/weights of Gauss-Legendre rules on [0, 1], by point count.
_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the unit interval."""
    if n not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GAUSS_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _GAUSS_CACHE[n]


def shape_functions(xi: np.ndarray, h: float, deriv: int = 0) -> np.ndarray:
    """Hermite shapes (4, len(xi)) at local coordinates xi in [0, 1].

    Slope shapes carry the element length h so that DOFs are physical slopes;
    ``deriv`` differentiates with respect to the physical coordinate.
    """
    xi = np.asarray(xi, dtype=float)
    if deriv == 0:
        return np.stack([
            1.0 - 3.0 * xi**2 + 2.0 * xi**3,
            h * (xi - 2.0 * xi**2 + xi**3),
            3.0 * xi**2 - 2.0 * xi**3,
            h * (xi**3 - xi**2),
        ])
    if deriv == 1:
        return np.stack([
            (-6.0 * xi + 6.0 * xi**2) / h,
            1.0 - 4.0 * xi + 3.0 * xi**2,
            (6.0 * xi - 6.0 * xi**2) / h,
            3.0 * xi**2 - 2.0 * xi,
        ])
    if deriv == 2:
        return np.stack([
            (-6.0 + 12.0 * xi) / h**2,
            (-4.0 + 6.0 * xi) / h,
            (6.0 - 12.0 * xi) / h**2,
            (6.0 * xi - 2.0) / h,
        ])
    raise ValueError(f"unsupported derivative order {deriv}")


@dataclass(frozen=True)
class PlateGrid:
    """Equispaced Hermite grid on [x_left, x_right] (default [-L, L])."""

    n_elems: int
    L: float
    x_left: float = field(default=None)  # type: ignore[assignment]
    x_right: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n_elems < 1:
            raise ValueError("n_elems must be >= 1")
        left = -self.L if self.x_left is None else self.x_left
        right = self.L if self.x_right is None else self.x_right
        object.__setattr__(self, "x_left", float(left))
        object.__setattr__(self, "x_right", float(right))
        if not self.x_right > self.x_left:
            raise ValueError("empty grid interval")
        if self.h <= 0.0 or self.h < 1e-300 or not np.isfinite(self.h):
            raise SingularAssembly(f"element size underflow: h={self.h}")

    @classmethod
    def from_interval(cls, n_elems: int, a: float, b: float) -> "PlateGrid":
        return cls(n_elems, 0.5 * (b - a), x_left=a, x_right=b)

    @property
    def h(self) -> float:
        return (self.x_right - self.x_left) / self.n_elems

    @property
    def n_nodes(self) -> int:
        return self.n_elems + 1

    @property
    def n_dofs(self) -> int:
        return 2 * self.n_nodes

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_left, self.x_right, self.n_nodes)

    @property
    @lru_cache(maxsize=1)
    def conn(self) -> np.ndarray:
        """(n_elems, 4) DOF indices ``[v_e, s_e, v_e+1, s_e+1]`` of every element, read-only, kept process-wide."""
        return _read_only(2 * np.arange(self.n_elems)[:, None] + np.arange(4))

    def scatter(self, elem_vals: np.ndarray) -> np.ndarray:
        """Sum per-element 4-vectors (n_elems, 4) into a global DOF vector, in element order."""
        return np.bincount(self.conn.ravel(), elem_vals.ravel(), self.n_dofs)

    @lru_cache(maxsize=3)
    def gauss_shapes(self, n: int, deriv: int = 0) -> np.ndarray:
        """Hermite shapes (4, n) at the n-point Gauss rule, read-only; the latest three, one grid's, are kept."""
        return _read_only(shape_functions(gauss_rule(n)[0], self.h, deriv))

    def shapes_at(self, x: np.ndarray, deriv: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Element DOF indices and Hermite shapes (4, ...) at physical points x, for ``PlateState.at``."""
        e, xi = self.locate(np.atleast_1d(np.asarray(x, dtype=float)))
        return np.add.outer(np.arange(4), 2 * e), shape_functions(xi, self.h, deriv)

    def locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Element index and local coordinate for physical points x."""
        x = np.asarray(x, dtype=float)
        e = np.clip(((x - self.x_left) / self.h).astype(int), 0, self.n_elems - 1)
        xi = (x - (self.x_left + e * self.h)) / self.h
        return e, np.clip(xi, 0.0, 1.0)


def clamped_dof_indices(grid: PlateGrid) -> np.ndarray:
    """DOFs pinned by u = u' = 0 at both ends."""
    n = grid.n_dofs
    return np.array([0, 1, n - 2, n - 1])


@dataclass
class PlateState:
    """Plate deflection as a full Hermite DOF vector on its grid."""

    grid: PlateGrid
    dofs: np.ndarray

    def __post_init__(self):
        self.dofs = np.asarray(self.dofs, dtype=float)
        if self.dofs.shape != (self.grid.n_dofs,):
            raise ValueError(
                f"dof vector has shape {self.dofs.shape}, expected ({self.grid.n_dofs},)"
            )

    @classmethod
    def zero(cls, grid: PlateGrid) -> "PlateState":
        return cls(grid, np.zeros(grid.n_dofs))

    @classmethod
    def constant(cls, grid: PlateGrid, c: float) -> "PlateState":
        dofs = np.zeros(grid.n_dofs)
        dofs[0::2] = c
        return cls(grid, dofs)

    @classmethod
    def from_nodal(cls, grid: PlateGrid, values: np.ndarray, slopes: np.ndarray) -> "PlateState":
        dofs = np.empty(grid.n_dofs)
        dofs[0::2] = values
        dofs[1::2] = slopes
        return cls(grid, dofs)

    @property
    def values(self) -> np.ndarray:
        return self.dofs[0::2]

    @property
    def slopes(self) -> np.ndarray:
        return self.dofs[1::2]

    def copy(self) -> "PlateState":
        return PlateState(self.grid, self.dofs.copy())

    def __call__(self, x: np.ndarray, deriv: int = 0) -> np.ndarray:
        """Evaluate u (or a derivative) at arbitrary points."""
        return self.at(*self.grid.shapes_at(x, deriv))

    def at(self, elem_dofs: np.ndarray, N: np.ndarray) -> np.ndarray:
        """u at points tabulated by ``PlateGrid.shapes_at``: their element DOFs and shapes, summed shape by shape."""
        out = np.zeros(N.shape[1:])
        for j in range(4):
            out += N[j] * self.dofs[elem_dofs[j]]
        return out

    def is_feasible(self, H: float, tol: float = 0.0) -> bool:
        return bool(np.all(self.values >= -H - tol))

    def local(self, xi: np.ndarray, deriv: int = 0) -> np.ndarray:
        """u (or a derivative) at local points xi of every element, shape (n_elems, len(xi))."""
        return self.at_local(shape_functions(xi, self.grid.h, deriv))

    def at_local(self, N: np.ndarray) -> np.ndarray:
        """u at the local points of every element where the Hermite shapes are N (4, n), shape (n_elems, n)."""
        loc = self.dofs[self.grid.conn]
        # batched N.T @ loc rounds like the per-element product; loc @ N and einsum do not
        return (N.T[None] @ loc[:, :, None])[..., 0]

    def sample_dense(self, pts_per_elem: int = 8, deriv: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate on a fine per-element sampling (includes element endpoints)."""
        g = self.grid
        xi = np.linspace(0.0, 1.0, pts_per_elem)
        xs = (g.x_left + np.arange(g.n_elems) * g.h)[:, None] + xi * g.h
        return xs.ravel(), self.local(xi, deriv).ravel()


def _element_matrix(h: float, deriv: int, n_gauss: int = 4) -> np.ndarray:
    """Exact 4x4 element matrix of the given derivative pairing (Gauss on polynomials)."""
    xi, w = gauss_rule(n_gauss)
    N = shape_functions(xi, h, deriv)
    return (N * w) @ N.T * h


def _assemble(grid: PlateGrid, elem: np.ndarray) -> sp.csr_matrix:
    conn = grid.conn
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, 4).ravel()
    data = np.tile(elem.ravel(), grid.n_elems)
    A = sp.coo_matrix((data, (rows, cols)), shape=(grid.n_dofs, grid.n_dofs))
    return A.tocsr()


def assemble_bending_and_stretch(
    grid: PlateGrid, beta: float, tau: float
) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Bending and stretching stiffness matrices, scaled by beta and tau.

    Both are symmetric positive semidefinite on the full DOF set and positive
    definite (B alone, for beta > 0) once the clamped DOFs are eliminated.
    """
    h = grid.h
    B = _assemble(grid, beta * _element_matrix(h, 2))
    S = _assemble(grid, tau * _element_matrix(h, 1))
    return B, S


def assemble_mass(grid: PlateGrid) -> sp.csr_matrix:
    """Consistent Hermite mass matrix (exact integrals)."""
    return _assemble(grid, _element_matrix(grid.h, 0))


def unit_energy_diagonal(grid: PlateGrid) -> np.ndarray:
    """Diagonal of unit bending + stretching + mass, bitwise the assembled one: two element entries at most per DOF."""
    dofs = grid.conn.ravel()
    return sum(np.bincount(dofs, np.tile(np.diag(_element_matrix(grid.h, k)), grid.n_elems)) for k in (2, 1, 0))


def mechanical_energy(u: PlateState, beta: float, tau: float) -> float:
    """(beta/2)||u''||^2 + (tau/2)||u'||^2 by exact elementwise quadrature."""
    w = gauss_rule(4)[1]
    du, d2u = (u.at_local(u.grid.gauss_shapes(4, d)) for d in (1, 2))
    per_elem = u.grid.h * np.sum(w * (0.5 * beta * d2u**2 + 0.5 * tau * du**2), axis=1)
    # accumulate keeps the element-by-element order of the sum; np.sum would pair terms
    return float(np.add.accumulate(per_elem)[-1])


def project_obstacle(u: PlateState, H: float) -> PlateState:
    """Clip nodal values to >= -H; zero the slope at every clipped node.

    Identity on feasible states.  The slope rule encodes flat tangency where
    the plate lands on the obstacle.
    """
    out = u.copy()
    clipped = out.values < -H
    if np.any(clipped):
        vals = out.values.copy()
        slopes = out.slopes.copy()
        vals[clipped] = -H
        slopes[clipped] = 0.0
        out.dofs[0::2] = vals
        out.dofs[1::2] = slopes
    return out


def interpolate(grid: PlateGrid, f, df=None) -> PlateState:
    """Hermite interpolant of a callable (values and slopes at nodes).

    If df is omitted, slopes come from a small central difference.
    """
    x = grid.nodes
    vals = np.asarray(f(x), dtype=float)
    if df is not None:
        slopes = np.asarray(df(x), dtype=float)
    else:
        eps = 1e-6 * max(grid.h, 1.0)
        slopes = (np.asarray(f(x + eps)) - np.asarray(f(x - eps))) / (2.0 * eps)
    return PlateState.from_nodal(grid, vals, slopes)
