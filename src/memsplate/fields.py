"""Transmission solve for the electrostatic potential on layer + gap.

The layer occupies the fixed rectangle D x (-H-d, -H); the gap between the
layer top and the plate is pulled back column-by-column to the reference
rectangle D x (0, 1) through eta = (z + H) / gamma(x) with gap height
gamma = u + H.  On the reference rectangle the (constant-permittivity)
Laplacian becomes a divergence-form operator with coefficient matrix

    [[gamma,        -eta gamma'          ],
     [-eta gamma',  (1 + (eta gamma')^2) / gamma]]

whose determinant is 1, so ellipticity is uniform while the geometry moves
with the plate.  Both subdomains are discretized with bilinear elements on
tensor grids (a second-order nine-point stencil); sharing the interface row
makes the discrete operator symmetric and balances the normal flux
sigma dz(psi) across the interface to the order of the scheme.  Only the gap
moves with the plate: the layer interior is eliminated onto the interface row
once per layer and process, by the sine transform along x when sigma1 does not
vary in x and by SuperLU otherwise (``_Layer``), so each solve assembles, and
factors or iterates on, the interface row and the gap interior alone.  A flat
gap over such a layer makes that block the same in every column; the sine
transform then solves it without a factorization (``_SineSolver``).
The iteration is an in-module preconditioned CG (``_pcg``); it, the sine
solver and the residual check sum their dot products with numpy's own loops
and never call BLAS, so a solve does not wake numpy's BLAS thread pool.
SuperLU keeps its own BLAS use.

The plate height is floored at the contact threshold eps: the field sees
w(u) = u down to -H + 2 eps and below that a C2 blend reaching eps - H at
u = -H (``_floored``), so every gap column keeps a height gamma = w + H >= eps
and stays in the domain.  On the layer w' = 0 and the field energy does not
depend on u.  The discrete energy is twice differentiable through touchdown,
and its exact derivative is the shape gradient below.  Columns within eps of
the layer are reported as contact and otherwise treated like every other column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import LinearSolveFailed
from .hermite import PlateState, shape_functions
from .params import BoundaryDataFamily, PhysicalParams

__all__ = [
    "FieldGrid",
    "GapMap",
    "PotentialField",
    "FieldSolver",
    "check_max_principle",
    "contact_threshold",
]

# 2x2 Gauss rule on the unit square: points along each axis and weights.
_GP = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_GW = np.array([0.5, 0.5])


def contact_threshold(plate_h: float, H: float) -> float:
    """Gap height at which a column counts as touching the layer; the floor of every gap."""
    return max(1e-9, plate_h**2) * H


def _floored(u: np.ndarray, floor: float, band: float):
    """Plate heights floored at ``floor``, rounded to C2 over ``floor -+ band``: w, w', w''.

    w = u bit for bit at and above floor + band, floor at and below floor - band,
    and between the quartic floor + band (s + 1)^3 (3 - s) / 16, s = (u - floor) / band.
    """
    s = np.clip((u - floor) / band, -1.0, 1.0)
    above = u >= floor + band
    w = np.where(above, u, floor + band * (s + 1.0) ** 3 * (3.0 - s) / 16.0)
    dw = np.where(above, 1.0, (s + 1.0) ** 2 * (2.0 - s) / 4.0)
    d2w = np.where(above, 0.0, 0.75 * (1.0 - s * s) / band)
    return w, dw, d2w


def _q1_tables():
    """Q1 shape derivatives and the weights at the 4 Gauss points of the unit square.

    Returns Nxi, Nze (4, 4), basis index x point index, and W (4,);
    point q = 2*qz + qx pairs the x-point qx with the vertical point qz.
    """
    xi = np.tile(_GP, 2)
    ze = np.repeat(_GP, 2)
    Nxi = np.stack([-(1 - ze), (1 - ze), -ze, ze])
    Nze = np.stack([-(1 - xi), -xi, (1 - xi), xi])
    W = np.tile(_GW, 2) * np.repeat(_GW, 2)
    return Nxi, Nze, W


_NXI, _NZE, _W = _q1_tables()

# (z, x) offset of each Q1 basis corner within its element, in basis order
_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))
# element matrices are symmetric and kept packed: their 10 entries a <= b,
# and where entry (a, b) is found among them
_UPPER = np.triu_indices(4)
_PACKED = np.zeros((4, 4), int)
_PACKED[_UPPER] = np.arange(10)
_PACKED = np.maximum(_PACKED, _PACKED.T)

# CG iterations on a held factor before a solve factors afresh instead
_PCG_MAXIT = 12
# interface columns eliminated per multi-right-hand-side layer solve
_LAYER_CHUNK = 16


def _add_elements(stencil: np.ndarray, ke: np.ndarray) -> None:
    """Add packed element matrices (n_rows, n_cols, ..., 10) into a nine-point stencil in place.

    ``stencil[r, c, ..., 1 + dz, 1 + dx]`` couples node (r, c) to node (r + dz, c + dx);
    element (j, i) has its lower-left corner at node (j, i).
    """
    nr, nc = ke.shape[:2]
    for a, (az, ax) in enumerate(_CORNERS):
        for b, (bz, bx) in enumerate(_CORNERS):
            stencil[az:az + nr, ax:ax + nc, ..., 1 + bz - az, 1 + bx - ax] += ke[..., _PACKED[a, b]]


def _nine_point_pattern(nr: int, nc: int):
    """CSR pattern of a nine-point stencil on an nr x nc grid numbered row-major.

    Returns (keep, indices, indptr): ``keep`` (nr, nc, 3, 3) marks the in-grid
    neighbors, which row r*nc + c holds in (dz, dx) order, ascending column order.
    """
    r = np.arange(nr)[:, None, None, None] + np.arange(-1, 2)[None, None, :, None]
    c = np.arange(nc)[None, :, None, None] + np.arange(-1, 2)[None, None, None, :]
    keep = (r >= 0) & (r < nr) & (c >= 0) & (c < nc)
    indices = np.broadcast_to(r * nc + c, keep.shape)[keep].astype(np.int32)
    indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=(2, 3)).ravel()))).astype(np.int32)
    return keep, indices, indptr


def _gap_block_pattern(nr: int, nc: int):
    """CSR pattern of a nine-point stencil on an nr x nc grid plus a dense block on its first row.

    Returns (keep, indices, indptr, nine, dense): ``keep`` as in
    ``_nine_point_pattern``, and where the pattern holds the stencil's entries
    (in ``keep`` order) and the dense block's (row-major).
    """
    keep, indices, indptr = _nine_point_pattern(nr, nc)
    head = indptr[nc]  # the first row's stencil entries
    c = np.arange(nc)
    lo, hi = np.maximum(c - 1, 0), np.minimum(c + 1, nc - 1)  # each first-row node's second-row neighbors
    # a first row holds every first-row column, then its second-row neighbors
    ptr = np.concatenate(([0], np.cumsum(nc + hi - lo + 1)))
    rows, cols = np.repeat(c, np.diff(indptr[:nc + 1])), indices[:head]
    nine = ptr[rows] + np.where(cols < nc, cols, cols - lo[rows])
    dense = (ptr[:-1, None] + c).ravel()
    first = np.empty(ptr[-1], np.int32)
    first[dense] = np.tile(c, nc)
    first[nine] = cols
    shift = ptr[-1] - head  # the later rows keep their stencil entries, moved by this
    return (
        keep,
        np.concatenate([first, indices[head:]]),
        np.concatenate([ptr[:-1], indptr[nc:] + shift]).astype(np.int32),
        np.concatenate([nine, np.arange(head, indices.size) + shift]),
        dense,
    )


def _apply(inner: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The free nodes' stencil rows applied to a node grid, summed in (dz, dx) order as a CSR row is."""
    ni, nj = inner.shape[:2]
    out = np.zeros((ni, nj))
    for dz in range(3):
        for dx in range(3):
            out += inner[:, :, dz, dx] * nodes[dz:dz + ni, dx:dx + nj]
    return out


def _factor(A: sp.csr_matrix):
    """SuperLU factor of a symmetric block."""
    return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b summed by numpy's own loop: a BLAS dot of a long vector wakes its thread pool, which then spins."""
    return float(np.einsum("i,i", a, b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def _pcg(S, b: np.ndarray, factor, atol: float, steps: int):
    """CG on S x = b from x = 0, preconditioned with a held factor, step for step as scipy's ``cg``.

    Returns (x, iterations, converged): converged once ||r|| < atol is seen
    before a step; ``steps`` iterations without that are a miss.

    A start from the current iterate's potential took 225 CG iterations where
    this takes 395 over eight cold 1-5 V default-device solves, but it ends just
    under atol, not 10-40x under, and the default sweep's 11 V point then stalled
    at vi 2.9e-8 against a tolerance of 1e-8: the contact certificate needs that margin.
    """
    x, r, p, rho_prev = np.zeros_like(b), b.copy(), None, 0.0
    for k in range(steps):
        if _norm(r) < atol:
            return x, k, True
        z = factor.solve(r)
        rho = _dot(r, z)
        p = z if p is None else z + (rho / rho_prev) * p
        q = S @ p
        alpha = rho / _dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, steps, False


def _x_invariant(stencil: np.ndarray) -> bool:
    """Whether stencil rows (n_rows, n_cols, 3, 3) are the same in every column and symmetric under x-reflection."""
    return (np.array_equal(stencil, np.broadcast_to(stencil[:, :1], stencil.shape))
            and np.array_equal(stencil[..., 0], stencil[..., 2]))


def _dst(a: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I along the last axis, its own inverse, from numpy's FFT of the odd extension."""
    n = a.shape[-1]
    ext = np.zeros(a.shape[:-1] + (2 * n + 2,))
    ext[..., 1:n + 1] = a
    ext[..., n + 2:] = -a[..., ::-1]
    return np.fft.rfft(ext)[..., 1:n + 1].imag * -math.sqrt(0.5 / (n + 1))


class _SineSolver:
    """Direct solver of a condensed block whose free-node stencil is x-invariant (``_x_invariant``).

    Its rows couple through symmetric tridiagonal Toeplitz matrices in x, which
    the orthonormal DST-I diagonalizes, as it does the layer correction: in the
    sine basis the block is one tridiagonal system across the rows per sine mode
    (matrix decomposition; Buzbee, Golub and Nielson, 1970).  LAPACK's LDL^T
    tridiagonal factor (Thomas) takes all modes as one chain, zero-coupled
    between modes.  ``solve`` transforms, sweeps and transforms back, without BLAS.
    """

    def __init__(self, rows: np.ndarray, layer_sine: np.ndarray):
        # rows (n_rows, 3, 3): the stencil of one column; row 0 is the interface row
        self.cos = cos = 2.0 * np.cos(np.pi * np.arange(1, layer_sine.size + 1) / (layer_sine.size + 1))
        diag = rows[:, 1, 1, None] + rows[:, 1, 0, None] * cos
        diag[0] -= layer_sine
        upper = np.zeros_like(diag)  # row r to row r + 1 within a mode, 0 from a mode's last row to the next mode
        upper[:-1] = rows[:-1, 2, 1, None] + rows[:-1, 2, 0, None] * cos
        self.shape = diag.shape
        self.d, self.e, _ = lapack.dpttrf(diag.T.ravel(), upper.T.ravel()[:-1])

    def solve(self, b: np.ndarray) -> np.ndarray:
        y, _ = lapack.dpttrs(self.d, self.e, _dst(b.reshape(self.shape)).T.ravel())
        return _dst(y.reshape(self.shape[::-1]).T).ravel()


@dataclass(frozen=True)
class _Layer:
    """The layer interior, solved once per layer and eliminated onto the interface row above it.

    With the free nodes split into the layer interior L and the interface
    row plus the gap interior, the layer enters the rest only through the
    interface row I: the condensed block is the gap block less
    ``correction`` = A_IL A_LL^-1 A_LI on I x I, its right-hand side loses
    A_IL A_LL^-1 b_L on I, and the layer values are A_LL^-1 (b_L - A_LI x_I).
    When sigma1 does not vary in x, A_LL is solved by the sine transform
    (``_SineSolver``) and the correction is c_m^2 [A_LL,m^-1]_last,last in sine
    mode m, c_m the last layer row's coupling to I: a 3 ms build on the
    default grid, against about 84 ms for SuperLU, which factors any other layer.
    """

    rows: np.ndarray          # layer stencil on the interior rows 1..n_z1-1 it was built from
    lu: object                # A_LL's solver: a _SineSolver for an x-invariant layer, else its SuperLU factor
    coupling: sp.csr_matrix   # the last layer row's couplings to I: A_LI's nonzero rows
    correction: np.ndarray    # A_IL A_LL^-1 A_LI, symmetrized, (n_x-1, n_x-1)
    edge: np.ndarray          # layer nodes next to the pinned ring, where b_L can be nonzero
    edge_map: np.ndarray      # (A_LL^-1 A_LI)[edge]^T: A_IL A_LL^-1 b_L = edge_map @ b_L[edge] by symmetry
    sine: np.ndarray          # correction's diagonal in the sine basis for an x-invariant layer, else None

    @classmethod
    def build(cls, rows: np.ndarray) -> "_Layer":
        nl, nj = rows.shape[:2]
        top = rows[-1, :, 2]  # dx = -1, 0, +1 onto the interface row above
        coupling = sp.diags([top[1:, 0], top[:, 1], top[:-1, 2]], [-1, 0, 1], format="csr")
        edge = np.zeros((nl, nj), bool)
        edge[0] = edge[:, 0] = edge[:, -1] = True
        edge = np.flatnonzero(edge)
        if _x_invariant(rows):
            lu = _SineSolver(rows[:, 0], np.zeros(nj))
            c = top[0, 1] + top[0, 0] * lu.cos  # each sine mode's coupling to the interface row
            # G[m] = c_m A_LL,m^-1 e_last, from e_last in every sine mode m
            G = lapack.dpttrs(lu.d, lu.e, np.tile(np.eye(nl)[-1], nj))[0].reshape(nj, nl) * c[:, None]
            sine = c * G[:, -1]
            correction = _dst(_dst(np.diag(sine)).T)
            # A_LL^-1 A_LI on the first layer row, then on both side columns row by row
            sides = _dst(_dst(np.eye(nj)[[0, -1]])[:, None, :] * G.T)[:, 1:].transpose(1, 0, 2).reshape(-1, nj)
            edge_map = np.concatenate([_dst(_dst(np.diag(G[:, 0])).T), sides]).T
        else:
            keep, indices, indptr = _nine_point_pattern(nl, nj)
            lu = _factor(sp.csr_matrix((rows[keep], indices, indptr), shape=(nl * nj, nl * nj)))
            correction, edge_map, sine = np.empty((nj, nj)), np.empty((nj, edge.size)), None
            # A_LL^-1 A_LI a few columns at a time: one dense n_L x n_x block would
            # cost more memory and, under a threaded BLAS, more time
            for j in range(0, nj, _LAYER_CHUNK):
                cols = slice(j, j + _LAYER_CHUNK)
                block = coupling[:, cols].toarray()
                rhs = np.zeros((nl * nj, block.shape[1]))
                rhs[-nj:] = block
                Z = lu.solve(rhs)
                correction[:, cols] = coupling.T @ Z[-nj:]
                edge_map[cols] = Z[edge].T
        return cls(rows.copy(), lu, coupling, 0.5 * (correction + correction.T), edge, edge_map, sine)

    def load(self, b_layer: np.ndarray) -> np.ndarray:
        """What the layer's right-hand side puts on the interface row: A_IL A_LL^-1 b_L, without BLAS."""
        return np.einsum("ie,e->i", self.edge_map, b_layer[self.edge])

    def recover(self, b_layer: np.ndarray, x_interface: np.ndarray) -> np.ndarray:
        """The layer values A_LL^-1 (b_L - A_LI x_I)."""
        r = b_layer.copy()
        r[-x_interface.size:] -= self.coupling @ x_interface
        return self.lu.solve(r)


# the most recent layer condensation, and the last rows found equal to its own so that
# a solver's later solves find it by identity.  An entry is never modified, only replaced,
# and a solve keeps the one it read: threads that miss together each build an equal one.
_LAYER = None
_LAYER_SEEN = (None, None)


def _condensed_layer(rows: np.ndarray) -> _Layer:
    """These never modified rows' ``_Layer`` (sine transform, 3 ms, if x-invariant; else SuperLU, 84 ms), kept."""
    global _LAYER, _LAYER_SEEN
    seen_rows, layer = _LAYER_SEEN
    if seen_rows is not rows or layer is not _LAYER:
        layer = _LAYER
        if layer is None or not np.array_equal(layer.rows, rows):
            layer = _LAYER = _Layer.build(rows)
        _LAYER_SEEN = (rows, layer)
    return layer


def _gauss_gradients(psi: np.ndarray, hx: float, hz: float):
    """d/dx and d/dz of a bilinear node grid at its elements' 2x2 Gauss points, [qz, jz, kx] and [qx, jz, kx].

    In a bilinear element d/dx varies only with z and d/dz only with x.
    """
    dx, dz = np.diff(psi, axis=1) / hx, np.diff(psi, axis=0) / hz
    a, b = (1.0 - _GP)[:, None, None], _GP[:, None, None]
    return a * dx[:-1] + b * dx[1:], a * dz[:, :-1] + b * dz[:, 1:]


@dataclass(frozen=True)
class FieldGrid:
    """Tensor resolutions: n_x cells across D, n_z1 in the layer, n_z2 in the gap."""

    n_x: int = 128
    n_z1: int = 64
    n_z2: int = 64

    def __post_init__(self):
        for name in ("n_x", "n_z1", "n_z2"):
            if getattr(self, name) < 4:
                raise ValueError(f"{name} must be >= 4")


@dataclass
class GapMap:
    """Gap geometry of one plate state, per column and at the quadrature points."""

    x: np.ndarray            # field column coordinates
    w: np.ndarray            # floored plate height w(u) >= eps_contact - H per column
    gamma: np.ndarray        # gap height w + H per column
    dgamma: np.ndarray       # slope w' = w'(u) u' per column
    contact: np.ndarray      # boolean mask, True where u + H <= eps_contact (reported only)
    eps_contact: float
    gamma_q: np.ndarray      # w + H at the two x-Gauss points of each element (n_x, 2)
    dgamma_q: np.ndarray     # w' at the same points
    du_q: np.ndarray         # u' at the same points
    dw_q: np.ndarray         # dw/du at the same points: 1 above the floor's band, 0 below
    d2w_q: np.ndarray        # d2w/du2 at the same points


@dataclass
class PotentialField:
    """Discrete potential on the layer grid and the mapped gap grid."""

    x: np.ndarray
    z1: np.ndarray           # physical layer levels, bottom to interface
    eta: np.ndarray          # reference gap levels, interface (0) to plate (1)
    psi1: np.ndarray         # (n_z1+1, n_x+1)
    psi2: np.ndarray         # (n_z2+1, n_x+1); its first row is psi1's last, the same memory
    gap: GapMap
    interface_flux: np.ndarray       # sigma1 * dz(psi1) at z = -H, per column
    interface_flux_gap: np.ndarray   # sigma2 * dz(psi2) at z = -H
    top_trace_dz: np.ndarray         # dz(psi2) at the plate
    bottom_trace_dz1: np.ndarray     # dz(psi1) at z = -H, per column
    boundary_inf: float
    boundary_sup: float
    gap_moments: np.ndarray          # FieldSolver._gap_moments of psi2
    residual: float                  # ||A x - b|| of the whole free-node system
    cg_iterations: int = 0           # CG iterations on a held factor, also when CG then missed tol_lin
    factor: object = None            # the condensed gap block's SuperLU factor or _SineSolver, for reuse nearby

    @property
    def contact_mask(self) -> np.ndarray:
        return self.gap.contact

    def z2_physical(self, H: float) -> np.ndarray:
        """Physical heights of the gap nodes, columnwise (n_z2+1, n_x+1)."""
        return -H + self.eta[:, None] * self.gap.gamma[None, :]


class FieldSolver:
    """Assembles and solves the transmission problem for plate states.

    The layer and gap grids share the interface row, so together they form
    one (n_z1+n_z2+1) x (n_x+1) tensor grid on which the operator is a
    nine-point stencil.  The pinned nodes are the grid's boundary ring
    (electrode, side walls, plate), so the unknowns are its interior.  The
    layer interior does not move with the plate: it is eliminated onto the
    interface row once per layer (``_Layer``; about 3 ms on the default grid by
    the sine transform when sigma1 does not vary in x, about 84 ms by SuperLU
    otherwise), and a solve factors or iterates on the gap-plus-interface
    block alone, then recovers the layer values with one layer solve.  The
    layer stencil and the CSR pattern of the condensed block are built once
    per (params, grid); per state only the interface and gap rows are
    assembled.

    The instance holds only this state-independent structure and no method
    modifies it: every per-state quantity lives in the returned GapMap and
    PotentialField.  The layer condensation is kept process-wide, keyed on
    the layer stencil, so every solver of the same layer (a sweep's points,
    repeated solves) shares it; only the most recent one is kept.
    """

    def __init__(
        self,
        p: PhysicalParams,
        family: BoundaryDataFamily,
        grid: FieldGrid = FieldGrid(),
        tol_lin: float = 1e-10,
    ):
        self.p = p
        self.family = family
        self.grid = grid
        self.tol_lin = tol_lin

        nx, nz1, nz2 = grid.n_x, grid.n_z1, grid.n_z2
        self.x = np.linspace(-p.L, p.L, nx + 1)
        self.z1 = np.linspace(-p.H - p.d, -p.H, nz1 + 1)
        self.eta = np.linspace(0.0, 1.0, nz2 + 1)
        self.hx = 2.0 * p.L / nx
        self.hz1 = p.d / nz1
        self.heta = 1.0 / nz2

        # Gauss points: x per element (nx, 2), layer z (nz1, 2), reference eta (nz2, 2)
        self._xq = self.x[:-1, None] + _GP[None, :] * self.hx
        zq = self.z1[:-1, None] + _GP[None, :] * self.hz1
        self._etaq = self.eta[:-1, None] + _GP[None, :] * self.heta
        # sigma1 at the Gauss points of each layer element, [qz, qx, jz, kx]: its
        # first two axes flatten to q = 2*qz + qx, matching the shape-table ordering
        self._sigma1_q = p.sigma1_at(self._xq.T[None, :, None, :], zq.T[:, None, :, None])
        if not np.all(np.isfinite(self._sigma1_q) & (self._sigma1_q > 0.0)):
            raise ValueError("sigma1 must be finite and > 0 at every Gauss point of the layer")

        # the pinned nodes are the grid's boundary ring and the free nodes its interior, numbered
        # row-major: the layer interior, then the interface row and the gap interior, whose block
        # holds the dense layer correction.  The layer stencil (node rows 0..n_z1) is never modified
        self._gap_pattern = _gap_block_pattern(nz2, nx - 1)
        self._layer_stencil = np.zeros((nz1 + 1, nx + 1, 3, 3))
        _add_elements(self._layer_stencil, self._assemble_layer())
        self._layer_stencil.flags.writeable = False
        self._layer_rows = self._layer_stencil[1:nz1, 1:-1]

        # packed gap element matrix per unit coefficient gamma, -eta gamma' and
        # (1 + (eta gamma')^2) / gamma at each Gauss point: [coefficient, qz, qx, entry]
        kxx = np.einsum("aq,bq,q->qab", _NXI, _NXI, _W) / self.hx**2
        kee = np.einsum("aq,bq,q->qab", _NZE, _NZE, _W) / self.heta**2
        kxe = np.einsum("aq,bq,q->qab", _NXI, _NZE, _W) / (self.hx * self.heta)
        kxe = kxe + kxe.transpose(0, 2, 1)
        kernel = np.stack([kxx, kxe, kee])[:, :, _UPPER[0], _UPPER[1]]
        self._gap_kernel = (self.hx * self.heta * p.sigma2 * kernel).reshape(3, 2, 2, 10)

    # -- assembly ---------------------------------------------------------

    def _assemble_layer(self) -> np.ndarray:
        """Packed element matrices of the (state-independent) layer block, (n_z1, n_x, 10)."""
        hx, hz = self.hx, self.hz1
        shape = (self.grid.n_z1, self.grid.n_x, 10)
        kxx = np.einsum("aq,bq,q->ab", _NXI, _NXI, _W) / hx**2 * (hx * hz)
        kzz = np.einsum("aq,bq,q->ab", _NZE, _NZE, _W) / hz**2 * (hx * hz)
        if self.p.sigma1_is_constant:
            elem = float(self.p.sigma1) * (kxx + kzz)  # type: ignore[arg-type]
            return np.broadcast_to(elem[_UPPER], shape)
        kxx_q = np.einsum("aq,bq->abq", _NXI, _NXI) / hx**2
        kzz_q = np.einsum("aq,bq->abq", _NZE, _NZE) / hz**2
        vals = np.einsum("qe,abq,q->eab", self._sigma1_q.reshape(4, -1), kxx_q + kzz_q, _W) * (hx * hz)
        return vals[:, _UPPER[0], _UPPER[1]].reshape(shape)

    def _assemble_gap(self, gm: GapMap):
        """The gap's packed element matrices of one state, sum_t f[jz, t] tables[kx, t], as (tables, f)."""
        # gamma, gamma' vary along x only and eta along z only; with
        # (1 + (eta gamma')^2) / gamma = 1 / gamma + eta^2 gamma'^2 / gamma an
        # element matrix is a per-column table plus eta and eta^2 times
        # per-column tables, summed over the vertical Gauss points
        g, dg = gm.gamma_q, gm.dgamma_q                                # [kx, qx]
        kg, kb, kc = self._gap_kernel                                  # [qz, qx, entry]
        eta = self._etaq                                               # [jz, qz]
        # per-column tables for 1 (two terms), eta and eta^2 at each vertical Gauss point, by einsum: no BLAS
        coef = np.stack([g, 1.0 / g, -dg, dg**2 / g, -dg, dg**2 / g])                 # [term, kx, qx]
        kern = np.stack([kg.sum(axis=0), kc.sum(axis=0), kb[0], kc[0], kb[1], kc[1]])  # [term, qx, entry]
        tables = np.einsum("tkq,tqe->kte", coef, kern)
        f = np.stack([np.ones(len(eta)), eta[:, 0], eta[:, 0] ** 2, eta[:, 1], eta[:, 1] ** 2], axis=1)
        return np.concatenate([tables[:, :1] + tables[:, 1:2], tables[:, 2:]], axis=1), f

    def _gap_stencil(self, gm: GapMap) -> np.ndarray:
        """The nine-point stencil on the interface row and the gap rows above it, for one gap geometry."""
        # one element row's tables on its lower and upper node row, taken by node row r with f of rows r, r - 1
        tables, f = self._assemble_gap(gm)
        rows = np.zeros((2, 5, self.x.size, 3, 3))
        _add_elements(rows.transpose(0, 2, 1, 3, 4), tables[None])
        weights = np.zeros((self.grid.n_z2 + 1, 2, 5))
        weights[:-1, 0] = weights[1:, 1] = f
        stencil = np.einsum("rt,tcij->rcij", weights.reshape(-1, 10), rows.reshape(10, -1, 3, 3))
        stencil[0] += self._layer_stencil[-1]
        return stencil

    # -- per-state geometry -------------------------------------------------

    def gap_map(self, u: PlateState) -> GapMap:
        """Floored plate height and gap coefficients of one state, computed once for all uses."""
        p = self.p
        if u.values.min() < -p.H - 1e-12 * max(1.0, p.H):
            raise ValueError("plate state is infeasible: u < -H at a node")
        eps = contact_threshold(u.grid.h, p.H)
        ux = u(self.x)
        if not np.all(np.isfinite(ux)):
            raise ValueError("non-finite gap heights")
        w, dw, _ = _floored(ux, eps - p.H, eps)
        xq = self._xq.ravel()
        wq, dwq, d2wq = _floored(u(xq).reshape(-1, 2), eps - p.H, eps)
        duq = u(xq, deriv=1).reshape(-1, 2)
        return GapMap(
            self.x.copy(), w, w + p.H, dw * u(self.x, deriv=1), ux + p.H <= eps, eps,
            wq + p.H, dwq * duq, duq, dwq, d2wq,
        )

    def _dirichlet(self, gm: GapMap) -> np.ndarray:
        """The node grid holding the pinned values on its boundary ring and zeros inside."""
        p, f, nz1, w = self.p, self.family, self.grid.n_z1, gm.w
        vals = np.zeros((nz1 + self.grid.n_z2 + 1, self.x.size))
        vals[0] = f.h1(self.x, -p.H - p.d, w)  # grounded electrode
        for i in (0, -1):  # side walls, both regions
            vals[:nz1 + 1, i] = f.h1(self.x[i], self.z1, w[i])
            vals[nz1:, i] = f.h2(self.x[i], -p.H + self.eta * gm.gamma[i], w[i])
        vals[-1] = f.h2(self.x, w, w)  # plate row
        return vals

    def _apply_free(self, gap: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """The free system's stencil rows applied to a node grid: the layer's, then the interface and gap rows'."""
        nl = self.grid.n_z1 - 1
        return np.concatenate([_apply(self._layer_rows, nodes[:nl + 2]).ravel(), _apply(gap, nodes[nl:]).ravel()])

    def _free_system(self, gm: GapMap):
        """The interface and gap rows' stencil, the free system's right-hand side, and the pinned node grid."""
        gap = self._gap_stencil(gm)[:-1, 1:-1]
        nodes = self._dirichlet(gm)
        # the load of the pinned neighbors
        return gap, -self._apply_free(gap, nodes), nodes

    def _condensed_system(self, gap: np.ndarray, rhs: np.ndarray, layer: _Layer):
        """The interface-plus-gap block with the layer eliminated, and its right-hand side."""
        keep, indices, indptr, nine, dense = self._gap_pattern
        nl, nj = self.grid.n_z1 - 1, self.grid.n_x - 1
        data = np.zeros(indices.size)
        data[nine] = gap[keep]
        data[dense] -= layer.correction.ravel()
        rhs_c = rhs[nl * nj:].copy()
        rhs_c[:nj] -= layer.load(rhs[:nl * nj])
        n = rhs_c.size
        return sp.csr_matrix((data, indices, indptr), shape=(n, n)), rhs_c

    # -- solve ---------------------------------------------------------------

    def solve(self, u: PlateState, factor=None) -> PotentialField:
        """Solve the transmission problem for one plate state.

        The layer is eliminated (see ``_Layer``) and the condensed block of
        the interface row and the gap is solved.  Given the ``factor`` of an
        earlier solve (the free nodes are the same for every state), it is
        solved by CG preconditioned with that factor.  Without one, or when CG
        misses ``tol_lin`` within ``_PCG_MAXIT`` iterations, the block is
        solved directly: by the sine transform when its stencil is x-invariant
        (a flat gap over a layer that does not vary in x), else factored afresh
        by SuperLU.  The returned field carries the solver that was used and
        the residual of the whole free system.  CG and the residual norms are
        computed without BLAS (see ``_dot``).
        """
        if self.grid.n_x % u.grid.n_elems != 0:
            raise ValueError("field n_x must be a multiple of the plate element count")
        gm = self.gap_map(u)
        gap, rhs, nodes = self._free_system(gm)
        rhs_norm = _norm(rhs)
        cg_iterations = 0
        if rhs_norm == 0.0:
            res = 0.0
        else:
            layer = _condensed_layer(self._layer_rows)
            S, rhs_c = self._condensed_system(gap, rhs, layer)
            nl, nj = self.grid.n_z1 - 1, self.grid.n_x - 1

            def residual(x):
                """Write x and the layer values it implies into nodes; ||A x - b|| of the free system."""
                nodes[nl + 1:-1, 1:-1] = x.reshape(-1, nj)
                nodes[1:nl + 1, 1:-1] = layer.recover(rhs[:nl * nj], x[:nj]).reshape(nl, nj)
                return _norm(self._apply_free(gap, nodes))

            res = None
            if factor is not None:
                # the same absolute tolerance as on the whole free system: the
                # condensed residual is its residual once the layer is recovered
                x, cg_iterations, converged = _pcg(S, rhs_c, factor, self.tol_lin * rhs_norm, _PCG_MAXIT)
                res = residual(x)
                if not converged or not res <= self.tol_lin * rhs_norm:
                    res = None
            if res is None:
                if layer.sine is not None and _x_invariant(gap):
                    factor = _SineSolver(gap[:, 0], layer.sine)
                else:
                    factor = _factor(S)
                res = residual(factor.solve(rhs_c))
            if not np.isfinite(res) or res > max(10.0 * self.tol_lin, 1e-8) * rhs_norm:
                raise LinearSolveFailed(f"linear solve residual {res:.3e} vs rhs {rhs_norm:.3e}")

        return self._package(gm, nodes, res, cg_iterations, factor)

    def _package(self, gm, nodes, res, cg_iterations, factor) -> PotentialField:
        p, hz1, he = self.p, self.hz1, self.heta
        psi1, psi2 = nodes[:self.grid.n_z1 + 1], nodes[self.grid.n_z1:]
        # the pinned ring in row-major order: electrode row, both walls row by row, plate row
        ring = np.concatenate([nodes[0], nodes[1:-1, ::nodes.shape[1] - 1].ravel(), nodes[-1]])
        d1 = (3.0 * psi1[-1] - 4.0 * psi1[-2] + psi1[-3]) / (2.0 * hz1)
        s1_if = self.p.sigma1_at(self.x, np.full_like(self.x, -p.H))
        dtop = (3.0 * psi2[-1] - 4.0 * psi2[-2] + psi2[-3]) / (2.0 * he * gm.gamma)
        dbot2 = (-3.0 * psi2[0] + 4.0 * psi2[1] - psi2[2]) / (2.0 * he * gm.gamma)
        return PotentialField(
            x=self.x.copy(), z1=self.z1.copy(), eta=self.eta.copy(),
            psi1=psi1, psi2=psi2, gap=gm,
            interface_flux=s1_if * d1,
            interface_flux_gap=p.sigma2 * dbot2,
            top_trace_dz=dtop,
            bottom_trace_dz1=d1,
            boundary_inf=float(ring.min()), boundary_sup=float(ring.max()),
            gap_moments=self._gap_moments(psi2), residual=res, cg_iterations=cg_iterations, factor=factor,
        )

    # -- energies --------------------------------------------------------------

    def _gap_moments(self, psi2: np.ndarray) -> np.ndarray:
        """Quadrature sums down the gap at each x Gauss point, (4, n_x, 2): of px^2, eta px pe, pe^2 and eta^2 pe^2.

        px, pe are d/dx, d/deta of psi2 at the Gauss points.  gamma and gamma'
        vary along x only, so the gap's form (``form_value``) and shape gradient are sums of these.
        """
        px, pe = _gauss_gradients(psi2, self.hx, self.heta)   # [qz, jz, kx], [qx, jz, kx]
        weta = self._etaq * _GW                                 # [jz, qz]
        return np.stack([
            np.einsum("z,zjk,zjk->k", _GW, px, px)[:, None] * _GW,
            np.einsum("jk,xjk->kx", np.einsum("jz,zjk->jk", weta, px), pe) * _GW,
            np.einsum("xjk,xjk->kx", pe, pe) * (_GW.sum() * _GW),
            np.einsum("j,xjk,xjk->kx", np.einsum("jz,jz->j", weta, self._etaq), pe, pe) * _GW,
        ])

    def form_value(self, psi1: np.ndarray, psi2: np.ndarray, gm: GapMap, moments: np.ndarray = None) -> float:
        """Dirichlet form  int sigma |grad psi|^2  with the assembly quadrature; ``moments`` are psi2's."""
        # gradients before squares (psi^T A psi through the CSR operator loses about three more digits),
        # summed per column first: one running sum of all the layer's terms rounds E_e visibly coarser
        hx, hz = self.hx, self.hz1
        gx, gz = _gauss_gradients(psi1, hx, hz)                 # [qz, jz, kx], [qx, jz, kx]
        s = self._sigma1_q * _W.reshape(2, 2, 1, 1)
        total = np.sum(np.einsum("zxjk,zjk,zjk->k", s, gx, gx) + np.einsum("zxjk,xjk,xjk->k", s, gz, gz)) * hx * hz
        g, dg = gm.gamma_q, gm.dgamma_q
        mxx, mxe, mee, mee2 = self._gap_moments(psi2) if moments is None else moments
        gap = np.sum(g * mxx - 2.0 * dg * mxe + (mee + dg**2 * mee2) / g)
        return float(total + self.p.sigma2 * gap * hx * self.heta)

    def electrostatic_energy(self, pf: PotentialField) -> float:
        """E_e = -(1/2) int sigma |grad psi|^2 over the actual device domain."""
        return -0.5 * self.form_value(pf.psi1, pf.psi2, pf.gap, pf.gap_moments)

    def shape_gradient_load(self, pf: PotentialField, u: PlateState) -> np.ndarray:
        """Exact gradient of the discrete field energy w.r.t. the plate DOFs.

        Differentiates the mapped-gap quadratic form through its geometry
        coefficients (gamma, gamma') at the quadrature points, through the
        floor's w(u) (on the layer they do not move with u).  The
        Dirichlet values do not move with u: the plate row holds
        h2(x, w, w) = V, the ends are clamped at u = 0 and the electrode is
        grounded.  So the geometric term is the whole
        gradient, and it is consistent with the energy to machine precision,
        where the trace-formula force is consistent only to the order of the
        scheme.
        """
        gm = pf.gap
        g, dg = gm.gamma_q, gm.dgamma_q
        mxx, mxe, mee, mee2 = pf.gap_moments
        # the gap form's derivatives in gamma and gamma' per x Gauss point
        fac = -0.5 * self.p.sigma2 * self.hx * self.heta
        Wg = fac * (mxx - (mee + dg**2 * mee2) / g**2)
        Wb = 2.0 * fac * (dg / g * mee2 - mxe)
        # chain rule through the floor, gamma = w(u) + H and gamma' = w'(u) u'; above
        # the floor's band w' = 1, w'' = 0 and both weights keep their bits
        Wg, Wb = Wg * gm.dw_q + Wb * (gm.d2w_q * gm.du_q), Wb * gm.dw_q

        # scatter onto the Hermite plate basis at the x Gauss points
        grad = np.zeros(u.grid.n_dofs)
        e_p, xi = u.grid.locate(self._xq.ravel())
        N0 = shape_functions(xi, u.grid.h, 0)
        N1 = shape_functions(xi, u.grid.h, 1)
        # conn[e_p].T adds shape by shape over all Gauss points; np.add.at keeps that
        # order, and with it the last bits of grad
        np.add.at(grad, u.grid.conn[e_p].T, N0 * Wg.ravel() + N1 * Wb.ravel())
        return grad

    def boundary_data_energy(self, gm: GapMap) -> float:
        """Dirichlet form of the interpolated boundary data h_u (an upper bound witness).

        gm is the state's gap map, as carried by its ``PotentialField.gap``.
        """
        p, f = self.p, self.family
        h1 = f.h1(self.x[None, :], self.z1[:, None], gm.w[None, :])
        z2 = -p.H + self.eta[:, None] * gm.gamma[None, :]
        h2 = f.h2(self.x[None, :], z2, gm.w[None, :])
        return 0.5 * self.form_value(h1, h2, gm)


def check_max_principle(pf: PotentialField, tol: float = None, tol_lin: float = 1e-10) -> dict:
    """Interior potential must stay between the boundary data extremes."""
    if tol is None:
        tol = 1e-8 + tol_lin
    lo = float(min(pf.psi1.min(), pf.psi2.min()))
    hi = float(max(pf.psi1.max(), pf.psi2.max()))
    ok = (lo >= pf.boundary_inf - tol) and (hi <= pf.boundary_sup + tol)
    return {
        "psi_min": lo,
        "psi_max": hi,
        "boundary_inf": pf.boundary_inf,
        "boundary_sup": pf.boundary_sup,
        "tolerance": tol,
        "pass": bool(ok),
    }
