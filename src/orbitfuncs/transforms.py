"""Grids on the fundamental domain and discrete orbit-function transforms.

Covers three layers:

* grids F_M (rational points of the closed fundamental domain) and their
  Weyl expansion modulo the coroot lattice;
* the finite orbit-function transform: an evaluation-matrix plan over the
  interior grid, with a mandatory orthogonality (separation) check at
  build time;
* the classical 1-D discrete sine/cosine transforms, DCT/DST-1..4, and
  their antisymmetrized / symmetrized multivariate versions, all driven
  by one weighted-kernel plan type.

Continuous transforms are provided at desk scale by midpoint quadrature
in coroot coordinates, where the unit cell of the coroot lattice has
volume 1 and the fundamental domain has volume 1/|W|.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .rootsys import (
    RootSystem, Vec, lattice_index, rank_vec, _count, _integer, _positive, _vec_str,
)
from .weyl import dual_marks, generators, _distinct, _group, _unscaled
from .orbitfn import eval_batch, _cis, _perm_sum, _signed_kernel, _stab_order

_log = logging.getLogger(__name__)


class PlanSeparationError(RuntimeError):
    """The sampling set does not separate two labels: the plan would be
    singular."""


# -- grids ---------------------------------------------------------------

@dataclass(frozen=True)
class GridPoint:
    s: tuple[int, ...]        # numerators over M in the coweight basis
    s0: int                   # the affine numerator M - sum s_i m_i
    M: int
    omega: Vec                # omega coordinates
    coroot: Vec               # coroot-basis coordinates
    interior: bool


@dataclass(frozen=True)
class GridFM:
    rs: RootSystem
    M: int
    points: tuple[GridPoint, ...]

    def interior_points(self) -> tuple[GridPoint, ...]:
        return tuple(p for p in self.points if p.interior)


#: Ceiling on the rows of one alcove enumeration, C(M + r, r) for marks
#: all 1: a grid of that many points takes about 0.45 GB of GridPoints.
#: E8 and A8 at M = 12 need 125970.
ALCOVE_LIMIT = 500_000


def _alcove(marks: Sequence[int], M: int, what: str) -> np.ndarray:
    """The int64 rows s >= 0 with sum(s_i * m_i) <= M, in lexicographic
    order.  Grown one column at a time, each row of the previous columns
    repeated once per value its remaining budget allows, so that only the
    points of the simplex are ever allocated; ValueError naming ``what``
    before any allocation when there could be more than ALCOVE_LIMIT."""
    bound = math.comb(M + len(marks), len(marks)) if M >= 0 else 0
    if bound > ALCOVE_LIMIT:
        raise ValueError(f"{what} could have C({M} + {len(marks)}, {len(marks)}) = "
                         f"{bound} points, more than ALCOVE_LIMIT = {ALCOVE_LIMIT}")
    budget = np.full(int(M >= 0), M, dtype=np.int64)
    columns = []
    for m in marks:
        counts = budget // m + 1
        parent = np.repeat(np.arange(len(budget)), counts)
        si = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        columns = [c[parent] for c in columns] + [si]
        budget = budget[parent] - si * m
    return np.column_stack(columns)


def grid_fm(rs: RootSystem, M: int) -> GridFM:
    """The grid F_M: points sum(s_i/M) w_i^check of the closed fundamental
    domain, indexed by s with s_0 + sum s_i m_i = M over the marks m_i;
    ValueError naming M unless it is an integer >= 1."""
    M = _count(M, "M")
    s = _alcove(rs.marks, M, f"the F_{M} grid of {rs.id.label}")
    return GridFM(rs=rs, M=M, points=_grid_points(rs, M, s)[0])


def _grid_points(rs: RootSystem, M: int, s: np.ndarray) -> tuple[tuple, np.ndarray, int]:
    """The GridPoints of the rows s of F_M, the coroot columns of their int64
    numerators s C over L M, and L M; C and L are kept with the root system
    (``RootSystem._coweight_rows``)."""
    n = rs.rank
    C, L = rs._coweight_rows
    s0 = M - s @ np.array(rs.marks, dtype=np.int64)
    interior = (s0 > 0) & np.all(s > 0, axis=1)
    X = s @ np.array(C, dtype=np.int64)
    points = tuple(GridPoint(s=tuple(si), s0=s0i, M=M, omega=c[:n], coroot=c[n:], interior=inside)
                   for si, s0i, c, inside in
                   zip(s.tolist(), s0.tolist(), _unscaled(X, L * M), interior.tolist()))
    return points, X[:, n:], L * M


def _torus_rows(rs: RootSystem, M: int, s: np.ndarray) -> tuple[np.ndarray, int]:
    """The Weyl expansion modulo the coroot lattice of the F_M points with
    rows s: the sorted distinct rows b M_w mod L M, w in W, of their coroot
    numerators b (as in ``_grid_points``), and L M.  W keeps the dot product
    of omega and coroot coordinates, so it maps a coroot row vector b to b M_w."""
    C, L = rs._coweight_rows
    b = s @ np.array(C, dtype=np.int64)[:, rs.rank:] @ _group(rs).mats
    return _distinct(b.reshape(-1, rs.rank) % (L * M)), L * M


def tm_expand(rs: RootSystem, grid: GridFM) -> list[Vec]:
    """Weyl expansion of the grid modulo the coroot lattice: all distinct
    coroot-coordinate tuples w x mod 1, sorted."""
    return _unscaled(*_torus_rows(rs, grid.M, np.array([p.s for p in grid.points], dtype=np.int64)))


# -- the finite orbit-function transform ----------------------------------

def _values(x, count: int, per: str) -> np.ndarray:
    """x as a complex array with one entry (or row) per grid point or per
    label of a plan; ValueError naming the expected count otherwise."""
    x = np.asarray(x, dtype=complex)
    if x.ndim == 0 or len(x) != count:
        raise ValueError(f"expected {count} values, one per {per}, got an array of shape {x.shape}")
    return x


@dataclass(frozen=True)
class TransformPlan:
    rs: RootSystem
    M: int
    labels: tuple[Vec, ...]
    grid: tuple[GridPoint, ...]
    kernel: np.ndarray        # (labels, grid) values of the antisymmetric functions
    norm: float               # diagonal of the interior-grid Gram matrix
    residual: float           # max |gram - norm I|, from the separation check

    def forward(self, f: np.ndarray) -> np.ndarray:
        """Coefficients a_lambda = <f, phi_lambda> / norm over the grid."""
        return (self.kernel.conj() @ _values(f, self.kernel.shape[1], "grid point")) / self.norm

    def inverse(self, a: np.ndarray) -> np.ndarray:
        """Signal values sum_lambda a_lambda phi_lambda(x_j)."""
        return self.kernel.T @ _values(a, self.kernel.shape[0], "label")

    def gram(self) -> np.ndarray:
        return self.kernel @ self.kernel.conj().T


def default_labels(rs: RootSystem, M: int) -> tuple[Vec, ...]:
    """The canonical square label set for F_M plans: strictly dominant
    integral weights inside the M-fold dual alcove.

    The grid side is cut out by the marks; the label side by the dual
    marks (highest-short-root coroot coefficients).  The two index sets
    coincide for simply-laced diagrams but differ for B, C, G: reusing
    the grid tuples as labels makes the plan singular there (weights
    congruent modulo M times the root lattice evaluate identically on
    every sampling point).  ValueError naming M unless it is an integer
    >= 1.
    """
    return tuple(_unscaled(_label_rows(rs, _count(M, "M")), 1))


def _label_rows(rs: RootSystem, M: int) -> np.ndarray:
    """The default labels of F_M as int64 rows, every entry >= 1."""
    dm = dual_marks(rs)
    # s_i >= 1 with sum s_i dm_i <= M - 1 is s - 1 in the alcove of M - 1 - sum dm
    return _alcove(dm, M - 1 - sum(dm), f"the default labels of {rs.id.label} at M = {M}") + 1


def build_plan(rs: RootSystem, M: int, labels: Sequence[Vec] | None = None,
               tol: float = 1e-9) -> TransformPlan:
    """Evaluation-matrix plan over the interior of F_M.

    The expected Gram diagonal over the interior grid is c M^n with
    c = |P^check/Q^check|; the Weyl expansion of the grid multiplies it by
    |W|.  Off-diagonal entries beyond tol * diagonal mean the sampling set
    does not separate two labels and the build fails.  The kernel is the
    antisymmetric one of :func:`eval_coroot_point`, on all the labels and
    interior points at once, from the integer rows of the default labels
    and the grid's coroot numerators; its exact ``labels`` and ``grid`` are
    built from the same rows.
    The times of the grid, the labels, the kernel and the separation check
    are logged at DEBUG.  ValueError naming M unless it is an integer >= 1,
    and naming tol unless it is a positive finite number.
    """
    M = _count(M, "M")
    tol = _positive(tol, "tol")
    start = time.perf_counter()
    # the interior points, s_i >= 1 and s_0 >= 1: s - 1 in the alcove of M - 1 - sum m_i
    s = _alcove(rs.marks, M - 1 - sum(rs.marks), f"the interior of the F_{M} grid of {rs.id.label}")
    grid, points, db = _grid_points(rs, M, s + 1)
    gridded = time.perf_counter()
    if labels is None:
        rows = _label_rows(rs, M)
        labels = tuple(_unscaled(rows, 1))
    else:
        labels = rows = tuple(rank_vec(rs, l) for l in labels)
    if not labels:
        raise ValueError(f"a plan on the F_{M} grid of {rs.id.label} needs at "
                         f"least one label (default labels need M > "
                         f"{sum(dual_marks(rs))})")
    labelled = time.perf_counter()
    kernel = _signed_kernel(rs, rows, points, db)
    evaluated = time.perf_counter()
    norm = float(lattice_index(rs) * M ** rs.rank)
    g = kernel @ kernel.conj().T
    dev = np.abs(g - norm * np.eye(len(labels)))
    i, j = np.unravel_index(np.argmax(dev), dev.shape)
    _log.debug("build_plan %s M=%d, %d labels x %d points: grid %.3f ms, labels %.3f ms, "
               "kernel %.3f ms, separation check %.3f ms", rs.id.label, M, len(labels),
               len(grid), 1e3 * (gridded - start), 1e3 * (labelled - gridded),
               1e3 * (evaluated - labelled), 1e3 * (time.perf_counter() - evaluated))
    if dev[i, j] > tol * norm:
        where = f"on the F_{M} grid of {rs.id.label}: gram = {g[i, j]:.3e}"
        if i == j:
            raise PlanSeparationError(
                f"label {_vec_str(labels[i])} does not have the full norm {where}, "
                f"expected {norm}; a label on a wall of the {M}-fold dual "
                f"alcove, or of one of its affine Weyl images, vanishes there")
        raise PlanSeparationError(
            f"labels {_vec_str(labels[i])} and {_vec_str(labels[j])} are not "
            f"separated {where}, expected 0")
    return TransformPlan(rs=rs, M=M, labels=labels, grid=grid,
                         kernel=kernel, norm=norm, residual=float(dev[i, j]))


def gram_over_torus(rs: RootSystem, M: int, labels: Sequence[Vec]) -> np.ndarray:
    """Gram matrix of the antisymmetric functions over the full Weyl
    expansion of F_M modulo the coroot lattice (definitional check): the
    plan kernel at the integer rows of ``tm_expand``.  ValueError naming M,
    or naming the diagram for no labels or one that is not strictly dominant."""
    M = _count(M, "M")
    labels = [rank_vec(rs, l) for l in labels]
    if not labels:
        raise ValueError(f"the Gram matrix of {rs.id.label} over its F_{M} torus needs a label")
    s = _alcove(rs.marks, M, f"the F_{M} grid of {rs.id.label}")
    V = _signed_kernel(rs, labels, *_torus_rows(rs, M, s))
    return V @ V.conj().T


# -- weighted-kernel discrete plans ---------------------------------------

@dataclass(frozen=True)
class DiscretePlan:
    """A finite transform given by kernel rows orthogonal under weighted
    sums over the grid:  sum_k weights_k K[r,k] conj(K[r',k]) = norms_r
    delta_rr'."""
    name: str
    labels: tuple
    grid: tuple
    kernel: np.ndarray
    weights: np.ndarray
    norms: np.ndarray

    def forward(self, f: np.ndarray) -> np.ndarray:
        f = _values(f, self.kernel.shape[1], "grid point")
        return (self.kernel.conj() * self.weights) @ f / self.norms

    def inverse(self, a: np.ndarray) -> np.ndarray:
        return self.kernel.T @ _values(a, self.kernel.shape[0], "label")

    def gram(self) -> np.ndarray:
        return (self.kernel * self.weights) @ self.kernel.conj().T

    def gram_residual(self) -> float:
        g = self.gram()
        return float(np.max(np.abs(g - np.diag(self.norms))))


#: DCT/DST-1..4 as trig(pi (r + a)(k + b) / N), cos for the DCTs and sin
#: for the DSTs: the label and node shifts a and b, the labels
#: range(first, N + extra) and the nodes likewise as (first, extra), and
#: the ends (0 the first, -1 the last) of the nodes of weight 1/2 and of
#: the labels of norm N instead of N/2 (Strang, SIAM Review 41 (1999) 135)
_DCT_DST = {
    #        a    b    labels  nodes   halved   doubled
    "dct1": (0,   0,   (0, 1), (0, 1), (0, -1), (0, -1)),
    "dct2": (0.5, 0,   (0, 0), (0, 0), (0,),    ()),
    "dct3": (0,   0.5, (0, 0), (0, 0), (),      (0,)),
    "dct4": (0.5, 0.5, (0, 0), (0, 0), (),      ()),
    "dst1": (0,   0,   (1, 0), (1, 0), (),      ()),
    "dst2": (0.5, 0,   (0, 0), (1, 1), (-1,),   ()),
    "dst3": (0,   0.5, (1, 1), (0, 0), (),      (-1,)),
    "dst4": (0.5, 0.5, (0, 0), (0, 0), (),      ()),
}


def _dct_dst_data(kind: str, N: int):
    """(labels, grid nodes, kernel fn, node weights, label norms) of the
    one-variable transforms, the weights and norms as float arrays: 1 and
    a base norm, halved and doubled at the ends the kind names.  The nodes
    of ``exp``, ``sine`` and ``cosine`` are the points k/N of the
    orbit-function grid, those of DCT/DST-1..4 the integer indices of each
    variant."""
    if kind in _DCT_DST:
        a, b, (l0, l1), (k0, k1), halved, doubled = _DCT_DST[kind]
        trig = np.cos if kind.startswith("dct") else np.sin
        labels, nodes, norm = range(l0, N + l1), range(k0, N + k1), N / 2
        kernel = lambda r, k: trig(np.pi * (r + a) * (k + b) / N)
    elif kind == "exp":
        labels, halved, doubled, norm = range(1, N + 1), (), (), 1.0
        kernel = lambda m, s: np.exp(2j * np.pi * m * s) / math.sqrt(N)
    elif kind == "sine":
        labels, halved, doubled, norm = range(1, N), (), (), 2.0 * N
        kernel = lambda m, s: 2j * np.sin(np.pi * m * s)
    elif kind == "cosine":
        labels, halved, doubled, norm = range(N + 1), (0, -1), (0, -1), 2.0 * N
        kernel = lambda m, s: 2 * np.cos(np.pi * m * s)
    else:
        raise ValueError(f"unknown 1-D transform kind {kind!r}")
    if kind not in _DCT_DST:   # the points k/N of the orbit-function grid
        nodes = [Fraction(k, N) for k in labels]
    weights = np.ones(len(nodes))
    weights[list(halved)] = 0.5
    norms = np.full(len(labels), norm)
    norms[list(doubled)] *= 2
    return labels, nodes, kernel, weights, norms


def _one_variable(kind: str, base: str, n: int, N: int, strict: bool):
    """The table entry ``base`` of a ``kind`` plan on n variables of size N,
    for N as a Python int.

    Raises ValueError naming n or N for one that is not an integer, and
    when the plan would have no labels: n < 1, N < 1, or fewer than n
    one-variable labels to form strictly decreasing tuples.
    """
    n, N = (int(v) if _integer(v) else _count(v, name) for v, name in ((n, "n"), (N, "N")))
    if n >= 1 and N >= 1:
        data = _dct_dst_data(base, N)
        if len(data[0]) >= (n if strict else 1):
            return data
    raise ValueError(f"{kind} has no plan with n = {n}, N = {N}: it needs "
                     f"n >= 1, N >= 1 and at least one label")


def dst_dct_1d(kind: str, N: int) -> DiscretePlan:
    """The classical discrete transforms on one variable.

    ``"sine"`` and ``"cosine"`` are the orbit-function normalizations on
    the grid {k/M}; ``"dct1".."dct4"`` and ``"dst1".."dst4"`` the standard
    signal-processing kernels with their weight conventions.
    """
    if not isinstance(kind, str) or (kind := kind.lower()) == "exp":
        raise ValueError(f"unknown 1-D transform kind {kind!r}")
    labels, nodes, kfn, weights, norms = _one_variable(kind, kind, 1, N, strict=True)
    kernel = _table(kfn, labels, nodes).astype(complex)
    return DiscretePlan(kind, tuple(labels), tuple(nodes), kernel, weights, norms)


def _table(kfn: Callable, labels, nodes) -> np.ndarray:
    """The one-variable kernel kfn(r, k) at every label r and node k."""
    return kfn(np.array(labels, dtype=float)[:, None], np.array(nodes, dtype=float))


def _decreasing(values, n: int, strict: bool):
    """The decreasing n-tuples of the increasing values, strictly
    decreasing if strict, in the order of itertools: as rows of positions
    in values, and as tuples of them."""
    pick = itertools.combinations if strict else itertools.combinations_with_replacement
    rows = np.array(list(pick(range(len(values) - 1, -1, -1), n)), dtype=np.intp)
    return rows, tuple(pick(values[::-1], n))


# kind -> (one-variable kind, antisymmetric)
_MULTIVARIATE = {
    "anti_exp": ("exp", True), "sym_exp": ("exp", False),
    "anti_sine": ("sine", True), "sym_cosine": ("cosine", False),
    **{f"{p}mdct{v}": (f"dct{v}", p == "a") for p in "as" for v in "1234"},
}


def multivariate_plan(kind: str, n: int, N: int) -> DiscretePlan:
    """Antisymmetric and symmetric multivariate discrete transforms.

    kinds: ``anti_exp``, ``sym_exp`` (discrete Fourier kernels),
    ``anti_sine``, ``sym_cosine`` (orbit-function normalizations on the
    grid {k/M}), and ``amdct1..4`` / ``smdct1..4`` built on the DCT
    kernels.  Labels and grid nodes are decreasing tuples, strictly
    decreasing for the antisymmetric kinds.

    Every kind is formed from its one-variable transform (kernel K, node
    weights w, label norms h): the kernel is |S_n|^{-1/2} det K(r_i, k_j)
    for the antisymmetric kinds and the permanent for the symmetric ones,
    its entries gathered from the table of K on the one-variable labels
    and nodes;
    the weight of a node tuple t is n! prod_j w(t_j) / |Stab(t)| and the
    norm of a label tuple r is prod_i h(r_i) |Stab(r)|, where |Stab| is
    the order of the tuple's permutation stabilizer (1 for strictly
    decreasing tuples).
    """
    if not isinstance(kind, str) or (kind := kind.lower()) not in _MULTIVARIATE:
        raise ValueError(f"unknown multivariate kind {kind!r}")
    base, signed = _MULTIVARIATE[kind]
    values, nodes, kfn, w, h = _one_variable(kind, base, n, N, strict=signed)
    lrows, labels = _decreasing(values, n, signed)
    grows, grid = _decreasing(nodes, n, signed)
    nf = math.factorial(n)
    # entry (i, j) of label tuple l and node tuple g is K(l_i, g_j): the table's rows l, then
    # their columns g, as an (L, n, G, n) array viewed as (L, G, n, n)
    E = _table(kfn, values, nodes)[lrows][..., grows].transpose(0, 2, 1, 3)
    kernel = np.asarray(_perm_sum(E, signed) / math.sqrt(nf), dtype=complex)
    weights = nf * np.prod(w[grows], axis=1)
    norms = np.prod(h[lrows], axis=1)
    if not signed:   # a signed kind's tuples are strictly decreasing: stabilizers of order 1
        weights, norms = weights / _stab_order(grows), norms * _stab_order(lrows)
    return DiscretePlan(kind, labels, grid, kernel, weights, norms)


# -- continuous transforms at desk scale -----------------------------------

_SLAB = 2 ** 16   # box points per slab of fundamental_domain_quadrature, or one first-axis row

def fundamental_domain_quadrature(rs: RootSystem, resolution: int = 200):
    """Midpoint rule on F in coroot coordinates.

    Returns (omega coordinates of the nodes as an (K, n) array, cell
    weight).  In these coordinates the torus cell has volume 1, so the
    weights sum to ~ 1/|W| and the antisymmetric functions satisfy
    int_F phi conj(phi') = delta.  ValueError unless resolution is an
    integer >= 1.
    """
    resolution = _count(resolution, "resolution")
    n = rs.rank
    Sinv = np.array([[float(x) for x in row] for row in rs.metric_inv])
    S = np.array([[float(x) for x in row] for row in rs.metric])
    comarks = np.array([float(q) for q in rs.comarks])
    # bounding box of the simplex {0, rows of S / q_i} in coroot coordinates
    verts = np.vstack([np.zeros(n)] +
                      [S[i] / rs.comarks[i] for i in range(n)])
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    axes = [lo[k] + (hi[k] - lo[k]) * (np.arange(resolution) + 0.5) / resolution
            for k in range(n)]
    # the box a slab of the first axis at a time, each slab in C order
    step = max(1, _SLAB // resolution ** (n - 1))
    nodes = []
    for start in range(0, resolution, step):
        mesh = np.meshgrid(axes[0][start:start + step], *axes[1:], indexing="ij")
        theta = np.stack([m.ravel() for m in mesh], axis=1) @ Sinv
        nodes.append(theta[np.all(theta >= 0, axis=1) & (theta @ comarks <= 1)])
    cell = float(np.prod((hi - lo) / resolution))
    return np.concatenate(nodes), cell


def continuous_orthogonality_residual(rs: RootSystem, lam, mu,
                                      resolution: int = 200) -> float:
    pts, w = fundamental_domain_quadrature(rs, resolution)
    vals1 = eval_batch(rs, "anti", lam, pts)
    vals2 = eval_batch(rs, "anti", mu, pts)
    integral = np.sum(vals1 * vals2.conj()) * w
    expect = 1.0 if tuple(lam) == tuple(mu) else 0.0
    return float(abs(integral - expect))


def mixed_symmetry_orthogonality_residual(rs: RootSystem, mu,
                                          resolution: int = 200) -> float:
    """Quadrature of phi_mu conj(varphi_mu) over F union r_1 F."""
    pts, w = fundamental_domain_quadrature(rs, resolution)
    sym = eval_batch(rs, "sym", mu, pts)
    anti = eval_batch(rs, "anti", mu, pts)
    part_f = np.sum(sym * anti.conj()) * w
    # reflected copy: integrate the pullbacks over F
    mat = np.array(generators(rs)[0].matrix, dtype=float)
    pts_r = pts @ mat.T
    sym_r = eval_batch(rs, "sym", mu, pts_r)
    anti_r = eval_batch(rs, "anti", mu, pts_r)
    part_rf = np.sum(sym_r * anti_r.conj()) * w
    return float(abs(part_f + part_rf))


def series_coefficients(rs: RootSystem, f: Callable, labels,
                        resolution: int = 200) -> np.ndarray:
    """c_lambda = int_F f(x) conj(phi_lambda(x)) dx by midpoint quadrature;
    f maps an (K, n) array of omega coordinates to values."""
    return _series(rs, f, labels, resolution)[0]


def _series(rs: RootSystem, f: Callable, labels, resolution: int):
    """The coefficients of ``series_coefficients``, f at its nodes and the cell weight."""
    pts, w = fundamental_domain_quadrature(rs, resolution)
    fv = np.asarray(f(pts), dtype=complex)
    return np.array([np.sum(fv * eval_batch(rs, "anti", lam, pts).conj()) * w
                     for lam in labels]), fv, w


def series_synthesis(rs: RootSystem, coeffs, labels, xs: np.ndarray) -> np.ndarray:
    """Evaluate sum_lambda c_lambda phi_lambda at omega-coordinate points:
    the inverse of :func:`series_coefficients` on its span; ValueError
    unless there is one coefficient per label."""
    if len(coeffs) != len(labels):
        raise ValueError(f"expected one coefficient per label, got {len(coeffs)} "
                         f"coefficients for {len(labels)} labels")
    out = np.zeros(len(xs), dtype=complex)
    for c, lam in zip(coeffs, labels):
        out += c * eval_batch(rs, "anti", lam, xs)
    return out


def plancherel_residual(rs: RootSystem, f: Callable, labels,
                        resolution: int = 200) -> float:
    """| sum |c_lambda|^2 - int_F |f|^2 | for a function spanned by the
    given labels."""
    coeffs, fv, w = _series(rs, f, labels, resolution)
    lhs = float(np.sum(np.abs(coeffs) ** 2))
    rhs = float(np.sum(np.abs(fv) ** 2) * w)
    return abs(lhs - rhs)


def _chamber_points(n: int, upper: float, resolution: int):
    """Midpoint nodes covering the ordered chamber: for n = 2 the full
    square is sampled with half weight, which integrates (anti)symmetric
    extensions over the chamber without a diagonal-strip error.  The
    supplied function is therefore evaluated at unordered points too and
    must implement the matching extension (any globally defined formula
    does).  Returns the axis, the (resolution^n, n) nodes ax x ... x ax in
    C order, and the weight of each."""
    ax = (np.arange(resolution) + 0.5) * upper / resolution
    cell = (upper / resolution) ** n
    if n == 1:
        return ax, ax[:, None], cell
    g1, g2 = np.meshgrid(ax, ax, indexing="ij")
    return ax, np.stack([g1.ravel(), g2.ravel()], axis=1), cell / 2


def _integral_transform(f: Callable, lams: Sequence, upper: float,
                        resolution: int, signed: bool) -> np.ndarray:
    """ValueError naming the argument for no labels, labels of mixed
    lengths or of a length other than 1 or 2, a width upper that is not a
    positive finite number, or a resolution that is not an integer >= 1.

    The nodes are ax x ax, so the kernel det / perm (K(lam_i, x_j)) on them
    is built from the 1-D tables s_i = K(lam_i, ax): s_0 for n = 1, and
    outer(s_0, s_1) -/+ outer(s_1, s_0) for n = 2, the products and the
    order of _perm_sum on the 2 x 2 matrices at each node."""
    n = len(lams[0]) if len(lams) else 0
    if not 1 <= n <= 2 or any(len(lam) != n for lam in lams):
        raise ValueError(f"the quadrature transform needs one or more labels lams, all of "
                         f"length 1 or all of length 2, got {list(lams)!r}")
    ax, pts, cell = _chamber_points(n, _positive(upper, "upper"),
                                    _count(resolution, "resolution"))
    fv = np.asarray(f(pts), dtype=float)
    out = []
    for lam in np.array(lams, dtype=float):
        z = _cis(np.multiply.outer(lam, ax))   # z[i, a] = exp(2 pi i lam_i ax_a)
        s = z.imag if signed else z.real
        if n == 1:
            kernel = fv * s[0]
        else:
            kernel = np.multiply.outer(s[0], s[1]).ravel()
            (np.subtract if signed else np.add)(
                kernel, np.multiply.outer(s[1], s[0]).ravel(), out=kernel)
            kernel *= fv
        out.append(np.sum(kernel) * cell)
    return np.array(out)


def sine_integral_transform(f: Callable, lams: Sequence, upper: float,
                            resolution: int = 400) -> np.ndarray:
    """Multivariate sine integral transform over the truncated positive
    chamber {upper > x_1 > ... > x_n > 0}: ftilde(lam) = int f det(sin
    2 pi lam_i x_j) dx.  n is inferred from the label length; n <= 2."""
    return _integral_transform(f, lams, upper, resolution, signed=True)


def cosine_integral_transform(f: Callable, lams: Sequence, upper: float,
                              resolution: int = 400) -> np.ndarray:
    """Symmetric counterpart of :func:`sine_integral_transform` with the
    permanent-style cosine kernel."""
    return _integral_transform(f, lams, upper, resolution, signed=False)
