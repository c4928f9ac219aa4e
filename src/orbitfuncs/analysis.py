"""Differential and integral operator checks for orbit functions, and the
Hermite-type eigenfunctions of the (anti)symmetrized Fourier transform.

All derivative checks use central finite differences; the eigenrelations
of the shift operators are finite algebraic identities and need no
differentiation.  The Hermite machinery covers the symmetric-group case:
determinants / symmetrized products of one-variable Hermite polynomials,
their transform eigenproperty under Gaussian quadrature, and the generic
construction from an arbitrary family of orthogonal polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .rootsys import (
    RootSystem, inner, orth_dim, rank_vec, _BoundedCache, _count, _integer, _positive,
)
from .weyl import orth_action, _group
from .orbitfn import (
    eval_orbit_function, eval_batch, eval_orth_batch, _cis, _float_points, _pairing,
    _perm_sum, _stab_order,
)


# -- Laplace and symmetric-power operators --------------------------------

def laplace_check(rs: RootSystem, m: Sequence, x: Sequence,
                  h: float = 1e-4) -> tuple[complex, complex, float]:
    """Finite-difference Laplacian of the antisymmetric orbit function in
    orthogonal coordinates against -4 pi^2 sum(m_i^2) times the function.

    Returns (fd value, predicted eigenvalue times the value, relative
    error).
    """
    return _quadratic_check(rs, lambda pts: eval_orth_batch(rs, "anti", m, pts),
                            np.eye(orth_dim(rs)), x, h,
                            lambda: sum(Fraction(v) ** 2 for v in m))


def laplace_check_omega(rs: RootSystem, lam: Sequence, x: Sequence,
                        h: float = 1e-4) -> tuple[complex, complex, float]:
    """The same eigencheck in omega coordinates: the second-order operator
    with the inverse metric as coefficients reproduces -4 pi^2 <lam, lam>.
    Works for every diagram, G_2 included."""
    return _quadratic_check(rs, lambda pts: eval_batch(rs, "anti", lam, pts),
                            rs.metric_inv, x, h, lambda: inner(rs, lam, lam))


def _quadratic_check(rs: RootSystem, f: Callable, coeffs, x: Sequence, h: float,
                     eigenvalue: Callable) -> tuple[complex, complex, float]:
    """sum_i c_ii D_i^2 f + sum_{i<j} (c_ij + c_ji) D_i D_j f at x, zero
    coefficients skipped, against -4 pi^2 eigenvalue() f(x); the eigenvalue
    is taken after f has checked the weight."""
    c = np.array(coeffs, dtype=float).tolist()
    n = len(c)
    op = tuple((c[i][i], ((i, 2),)) for i in range(n) if c[i][i])
    op += tuple((c[i][j] + c[j][i], ((i, 1), (j, 1)))
                for i in range(n) for j in range(i + 1, n) if c[i][j] + c[j][i])
    fd, f0 = (v.item() for v in _central_differences(f, _float_points(rs, [x], n), (op,), h))
    ref = -4 * math.pi ** 2 * float(eigenvalue()) * f0
    return fd, ref, abs(fd - ref) / max(abs(ref), 1e-300)


_STENCILS = _BoundedCache(32)   # (ops, n, h) -> _stencil(ops, n, h), built once


def _central_differences(f: Callable, x: np.ndarray, ops: tuple,
                         h: float) -> tuple[np.ndarray, np.ndarray]:
    """The (len(ops), N) values of the operators ops at the rows of the
    (N, n) array x, and the (N,) values f(x), from one call of f on x and
    the union of the stencil points; ValueError unless the step h is a
    positive finite number.  An operator is a tuple of terms
    (c, ((i, k_i), ...)), the sum of c * prod_i D_i^{k_i} with k_i in {1, 2}."""
    h = _positive(h, "h")
    n = x.shape[1]
    W, offsets = _STENCILS.lookup((ops, n, h), lambda: _stencil(ops, n, h))
    vals = f((x + offsets[:, None]).reshape(-1, n)).reshape(len(offsets), -1)
    return W @ vals, vals[0]


def _stencil(ops: tuple, n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The (len(ops), P) weights and the (P, n) offsets, 0 first, of the
    points of the stencils, read-only.  A term's stencil is the product of
    the 1-D central differences (f(x+h) - f(x-h)) / 2h and
    (f(x+h) - 2 f(x) + f(x-h)) / h^2."""
    central = {1: ((1, 0.5 / h), (-1, -0.5 / h)),
               2: ((1, h ** -2), (0, -2 * h ** -2), (-1, h ** -2))}
    index = {(0,) * n: 0}   # offset in steps of h -> point
    weights = []
    for op in ops:
        w = {}
        weights.append(w)
        for c, axes in op:
            stencil = [((0,) * n, c)]
            for i, k in axes:
                stencil = [(off[:i] + (step,) + off[i + 1:], cw * sw)
                           for off, cw in stencil for step, sw in central[k]]
            for off, cw in stencil:
                j = index.setdefault(off, len(index))
                w[j] = w.get(j, 0.0) + cw
    W = np.array([[w.get(j, 0.0) for j in range(len(index))] for w in weights], dtype=complex)
    offsets = h * np.array(list(index), dtype=float)
    for a in (W, offsets):
        a.setflags(write=False)
    return W, offsets


def sigma2_check(rs: RootSystem, m: Sequence, x: Sequence,
                 h: float = 1e-3) -> float:
    """Second elementary symmetric polynomial of the coordinate second
    derivatives: eigenvalue (-4 pi^2)^2 sigma_2(m_1^2, ..., m_r^2)."""
    r = orth_dim(rs)
    op = tuple((1.0, ((i, 2), (j, 2))) for i in range(r) for j in range(i + 1, r))
    total, f0 = (v.item() for v in _central_differences(
        lambda pts: eval_orth_batch(rs, "anti", m, pts), _float_points(rs, [x], r), (op,), h))
    sig2 = sum(Fraction(m[i]) ** 2 * Fraction(m[j]) ** 2
               for i in range(r) for j in range(i + 1, r))
    ref = (4 * math.pi ** 2) ** 2 * float(sig2) * f0
    return abs(total - ref) / max(abs(ref), 1e-300)


def sigma_k_check(rs: RootSystem, m: Sequence, x: Sequence, k: int,
                  h: float | None = None) -> float:
    """Eigencheck of the k-th elementary symmetric polynomial in the
    coordinate second derivatives; k = 1 is the Laplacian."""
    if k == 1:
        return laplace_check(rs, m, x, 1e-4 if h is None else h)[2]
    if k == 2:
        return sigma2_check(rs, m, x, 1e-3 if h is None else h)
    raise ValueError("only k <= 2 is supported (mixed stencil order)")


def omega_basis_operator(rs: RootSystem) -> dict:
    """Coefficient matrices for the second-order operator in the omega
    basis: the symmetrized half-inverse-norm Cartan form alongside the
    inverse metric.  Only the latter reproduces the -4 pi^2 <lam, lam>
    eigenvalue; the two are proportional only for simply-laced diagrams.
    """
    n = rs.rank
    half = [[Fraction(rs.cartan[i][j], 2) / rs.root_norms[j] for j in range(n)]
            for i in range(n)]
    sym = tuple(tuple((half[i][j] + half[j][i]) / 2 for j in range(n))
                for i in range(n))
    return {"cartan_form": sym, "metric_dual": rs.metric_inv}


# -- shift operators -------------------------------------------------------

def shift_operator_check(rs: RootSystem, lam: Sequence, x: Sequence,
                         y: Sequence, variant: str) -> float:
    """Eigenrelations of the group-averaged shift operators, for strictly
    dominant lam.

    variant ``"det_on_anti"``:  sum_w det(w) anti(wx + y) = sym(y) anti(x)
    variant ``"plain_on_anti"``: sum_w anti(wx + y)       = anti(y) sym(x)
    variant ``"det_on_sym"``:   sum_w det(w) sym(wx + y)  = anti(y) anti(x)

    A det-free average is symmetric in x and a det-weighted one is
    antisymmetric, which forces the output kinds above (the last two are
    often quoted with the x-side kinds swapped, which fails numerically).
    Returns the relative error of the identity.
    """
    xv, yv = rank_vec(rs, x), rank_vec(rs, y)
    group = _group(rs)
    if variant == "det_on_anti":
        kind, use_det, eig_kind, val_kind = "anti", True, "sym", "anti"
    elif variant == "plain_on_anti":
        kind, use_det, eig_kind, val_kind = "anti", False, "anti", "sym"
    elif variant == "det_on_sym":
        kind, use_det, eig_kind, val_kind = "sym", True, "anti", "anti"
    else:
        raise ValueError(f"unknown variant {variant!r}")
    # w x + y exactly, as the pairing of the rows (w, 1) with (x, y); P / D rounds once
    n = rs.rank
    eye = np.broadcast_to(np.eye(n, dtype=np.int64), group.mats.shape)
    P, D = _pairing(np.concatenate([group.mats, eye], axis=2).reshape(-1, 2 * n), 1, xv + yv)
    shifted = (P / D).astype(float).reshape(-1, n)
    vals = eval_batch(rs, kind, lam, shifted)
    dets = group.dets if use_det else np.ones(len(group.dets), dtype=int)
    lhs = dets @ vals
    rhs = (eval_orbit_function(rs, eig_kind, lam, [float(c) for c in yv])
           * eval_orbit_function(rs, val_kind, lam, [float(c) for c in xv]))
    # measure against the summand scale as well: a near-zero eigenvalue
    # product must not inflate plain roundoff into a reported error
    scale = max(abs(rhs), float(np.mean(np.abs(vals))), 1e-12)
    return abs(lhs - rhs) / scale


def gradient_sum_residual(rs: RootSystem, m: Sequence, x: Sequence,
                          h: float = 1e-5) -> float:
    """Residual of sum_w (d_i phi)(wx) = 0 over all coordinates i, for the
    families where the reflection representation misses the determinant
    character (A, B, C, and even-rank D)."""
    r = orth_dim(rs)
    xv = _float_points(rs, [x], r)[0]
    perm, signs = orth_action(rs)
    ops = tuple(((1.0, ((i, 1),)),) for i in range(r))   # D_i at every image w x
    grads, _ = _central_differences(lambda pts: eval_orth_batch(rs, "anti", m, pts),
                                    signs * xv[perm], ops, h)
    scale = np.sum(np.abs(grads), axis=1)
    return float(np.max(np.abs(np.sum(grads, axis=1)) / np.where(scale > 0, scale, 1.0)))


# -- Hermite polynomials and transform eigenfunctions -----------------------

_BLOCK = 2 ** 14   # entries per block of an R x R array that is never formed whole

def hermite_polynomial(n: int, x):
    """Physicists' Hermite polynomial by the three-term recurrence;
    ValueError naming n for a degree that is not an integer n >= 0."""
    if not _integer(n) or n < 0:
        raise ValueError(f"the Hermite polynomial H_n needs an integer degree n >= 0, "
                         f"got n = {n}")
    x = np.asarray(x, dtype=float)
    h0 = np.ones_like(x)
    if n == 0:
        return h0
    h1 = 2 * x
    for k in range(1, n):
        h0, h1 = h1, 2 * x * h1 - 2 * k * h0
    return h1


def hermite_sym_anti(m: Sequence[int], lam: Sequence, variant: str):
    """Symmetrized / antisymmetrized multivariate Hermite polynomials.

    anti: det(H_{m_i}(lam_j)) -- needs strictly decreasing m, vanishes at
    coinciding arguments; sym: the full symmetric-group sum of products.
    """
    if variant not in ("anti", "sym"):
        raise ValueError(f"unknown variant {variant!r}")
    grid = np.array([hermite_polynomial(mi, lam) for mi in m])
    if variant == "anti" and not all(a > b for a, b in zip(m, m[1:])):
        raise ValueError("antisymmetric labels must decrease strictly")
    return float(_perm_sum(grid, signed=(variant == "anti")))


@dataclass(frozen=True)
class PlaneWaveQuadrature:
    """Shared grid for the two-variable (anti)symmetrized Fourier
    transform: midpoint nodes on [-L, L] and the 1-D transform matrix."""
    nodes: np.ndarray
    matrix: np.ndarray  # K[p, a] = exp(2 pi i g_p g_a) * cell

    @classmethod
    def make(cls, half_width: float = 6.0, resolution: int = 400):
        """ValueError unless half_width is a positive finite number and
        resolution an integer >= 1.

        The nodes (p - (R - 1) / 2) * cell are exactly antisymmetric,
        node[R-1-p] = -node[p], and _cis is conjugate-symmetric to the bit,
        so K[R-1-p] = conj(K[p]) and K = K^T hold exactly: only the
        top-left ceil(R/2) x ceil(R/2) block takes phases, and the rest is
        the same matrix as _cis(np.outer(nodes, nodes)) * cell.  The block
        takes its phases a slab of rows at a time and the copies are written
        in place, so no temporary of the matrix's size is formed."""
        half_width = _positive(half_width, "half_width")
        R = _count(resolution, "resolution")
        cell = 2 * half_width / R
        nodes = (np.arange(R) - (R - 1) / 2) * cell
        h = (R + 1) // 2
        matrix = np.empty((R, R), dtype=complex)
        rows = max(1, 3072 // h)   # _cis holds about 100 bytes a phase
        for start in range(0, h, rows):
            matrix[start:start + rows, :h] = _cis(np.outer(nodes[start:start + rows], nodes[:h]))
        matrix[:h, :h] *= cell
        # K[p, R-1-a] = K[R-1-a, p] = conj(K[a, p]) = conj(K[p, a])
        np.conj(matrix[:h, :R - h][:, ::-1], out=matrix[:h, h:])
        np.conj(matrix[:R - h][::-1], out=matrix[h:])
        return cls(nodes=nodes, matrix=matrix)


def _hermite_factors(q: PlaneWaveQuadrature, m: Sequence[int]) -> np.ndarray:
    """The (2, R) 1-D factors f_k(x) = exp(-pi x^2) H_{m_k}(sqrt(2 pi) x)
    on the nodes."""
    x = q.nodes
    return np.exp(-math.pi * x ** 2) * np.array(
        [hermite_polynomial(mi, math.sqrt(2 * math.pi) * x) for mi in m])


def _eigen_residual(q: PlaneWaveQuadrature, m: Sequence[int], variant: str,
                    power: int, eig: complex) -> float:
    """||T^power g0 - eig g0|| / ||g0|| for the Gaussian-Hermite sample g0,
    the (anti)symmetrized product f_0 (x) f_1 -/+ f_1 (x) f_0 of the
    factors f_k: T g0 = K g0 K^T is the same product of the K f_k.

    Neither tensor is formed.  The residual is the rank-4 product U V^T
    with U = [K f_0, -/+ K f_1, -eig f_0, +/- eig f_1] and V = [K f_1,
    K f_0, f_1, f_0], and g0 is [f_0, -/+ f_1] [f_1, f_0]^T; both are
    squared and summed a block of rows at a time.  The residual is about
    1e-15 of g0, so it is summed entry by entry and never expanded through
    the Gram matrices U^T U and V^T V, which would cancel to u ||g0||^2."""
    if variant not in ("anti", "sym"):
        raise ValueError(f"unknown variant {variant!r}")
    if len(m) != 2 or min(m) < 0 or (variant == "anti" and m[0] == m[1]):
        raise ValueError(f"no nonzero {variant} Gaussian-Hermite function of two "
                         f"variables has the degrees {tuple(m)}")
    f = _hermite_factors(q, m)
    kf = f
    for _ in range(power):
        kf = kf @ q.matrix.T
    s = -1.0 if variant == "anti" else 1.0
    u = np.stack([kf[0], s * kf[1], -eig * f[0], -s * eig * f[1]], axis=1)
    u0 = np.stack([f[0], s * f[1]], axis=1)
    v, v0 = np.stack([kf[1], kf[0], f[1], f[0]]), f[::-1]
    rows = max(1, _BLOCK // len(f[0]))
    sq = sq0 = 0.0
    for start in range(0, len(u), rows):
        r = (u[start:start + rows] @ v).ravel()
        g = (u0[start:start + rows] @ v0).ravel()
        sq += np.vdot(r, r).real
        sq0 += g @ g
    return math.sqrt(sq / sq0)


def transform_eigen_check(m: Sequence[int], variant: str,
                          half_width: float = 6.0, resolution: int = 400,
                          quadrature: PlaneWaveQuadrature | None = None) -> float:
    """Relative eigen-residual of the (anti)symmetrized transform on its
    Gaussian-Hermite eigenfunction.

    With the exp(+2 pi i <lam, x>) kernel used throughout, the eigenvalue
    is i^{+|m|} (the conjugate kernel gives i^{-|m|}); either way the
    fourth power of the transform is the identity.
    """
    q = quadrature or PlaneWaveQuadrature.make(half_width, resolution)
    return _eigen_residual(q, m, variant, 1, 1j ** int(sum(m)))


def transform_fourth_power_residual(m: Sequence[int], variant: str,
                                    half_width: float = 6.0,
                                    resolution: int = 400,
                                    quadrature: PlaneWaveQuadrature | None = None) -> float:
    q = quadrature or PlaneWaveQuadrature.make(half_width, resolution)
    return _eigen_residual(q, m, variant, 4, 1)


# -- generic orthogonal-polynomial families ---------------------------------

@dataclass(frozen=True)
class PolynomialFamily:
    """One-variable orthogonal polynomials given by coefficient arrays
    (lowest degree first) plus Gauss nodes/weights for their measure."""
    name: str
    coefficients: tuple[tuple[float, ...], ...]
    gauss: tuple[np.ndarray, np.ndarray]

    def _coefficients(self, k: int) -> np.ndarray:
        """The coefficients of degree k; ValueError naming k and the top
        degree of the table for a degree that is not in it."""
        top = len(self.coefficients) - 1
        if not (_integer(k) and 0 <= k <= top):
            raise ValueError(f"the {self.name} family has the degrees 0..{top}, "
                             f"got degree {k!r}")
        return np.asarray(self.coefficients[k])

    def value(self, k: int, x):
        return np.polynomial.polynomial.polyval(x, self._coefficients(k))

    def derivative_value(self, k: int, order: int, x):
        c = np.polynomial.polynomial.polyder(self._coefficients(k), order)
        return np.polynomial.polynomial.polyval(x, c)


def _max_degree(family: str, max_degree) -> int:
    """max_degree as an int >= 0; ValueError naming it otherwise."""
    if not _integer(max_degree) or max_degree < 0:
        raise ValueError(f"the {family} family needs an integer max_degree >= 0, "
                         f"got max_degree = {max_degree!r}")
    return int(max_degree)


def monomial_family(max_degree: int) -> PolynomialFamily:
    max_degree = _max_degree("monomial", max_degree)
    coeffs = tuple(tuple(0.0 if i != k else 1.0 for i in range(k + 1))
                   for k in range(max_degree + 1))
    nodes, weights = np.polynomial.legendre.leggauss(max_degree + 1)
    return PolynomialFamily("monomial", coeffs, (nodes, weights))


def hermite_family(max_degree: int) -> PolynomialFamily:
    """Orthonormal Hermite polynomials for the weight exp(-x^2)."""
    max_degree = _max_degree("hermite", max_degree)
    coeffs = []
    prev = np.array([1.0])
    cur = np.array([0.0, 2.0])
    for k in range(max_degree + 1):
        p = prev if k == 0 else cur
        norm = math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi))
        coeffs.append(tuple(p / norm))
        if k >= 1:
            nxt = 2 * np.concatenate([[0.0], cur]) - 2 * k * np.concatenate(
                [prev, [0.0, 0.0]])
            prev, cur = cur, nxt
    nodes, weights = np.polynomial.hermite.hermgauss(max_degree + 4)
    return PolynomialFamily("hermite", tuple(coeffs), (nodes, weights))


def generic_sym_poly(family: PolynomialFamily, m: Sequence[int], x: Sequence) -> float:
    """Coset sum over distinct permutations of the label: the permanent
    divided by the order of the label's stabilizer."""
    grid = np.array([family.value(mi, np.asarray(x, dtype=float)) for mi in m])
    return float(_perm_sum(grid, signed=False)) / int(_stab_order(m))


def generic_anti_poly(family: PolynomialFamily, m: Sequence[int], x: Sequence) -> float:
    grid = np.array([family.value(mi, np.asarray(x, dtype=float)) for mi in m])
    return float(_perm_sum(grid, signed=True))


def generic_anti_quotient(family: PolynomialFamily, m: Sequence[int],
                          x: Sequence) -> float:
    """The antisymmetric determinant divided by the Vandermonde.

    Coinciding coordinates are a removable singularity, handled by the
    confluent determinant: repeated columns become scaled derivatives.
    """
    xs = [float(v) for v in x]
    n = len(xs)
    counts: dict[float, int] = {}
    orders = []
    for v in xs:
        orders.append(counts.get(v, 0))
        counts[v] = counts.get(v, 0) + 1
    P = np.array([[float(family.derivative_value(mi, orders[j], xs[j]))
                   / math.factorial(orders[j]) for j in range(n)] for mi in m])
    V = np.array([[_mono_deriv(n - 1 - i, orders[j], xs[j])
                   / math.factorial(orders[j]) for j in range(n)] for i in range(n)])
    return float(np.linalg.det(P) / np.linalg.det(V))


def _mono_deriv(power: int, order: int, x: float) -> float:
    if order > power:
        return 0.0
    c = math.factorial(power) / math.factorial(power - order)
    return c * x ** (power - order)


def generic_anti_orthogonality(family: PolynomialFamily, m1, m2) -> float:
    """Quadrature of the antisymmetric polynomials over the ordered region
    against delta_{m1 m2} (exact Gauss rule for the family measure)."""
    nodes, weights = family.gauss
    n = len(m1)
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    wgrids = np.meshgrid(*([weights] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    ws = np.prod(np.stack([w.ravel() for w in wgrids], axis=1), axis=1)
    v1 = np.array([generic_anti_poly(family, m1, p) for p in pts])
    v2 = np.array([generic_anti_poly(family, m2, p) for p in pts])
    integral = float(np.sum(ws * v1 * v2)) / math.factorial(n)
    expect = 1.0 if tuple(m1) == tuple(m2) else 0.0
    return abs(integral - expect)
