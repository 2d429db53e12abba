"""Atom overlaps, Gram matrices and the quadrature oracle.

`overlap_matrix` is the one overlap path: inner products, basis projections,
measurements, Gram and analysis matrices are all cross-overlaps given by one
Laguerre closed form (Cahill & Glauber, Phys. Rev. 177, 1857, 1969).  The
brute-force quadrature oracle is independent of it; the tests pin the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import FockFunction, FockParams, ParameterMismatchError, compose_phase
from .core import label_digest, scalar_math

__all__ = [
    "GramMatrix",
    "DuplicateLabelError",
    "overlap_matrix",
    "displacement_element",
    "atom_pair_inner",
    "gram_matrix",
    "quadrature_inner_oracle",
    "default_oracle_radius",
]


class DuplicateLabelError(ValueError):
    """An atom family contained the same (point, degree) label twice."""


# Entries per block, which bounds the kernel's temporaries whatever the family.
_BLOCK_ENTRIES = 2**12


def overlap_matrix(rows, cols, params: FockParams) -> np.ndarray:
    """Matrix of <T_{lam_q} e_{k_q}, T_{mu_p} e_{j_p}> for row labels
    (mu_p, j_p) and column labels (lam_q, k_q); labels may repeat and either
    family may be empty.

    An entry is phase * <T_z e_k, e_j> with (phase, z) = compose_phase(-mu,
    lam) and the closed form of displacement_element, bit-identical to scalar
    Python floats (functions from scalar_math, complex products in CPython's
    operation order).  Points are told apart by their bits, since a signed
    zero can move the phase and the atan2 branch.  The entries run pair by
    pair, (row point, column point) pairs in row-major order, in blocks of at
    most _BLOCK_ENTRIES entries.  A block evaluates the factors of z once per
    pair it touches, the Laguerre recurrence and exp once per entry, and cos
    and sin of d*arg w once per distinct (pair, signed gap j - k), gathered
    from a table: equal angles give equal bits.

    When the two label arrays are bitwise equal, only the pairs (s, t) with t
    at or before s in bit order are computed, and each transposed entry takes
    the modulus and cosine part of its mirror, the sine part negated and the
    phase of the opposite composition: the bits a direct evaluation gives.
    That identity needs arg w of the two directions to be opposite, which an
    imaginary part of -0.0 breaks (pi on both sides of a real-axis pair), so
    a family with such a point is computed in full.
    """
    rows = [(complex(mu), int(j)) for mu, j in rows]
    cols = [(complex(lam), int(k)) for lam, k in cols]
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    if not rows or not cols:
        return out
    degrees = [j for _, j in rows] + [k for _, k in cols]
    if min(degrees) < 0:
        raise ValueError("basis indices must be >= 0")
    log_fact = np.array([math.lgamma(n + 1) for n in range(max(degrees) + 1)])
    mu, j = np.array([mu for mu, _ in rows]), np.array([j for _, j in rows])
    lam, k = np.array([lam for lam, _ in cols]), np.array([k for _, k in cols])
    (row_points, *row_groups), (points, *groups) = _point_table(mu), _point_table(lam)
    equal = np.array_equal(mu.view(np.int64), lam.view(np.int64)) and np.array_equal(j, k)
    hermitian = equal and not np.any(np.signbit(lam.imag) & (lam.imag == 0))
    flat, width = out.reshape(-1), len(cols)
    for s, t, pair, r, c in _blocks(row_groups, groups, hermitian):
        phase, *factors = _point_factors(row_points[s], points[t], params)
        re, im = _displacement_block(j[r], k[c], pair, factors, log_fact)
        flat[r * width + c] = _rotate(phase[pair], re, im)
        if hermitian:
            # the transposed entries of the pairs off the diagonal
            back, _ = compose_phase(-points[t], row_points[s], params)
            m = (t < s)[pair]
            im = np.where(factors[-1][pair[m]], im[m], -im[m])
            flat[c[m] * width + r[m]] = _rotate(back[pair[m]], re[m], im)
    return out


def _point_table(z):
    # z's distinct points by their bits, in bit order, and its labels by point
    _, first, of, count = np.unique(z.view(np.int64).reshape(-1, 2), axis=0, return_index=True,
                                    return_inverse=True, return_counts=True)
    return z[first], np.argsort(of.ravel(), kind="stable"), np.cumsum(count) - count, count


def _blocks(rows, cols, triangle):
    # the entries of the (s, t) point pairs, pair after pair (row-major, with
    # t <= s on a triangle) and row-major within a pair, in runs of at most
    # _BLOCK_ENTRIES: the pairs a run touches, and the pair, row and column
    # of each of its entries
    (r_order, r_first, r_count), (c_order, c_first, c_count) = rows, cols
    # a row point's entries: with all columns, or on a triangle with those of
    # the points up to its own
    size = r_count * (c_first + c_count if triangle else len(c_order))
    row_start, total = np.cumsum(size) - size, int(size.sum())
    for begin in range(0, total, _BLOCK_ENTRIES):
        w = np.arange(begin, min(begin + _BLOCK_ENTRIES, total))
        s = np.searchsorted(row_start, w, side="right") - 1
        w -= row_start[s]
        t = np.searchsorted(c_first, w // r_count[s], side="right") - 1
        down, across = np.divmod(w - r_count[s] * c_first[t], c_count[t])
        new = np.r_[True, (s[1:] != s[:-1]) | (t[1:] != t[:-1])]
        head, pair = np.flatnonzero(new), np.cumsum(new) - 1
        yield s[head], t[head], pair, r_order[r_first[s] + down], c_order[c_first[t] + across]


def _rotate(phase, re, im):
    # phase * (re + i im) in the operation order of a scalar complex product
    out = np.empty(re.shape, dtype=complex)
    out.real = phase.real * re - phase.imag * im
    out.imag = phase.real * im + phase.imag * re
    return out


def _square(v):  # Python's float ** 2 is the C library's pow
    return scalar_math(math.pow, v, 2.0)


def _point_factors(mu, lam, params: FockParams):
    """Factors of the point pairs (mu, lam), elementwise: the composition
    phase, x = alpha*|z|^2, log|w|, arg w for j >= k and for j < k, and the
    mask of z == 0, where z = lam - mu."""
    phase, z = compose_phase(-mu, lam, params)
    sa = math.sqrt(params.alpha)
    x = params.alpha * (_square(z.real) + _square(z.imag))
    # w = sa*conj(z) if j >= k, else -sa*z with the opposite real part; the zero
    # term signs a zero Im w as CPython does, which decides the atan2 branch
    wr, wi = sa * z.real, -(sa * z.imag) + 0.0 * z.real
    r2 = _square(wr) + _square(wi)
    at_zero = r2 == 0
    log_w = 0.5 * scalar_math(math.log, np.where(at_zero, 1.0, r2))
    arg_ge = scalar_math(math.atan2, wi, wr)
    arg_lt = scalar_math(math.atan2, wi, -wr)
    return phase, x, log_w, arg_ge, arg_lt, at_zero


def _displacement_block(j, k, pair, factors, log_fact):
    # Re and Im <T_z e_k, e_j> of the entries of degrees j, k at pairs `pair`
    x, log_w, arg_ge, arg_lt, at_zero = factors
    x, log_w, at_zero, gap = x[pair], log_w[pair], at_zero[pair], j - k
    lo, d = np.minimum(j, k), np.abs(gap)
    # three-term recurrence in the degree on the elements short of their own lo
    prev, lag = np.ones(lo.shape), 1.0 + d - x
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, int(lo.max())):
            a = np.flatnonzero(lo > i)
            nxt = ((2 * i + 1 + d[a] - x[a]) * lag[a] - (i + d[a]) * prev[a]) / (i + 1)
            prev[a], lag[a] = lag[a], nxt
    log_mag = -0.5 * x + 0.5 * (log_fact[lo] - log_fact[lo + d]) + d * log_w
    value = np.where(lo > 0, lag, 1.0) * scalar_math(math.exp, log_mag)
    # cos and sin once per distinct (pair, signed gap), which fixes d * arg w
    low, span = int(gap.min()), int(np.ptp(gap)) + 1
    key, inverse = np.unique(pair * span + (gap - low), return_inverse=True)
    at, g = key // span, key % span + low
    angle = np.abs(g) * np.where(g >= 0, arg_ge[at], arg_lt[at])
    cos, sin = scalar_math(math.cos, angle)[inverse], scalar_math(math.sin, angle)[inverse]
    re = np.where(at_zero, (j == k) * 1.0, value * cos)
    im = np.where(at_zero, 0.0, value * sin)
    return re, im


def displacement_element(z, j: int, k: int, params: FockParams) -> complex:
    """Overlap <T_z e_k, e_j> of a displaced basis state with a basis state.

    With lo = min(j, k), hi = max(j, k), d = hi - lo, x = alpha*|z|^2 and

        w = sqrt(alpha) * conj(z)   if j >= k,
        w = -sqrt(alpha) * z        if j < k,

    the value is  exp(-x/2) * sqrt(lo!/hi!) * w^d * L_lo^(d)(x),  where L is
    the generalized Laguerre polynomial.  The modulus factor is assembled in
    the log domain and the unit phase (w/|w|)^d separately, so large degree
    gaps cannot overflow.
    """
    return complex(overlap_matrix([(0.0, j)], [(z, k)], params)[0, 0])


def atom_pair_inner(lam, k: int, mu, j: int, params: FockParams) -> complex:
    """<T_lam e_k, T_mu e_j>, reduced to one displacement element.

    Uses T_{-mu} T_lam = phase * T_{lam-mu} with the shared phase convention
    from compose_phase, so all modules agree on signs.
    """
    return complex(overlap_matrix([(mu, j)], [(lam, k)], params)[0, 0])


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Inner products of an atom family; entry (p, q) = <atom_q, atom_p>.

    Hermitian and positive semidefinite up to rounding, with unit diagonal
    because every atom has unit norm.
    """

    params: FockParams
    labels: tuple[tuple[complex, int], ...]
    entries: np.ndarray

    def digest(self) -> str:
        """Short stable fingerprint of (alpha, labels) for report provenance."""
        return label_digest(self.params, self.labels)


def gram_matrix(family, params: FockParams) -> GramMatrix:
    """Assemble the Gram matrix of the atoms T_lam e_k named by `family`.

    One equal-family overlap_matrix call: blocks of point pairs evaluate
    each point against itself and the points before it, and the remaining
    entries are mirrored with the bits a direct evaluation would give.
    """
    labels = tuple((complex(lam), int(k)) for lam, k in family)
    if not labels:
        raise ValueError("atom family must be nonempty")
    if len(set(labels)) != len(labels):
        raise DuplicateLabelError("atom family labels must be distinct")
    return GramMatrix(params, labels, overlap_matrix(labels, labels, params))


@lru_cache(maxsize=64)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def default_oracle_radius(f: FockFunction, g: FockFunction) -> float:
    """Cutoff radius outside which the Gaussian tail is negligible.

    sqrt((max degree + 10)/alpha) + 4 around the farthest atom displacement.
    """
    atoms = f.atoms + g.atoms
    max_deg = max((a.k for a in atoms), default=0)
    max_disp = max((abs(a.lam) for a in atoms), default=0.0)
    return max_disp + math.sqrt((max_deg + 10) / f.params.alpha) + 4.0


def quadrature_inner_oracle(
    f: FockFunction,
    g: FockFunction,
    radius: float | None = None,
    n_r: int = 96,
    n_theta: int = 192,
) -> complex:
    """Brute-force inner product (alpha/pi) * integral of f * conj(g) *
    exp(-alpha*|z|^2) over the disc |z| <= radius.

    Gauss-Legendre nodes in the radius, uniform trapezoid nodes in the angle.
    Entirely independent of the closed-form displacement elements, which makes
    it the validating oracle for them; accuracy improves as radius, n_r and
    n_theta grow.
    """
    if f.params.alpha != g.params.alpha:
        raise ParameterMismatchError("inner-product arguments must share alpha")
    if n_r < 8 or n_theta < 8:
        raise ValueError("n_r and n_theta must be >= 8")
    if radius is None:
        radius = default_oracle_radius(f, g)
    if radius <= 0:
        raise ValueError("radius must be positive")
    alpha = f.params.alpha
    nodes, weights = _leggauss(int(n_r))
    r = 0.5 * radius * (nodes + 1.0)
    w_r = 0.5 * radius * weights
    theta = 2.0 * np.pi * np.arange(int(n_theta)) / int(n_theta)
    zgrid = r[:, None] * np.exp(1j * theta)[None, :]
    vals = f.evaluate(zgrid) * np.conj(g.evaluate(zgrid))
    radial = np.exp(-alpha * r**2) * r * w_r
    integral = (2.0 * np.pi / n_theta) * np.sum(vals * radial[:, None])
    return complex(alpha / np.pi * integral)
