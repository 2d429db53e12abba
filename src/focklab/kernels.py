"""Atom overlaps, Gram matrices and the quadrature oracle.

`overlap_matrix` is the one overlap path: inner products, basis projections,
measurements, Gram and analysis matrices are all cross-overlaps given by one
Laguerre closed form (Cahill & Glauber, Phys. Rev. 177, 1857, 1969), walked
by runs of consecutive degrees, Laguerre chains and flushes of entries.  The
brute-force quadrature oracle is independent of it; the tests pin the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import FockFunction, FockParams, ParameterMismatchError, compose_phase, label_array, label_digest
from .core import libm_atan2, libm_cis, libm_exp, libm_log, libm_square, require_index, require_positive, scalar_math, scalar_mul

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


# Chains per batch and entries per flush, which bound the kernel's temporaries
# whatever the family.
_BLOCK_ENTRIES = 2**12

# The scaling of a Laguerre chain that leaves the double range, and its log,
# which the flush adds back to the chain's exponent once per scaling.
_RESCALE, _LOG_RESCALE = 2.0**-512, 512 * math.log(2)


def overlap_matrix(rows, cols, params: FockParams) -> np.ndarray:
    """Matrix of <T_{lam_q} e_{k_q}, T_{mu_p} e_{j_p}> for row labels (mu_p,
    j_p) and column labels (lam_q, k_q), as pairs or LABEL arrays at finite
    points (core.label_array); labels may repeat and either family may be empty.

    An entry is phase * <T_z e_k, e_j> with (phase, z) = compose_phase(-mu,
    lam) and the closed form of displacement_element, bit-identical to scalar
    Python floats (libm's bits, complex products in CPython's order).  Points
    are told apart by their bits, since a signed zero can move the phase and
    the atan2 branch.

    Each family is sorted once into runs, maximal stretches of consecutive
    degrees at one point.  A pair of runs of lengths a and b holds a + b - 1
    chains, its entries of one gap j - k at consecutive lo = min(j, k).
    Batches of at most _BLOCK_ENTRIES chains (a long run pair is split by
    chain range) evaluate the factors of z once per run pair, cos and sin of
    d*arg w once per chain, and the Laguerre recurrence once for all their
    chains in step; the entries the steps reach are flushed through exp, the
    phase and the scatter, at most _BLOCK_ENTRIES at a time.  Each step is
    the scalar recurrence on the same floats in the same order, so no bit
    depends on the walk, and nothing is sorted after the first sort.  A
    chain whose values outgrow the double range (past alpha*|z|^2 of about
    1416) is rescaled by 2**-512 and its entries' exponents raised to match.

    When the two label arrays are bitwise equal, only the run pairs whose
    column point is at or before the row point in bit order are computed,
    and each transposed entry is its mirror's conjugate plus 0.0 (a real
    entry's mirror keeps +0j), so the matrix is Hermitian exactly.
    """
    rows, cols = label_array(rows), label_array(cols)
    if not (np.isfinite(rows["point"]).all() and np.isfinite(cols["point"]).all()):
        raise ValueError("atom points must be finite")
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    if not rows.size or not cols.size:
        return out
    j, k = rows["n"], cols["n"]
    if min(j.min(), k.min()) < 0:
        raise ValueError("basis indices must be >= 0")
    top = int(max(j.max(), k.max()))
    if top >= 2**61:  # below it no int64 sum of the walk (2i + 1 + d, at most 3 top + 1) wraps
        raise ValueError("basis indices must be below 2**61")
    log_fact = scalar_math(math.lgamma, np.arange(1, top + 2))
    # contiguous points, whose bits _runs views as integers
    mu, lam = np.ascontiguousarray(rows["point"]), np.ascontiguousarray(cols["point"])
    equal = np.array_equal(mu.view(np.int64), lam.view(np.int64)) and np.array_equal(j, k)
    row_runs = _runs(mu, j)
    col_runs = row_runs if equal else _runs(lam, k)
    _walk(out, row_runs, col_runs, params, log_fact, equal)
    return out


def _runs(z, degree):
    # the labels sorted by (point bits, degree): the order, and per run its
    # start in it, length, first degree, point index and point
    bits = z.view(np.int64).reshape(-1, 2)
    order = np.lexsort((degree, bits[:, 1], bits[:, 0]))
    bits, degree = bits[order], degree[order]
    point = np.concatenate(([True], np.any(bits[1:] != bits[:-1], axis=1)))
    start = np.flatnonzero(point | np.concatenate(([True], degree[1:] != degree[:-1] + 1)))
    point = np.cumsum(point)[start] - 1
    return order, start, np.diff(start, append=len(order)), degree[start], point, z[order[start]]


def _walk(out, row_runs, col_runs, params, log_fact, half):
    # the chains of the run pairs (u, v), pair after pair (row-major; if half, v up
    # to u's point) and by gap in a pair, in batches of at most _BLOCK_ENTRIES
    row_order, row_start, a, row_degree, row_point, row_z = row_runs
    col_order, col_start, b, col_degree, col_point, col_z = col_runs
    reach = np.searchsorted(col_point, row_point, "right") if half else np.full(len(a), len(b))
    b_before = np.concatenate(([0], np.cumsum(b)))
    size = reach * (a - 1) + b_before[reach]
    row_first, total = np.cumsum(size) - size, int(size.sum())
    flat, width = out.reshape(-1), out.shape[1]
    for begin in range(0, total, _BLOCK_ENTRIES):
        ends = [begin, min(begin + _BLOCK_ENTRIES, total) - 1]
        # the pairs of the row runs the batch reaches, and their first chains
        lo_u, hi_u = np.searchsorted(row_first, ends, side="right") - 1
        n = reach[lo_u:hi_u + 1]
        u = np.repeat(np.arange(lo_u, hi_u + 1), n)
        v = np.arange(len(u)) - np.repeat(np.cumsum(n) - n, n)
        pair_first = row_first[u] + v * (a[u] - 1) + b_before[v]
        keep = slice(*np.searchsorted(pair_first, ends, "right") + [-1, 0])
        u, v, pair_first = u[keep], v[keep], pair_first[keep]
        # chain w's pair, first and end lo, sorted row and column less lo: chain g of
        # an a x b run pair starts at its row max(0, g - b + 1), column row - g + b - 1
        w = np.arange(ends[0], ends[1] + 1)
        pair = np.searchsorted(pair_first, w, "right") - 1
        g, ga, gb, gu, gv = w - pair_first[pair], a[u][pair], b[v][pair], u[pair], v[pair]
        row = np.maximum(g - gb + 1, 0)
        col = row - g + gb - 1
        j, k = row_degree[gu] + row, col_degree[gv] + col
        first = np.minimum(j, k)
        end = first + np.minimum(ga - row, gb - col)
        row_at, col_at = row_start[gu] + row - first, col_start[gv] + col - first
        d = np.abs(j - k)
        phase, x, log_w, arg_ge, arg_lt, at_zero = _point_factors(row_z[u], col_z[v], params)
        angle = d * np.where(j >= k, arg_ge[pair], arg_lt[pair])
        cis = libm_cis(angle)
        mirror = col_point[v] < row_point[u] if half else None

        def flush(e, lag, lo, scaled):  # chain e's entry at lo, whose L_lo is lag / _RESCALE**scaled
            q, de = pair[e], d[e]
            log_lag = -0.5 * x[q] + 0.5 * (log_fact[lo] - log_fact[lo + de]) + de * log_w[q]
            # an unscaled chain adds +0.0, which keeps every bit of exp's result
            lag *= libm_exp(log_lag + scaled * _LOG_RESCALE)
            zero = at_zero[q]
            re = np.where(zero, (de == 0) * 1.0, lag * cis.real[e])
            im = np.where(zero, 0.0, lag * cis.imag[e])
            r, c = row_order[row_at[e] + lo], col_order[col_at[e] + lo]
            value = flat[r * width + c] = scalar_mul(phase[q], re, im)
            if half:  # the transposed entries of the run pairs at two points
                m = mirror[q]
                flat[c[m] * width + r[m]] = value[m].conj() + 0.0

        # the recurrence from L_0 (L_-1 = 0 makes the first step 1 + d - x
        # exactly); step i reaches lo = i of the chains with first <= i < end
        prev, cur, cx, steps = np.zeros(len(d)), np.ones(len(d)), x[pair], int(end.max())
        shift = np.zeros(len(d), int)
        held, chain, value, lo, scaled = 0, *(np.empty(_BLOCK_ENTRIES, t) for t in (int, float, int, int))
        for i in range(steps):
            e = np.flatnonzero((first <= i) & (i < end))
            while len(e):  # each flush but the last holds _BLOCK_ENTRIES entries
                take, e = e[: _BLOCK_ENTRIES - held], e[_BLOCK_ENTRIES - held :]
                at = slice(held, held + len(take))
                chain[at], value[at], lo[at], scaled[at] = take, cur[take], i, shift[take]
                held = at.stop
                if held == _BLOCK_ENTRIES:
                    flush(chain, value, lo, scaled)
                    held = 0
            if i + 1 < steps:
                prev, cur = cur, _step(i, prev, cur, d, cx, shift)
        if held:
            flush(chain[:held], value[:held], lo[:held], scaled[:held])


def _step(i, prev, cur, d, x, shift):
    """L_{i+1} of each chain from L_{i-1} = prev and L_i = cur.  A chain whose
    step leaves the double range from finite values has prev and cur scaled
    by _RESCALE in place, its shift counted, and is stepped again."""

    def step(prev, cur, d, x):
        return ((2 * i + 1 + d - x) * cur - (i + d) * prev) / (i + 1)

    try:  # numpy reads the overflow flag after each ufunc anyway; quiet NaNs raise nothing
        with np.errstate(over="raise", invalid="raise"):
            return step(prev, cur, d, x)
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", invalid="ignore"):
        nxt = step(prev, cur, d, x)
        lost = np.flatnonzero(~np.isfinite(nxt) & np.isfinite(prev) & np.isfinite(cur) & np.isfinite(x))
        while lost.size:  # values that only shrink end at zero, so this ends
            prev[lost] *= _RESCALE
            cur[lost] *= _RESCALE
            shift[lost] += 1
            nxt[lost] = step(prev[lost], cur[lost], d[lost], x[lost])
            lost = lost[~np.isfinite(nxt[lost])]
    return nxt


def _point_factors(mu, lam, params: FockParams):
    """Factors of the point pairs (mu, lam), elementwise: the composition
    phase, x = alpha*|z|^2, log|w|, arg w for j >= k and for j < k, and the
    mask of z == 0, where z = lam - mu."""
    with np.errstate(over="ignore"):  # the shift compose_phase forms
        if not np.isfinite(lam - mu).all():
            raise OverflowError("a point difference leaves the double range")
    phase, z = compose_phase(-mu, lam, params)
    sa = math.sqrt(params.alpha)
    # w = sa*conj(z) if j >= k, else -sa*z with the opposite real part; the zero
    # term signs a zero Im w as CPython does, which decides the atan2 branch
    wr, wi = sa * z.real, -(sa * z.imag) + 0.0 * z.real
    square = libm_square(np.stack((z.real, z.imag, wr, wi)))  # one C loop for the four squares
    x, r2 = params.alpha * (square[0] + square[1]), square[2] + square[3]
    at_zero = r2 == 0
    log_w = 0.5 * libm_log(np.where(at_zero, 1.0, r2))
    return phase, x, log_w, libm_atan2(wi, wr), libm_atan2(wi, -wr), at_zero


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
    labels: np.ndarray
    entries: np.ndarray

    def digest(self) -> str:
        """Short stable fingerprint of (alpha, labels) for report provenance."""
        return label_digest(self.params, self.labels)


def gram_matrix(family, params: FockParams) -> GramMatrix:
    """Assemble the Gram matrix of the atoms T_lam e_k named by `family`:
    one equal-family overlap_matrix call, which computes the run pairs up to
    each point and mirrors the rest as their conjugates."""
    labels = label_array(family)
    if not labels.size:
        raise ValueError("atom family must be nonempty")
    ordered = labels[np.lexsort((labels["n"], labels["point"]))]  # equal labels adjacent
    with np.errstate(invalid="ignore"):  # 0j equals -0j; a NaN point, signalling too, equals nothing
        if np.any(ordered[1:] == ordered[:-1]):
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
    n_r, n_theta = require_index("n_r", n_r, 8), require_index("n_theta", n_theta, 8)
    if radius is None:
        radius = default_oracle_radius(f, g)
    require_positive("radius", radius)
    alpha = f.params.alpha
    nodes, weights = _leggauss(n_r)
    r = 0.5 * radius * (nodes + 1.0)
    w_r = 0.5 * radius * weights
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    zgrid = r[:, None] * np.exp(1j * theta)[None, :]
    vals = f.evaluate(zgrid) * np.conj(g.evaluate(zgrid))
    radial = np.exp(-alpha * r**2) * r * w_r
    integral = (2.0 * np.pi / n_theta) * np.sum(vals * radial[:, None])
    return complex(alpha / np.pi * integral)
