"""Divisors, their discs and window checks of the covering and disjointness
conditions behind sampling, interpolation and uniqueness.

A divisor holds arrays of points and multiplicities, with entries (lam, m) as
a view; each carries the disc D(lam, sqrt(m/alpha)), and checks use the padded
(+C) or shrunk (-C) radii, functions of m.  The plane is probed on a finite
window disc, so every verdict is an on-window estimate, never a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LABEL, MAX_GRID_CELLS, FockParams, disc_grid, label_digest, label_records, libm_square, require_positive

__all__ = [
    "Divisor",
    "Window",
    "disc_radius",
    "overlap_count_at",
    "max_overlap",
    "coverage_defect",
    "pairwise_disjoint",
    "theorem_verdicts",
]


def require_multiplicities(mults) -> None:
    """The rule of a multiplicity, or of each in an array: an integer m with 1 <= m < 2**63."""
    if not np.all((mults >= 1) & (mults < 2**63) & (mults % 1 == 0)):  # a NaN compares False
        raise ValueError("multiplicities must be integers m with 1 <= m < 2**63")


@dataclass(frozen=True, eq=False, init=False)
class Divisor:
    """Finite points, pairwise distinct by value as a Python set decides (0j and
    -0j collide), with multiplicities 1 <= m < 2**63, held as read-only arrays
    points (complex128) and mults (int64) in input order, from (point, mult)
    pairs or LABEL records (copied); entries is their view as pairs."""

    params: FockParams
    points: np.ndarray
    mults: np.ndarray

    def __init__(self, params: FockParams, entries):
        if isinstance(entries, np.ndarray) and entries.dtype == LABEL:
            points, mults = entries["point"].flatten(), entries["n"].flatten()
        else:  # an object table: each multiplicity is checked as the exact Python number
            table = np.array(list(entries), dtype=object).reshape(-1, 2)
            points, mults = table[:, 0].astype(complex), table[:, 1]
        with np.errstate(invalid="ignore"):  # a NaN multiplicity, signalling ones too, compares False
            require_multiplicities(mults)
        if not np.isfinite(points).all():
            raise ValueError("divisor points must be finite")
        ordered = np.sort(points)  # equal values end up adjacent
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("divisor points must be pairwise distinct")
        self.__dict__.update(params=params, points=points, mults=mults.astype(np.int64))
        self.points.flags.writeable = self.mults.flags.writeable = False

    def __eq__(self, other):  # equal values; like its arrays, a divisor has no hash
        if not isinstance(other, Divisor):
            return NotImplemented
        same = self.params == other.params and np.array_equal(self.points, other.points)
        return same and np.array_equal(self.mults, other.mults)

    @property
    def entries(self) -> tuple[tuple[complex, int], ...]:
        return tuple(zip(self.points.tolist(), self.mults.tolist()))

    def total_multiplicity(self) -> int:
        return sum(self.mults.tolist())

    def atom_labels(self) -> np.ndarray:
        """Measurement labels (lam, k), k < m, as a LABEL array in divisor order, k ascending."""
        labels = label_records(np.repeat(self.points, self.mults), 0)
        labels["n"] = np.arange(labels.size)  # less the index of each point's first label
        labels["n"] -= np.repeat(np.cumsum(self.mults) - self.mults, self.mults)
        return labels

    def digest(self) -> str:
        """Short stable fingerprint of (alpha, points, mults) for report provenance."""
        return label_digest(self.params, label_records(self.points, self.mults))


@dataclass(frozen=True)
class Window:
    """Grid-probed disc standing in for the plane in geometric checks."""

    radius: float
    grid_step: float

    def __post_init__(self):
        require_positive("window radius", self.radius)
        if not (0 < self.grid_step <= self.radius / 10):
            raise ValueError("grid_step must satisfy 0 < grid_step <= radius/10")
        disc_grid(self.radius, self.grid_step)  # refuses an oversized square, building none

    def _square(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return disc_grid(self.radius, self.grid_step)()

    def grid(self) -> np.ndarray:
        """Complex points of the square grid of pitch grid_step, clipped to
        the disc |z| <= radius; deterministic row-major order."""
        z, _, inside = self._square()
        return z[inside]


def disc_radius(mult: int, params: FockParams, c: float, sign: int) -> float | None:
    """Disc radius sqrt(m/alpha) + C (sign +1) or sqrt(m/alpha) - C (sign -1).

    Under sign -1 the entry only counts when m > alpha*C^2; otherwise None,
    meaning the entry is excluded from the check.  Callers check C (finite, >= 0).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    base = math.sqrt(mult / params.alpha)
    if sign == 1:
        return base + c
    if mult > params.alpha * c * c:
        return base - c
    return None


def overlap_count_at(divisor: Divisor, z) -> int:
    """Number of open discs D(lam, sqrt(m/alpha)) containing z."""
    with np.errstate(invalid="ignore"):  # a NaN probe, signalling ones too, is in no disc
        d = complex(z) - divisor.points
    d2 = libm_square(d.real) + libm_square(d.imag)
    return int(np.count_nonzero(d2 < divisor.mults * (1.0 / divisor.params.alpha)))


def _index_spans(centres: np.ndarray, reach, step: float, n: int) -> np.ndarray:
    """Per centre (and reach), the first and end indices of the grid axis
    step*(-n..n) within reach of it, widened by one index on each side."""
    with np.errstate(over="ignore"):  # a far centre's bounds are infinite: its box is empty
        lo = (centres - reach) / step + n - 1
        hi = (centres + reach) / step + n + 2
    return np.clip(np.stack((lo, hi)), 0.0, 2 * n + 1).astype(np.int64)


# The sweep's cells of |z - lam|^2 held at once, and the row runs' (disc, row) pairs per band.
_SWEEP_CELLS = 2**16


def _chunks(r0, r1, c0, c1, cells: int):
    """The index boxes (r0[k]:r1[k], c0[k]:c1[k]) as chunks of at most `cells`
    cells, each a list of (k, first row, end row): a stack of consecutive
    whole boxes, or a slab of rows of one box too large for a stack."""
    ends = np.cumsum([(b - a) * (d - c) for a, b, c, d in zip(r0, r1, c0, c1)], dtype=np.int64)
    k = 0
    while k < len(ends):
        stop = int(np.searchsorted(ends, ends[k - 1] + cells if k else cells, "right"))
        if stop > k:
            yield [(j, r0[j], r1[j]) for j in range(k, stop)]
            k = stop
            continue
        rows = cells // (c1[k] - c0[k])
        for a in range(r0[k], r1[k], rows):
            yield [(k, a, min(a + rows, r1[k]))]
        k += 1


def _disc_sweep(divisor: Divisor, window: Window, table, classes):
    """The level grid of a disc family, rows of a radius table (entry e in column
    classes[e]: _entry_radii): per cell, the most of one entry's discs holding it,
    its column's positive radii r squared as r * r, in row order (NaN is absent).
    Each entry computes |z - lam|^2 once, on the index box of its largest disc,
    widened by one index a side so that rounding cannot leave out a point in the
    disc, and tests each disc by the full-grid rule d2 < r^2, bit for bit.

    The entries of one multiplicity share their discs, so their boxes are
    worked in chunks of at most _SWEEP_CELLS cells: a stack of whole boxes,
    or a slab of rows of one box too large for a stack.  A chunk fills
    buffers allocated once per sweep: z - lam, copied from the differences
    of the window axis and lam (the bits of z[box] - lam), its squared
    modulus and the count of an entry's discs holding each cell, maximised
    box by box into the level grid, which so does not depend on the
    chunking.  Returns the square grid, its moduli, its mask and the levels.
    """
    z, modulus, inside = window._square()
    n, axis = (z.shape[0] - 1) // 2, z.real[0].copy()
    radii = [[r * r for r in column if r > 0] for column in np.transpose(table).tolist()]
    grid = np.zeros(z.shape, np.min_scalar_type(max(map(len, radii), default=0)))
    cells = max(_SWEEP_CELLS, z.shape[1])  # a row of the square always fits
    diff, d2, test = np.empty(cells, complex), np.empty(cells), np.empty(cells, bool)
    pairs = diff.view(float).reshape(-1, 2)
    # how many of one entry's discs hold a cell; a one-byte count is written
    # as bool and the tests read as bytes, which spares the ufuncs a cast
    level = np.empty(cells, grid.dtype)
    first, tested = (level, test) if level.itemsize > 1 else (level.view(bool), test.view(np.uint8))
    groups = np.split(np.argsort(classes, kind="stable"), np.cumsum(np.bincount(classes))[:-1])
    for held_by, group in zip(radii, groups):  # no group for an empty divisor
        if not held_by:
            continue
        lams, reach = divisor.points[group], math.sqrt(max(held_by))
        (r0, r1), (c0, c1) = (_index_spans(x, reach, window.grid_step, n).tolist() for x in (lams.imag, lams.real))
        lams = lams.tolist()
        for chunk in _chunks(r0, r1, c0, c1, cells):
            boxes, total = [], 0
            for k, a, b in chunk:
                box, shape = (slice(a, b), slice(c0[k], c1[k])), (b - a, c1[k] - c0[k])
                at = slice(total, total + shape[0] * shape[1])
                pair = pairs[at].reshape(*shape, 2)
                pair[..., 0] = axis[box[1]] - lams[k].real
                pair[..., 1] = (axis[box[0]] - lams[k].imag)[:, None]
                boxes.append((box, level[at].reshape(shape)))
                total = at.stop
            sq = np.abs(diff[:total], out=d2[:total])
            with np.errstate(over="ignore"):  # an infinite distance lies in no disc
                np.multiply(sq, sq, out=sq)  # what ** 2 computes
            np.less(sq, held_by[0], out=first[:total])
            for t in held_by[1:]:
                np.less(sq, t, out=test[:total])
                np.add(level[:total], tested[:total], out=level[:total])
            for box, held in boxes:
                view = grid[box]
                np.maximum(view, held, out=view)
    return z, modulus, inside, grid


def max_overlap(divisor: Divisor, window: Window) -> int:
    """Window maximum of the disc-overlap count, with the grid's bits and no
    grid: a lower estimate of the plane-wide supremum in the finite overlap
    condition, since only grid points inside the window are probed.

    Row by row in its index box (the sweep's), a disc (t = m*(1/alpha), rho =
    sqrt(t)) holds a run of cells proven in; shell cells beside it meet the
    grid rule itself (numpy's abs of (axis[c] - lam.real, axis[r] - lam.imag),
    squared, < t).  The mask abs <= R' = R(1 + 1e-12) is a disc at 0 that
    outweighs all others: the summed runs peak at the windowed count plus its
    weight.  Bands of rows hold at most _SWEEP_CELLS (disc, row) pairs, or one.

    Margins.  Discs claim only if rho >= 2**-500, |lam.real| + axis[-1] <=
    2**15 r, r = min(rho, 2**510), and |lam.real| + 2 rho < 2**1000 step (no
    guess overflows).  The run [ceil(x - w), floor(x + w)], x = lam.real/step
    + n, w = sqrt(r_in^2 - dy^2)/step, r_in = r(1 - 1e-9), errs by under 6u
    2**16 r (u = 2**-53, 4.4e-11 r) and its squares by 4u r^2: its cells
    lie within r(1 - 0.95e-9), where abs (to 1e-12) squares below t and
    2**1021.  Past the bounds from r_out = rho(1 + 1e-9), cells lie beyond
    rho(1 + 0.95e-9) and square to t or more, or inf (an inf r_out^2 claims
    nothing).  The mask claims by the same bounds on R'.
    """
    axis, step = disc_grid(window.radius, window.grid_step).axis, window.grid_step
    n, edge, heavy, best, b0 = (axis.size - 1) // 2, window.radius * (1 + 1e-12), divisor.points.size + 1, 0, 0
    with np.errstate(over="ignore"):  # m/alpha past the double range is inf, as m * (1/alpha)
        t = divisor.mults * (1.0 / divisor.params.alpha)
        lams, rho = np.concatenate((divisor.points, [0j])), np.concatenate((np.sqrt(t), [edge]))
        r, far = np.minimum(rho, 2.0**510), np.abs(lams.real)
        sure = (rho >= 2.0**-500) & (far + axis[-1] <= 2.0**15 * r) & (far + 2 * rho < 2.0**1000 * step)
        bounds = np.where(sure, np.square([r * (1 - 1e-9), rho * (1 + 1e-9)]), [[-np.inf], [np.inf]])  # in, out
        x = np.fmin(np.fmax(lams.real / step, -(2.0**1001)), 2.0**1001) + n  # clipped: no inf - inf guess
    (r0, r1), (c0, c1) = (_index_spans(v, rho, step, n) for v in (lams.imag, lams.real))
    # guesses of first cells clip to [c0, c1] (the box and one past it), of last ones one lower
    c0, c1 = (c - np.array([[0.0], [0.0], [1.0], [1.0]]) for c in (c0, c1))
    ends = (np.bincount(r0, None, axis.size + 1) - np.bincount(r1, None, axis.size + 1)).cumsum().cumsum()
    while b0 < axis.size:
        b1 = max(int(np.searchsorted(ends, (ends[b0 - 1] if b0 else 0) + _SWEEP_CELLS, "right")), b0 + 1)
        lo, count = np.maximum(r0, b0), np.maximum(np.minimum(r1, b1) - np.maximum(r0, b0), 0)
        k = np.arange(lams.size).repeat(count)
        row = (lo - count.cumsum() + count).repeat(count) + np.arange(k.size)
        dy = axis[row] - lams.imag[k]
        with np.errstate(all="ignore"):  # guesses past the double range are clipped; inf squares in no disc
            rest = bounds.take(k, axis=1) - np.fmin(dy * dy, np.finfo(float).max)
            half, mid = np.sqrt(np.fmax(rest, 0.0)) / step, x[k]
            guess = np.concatenate((np.ceil(mid - half), np.floor(mid + half)))
            a, left, b, right = np.minimum(np.maximum(guess, c0.take(k, axis=1)), c1.take(k, axis=1)).astype(np.int64)
            b = np.where(rest[0] >= 0, b, a - 1)  # no run: an empty one, [a, a)
            size = np.concatenate((a - left, right - b))  # shell cells [left, a) and (b, right]
            pair = np.concatenate((np.arange(k.size),) * 2).repeat(size)
            col = (np.concatenate((left, b + 1)) - size.cumsum() + size).repeat(size) + np.arange(pair.size)
            disc = k[pair]
            modulus = np.abs(np.stack((axis[col] - lams.real[disc], dy[pair]), -1).view(complex)[:, 0])
            held = np.where(disc < t.size, modulus * modulus < np.concatenate((t, [0.0]))[disc], modulus <= edge)
        # runs (empty too) and held shell cells weigh on [start, stop), stops first
        line, mask = np.concatenate((row, row[pair[held]])) * (axis.size + 1), np.concatenate((k, disc[held])) == t.size
        start, stop = np.concatenate((a, col[held])), np.concatenate((b, col[held])) + 1
        keys = np.sort(np.concatenate(((line + start) * 4 + 2 + mask, (line + stop) * 4 + 1 - mask)))
        best = max(best, int(np.array([-heavy, -1, 1, heavy])[keys & 3].cumsum().max(initial=0)))
        b0 = b1
    return best - heavy


def _entry_radii(divisor: Divisor, cs, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """The radius table, row i holding disc_radius at cs[i] (NaN if absent) per
    distinct m ascending, one call each, and each entry's column.  Every C-radius
    in geometry comes from here, and none unless each C is finite and >= 0."""
    if not all(0 <= c < math.inf for c in cs) or sign not in (1, -1):
        raise ValueError("C must be finite and >= 0 (not NaN), and sign must be +1 or -1")
    distinct, classes = np.unique(divisor.mults, return_inverse=True)
    rows = [[disc_radius(m, divisor.params, c, sign) for m in distinct.tolist()] for c in cs]
    return np.array(rows, dtype=float), classes


def _covers(points: np.ndarray, radii: np.ndarray, radius: float, cells: float) -> bool:
    """True only if every cell of a window grid of this radius is in an open
    disc D(points[i], radii[i]) by the grid rule |z - lam|^2 < r*r; False says
    nothing.  Tried only if the disc areas could cover the window and the
    circles times the discs fit in `cells`; r < 2**-500 (or NaN) is left out.

    Margins.  K is |z| <= R' = R(1 + 1e-9), disc i has radius rho = min(r,
    2**500)(1 - 1e-9).  A window cell has fl(|z|) <= fl(R(1 + 1e-12)), so
    |z| < R' even if numpy's SIMD abs, not correctly rounded, errs by 1e-12.
    If |z - lam| < rho, the grid's subtraction (one rounding a part), abs
    (1e-12) and squaring give below rho^2(1 + 3e-12) < r*r, normal or inf
    (monotone rounding only lowers an underflowed square).  So it is enough
    that these discs cover K.  By the perimeter criterion (Huang & Tseng,
    2005) they do if each circle |z - lam_i| = rho_i, where it lies in K,
    lies in the other discs or K's exterior; K is connected, so its rim needs
    no row of its own.  If K is not covered, some circle's row fails: (a) if
    a kept disc meets K, an uncovered point of K is a limit of covered ones,
    so it lies on a circle inside K and in no other disc; (b) if rounding in
    the `far < big + rho` filter kept only discs that miss K (keeping none
    fails the area guard), the point nearest 0 of the kept disc nearest K
    lies within rounding of |z| = R', so in the exterior column's 1e-13
    margin gap, and in no other disc, which would lie nearer.  Disc j, and
    K's exterior, hold the open arc cos(theta - phi) > x of a circle (centre
    c, radius s): x = (s^2 + d^2 - t^2)/2sd, d = |lam_j - c| at angle phi,
    and x = (R'^2 - d^2 - s^2)/2sd, d = |c|.  Rounding moves x by some 2e-15
    S/2sd, S the sum of those squares, so x + 1e-13 S/2sd bounds it above: a
    whole circle needs it below -1, and its arccos less 1e-12 rad (above what
    arctan2, arccos and the sums lose) is a closed half-width inside the open
    arc; exact comparisons decide the arcs' cover of each circle.  A tangent
    pair's open arc is empty, and a near-tangent one (x within 1e-13 of 1)
    gives none, as d = 0 or 2sd < 2**-1000 does: leaving out an arc or a disc
    only shrinks the union checked, so it can refuse, never certify a gap.
    """
    big, keep = radius * (1 + 1e-9), radii >= 2.0**-500
    if not 2.0**-500 <= big <= 2.0**500:
        return False
    lams, rho = points[keep], np.minimum(radii[keep], 2.0**500) * (1 - 1e-9)
    with np.errstate(over="ignore"):  # a centre near the double range is far from every window
        far = np.hypot(lams.real, lams.imag)
    if np.any(far + big < rho):  # one disc holds K (to roundings the margins absorb), before any square
        return True
    lams, rho = lams[far < big + rho], rho[far < big + rho]
    if not ((rho.size + 1) ** 2 <= cells and np.sum(rho * rho) >= big * big):
        return False
    # rows: each circle; columns: each disc, then K's exterior, those that
    # meet the row's circle gathered first and the rest cut off
    centre, s = lams[:, None], rho[:, None]
    v, t = np.concatenate((lams - centre, centre), axis=1), np.append(rho, big)
    d, side = np.hypot(v.real, v.imag), np.append(np.ones(rho.size), -1.0)
    near = (d < s + t) & (d + t > s) | (side < 0)
    rows, pick = np.arange(rho.size)[:, None], np.argsort(~near, axis=1, kind="stable")
    pick = pick[:, : near.sum(1).max()]
    v, d, t, side = v[rows, pick], d[rows, pick], t[pick], side[pick]
    with np.errstate(all="ignore"):  # d = 0 divides by 0: NaN and inf give no arc
        x = (side * (s * s + d * d - t * t) + 1e-13 * (s * s + d * d + t * t)) / (2 * s * d)
        x[~(2 * s * d >= 2.0**-1000)] = np.nan
        half = np.arccos(np.minimum(x, 1.0)) - 1e-12
    phi = np.arctan2(v.imag, v.real)
    start, end = (np.where(half > 0, phi + sign * half, -np.inf) for sign in (-1, 1))
    wrapped = 2 * np.pi * (start < -np.pi)  # each start into [-pi, pi], and a copy 2pi down
    start, end = (np.concatenate((a + wrapped, a + wrapped - 2 * np.pi), axis=1) for a in (start, end))
    # sorted by start, the first is a copy (at most -pi) or no arc: a gap
    # is a later start beyond the reach of those before it, short of pi
    order = np.argsort(start, axis=1)
    start, reach = start[rows, order], np.maximum.accumulate(end[rows, order], axis=1)
    gap = (start[:, 1:] > np.maximum(reach[:, :-1], -np.pi)) & (reach[:, :-1] < np.pi)
    return bool(np.all((x < -1).any(1) | ~gap.any(1) & (reach[:, -1] >= np.pi)))


def _require_hole(hole_radius: float, window: Window) -> None:
    if not (0 <= hole_radius < window.radius):
        raise ValueError("hole_radius must satisfy 0 <= hole_radius < window radius")


def coverage_defect(
    divisor: Divisor,
    c: float,
    sign: int,
    window: Window,
    hole_radius: float = 0.0,
) -> np.ndarray:
    """Grid points of the annulus hole_radius <= |z| <= radius in no disc.

    Discs are open, with radii per disc_radius from a one-row radius table
    (_entry_radii refuses a C not finite and >= 0), read per entry by _covers
    and per class by the sweep; entries with absent shrunk radius are skipped.
    An empty result means the divisor covers the probed annulus at this C; when
    _covers certifies it, no grid is built.  Points are verbatim, in grid order.
    """
    _require_hole(hole_radius, window)
    table, classes = _entry_radii(divisor, [c], sign)
    if _covers(divisor.points, table[0, classes], window.radius, (2 * window.radius / window.grid_step) ** 2):
        return np.empty(0, complex)
    z, modulus, inside, held = _disc_sweep(divisor, window, table, classes)
    return z[inside & (modulus >= hole_radius) & (held == 0)]


# Candidate pairs that one chunk of the pair screen holds; a whole screen holds
# under 128 bytes per point and per pair of its chunk.
_PAIR_BUDGET = 2**13


def _near_pairs(points: np.ndarray, reach: float):
    """Chunks (i, j) of index arrays, at most _PAIR_BUDGET pairs or one point's
    each, listing in (i, j) order every pair i < j whose parts differ by at
    most reach, and some farther ones, from a cell list.  Per axis, sorted
    halved coordinates (no difference overflows; a subnormal's lost bit is
    far below a cell, as radii are 0 or above 2**-566) split into runs at
    gaps over reach/2; cells of side reach(1 + 2**-20)/2 count from each
    run's least coordinate, erring by under 2n 2**-53 cells (within the slack
    for n < 2**31), and runs lie two cells apart: parts within reach are at
    most one cell apart, and cells stay below 2n.  A point's 3 x 3 cells are
    three ranges of the keys.
    """
    n, half = points.size, 0.5 * reach
    if n < 2 or not reach > 0:
        return
    key = np.zeros(n, np.int64)
    for x in (points.real, points.imag):  # key = 2n col + row
        ascending = np.argsort(x, kind="stable")
        xs = x[ascending] * 0.5
        run = np.concatenate(([True], np.diff(xs) > half))
        cell = np.floor((xs - xs[np.maximum.accumulate(np.where(run, np.arange(n), 0))]) / (half * (1 + 2**-20)))
        col = np.concatenate(([0.0], np.where(run[1:], 2.0, np.diff(cell)))).cumsum()
        key[ascending] = key[ascending] * (2 * n) + col.astype(np.int64)
    order = np.argsort(key, kind="stable")
    ordered, shifts = key[order], np.array([-2 * n, 0, 2 * n])
    ends = sum(np.searchsorted(ordered, key + s + 1, "right") - np.searchsorted(ordered, key + s - 1) for s in shifts.tolist())
    ends, a = np.cumsum(ends), 0
    while a < n:
        b = max(int(np.searchsorted(ends, (ends[a - 1] if a else 0) + _PAIR_BUDGET, "right")), a + 1)
        lo = np.searchsorted(ordered, key[a:b, None] + shifts - 1).ravel()
        size = np.searchsorted(ordered, key[a:b, None] + shifts + 1, "right").ravel() - lo
        j = order[np.repeat(lo - size.cumsum() + size, size) + np.arange(size.sum())]
        i = np.repeat(np.arange(a, b), size.reshape(-1, 3).sum(1))
        i, j = i[j > i], j[j > i]
        by_pair = np.argsort(i * n + j, kind="stable")  # the keys' int64 sort: no other sort kernel is paged in
        yield i[by_pair], j[by_pair]
        a = b


def _first_overlaps(points: np.ndarray, table, classes) -> list:
    """Per row of a radius table, in row order (entry e in column classes[e]:
    _entry_radii), the first pair (i, j) in entry order whose discs meet by the
    scalar rule, or None.  One screen at reach 2 max r, holding the parts of every
    pair that meets, serves every row; np.hypot rounds as Python's abs does."""
    firsts = [None] * len(table)
    with np.errstate(over="ignore"):  # a distance past the double range meets no disc
        for i, j in _near_pairs(points, 2 * max(np.max(r[r >= 0], initial=0.0) for r in table)):
            d = np.hypot(points.real[i] - points.real[j], points.imag[i] - points.imag[j])
            ci, cj = classes[i], classes[j]
            for t in [t for t, first in enumerate(firsts) if first is None]:
                hit = np.flatnonzero(d < table[t][ci] + table[t][cj])
                if hit.size:
                    firsts[t] = (int(i[hit[0]]), int(j[hit[0]]))
            if None not in firsts:
                break
    return firsts


def pairwise_disjoint(divisor: Divisor, c: float, sign: int) -> tuple[bool, tuple[complex, complex] | None]:
    """Whether the padded/shrunk open discs are pairwise disjoint (tangent ones
    are), and the first pair of points whose discs meet, in entry order, or None."""
    (first,) = _first_overlaps(divisor.points, *_entry_radii(divisor, [c], sign))
    return (True, None) if first is None else (False, tuple(divisor.points[list(first)].tolist()))


def _witnessed(c: float | None) -> dict:
    return {"holds": c is not None, "witness_c": c}


def theorem_verdicts(divisor: Divisor, window: Window, c_list, hole_radius: float = 0.0) -> dict:
    """All window verdicts for the divisor, as the `verdicts` block of a
    check-geometry report, its keys in report order:

    finite_overlap_bound: the window maximum of the disc-overlap count.
    padded_cover {holds, witness_c}: the least tested C whose +C discs cover
    the window disc (the necessary side of the sampling criterion), or None.
    shrunk_cover: per tested C, {c, holds, uncovered_count, uncovered}:
    whether the -C discs cover the annulus outside the hole (the sufficient
    side), and the grid points they leave uncovered, in grid order.
    shrunk_disjoint / padded_disjoint {holds, witness_c}: the least tested C
    whose -C / +C discs are pairwise disjoint (the necessary / sufficient
    sides of the interpolation criterion), or None.
    bare_cover {holds, hole_radius}: coverage at C = 0 outside the hole (the
    uniqueness condition, which rules out zero divisors).
    exclusivity_consistent: the sufficient sides of sampling and
    interpolation were not certified simultaneously.
    scope: what the verdicts are, window estimates.

    Existential quantifiers over C > 0 are probed on the finite ascending
    c_list of positive finite values; universal ones are recorded per tested
    C.  Row runs give the overlap bound (max_overlap) with no grid.  The rest
    read radius tables (_entry_radii): the innermost row (-cs[-1]) per entry, and
    only to sweep or screen the shrunk (-C, descending C) and padded (+C at 0,
    then ascending C) ones.  One sweep builds one level grid however long c_list
    is, and none when _covers certifies that the innermost discs cover the
    window: every cover verdict then holds, as the grid would say.  One pair
    screen (_first_overlaps) decides the shrunk rows and the padded one at
    cs[0] (they only grow with C), and none runs if _covers certifies and two
    entries keeping their innermost discs (r >= 2**-500) have hypot(lam) <= R,
    so |lam| <= R(1 + 2**-52): the kept discs of radius min(r, 2**500)(1 -
    1e-9) meeting K' = {|z| <= R(1 + 1e-9)} cover it, and were they disjoint,
    the disc of one of those centres and the union of the others would split
    the connected K' into two open parts.  So two meet, |lam_a - lam_b| < (r_a +
    r_b)(1 - 1e-9), a margin that the float rule's differences, hypot and sum
    (a few units of 2**-53 each, no underflow above 2**-500) cannot erase, at
    every tested C and in the padded discs, all larger: no family is disjoint.
    Deterministic: the same inputs always produce identical verdicts.
    """
    cs = [float(c) for c in c_list]
    if not cs:
        raise ValueError("c_list must be nonempty")
    if not all(math.isfinite(c) for c in cs):
        raise ValueError("c_list must be finite")
    if any(c <= 0 for c in cs) or sorted(cs) != cs:
        raise ValueError("c_list must be positive and ascending")

    _require_hole(hole_radius, window)

    # cs ascends and each radius is one sqrt then -C or +C, so an entry's shrunk
    # discs at descending C (absent ones left out), then its padded discs at 0
    # and each C, ascend: the last `level` of them hold a point.  With k =
    # len(cs), the bare discs cover it where level > k, and at cs[i] the padded
    # ones where level >= k - i, the shrunk ones where level >= k + 2 + i.
    # If the innermost discs (-cs[-1]) certify, every window cell lies in all
    # 2k + 1 discs of some entry: level 2k + 1 everywhere, so no level grid.
    k = len(cs)
    (innermost,), classes = _entry_radii(divisor, cs[-1:], -1)
    bound = max_overlap(divisor, window)
    # np.hypot rounds |lam| as Python's abs does; np.abs may not
    centred = np.hypot(divisor.points.real, divisor.points.imag) <= window.radius
    certified = _covers(divisor.points, innermost[classes], window.radius, (2 * window.radius / window.grid_step) ** 2)
    if screened := not (certified and np.count_nonzero(centred & (innermost >= 2.0**-500)[classes]) >= 2):
        (shrunk, _), (padded, _) = _entry_radii(divisor, cs[::-1], -1), _entry_radii(divisor, [0.0, *cs], +1)
    if certified:
        padded_witness, uncovered, bare_cover = cs[0], [np.empty(0, complex)] * k, True
    else:
        z, modulus, inside, level = _disc_sweep(divisor, window, [*shrunk, *padded], classes)
        annulus = inside & (modulus >= hole_radius)
        least = int(level[inside].min())
        padded_witness = cs[max(k - least, 0)] if least else None
        # list i is the annulus below level k + 2 + i: one count sizes all before any is built
        if k * np.count_nonzero(annulus) > MAX_GRID_CELLS:
            if np.cumsum(np.bincount(level[annulus], minlength=2 * k + 1))[k + 1 : 2 * k + 1].sum() > MAX_GRID_CELLS:
                raise ValueError(f"the uncovered lists would hold more than {MAX_GRID_CELLS} grid points")
        uncovered = []
        for i in range(k):
            repeat = i and cs[i] == cs[i - 1]  # an equal C shares its list
            uncovered.append(uncovered[-1] if repeat else z[annulus & (level < k + 2 + i)])
        bare_cover = not (annulus & (level <= k)).any()

    shrunk_disjoint_witness = padded_disjoint_witness = None
    if screened:
        *shrunk_firsts, padded_first = _first_overlaps(divisor.points, [*shrunk, padded[1]], classes)
        shrunk_disjoint_witness = next((c for c, first in zip(cs, shrunk_firsts[::-1]) if first is None), None)
        padded_disjoint_witness = cs[0] if padded_first is None else None

    all_shrunk = not any(u.size for u in uncovered)
    exclusive = int(np.count_nonzero(centred)) < 2 or not (all_shrunk and padded_disjoint_witness is not None)

    return {
        "finite_overlap_bound": bound,
        "padded_cover": _witnessed(padded_witness),
        "shrunk_cover": [
            {"c": c, "holds": u.size == 0, "uncovered_count": u.size, "uncovered": u}
            for c, u in zip(cs, uncovered)
        ],
        "shrunk_disjoint": _witnessed(shrunk_disjoint_witness),
        "padded_disjoint": _witnessed(padded_disjoint_witness),
        "bare_cover": {"holds": bare_cover, "hole_radius": float(hole_radius)},
        "exclusivity_consistent": exclusive,
        "scope": "window estimates; overlap bound is a lower estimate of the plane supremum",
    }
