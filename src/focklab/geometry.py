"""Divisors, their discs and window checks of the covering and disjointness
conditions behind sampling, interpolation and uniqueness.

A divisor holds arrays of points and multiplicities, with entries (lam, m) as
a view; each carries the disc D(lam, sqrt(m/alpha)), and checks use the padded
(+C) or shrunk (-C) radii, functions of m.  The plane is probed on a finite
window disc, so every verdict is an on-window estimate, never a proof.
"""

from __future__ import annotations

import bisect
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
    meaning the entry is excluded from the check.
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


def _index_spans(centres: np.ndarray, reach: float, step: float, n: int) -> list[list[int]]:
    """Per centre, the first and end indices of the grid axis step*(-n..n)
    within reach of it, widened by one index on each side."""
    with np.errstate(over="ignore"):  # a far centre's bounds are infinite: its box is empty
        lo = (centres - reach) / step + n - 1
        hi = (centres + reach) / step + n + 2
    return [np.clip(x, 0.0, 2 * n + 1).astype(np.int64).tolist() for x in (lo, hi)]


# Cells of |z - lam|^2 held at once: the size of the sweep's buffers.
_SWEEP_CELLS = 2**16


def _chunks(r0, r1, c0, c1, cells: int):
    """The index boxes (r0[k]:r1[k], c0[k]:c1[k]) as chunks of at most `cells`
    cells, each a list of (k, first row, end row): a stack of consecutive
    whole boxes, or a slab of rows of one box too large for a stack."""
    ends = np.cumsum([(b - a) * (d - c) for a, b, c, d in zip(r0, r1, c0, c1)]).tolist()
    k = 0
    while k < len(ends):
        stop = bisect.bisect_right(ends, ends[k - 1] + cells if k else cells, k)
        if stop > k:
            yield [(j, r0[j], r1[j]) for j in range(k, stop)]
            k = stop
            continue
        rows = cells // (c1[k] - c0[k])
        for a in range(r0[k], r1[k], rows):
            yield [(k, a, min(a + rows, r1[k]))]
        k += 1


def _disc_sweep(divisor: Divisor, window: Window, families):
    """Count the discs of several families in one pass over the divisor.

    families[k] = (comb, discs): discs(m), evaluated once per distinct m,
    lists the squared radii of the open discs of an entry of multiplicity m,
    and comb (np.add or np.maximum) folds over entries how many of an entry's
    discs hold a point, into one small unsigned grid per family.  Each entry
    computes |z - lam|^2 once, on the index box of its largest disc, widened
    by one index a side so that rounding cannot leave out a point in the
    disc, and tests each disc by the full-grid rule d2 < r^2, bit for bit.

    The entries of one multiplicity share their discs, so their boxes are
    worked in chunks of at most _SWEEP_CELLS cells: a stack of whole boxes,
    or a slab of rows of one box too large for a stack.  A chunk fills
    buffers allocated once per sweep: z - lam, copied from the differences
    of the window axis and lam (the bits of z[box] - lam), its squared
    modulus, and per family the count of an entry's discs holding each
    cell, folded box by box into the family's grid before the next family
    is counted.  Integer folds do not depend on order, so no grid depends on
    the chunking.  Returns the square grid, its moduli, its window mask and
    the family grids.
    """
    z, modulus, inside = window._square()
    n, axis = (z.shape[0] - 1) // 2, z.real[0].copy()
    distinct, inverse = np.unique(divisor.mults, return_inverse=True)
    tables = [(comb, [discs(m) for m in distinct.tolist()]) for comb, discs in families]
    counts = [np.array([len(discs) for discs in radii], dtype=np.int64) for _, radii in tables]
    grids = [
        np.zeros(z.shape, np.min_scalar_type(comb.reduce(c[inverse], initial=0)))
        for (comb, _), c in zip(tables, counts)
    ]
    cells = max(_SWEEP_CELLS, z.shape[1])  # a row of the square always fits
    diff, d2, test = np.empty(cells, complex), np.empty(cells), np.empty(cells, bool)
    pairs = diff.view(float).reshape(-1, 2)
    # how many of one entry's discs hold a cell; a one-byte count is written
    # as bool and the tests read as bytes, which spares the ufuncs a cast
    level = np.empty(cells, np.min_scalar_type(max((c.max(initial=0) for c in counts), default=0)))
    first, tested = (level, test) if level.itemsize > 1 else (level.view(bool), test.view(np.uint8))
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    for i, group in zip(range(distinct.size), groups):  # no group for an empty divisor
        wanted = [(grid, comb, radii[i]) for grid, (comb, radii) in zip(grids, tables) if radii[i]]
        if not wanted:
            continue
        lams = divisor.points[group]
        reach = math.sqrt(max(max(discs) for *_, discs in wanted))
        r0, r1 = _index_spans(lams.imag, reach, window.grid_step, n)
        c0, c1 = _index_spans(lams.real, reach, window.grid_step, n)
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
            for grid, comb, discs in wanted:
                np.less(sq, discs[0], out=first[:total])
                for t in discs[1:]:
                    np.less(sq, t, out=test[:total])
                    np.add(level[:total], tested[:total], out=level[:total])
                for box, held in boxes:
                    view = grid[box]
                    comb(view, held, out=view)
    return z, modulus, inside, grids


def _overlap_family(divisor: Divisor):
    """The discs D(lam, sqrt(m/alpha)), summed over entries: the overlap count."""
    inv_alpha = 1.0 / divisor.params.alpha
    return np.add, lambda m: [m * inv_alpha]


def _nested_family(divisor: Divisor, cs, sign: int):
    """An entry's padded (+1) or shrunk (-1) discs at every C of cs, as r*r
    of the disc_radius r, maximised over entries; absent discs left out."""
    params = divisor.params
    return np.maximum, lambda m: [
        r * r for r in (disc_radius(m, params, c, sign) for c in cs) if r is not None and r > 0
    ]


def _require_hole(hole_radius: float, window: Window) -> None:
    if not (0 <= hole_radius < window.radius):
        raise ValueError("hole_radius must satisfy 0 <= hole_radius < window radius")


def max_overlap(divisor: Divisor, window: Window) -> int:
    """Window maximum of the disc-overlap count.

    A lower estimate of the plane-wide supremum in the finite overlap
    condition, since only grid points inside the window are probed.
    """
    _, _, inside, (counts,) = _disc_sweep(divisor, window, [_overlap_family(divisor)])
    return int(counts[inside].max())


def coverage_defect(
    divisor: Divisor,
    c: float,
    sign: int,
    window: Window,
    hole_radius: float = 0.0,
) -> np.ndarray:
    """Grid points of the annulus hole_radius <= |z| <= radius in no disc.

    Discs are open, with radii per disc_radius; entries with absent shrunk
    radius are skipped.  An empty result means the divisor covers the probed
    annulus at this C.  Points are reported verbatim, in grid order.
    """
    _require_hole(hole_radius, window)
    z, modulus, inside, (held,) = _disc_sweep(divisor, window, [_nested_family(divisor, [c], sign)])
    return z[inside & (modulus >= hole_radius) & (held == 0)]


def pairwise_disjoint(
    divisor: Divisor, c: float, sign: int
) -> tuple[bool, tuple[complex, complex] | None]:
    """Whether the padded/shrunk discs are pairwise disjoint.

    Open discs: boundary tangency counts as disjoint.  Returns the flag and
    the first violating point pair in entry order, or None.
    """
    distinct, inverse = np.unique(divisor.mults, return_inverse=True)
    by_mult = [disc_radius(m, divisor.params, c, sign) for m in distinct.tolist()]
    radii = np.array(by_mult, dtype=float)[inverse]  # an absent radius (None) reads NaN
    kept = ~np.isnan(radii)
    lams, radii = divisor.points[kept], radii[kept]
    # numpy screens each row's later points with a relative margin far above its
    # rounding difference from the scalar rule, which alone decides each candidate
    with np.errstate(over="ignore"):  # a distance past the double range is near no disc
        for i, (lam, r) in enumerate(zip(lams.tolist(), radii.tolist())):
            near = np.abs(lam - lams[i + 1 :]) < (r + radii[i + 1 :]) * (1 + 1e-9)
            for j in near.nonzero()[0].tolist():
                lam_j = complex(lams[i + 1 + j])
                if abs(lam - lam_j) < r + float(radii[i + 1 + j]):
                    return False, (lam, lam_j)
    return True, None


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
    C.  One sweep builds two level grids however long c_list is.
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
    k = len(cs)
    _, padded = _nested_family(divisor, [0.0, *cs], +1)
    _, shrunk = _nested_family(divisor, cs, -1)
    families = [_overlap_family(divisor), (np.maximum, lambda m: shrunk(m)[::-1] + padded(m))]
    z, modulus, inside, (counts, level) = _disc_sweep(divisor, window, families)
    annulus = inside & (modulus >= hole_radius)

    bound = int(counts[inside].max())
    least = int(level[inside].min())
    padded_witness = cs[max(k - least, 0)] if least else None
    uncovered = []
    for i in range(k):  # each list may hold the whole disc, so their total is budgeted
        uncovered.append(z[annulus & (level < k + 2 + i)])
        if sum(u.size for u in uncovered) > MAX_GRID_CELLS:
            raise ValueError(f"the uncovered lists would hold more than {MAX_GRID_CELLS} grid points")

    # the -C discs only shrink with C, and an entry absent at some C stays
    # absent, so the first C that keeps them disjoint is found by bisection
    first = bisect.bisect_left(cs, True, key=lambda c: pairwise_disjoint(divisor, c, -1)[0])
    shrunk_disjoint_witness = cs[first] if first < k else None
    # the +C discs only grow with C: if any tested C keeps them disjoint, cs[0] does
    padded_disjoint_witness = cs[0] if pairwise_disjoint(divisor, cs[0], +1)[0] else None
    bare_cover = not (annulus & (level <= k)).any()

    # np.hypot rounds |lam| as Python's abs does; np.abs may not
    windowed = int(np.sum(np.hypot(divisor.points.real, divisor.points.imag) <= window.radius))
    all_shrunk = not any(u.size for u in uncovered)
    exclusive = windowed < 2 or not (all_shrunk and padded_disjoint_witness is not None)

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
