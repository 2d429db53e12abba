"""Divisors, their discs and window checks of the covering and disjointness
conditions behind sampling, interpolation and uniqueness.

A divisor entry (lam, m) carries the disc D(lam, sqrt(m/alpha)); checks use
the padded (+C) or shrunk (-C) radii.  The plane is probed on a finite window
disc, so every verdict is an on-window estimate, never a proof.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .core import MAX_GRID_CELLS  # noqa: F401  (the budget stays importable here)
from .core import FockParams, label_digest, square_axis

__all__ = [
    "Divisor",
    "Window",
    "GeometryVerdicts",
    "ShrunkCoverResult",
    "disc_radius",
    "overlap_count_at",
    "max_overlap",
    "coverage_defect",
    "pairwise_disjoint",
    "theorem_verdicts",
    "rescale_to_unit_alpha",
]


@dataclass(frozen=True)
class Divisor:
    """Finite set of pairwise-distinct points with positive multiplicities."""

    params: FockParams
    entries: tuple[tuple[complex, int], ...]

    def __post_init__(self):
        entries = tuple((complex(lam), int(m)) for lam, m in self.entries)
        if any(m < 1 for _, m in entries):
            raise ValueError("multiplicities must be >= 1")
        points = [lam for lam, _ in entries]
        if len(set(points)) != len(points):
            raise ValueError("divisor points must be pairwise distinct")
        object.__setattr__(self, "entries", entries)

    def total_multiplicity(self) -> int:
        return int(sum(m for _, m in self.entries))

    def atom_labels(self) -> list[tuple[complex, int]]:
        """Measurement labels (lam, k), k < m, in divisor order, k ascending."""
        return [(lam, k) for lam, m in self.entries for k in range(m)]

    def digest(self) -> str:
        """Short stable fingerprint of (alpha, entries) for report provenance."""
        return label_digest(self.params, self.entries)


@dataclass(frozen=True)
class Window:
    """Grid-probed disc standing in for the plane in geometric checks."""

    radius: float
    grid_step: float

    def __post_init__(self):
        if not (self.radius > 0):
            raise ValueError("window radius must be positive")
        if not (0 < self.grid_step <= self.radius / 10):
            raise ValueError("grid_step must satisfy 0 < grid_step <= radius/10")
        self._axis()  # refuses an oversized square at construction

    def _axis(self) -> np.ndarray:
        what = f"grid_step {self.grid_step} on a window of radius {self.radius}"
        return square_axis(self.radius / self.grid_step + 1e-9, self.grid_step, what)

    def _square(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The square grid of pitch grid_step around the window, its moduli,
        and the mask of its points in the disc |z| <= radius."""
        axis = self._axis()
        z = axis[None, :] + 1j * axis[:, None]
        modulus = np.abs(z)
        return z, modulus, modulus <= self.radius * (1 + 1e-12)

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
    z = complex(z)
    inv_alpha = 1.0 / divisor.params.alpha
    count = 0
    for lam, m in divisor.entries:
        d = z - lam
        if d.real**2 + d.imag**2 < m * inv_alpha:
            count += 1
    return count


def _index_span(centre: float, reach: float, step: float, n: int) -> slice:
    """Indices of the grid axis step*(-n..n) within reach of centre, widened
    by one index on each side."""
    lo = (centre - reach) / step + n - 1
    hi = (centre + reach) / step + n + 2
    return slice(int(min(max(lo, 0.0), 2 * n + 1)), int(min(max(hi, 0.0), 2 * n + 1)))


def _disc_sweep(divisor: Divisor, window: Window, families):
    """Count the discs of several families in one pass over the divisor.

    families[k] = (comb, radii): radii[e] lists the squared radii of entry e's
    open discs in family k, and comb (np.add or np.maximum) folds over entries
    how many of an entry's discs hold a point, into one small unsigned grid
    per family.  Each entry computes |z - lam|^2 once, on the index box of its
    largest disc, widened by one index a side so that rounding cannot leave
    out a point in the disc, and tests each disc by the full-grid rule
    d2 < r^2, bit for bit.  Returns the square grid, its moduli, its window
    mask and the family grids.
    """
    z, modulus, inside = window._square()
    n = (z.shape[0] - 1) // 2
    grids = [
        np.zeros(z.shape, np.min_scalar_type(comb.reduce([len(t) for t in radii], initial=0)))
        for comb, radii in families
    ]
    for e, (lam, _) in enumerate(divisor.entries):
        wanted = [(g, comb, radii[e]) for g, (comb, radii) in zip(grids, families) if radii[e]]
        # a non-finite centre has d2 inf or nan, inside no disc
        if not wanted or not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
            continue
        reach = math.sqrt(max(max(discs) for _, _, discs in wanted))
        box = (
            _index_span(lam.imag, reach, window.grid_step, n),
            _index_span(lam.real, reach, window.grid_step, n),
        )
        d2 = np.abs(z[box] - lam) ** 2
        for grid, comb, discs in wanted:
            held = np.zeros(d2.shape, grid.dtype)
            for t in discs:
                held += d2 < t
            view = grid[box]
            comb(view, held, out=view)
    return z, modulus, inside, grids


def _overlap_family(divisor: Divisor):
    """The discs D(lam, sqrt(m/alpha)), summed over entries: the overlap count."""
    inv_alpha = 1.0 / divisor.params.alpha
    return np.add, [[m * inv_alpha] for _, m in divisor.entries]


def _nested_family(divisor: Divisor, cs, sign: int):
    """Each entry's padded (+1) or shrunk (-1) discs at every C of cs, as r*r
    of the disc_radius r, maximised over entries; absent discs left out."""
    radii = [[disc_radius(m, divisor.params, c, sign) for c in cs] for _, m in divisor.entries]
    return np.maximum, [[r * r for r in discs if r is not None and r > 0] for discs in radii]


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


# Row blocks of pairwise_disjoint hold at most this many distances at once.
_PAIR_BLOCK = 2**18


def pairwise_disjoint(
    divisor: Divisor, c: float, sign: int
) -> tuple[bool, tuple[complex, complex] | None]:
    """Whether the padded/shrunk discs are pairwise disjoint.

    Open discs: boundary tangency counts as disjoint.  Returns the flag and
    the first violating point pair in entry order, or None.
    """
    kept = [(lam, disc_radius(m, divisor.params, c, sign)) for lam, m in divisor.entries]
    kept = [(lam, r) for lam, r in kept if r is not None]
    if len(kept) < 2:
        return True, None
    lams = np.array([lam for lam, _ in kept])
    radii = np.array([r for _, r in kept])
    # numpy screens the pairs with a relative margin far above its rounding
    # difference from the scalar rule, which alone decides each candidate
    rows = max(1, _PAIR_BLOCK // len(kept))
    for i0 in range(0, len(kept) - 1, rows):
        i1 = min(i0 + rows, len(kept) - 1)
        reach = (radii[i0:i1, None] + radii[None, i0 + 1 :]) * (1 + 1e-9)
        near = np.abs(lams[i0:i1, None] - lams[None, i0 + 1 :]) < reach
        near &= np.arange(i0 + 1, len(kept))[None, :] > np.arange(i0, i1)[:, None]
        for i, j in zip(*np.nonzero(near)):
            (lam_i, r_i), (lam_j, r_j) = kept[i0 + i], kept[i0 + 1 + j]
            if abs(lam_i - lam_j) < r_i + r_j:
                return False, (lam_i, lam_j)
    return True, None


@dataclass(frozen=True, eq=False)
class ShrunkCoverResult:
    """Coverage outcome of the C-shrunk discs on the probed annulus."""

    c: float
    holds: bool
    uncovered: np.ndarray


@dataclass(frozen=True, eq=False)
class GeometryVerdicts:
    """Window verdicts for one divisor.

    padded_cover: some tested C makes the +C discs cover the window disc (the
    necessary side of the sampling criterion).  shrunk_cover_by_c: per tested
    C, whether the -C discs cover the annulus outside the hole (the sufficient
    side).  shrunk/padded_disjoint: disjointness of the -C / +C discs (the
    necessary / sufficient sides of the interpolation criterion).  bare_cover:
    coverage at C = 0 outside the hole (the uniqueness condition, which rules
    out zero divisors).  exclusivity_consistent: the sufficient sides of
    sampling and interpolation were not certified simultaneously.
    """

    finite_overlap_bound: int
    padded_cover_holds: bool
    padded_cover_witness_c: float | None
    shrunk_cover_by_c: tuple[ShrunkCoverResult, ...]
    shrunk_disjoint_holds: bool
    shrunk_disjoint_witness_c: float | None
    padded_disjoint_holds: bool
    padded_disjoint_witness_c: float | None
    bare_cover_holds: bool
    hole_radius: float
    exclusivity_consistent: bool


def theorem_verdicts(
    divisor: Divisor,
    window: Window,
    c_list,
    hole_radius: float = 0.0,
) -> GeometryVerdicts:
    """Assemble all window verdicts for the divisor.

    Existential quantifiers over C > 0 are probed on the finite ascending
    c_list of positive finite values; universal ones are recorded per tested
    C.  One sweep builds three level grids however long c_list is.
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

    # cs is finite and ascending, so each entry's discs are nested (padded
    # radii grow with C, shrunk ones shrink and, once absent, stay absent):
    # at cs[i] the padded discs cover a point where padded >= len(cs) - i,
    # the shrunk ones where shrunk > i.
    families = [
        _overlap_family(divisor),
        _nested_family(divisor, [0.0, *cs], +1),
        _nested_family(divisor, cs, -1),
    ]
    z, modulus, inside, (counts, padded, shrunk) = _disc_sweep(divisor, window, families)
    annulus = inside & (modulus >= hole_radius)

    bound = int(counts[inside].max())
    least = int(padded[inside].min())
    padded_witness = cs[max(len(cs) - least, 0)] if least else None
    uncovered = [z[annulus & (shrunk <= i)] for i in range(len(cs))]
    shrunk_cover = tuple(ShrunkCoverResult(c, u.size == 0, u) for c, u in zip(cs, uncovered))

    # the -C discs only shrink with C, and an entry absent at some C stays
    # absent, so the first C that keeps them disjoint is found by bisection
    first = bisect.bisect_left(cs, True, key=lambda c: pairwise_disjoint(divisor, c, -1)[0])
    shrunk_disjoint_witness = cs[first] if first < len(cs) else None
    # the +C discs only grow with C: if any tested C keeps them disjoint, cs[0] does
    padded_disjoint_witness = cs[0] if pairwise_disjoint(divisor, cs[0], +1)[0] else None
    bare_cover = not (annulus & (padded <= len(cs))).any()

    windowed = sum(1 for lam, _ in divisor.entries if abs(lam) <= window.radius)
    all_shrunk = all(r.holds for r in shrunk_cover)
    exclusive = windowed < 2 or not (all_shrunk and padded_disjoint_witness is not None)

    return GeometryVerdicts(
        finite_overlap_bound=bound,
        padded_cover_holds=padded_witness is not None,
        padded_cover_witness_c=padded_witness,
        shrunk_cover_by_c=shrunk_cover,
        shrunk_disjoint_holds=shrunk_disjoint_witness is not None,
        shrunk_disjoint_witness_c=shrunk_disjoint_witness,
        padded_disjoint_holds=padded_disjoint_witness is not None,
        padded_disjoint_witness_c=padded_disjoint_witness,
        bare_cover_holds=bare_cover,
        hole_radius=float(hole_radius),
        exclusivity_consistent=exclusive,
    )


def rescale_to_unit_alpha(divisor: Divisor) -> Divisor:
    """Change of variable z -> sqrt(alpha)*z, mapping to alpha = 1.

    Disc radii map to sqrt(alpha) times the originals, so verdicts computed
    with C, window radius and grid step scaled by sqrt(alpha) coincide with
    the originals.
    """
    s = math.sqrt(divisor.params.alpha)
    if divisor.params.alpha == 1.0:
        return divisor
    return Divisor(FockParams(1.0), tuple((lam * s, m) for lam, m in divisor.entries))
