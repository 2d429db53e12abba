"""Divisor families for the geometric regimes under study.

The lattice, the window's disc-clipped square grid (`core.disc_grid`),
is the constant-multiplicity control family.  The two ring families realize
the growing-multiplicity regimes: covering rings make the C-shrunk discs
cover the window, disjoint rings keep the C-padded discs (`disc_radius`)
pairwise disjoint.  Both validate their defining contract before returning
and report their schedule so a run is reproducible from the metadata alone.
"""

from __future__ import annotations

import math

import numpy as np

from .core import FockParams, disc_grid, label_records, libm_cis, require_positive
from .geometry import Divisor, Window, coverage_defect, disc_radius, pairwise_disjoint
from .geometry import require_multiplicities

__all__ = [
    "ContractError",
    "generate_lattice",
    "generate_covering_rings",
    "generate_disjoint_rings",
]

# Most points of a generated ring divisor.  The disjointness contract screens
# its point pairs row by row, quadratically: 2.0-2.3 s of the 2.8 s that disjoint
# rings to radius 2000 (30,570 points, alpha = C = 1) take on a 2-core desk machine.
MAX_RING_POINTS = 2**15


class ContractError(RuntimeError):
    """A generated divisor failed the contract that defines its family."""


def generate_lattice(
    alpha: float, spacing: float, mult: int, radius: float
) -> tuple[Divisor, dict]:
    """Square lattice spacing*(p + iq) clipped to |point| <= radius."""
    require_positive("spacing", spacing)
    if mult < 1:
        raise ValueError("mult must be >= 1")
    # a radius <= 0 leaves the origin or nothing
    if not math.isfinite(radius):
        raise ValueError("radius must be finite")
    params = FockParams(alpha)
    z, _, inside = disc_grid(radius, spacing)()
    require_multiplicities(mult)  # int64 records would truncate or overflow it
    divisor = Divisor(params, label_records(z[inside], mult))
    meta = {
        "family": "lattice",
        "alpha": params.alpha,
        "spacing": float(spacing),
        "mult": int(mult),
        "radius": float(radius),
        "count": divisor.points.size,
    }
    return divisor, meta


def _rings(family: str, params: FockParams, c: float, radius: float, schedule, **extra):
    """The rings of `schedule` laid out in order as a divisor, and their metadata:
    point t of n at radius rho is rho * (cos x + i sin x), x = 2*pi*t/n, by libm_cis."""
    rho, count, mult = ([ring[key] for ring in schedule] for key in ("rho", "count", "mult"))
    require_multiplicities(max(mult))  # int64 records would truncate or overflow it
    turns = np.concatenate([2 * math.pi * np.arange(n) / n for n in count])
    rho, cis, points = np.repeat(rho, count), libm_cis(turns), np.empty(turns.size, complex)
    points.real, points.imag = rho * cis.real, rho * cis.imag
    divisor = Divisor(params, label_records(points, np.repeat(mult, count)))
    meta = {
        "family": family,
        "alpha": params.alpha,
        "c": float(c),
        "radius": float(radius),
        "count": divisor.points.size,
        "total_multiplicity": divisor.total_multiplicity(),
        **extra,
        "schedule": schedule,
    }
    return divisor, meta


def generate_covering_rings(alpha: float, c: float, radius: float) -> tuple[Divisor, dict]:
    """Concentric rings whose C-shrunk discs cover the disc |z| <= radius.

    Schedule: the target disc radius grows linearly with the ring radius,
    r(rho) = 0.3*rho + 1/sqrt(alpha), ring spacing is 0.75*r(rho), the
    per-ring point count keeps the angular gap under the shrunk radius with
    margin, and the multiplicity m = ceil(alpha*(1.08*r + C)^2) makes
    sqrt(m/alpha) - C at least 1.08*r.  Multiplicities therefore grow without
    bound along the family.  The output is validated against its coverage
    contract on a probe grid before being returned.
    """
    require_positive("c", c)
    require_positive("radius", radius)
    params = FockParams(alpha)
    unit = 1.0 / math.sqrt(alpha)
    growth, base, margin, spacing_frac = 0.3, 1.0, 1.08, 0.75

    schedule = []
    rho = 0.0
    while True:
        target = growth * rho + base * unit
        mult = math.ceil(alpha * (margin * target + c) ** 2)
        count = 1 if rho == 0 else max(1, math.ceil(math.pi * (rho + 0.19 * target) / target))
        schedule.append({"rho": rho, "count": count, "mult": mult, "target_radius": target})
        if rho + 0.375 * target >= radius:
            break
        rho += spacing_frac * target

    step = float(min(radius / 40, 0.5 * unit, c))
    if not step:
        raise ValueError(f"radius {radius}: the contract's grid step radius/40 underflows to 0")
    divisor, meta = _rings("covering-rings", params, c, radius, schedule, contract_grid_step=step)
    defect = coverage_defect(divisor, c, -1, Window(radius, step), 0.0)
    if defect.size:
        raise ContractError(
            f"covering-rings generator violated its coverage contract at {defect[0]}"
        )
    return divisor, meta


def generate_disjoint_rings(alpha: float, c: float, radius: float) -> tuple[Divisor, dict]:
    """Rings of points whose C-padded discs are pairwise disjoint.

    Multiplicity grows by one per ring, so it is unbounded along the family.
    Ring gaps exceed the sum of adjacent padded radii and in-ring chords
    exceed twice the padded radius, which is verified before returning.  A
    schedule of more than MAX_RING_POINTS points is refused before any point
    is laid out.
    """
    require_positive("c", c)
    require_positive("radius", radius)
    params = FockParams(alpha)
    gap = 0.5 / math.sqrt(alpha)

    schedule = []
    rho = 0.0
    mult = 1
    points = 0
    while rho <= radius:
        padded = disc_radius(mult, params, c, +1)
        # the centre holds one point, like a ring too tight for a second
        x = (2 * padded + gap) / (2 * rho) if rho else 1.0
        count = 1 if x >= 1 else max(1, math.floor(math.pi / math.asin(x)))
        points += count
        if points > MAX_RING_POINTS:
            raise ValueError(
                f"disjoint rings to radius {radius:g} hold more than {MAX_RING_POINTS} points"
            )
        schedule.append({"rho": rho, "count": count, "mult": mult, "padded_radius": padded})
        rho += padded + disc_radius(mult + 1, params, c, +1) + gap
        mult += 1

    divisor, meta = _rings("disjoint-rings", params, c, radius, schedule)
    ok, pair = pairwise_disjoint(divisor, c, +1)
    if not ok:
        raise ContractError(f"disjoint-rings generator violated its contract at pair {pair}")
    return divisor, meta
