"""Divisor families for the geometric regimes under study.

The lattice is the constant-multiplicity control family.  The two ring
families realize the growing-multiplicity regimes: covering rings make the
C-shrunk discs cover the window, disjoint rings keep the C-padded discs
pairwise disjoint.  Both validate their defining contract before returning
and report their schedule so a run is reproducible from the metadata alone.
"""

from __future__ import annotations

import math

from .core import FockParams
from .geometry import Divisor, Window, coverage_defect, pairwise_disjoint

__all__ = [
    "generate_lattice",
    "generate_covering_rings",
    "generate_disjoint_rings",
]


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def generate_lattice(
    alpha: float, spacing: float, mult: int, radius: float
) -> tuple[Divisor, dict]:
    """Square lattice spacing*(p + iq) clipped to |point| <= radius."""
    _require_positive(spacing=spacing)
    if mult < 1:
        raise ValueError("mult must be >= 1")
    # a radius <= 0 leaves the origin or nothing
    if not math.isfinite(radius):
        raise ValueError("radius must be finite")
    params = FockParams(alpha)
    n = int(math.floor(radius / spacing + 1e-9))
    points = []
    for q in range(-n, n + 1):
        for p in range(-n, n + 1):
            lam = complex(p * spacing, q * spacing)
            if abs(lam) <= radius * (1 + 1e-12):
                points.append(lam)
    divisor = Divisor(params, tuple((lam, mult) for lam in points))
    meta = {
        "family": "lattice",
        "alpha": params.alpha,
        "spacing": float(spacing),
        "mult": int(mult),
        "radius": float(radius),
        "count": len(points),
    }
    return divisor, meta


def _ring_points(rho: float, count: int) -> list[complex]:
    if rho == 0:
        return [0j]
    return [
        complex(rho * math.cos(2 * math.pi * t / count), rho * math.sin(2 * math.pi * t / count))
        for t in range(count)
    ]


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
    _require_positive(c=c, radius=radius)
    params = FockParams(alpha)
    unit = 1.0 / math.sqrt(alpha)
    growth, base, margin, spacing_frac = 0.3, 1.0, 1.08, 0.75

    entries = []
    schedule = []
    rho = 0.0
    while True:
        target = growth * rho + base * unit
        mult = math.ceil(alpha * (margin * target + c) ** 2)
        count = 1 if rho == 0 else max(1, math.ceil(math.pi * (rho + 0.19 * target) / target))
        for lam in _ring_points(rho, count):
            entries.append((lam, mult))
        schedule.append(
            {"rho": rho, "count": count, "mult": mult, "target_radius": target}
        )
        if rho + 0.375 * target >= radius:
            break
        rho += spacing_frac * target

    divisor = Divisor(params, tuple(entries))
    step = min(radius / 40, 0.5 * unit, c)
    window = Window(radius, step)
    defect = coverage_defect(divisor, c, -1, window, 0.0)
    if defect.size:
        raise RuntimeError(
            f"covering-rings generator violated its coverage contract at {defect[0]}"
        )
    meta = {
        "family": "covering-rings",
        "alpha": params.alpha,
        "c": float(c),
        "radius": float(radius),
        "count": len(entries),
        "total_multiplicity": divisor.total_multiplicity(),
        "contract_grid_step": float(step),
        "schedule": schedule,
    }
    return divisor, meta


def generate_disjoint_rings(alpha: float, c: float, radius: float) -> tuple[Divisor, dict]:
    """Rings of points whose C-padded discs are pairwise disjoint.

    Multiplicity grows by one per ring, so it is unbounded along the family.
    Ring gaps exceed the sum of adjacent padded radii and in-ring chords
    exceed twice the padded radius, which is verified before returning.
    """
    _require_positive(c=c, radius=radius)
    params = FockParams(alpha)
    gap = 0.5 / math.sqrt(alpha)

    entries = []
    schedule = []
    rho = 0.0
    ring = 0
    while rho <= radius:
        mult = ring + 1
        padded = math.sqrt(mult / alpha) + c
        if rho == 0:
            count = 1
        else:
            x = (2 * padded + gap) / (2 * rho)
            count = 1 if x >= 1 else max(1, math.floor(math.pi / math.asin(x)))
        for lam in _ring_points(rho, count):
            entries.append((lam, mult))
        schedule.append({"rho": rho, "count": count, "mult": mult, "padded_radius": padded})
        rho += padded + (math.sqrt((ring + 2) / alpha) + c) + gap
        ring += 1

    divisor = Divisor(params, tuple(entries))
    ok, pair = pairwise_disjoint(divisor, c, +1)
    if not ok:
        raise RuntimeError(f"disjoint-rings generator violated its contract at pair {pair}")
    meta = {
        "family": "disjoint-rings",
        "alpha": params.alpha,
        "c": float(c),
        "radius": float(radius),
        "count": len(entries),
        "total_multiplicity": divisor.total_multiplicity(),
        "schedule": schedule,
    }
    return divisor, meta
