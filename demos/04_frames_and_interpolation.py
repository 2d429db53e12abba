"""Spectral experiments: empirical frame bounds and minimal-norm interpolation.

The analysis matrix collects <e_n, T_lam e_k> for n up to a truncation degree
N; its extreme singular values estimate the frame constants on that finite
slice.  A divisor whose discs cover the window keeps the bound ratio tame as
N grows; a divisor with a hole lets functions hide in the hole, so the lower
bound collapses.  The Gram matrix of the divisor atoms plays the same role
for interpolation.
"""

import numpy as np

from focklab import (
    Divisor,
    FockParams,
    MeasurementVector,
    analysis_matrix,
    frame_bounds,
    generate_covering_rings,
    generate_disjoint_rings,
    generate_lattice,
    gram_matrix,
    measurements,
    min_norm_interpolate,
    riesz_bounds,
)
from focklab.core import label_records

params = FockParams(1.0)
degrees = (10, 20, 30, 40)

print("== trivial frame: one point of full multiplicity ==")
for degree in (5, 20):
    divisor = Divisor(params, ((0.0, degree + 1),))
    s = frame_bounds(analysis_matrix(divisor, degree))
    print(f"N = {degree:>2}: smin = {s['smin']:.9f}, smax = {s['smax']:.9f}, ratio = {s['ratio']:.9f}")

print()
print("== hole divisor: lower frame bound collapses with N ==")
lattice, _ = generate_lattice(1.0, 1.5, 1, 9.0)
keep = np.hypot(lattice.points.real, lattice.points.imag) >= 5  # |lam| as abs() rounds it
hole = Divisor(params, label_records(lattice.points[keep], lattice.mults[keep]))
print(f"lattice spacing 1.5 clipped to 5 <= |lam| <= 9: {hole.points.size} points")
for degree in degrees:
    s = frame_bounds(analysis_matrix(hole, degree))
    print(f"N = {degree:>2}: smin = {s['smin']:.3e}, smax = {s['smax']:.3e}")

print()
print("== covering rings: bound ratio stays tame ==")
covering, _ = generate_covering_rings(1.0, 1.0, 8.5)
print(f"covering rings: {covering.points.size} points, "
      f"total multiplicity {covering.total_multiplicity()}")
for degree in degrees:
    s = frame_bounds(analysis_matrix(covering, degree))
    print(f"N = {degree:>2}: smin = {s['smin']:.4f}, smax = {s['smax']:.4f}, ratio = {s['ratio']:.4f}")

print()
print("== minimal-norm interpolation on a disjoint ring family ==")
disjoint, _ = generate_disjoint_rings(1.0, 1.0, 10.0)
labels = disjoint.atom_labels()
print(f"{len(labels)} interpolation atoms")
well_conditioned = riesz_bounds(gram_matrix(labels, params))
print(f"Gram eigenvalue range: [{well_conditioned['smin']:.6f}, {well_conditioned['smax']:.6f}], "
      f"condition {well_conditioned['condition']:.6f}")

rng = np.random.default_rng(1)
data = MeasurementVector(labels, rng.standard_normal(len(labels))
                         + 1j * rng.standard_normal(len(labels)))
solution = min_norm_interpolate(disjoint, data)
recovered = measurements(solution.function, disjoint)
print(f"|v| = {data.norm():.4f}, interpolant norm = {solution.norm:.4f}, "
      f"residual = {solution.residual:.2e}")
print(f"re-measured max deviation: {np.max(np.abs(recovered.values - data.values)):.2e}")

print()
print("== conditioning contrast: shrink all distances by 4 ==")
shrunk = Divisor(params, label_records(disjoint.points / 4, disjoint.mults))
overlapping = riesz_bounds(gram_matrix(shrunk.atom_labels(), params))
print(f"disjoint condition:    {well_conditioned['condition']:.6f}")
print(f"overlapping condition: {overlapping['condition']:.3e} "
      f"({overlapping['condition'] / well_conditioned['condition']:.0f}x worse)")
