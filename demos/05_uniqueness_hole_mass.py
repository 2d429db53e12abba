"""Uniqueness experiment: how much window mass can a vanishing function keep?

A divisor is a zero divisor when some nonzero function vanishes on it with
the prescribed multiplicities.  Coverage of the window by the bare discs
rules this out, and the numerical shadow is the hole mass: the largest
weighted window mass of a unit-norm degree-N function whose measurements all
vanish.  Covering divisors push that mass to essentially zero.
"""

from focklab import (
    Divisor,
    FockParams,
    generate_covering_rings,
    hole_mass_experiment,
)

params = FockParams(1.0)

print("== no constraints: the vacuum sits in the window ==")
for radius in (2.0, 3.0):
    value = hole_mass_experiment(Divisor(params, ()), 3, radius)
    print(f"window radius {radius}: hole mass = {value:.6f}")

print()
print("== one point of multiplicity 4 at the origin ==")
divisor = Divisor(params, ((0.0, 4),))
for radius in (2.5, 2.0, 1.5, 1.0):
    value = hole_mass_experiment(divisor, 8, radius)
    print(f"window radius {radius}: hole mass = {value:.6f}")
print("(vanishing to order 4 at 0 forces the mass onto the ring of e_4 and up,")
print(" so the value collapses as the window shrinks below radius 2)")

print()
print("== covering rings: vanishing functions are expelled from the window ==")
covering, _ = generate_covering_rings(1.0, 0.5, 3.0)
constraints = covering.total_multiplicity()
degree = constraints + 8
value = hole_mass_experiment(covering, degree, 3.0)
baseline = hole_mass_experiment(Divisor(params, ()), degree, 3.0)
print(f"{covering.points.size} points, {constraints} vanishing constraints, degree {degree}")
print(f"unconstrained baseline: {baseline:.6f}")
print(f"covering divisor:       {value:.3e}")
print(f"suppression factor:     {baseline / value:.2e}")
