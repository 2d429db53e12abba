"""Window geometry of three divisor families.

A divisor entry (lam, m) carries the disc of radius sqrt(m/alpha).  Sampling
wants the padded (+C) discs to cover the plane and interpolation wants the
padded discs disjoint; the shrunk (-C) variants give the matching sufficient
and necessary sides.  This script runs the checkers on a lattice, a covering
ring family and a disjoint ring family, and shows the exclusivity of the two
sufficient conditions.
"""

from focklab import (
    Window,
    generate_covering_rings,
    generate_disjoint_rings,
    generate_lattice,
    theorem_verdicts,
)


def describe(name, divisor, window, c_list, hole=0.0):
    v = theorem_verdicts(divisor, window, c_list, hole)
    print(f"-- {name}: {divisor.points.size} points, total multiplicity "
          f"{divisor.total_multiplicity()}")
    print(f"   finite overlap bound (window estimate): {v['finite_overlap_bound']}")
    print(f"   +C discs cover window:    {v['padded_cover']['holds']} "
          f"(witness C = {v['padded_cover']['witness_c']})")
    per_c = ", ".join(f"C={r['c']}: {r['holds']} ({r['uncovered_count']} uncovered)"
                      for r in v["shrunk_cover"])
    print(f"   -C discs cover annulus:   {per_c}")
    print(f"   -C discs disjoint:        {v['shrunk_disjoint']['holds']} "
          f"(witness C = {v['shrunk_disjoint']['witness_c']})")
    print(f"   +C discs disjoint:        {v['padded_disjoint']['holds']} "
          f"(witness C = {v['padded_disjoint']['witness_c']})")
    bare = v["bare_cover"]
    print(f"   bare discs cover annulus: {bare['holds']} (hole radius {bare['hole_radius']})")
    print(f"   exclusivity consistent:   {v['exclusivity_consistent']}")
    print()


c_list = [0.25, 0.5, 1.0]

lattice, _ = generate_lattice(1.0, 1.0, 1, 5.0)
describe("unit lattice, mult 1", lattice, Window(5.0, 0.05), c_list)

covering, meta = generate_covering_rings(1.0, 1.0, 8.0)
print(f"covering-rings schedule: {[(round(s['rho'], 2), s['count'], s['mult']) for s in meta['schedule']]}")
describe("covering rings (C = 1)", covering, Window(8.0, 0.1), c_list)

disjoint, meta = generate_disjoint_rings(1.0, 1.0, 10.0)
print(f"disjoint-rings schedule: {[(round(s['rho'], 2), s['count'], s['mult']) for s in meta['schedule']]}")
describe("disjoint rings (C = 1)", disjoint, Window(12.0, 0.12), c_list)

print("Reading the table: the covering family certifies the sufficient sampling")
print("side (-C coverage) and fails +C disjointness; the disjoint family does the")
print("opposite.  No divisor with two or more windowed points certifies both,")
print("which is the geometric form of the sampling/interpolation exclusivity for")
print("unbounded multiplicities.")
