import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focklab import (
    Window,
    coverage_defect,
    generate_covering_rings,
    generate_disjoint_rings,
    generate_lattice,
    max_overlap,
    pairwise_disjoint,
)


def reference_lattice(alpha, spacing, mult, radius):
    """The square lattice as a scalar double loop: its points and metadata."""
    n = int(math.floor(radius / spacing + 1e-9))
    points = []
    for q in range(-n, n + 1):
        for p in range(-n, n + 1):
            lam = complex(p * spacing, q * spacing)
            if abs(lam) <= radius * (1 + 1e-12):
                points.append(lam)
    meta = {
        "family": "lattice",
        "alpha": float(alpha),
        "spacing": float(spacing),
        "mult": int(mult),
        "radius": float(radius),
        "count": len(points),
    }
    return points, meta


class TestLattice:
    def test_point_count_small_window(self):
        divisor, meta = generate_lattice(1.0, 1.0, 1, 1.5)
        assert len(divisor.entries) == 9
        assert meta["count"] == 9

    def test_single_point_when_spacing_exceeds_window(self):
        divisor, _ = generate_lattice(1.0, 10.0, 1, 5.0)
        assert divisor.entries == ((0j, 1),)

    def test_boundary_points_included(self):
        divisor, _ = generate_lattice(1.0, 1.0, 1, 5.0)
        assert (3 + 4j, 1) in divisor.entries

    def test_constant_multiplicity(self):
        divisor, _ = generate_lattice(2.0, 1.0, 3, 3.0)
        assert all(m == 3 for _, m in divisor.entries)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_lattice(1.0, 0.0, 1, 5.0)
        with pytest.raises(ValueError):
            generate_lattice(1.0, 1.0, 0, 5.0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.1, 4.0),
        st.floats(0.05, 5.0),
        st.integers(1, 4),
        st.one_of(st.floats(-3.0, 40.0), st.tuples(st.integers(0, 12), st.integers(0, 12))),
    )
    @example(1.0, 1.0, 1, 0.0)
    @example(1.0, 1.0, 1, -0.0)
    @example(2.0, 0.3, 2, -1e-12)
    @example(1.0, 1.0, 1, -3.0)
    @example(1.0, 1.0, 1, 5.0)  # tangent at 3 + 4i
    @example(0.5, 0.3, 3, (3, 7))
    @example(1.0, 0.7, 1, (3, 0))  # radius / spacing rounds to just below 3
    def test_matches_double_loop(self, alpha, spacing, mult, radius):
        # a drawn (p, q) stands for the tangent radius |spacing * (p + iq)|
        if isinstance(radius, tuple):
            radius = abs(complex(radius[0] * spacing, radius[1] * spacing))
        divisor, meta = generate_lattice(alpha, spacing, mult, radius)
        points, want_meta = reference_lattice(alpha, spacing, mult, radius)
        got = np.array([lam for lam, _ in divisor.entries], dtype=complex)
        assert got.view(np.int64).tolist() == np.array(points, dtype=complex).view(np.int64).tolist()
        assert all(m == mult for _, m in divisor.entries)
        assert meta == want_meta


class TestCoveringRings:
    def test_coverage_contract(self):
        for alpha, c, radius in ((1.0, 1.0, 8.0), (0.5, 0.5, 10.0), (2.0, 0.7, 5.0)):
            divisor, meta = generate_covering_rings(alpha, c, radius)
            window = Window(radius, meta["contract_grid_step"])
            assert coverage_defect(divisor, c, -1, window).size == 0

    def test_coverage_at_smaller_c(self):
        divisor, _ = generate_covering_rings(1.0, 1.0, 6.0)
        assert coverage_defect(divisor, 0.25, -1, Window(6.0, 0.1)).size == 0

    def test_multiplicities_nondecreasing_in_radius(self):
        divisor, _ = generate_covering_rings(1.0, 0.8, 12.0)
        pairs = sorted((abs(lam), m) for lam, m in divisor.entries)
        for (_, m1), (_, m2) in zip(pairs, pairs[1:]):
            assert m2 >= m1

    def test_fails_padded_disjointness(self):
        divisor, _ = generate_covering_rings(1.0, 1.0, 6.0)
        assert not pairwise_disjoint(divisor, 1.0, +1)[0]

    def test_schedule_reproduces_divisor(self):
        divisor, meta = generate_covering_rings(1.0, 0.6, 7.0)
        total = sum(ring["count"] for ring in meta["schedule"])
        assert total == len(divisor.entries)
        assert meta["total_multiplicity"] == divisor.total_multiplicity()


class TestDisjointRings:
    def test_disjointness_contract(self):
        for alpha, c, radius in ((1.0, 1.0, 10.0), (0.5, 1.5, 14.0), (4.0, 0.4, 6.0)):
            divisor, _ = generate_disjoint_rings(alpha, c, radius)
            assert pairwise_disjoint(divisor, c, +1)[0]

    def test_never_covers_with_two_or_more_points(self):
        divisor, _ = generate_disjoint_rings(1.0, 1.0, 10.0)
        assert len(divisor.entries) >= 2
        w_radius = max(abs(lam) for lam, _ in divisor.entries) + 1.0
        uncovered = coverage_defect(divisor, 1.0, -1, Window(w_radius, 0.25))
        assert uncovered.size > 0

    def test_bare_overlap_is_one(self):
        divisor, _ = generate_disjoint_rings(1.0, 0.5, 9.0)
        assert max_overlap(divisor, Window(10.0, 0.2)) == 1

    def test_multiplicity_grows_per_ring(self):
        divisor, meta = generate_disjoint_rings(1.0, 1.0, 25.0)
        mults = [ring["mult"] for ring in meta["schedule"]]
        assert mults == sorted(mults)
        assert mults[-1] > mults[0]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_disjoint_rings(1.0, 0.0, 5.0)
        with pytest.raises(ValueError):
            generate_covering_rings(1.0, -1.0, 5.0)
