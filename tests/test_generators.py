import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focklab import (
    Divisor,
    FockParams,
    Window,
    coverage_defect,
    generate_covering_rings,
    generate_disjoint_rings,
    generate_lattice,
    max_overlap,
    pairwise_disjoint,
)
from focklab.generators import _rings
from focklab.reports import save_divisor


def reference_lattice(alpha, spacing, mult, radius):
    """The square lattice complex(p * spacing, q * spacing), q outer and p
    inner, kept where its modulus is at most radius * (1 + 1e-12): its points
    as (real, imag) rows and its metadata.

    The moduli come from np.hypot, which rounds as Python's complex abs does;
    that is asserted on every point within 1e-9 (relative) of the radius,
    where a rounding difference could move a point across the boundary."""
    n = int(math.floor(radius / spacing + 1e-9))
    coords = np.arange(-n, n + 1) * spacing  # the float products p * spacing
    re, im = np.meshgrid(coords, coords)
    modulus = np.hypot(re, im)
    kept = modulus <= radius * (1 + 1e-12)
    near = np.abs(modulus - radius) <= 1e-9 * abs(radius)
    for x, y, h in zip(re[near].tolist(), im[near].tolist(), modulus[near].tolist()):
        assert abs(complex(x, y)) == h
    meta = {
        "family": "lattice",
        "alpha": float(alpha),
        "spacing": float(spacing),
        "mult": int(mult),
        "radius": float(radius),
        "count": int(np.count_nonzero(kept)),
    }
    return np.stack([re[kept], im[kept]], axis=-1), meta


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
        got = divisor.points.view(np.float64).reshape(-1, 2)
        assert np.array_equal(got.view(np.int64), points.view(np.int64))
        assert np.all(divisor.mults == mult)
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


def reference_rings(params, schedule):
    """The rings of a schedule as the per-point layout spelled them: point t
    of a ring of n points at radius rho is complex(rho * math.cos(x),
    rho * math.sin(x)), x = 2 * math.pi * t / n, and the divisor is built
    from (point, mult) pairs."""
    pairs = []
    for ring in schedule:
        turns = [2 * math.pi * t / ring["count"] for t in range(ring["count"])]
        points = [complex(ring["rho"] * math.cos(x), ring["rho"] * math.sin(x)) for x in turns]
        pairs.extend((lam, ring["mult"]) for lam in points)
    return Divisor(params, pairs)


def assert_same_divisor(got, want, folder):
    """Point bits, multiplicities, digest and divisor-file bytes all equal."""
    assert got.points.view(np.int64).tobytes() == want.points.view(np.int64).tobytes()
    assert got.mults.dtype == np.int64 and np.array_equal(got.mults, want.mults)
    assert got.digest() == want.digest()
    save_divisor(got, folder / "arrays.json")
    save_divisor(want, folder / "pairs.json")
    assert (folder / "arrays.json").read_bytes() == (folder / "pairs.json").read_bytes()


# rings by increasing radius: (gap to the last radius, point count, multiplicity)
_drawn_rings = st.lists(
    st.tuples(
        st.floats(1e-3, 50.0),
        st.integers(1, 40),
        st.one_of(st.integers(1, 50), st.integers(2**63 - 4, 2**63), st.just(2**64)),
    ),
    max_size=8,
)


@pytest.mark.bitwise
class TestRingLayoutReference:
    """Both ring families lay out bit for bit the divisor of the per-point
    formula over their own schedule, as does the layout of a drawn schedule,
    or refuse it with the pairs' message."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([generate_covering_rings, generate_disjoint_rings]),
        st.floats(0.25, 4.0),
        st.floats(0.2, 2.0),
        st.floats(0.5, 16.0),
    )
    @example(generate_covering_rings, 1.0, 1.0, 8.0)
    @example(generate_disjoint_rings, 1.0, 1.0, 8.0)
    @example(generate_disjoint_rings, 0.5, 1.5, 14.0)
    @example(generate_covering_rings, 2.0, 0.5, 0.5)  # the centre point alone
    def test_families_match_per_point_layout(self, tmp_path_factory, generate, alpha, c, radius):
        divisor, meta = generate(alpha, c, radius)
        assert meta["schedule"][0]["rho"] == 0.0 and meta["schedule"][0]["count"] == 1
        want = reference_rings(FockParams(alpha), meta["schedule"])
        assert_same_divisor(divisor, want, tmp_path_factory.mktemp("rings"))
        assert meta["count"] == want.points.size
        assert meta["total_multiplicity"] == want.total_multiplicity()

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0.5, 1.0, 3.7]), st.integers(1, 3), _drawn_rings)
    @example(1.0, 1, [(2.5, 1, 3), (1.5, 7, 2)])  # a ring of one point off the centre
    @example(1.0, 2, [])  # two points at the centre coincide: refused
    @example(1.0, 1, [(1.0, 4, 2**63)])  # multiplicities past int64: refused
    @example(1.0, 1, [(1.0, 4, 2**64)])
    def test_drawn_schedules_match_per_point_layout(
        self, tmp_path_factory, alpha, centre, rings
    ):
        schedule, rho = [{"rho": 0.0, "count": centre, "mult": 1}], 0.0
        for gap, count, mult in rings:
            rho += gap
            schedule.append({"rho": rho, "count": count, "mult": mult})
        params = FockParams(alpha)
        try:
            want = reference_rings(params, schedule)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                _rings("drawn", params, 1.0, rho, schedule)
            assert str(refused.value) == str(exc)
            return
        got, meta = _rings("drawn", params, 1.0, rho, schedule)
        assert_same_divisor(got, want, tmp_path_factory.mktemp("drawn"))
        assert meta["schedule"] is schedule
