import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focklab import geometry
from focklab import (
    Divisor,
    FockParams,
    Window,
    coverage_defect,
    disc_radius,
    generate_covering_rings,
    generate_disjoint_rings,
    generate_lattice,
    max_overlap,
    overlap_count_at,
    pairwise_disjoint,
    rescale_to_unit_alpha,
    theorem_verdicts,
)

P1 = FockParams(1.0)


def unit_lattice(radius=5.0):
    divisor, _ = generate_lattice(1.0, 1.0, 1, radius)
    return divisor


class TestDivisorAndWindow:
    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            Divisor(P1, ((0.0, 1), (0.0, 2)))

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            Divisor(P1, ((0.0, 0),))

    def test_atom_labels_order(self):
        divisor = Divisor(P1, ((1.0, 2), (2j, 1)))
        assert divisor.atom_labels() == [(1.0, 0), (1.0, 1), (2j, 0)]

    def test_digest_reproducible_and_sensitive(self):
        a = Divisor(P1, ((0.0, 1),))
        b = Divisor(P1, ((0.0, 2),))
        assert a.digest() == Divisor(P1, ((0.0, 1),)).digest()
        assert a.digest() != b.digest()

    def test_window_invariant(self):
        with pytest.raises(ValueError):
            Window(1.0, 0.2)
        grid = Window(2.0, 0.1).grid()
        assert np.all(np.abs(grid) <= 2.0 + 1e-9)
        assert 0.0 in grid


class TestDiscRadius:
    def test_padded(self):
        assert disc_radius(4, P1, 0.0, +1) == 2.0

    def test_shrunk_kept(self):
        assert disc_radius(4, P1, 1.0, -1) == 1.0

    def test_shrunk_absent(self):
        assert disc_radius(1, P1, 2.0, -1) is None

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            disc_radius(1, P1, 0.0, 0)


class TestOverlap:
    def test_both_unit_discs(self):
        X = Divisor(P1, ((0.0, 1), (1.0, 1)))
        assert overlap_count_at(X, 0.5) == 2

    def test_outside_everything(self):
        assert overlap_count_at(Divisor(P1, ((0.0, 1),)), 2.0) == 0

    def test_brute_force_membership(self):
        X = Divisor(P1, ((0.0, 4), (3.0, 1)))
        assert overlap_count_at(X, 2.5) == 1
        assert overlap_count_at(X, 1.9) == 1

    def test_single_entry_max(self):
        X = Divisor(P1, ((0.0, 1),))
        assert max_overlap(X, Window(2.0, 0.1)) == 1

    def test_unit_lattice_max_overlap_four(self):
        assert max_overlap(unit_lattice(), Window(5.0, 0.05)) == 4

    def test_disjoint_divisor_max_overlap_one(self):
        divisor, _ = generate_disjoint_rings(1.0, 1.0, 10.0)
        window = Window(12.0, 0.2)
        assert pairwise_disjoint(divisor, 0.0, -1)[0]
        assert max_overlap(divisor, window) == 1


class TestCoverageDefect:
    def test_single_large_disc_covers_small_window(self):
        X = Divisor(P1, ((0.0, 9),))
        assert coverage_defect(X, 0.0, +1, Window(2.5, 0.1)).size == 0

    def test_defects_outside_disc(self):
        X = Divisor(P1, ((0.0, 9),))
        uncovered = coverage_defect(X, 0.0, +1, Window(4.0, 0.1))
        assert uncovered.size > 0
        assert np.all(np.abs(uncovered) > 3 - 1e-9)

    def test_unit_lattice_shrunk_misses_cell_centers(self):
        uncovered = coverage_defect(unit_lattice(), 0.5, -1, Window(5.0, 0.05))
        assert uncovered.size > 0
        # cell centers sit sqrt(2)/2 from the nearest lattice point
        cell_center = 0.5 + 0.5j
        assert np.min(np.abs(uncovered - cell_center)) <= 0.1

    def test_monotone_in_c(self):
        lat = unit_lattice()
        window = Window(5.0, 0.1)
        padded = [set(map(complex, coverage_defect(lat, c, +1, window))) for c in (0.1, 0.3, 0.6)]
        for bigger_c, smaller_c in zip(padded[1:], padded[:-1]):
            assert bigger_c <= smaller_c
        shrunk = [set(map(complex, coverage_defect(lat, c, -1, window))) for c in (0.1, 0.3, 0.6)]
        for bigger_c, smaller_c in zip(shrunk[1:], shrunk[:-1]):
            assert bigger_c >= smaller_c

    def test_hole_radius_bounds(self):
        with pytest.raises(ValueError):
            coverage_defect(unit_lattice(), 0.1, +1, Window(5.0, 0.1), hole_radius=6.0)


class TestPairwiseDisjoint:
    def test_tangent_counts_as_disjoint(self):
        X = Divisor(P1, ((0.0, 1), (4.0, 1)))
        assert pairwise_disjoint(X, 1.0, +1) == (True, None)

    def test_violating_pair_reported(self):
        X = Divisor(P1, ((0.0, 1), (3.0, 1)))
        ok, pair = pairwise_disjoint(X, 1.0, +1)
        assert not ok
        assert pair == (0.0, 3.0)

    def test_shrunk_radii_with_exclusions(self):
        X = Divisor(P1, ((0.0, 16), (5.0, 4)))
        assert pairwise_disjoint(X, 1.0, -1) == (True, None)

    def test_monotone_in_c(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pts = []
            while len(pts) < 4:
                z = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
                if all(abs(z - p) > 0.5 for p in pts):
                    pts.append(z)
            X = Divisor(P1, tuple((p, int(rng.integers(1, 4))) for p in pts))
            c1, c2 = sorted(rng.uniform(0.1, 2.0, size=2))
            if pairwise_disjoint(X, c2, +1)[0]:
                assert pairwise_disjoint(X, c1, +1)[0]


class TestTheoremVerdicts:
    def test_unit_lattice_regime(self, monkeypatch):
        verdicts = theorem_verdicts(unit_lattice(), Window(5.0, 0.05), [0.25, 0.5, 1.0])
        assert verdicts.padded_cover_holds
        assert verdicts.padded_cover_witness_c == 0.25
        assert all(not r.holds for r in verdicts.shrunk_cover_by_c)
        assert not verdicts.padded_disjoint_holds
        assert verdicts.exclusivity_consistent
        assert verdicts.finite_overlap_bound == 4
        # the shrunk witness is bisected: 5 shrunk calls for 40 Cs, plus the padded one
        signs = []
        counted = geometry.pairwise_disjoint

        def counting(divisor, c, sign):
            signs.append(sign)
            return counted(divisor, c, sign)

        monkeypatch.setattr(geometry, "pairwise_disjoint", counting)
        many = [i / 40 for i in range(1, 41)]
        verdicts = theorem_verdicts(unit_lattice(), Window(5.0, 0.25), many)
        assert verdicts.shrunk_disjoint_witness_c == 0.5
        assert sorted(signs) == [-1] * 5 + [1]

    def test_far_separated_regime(self):
        divisor, _ = generate_lattice(1.0, 10.0, 1, 10.0)
        verdicts = theorem_verdicts(divisor, Window(10.0, 0.25), [1.0])
        assert verdicts.padded_disjoint_holds
        assert not verdicts.padded_cover_holds

    def test_covering_rings_regime(self):
        divisor, _ = generate_covering_rings(1.0, 1.0, 8.0)
        verdicts = theorem_verdicts(divisor, Window(8.0, 0.2), [0.25, 0.5, 1.0])
        assert all(r.holds for r in verdicts.shrunk_cover_by_c)
        assert not verdicts.padded_disjoint_holds
        assert verdicts.bare_cover_holds
        assert verdicts.exclusivity_consistent

    def test_determinism(self):
        divisor = unit_lattice(3.0)
        window = Window(3.0, 0.1)
        a = theorem_verdicts(divisor, window, [0.5, 1.0], 0.25)
        b = theorem_verdicts(divisor, window, [0.5, 1.0], 0.25)
        assert a.finite_overlap_bound == b.finite_overlap_bound
        assert a.padded_cover_witness_c == b.padded_cover_witness_c
        for ra, rb in zip(a.shrunk_cover_by_c, b.shrunk_cover_by_c):
            assert np.array_equal(ra.uncovered, rb.uncovered)

    def test_c_list_validation(self):
        with pytest.raises(ValueError):
            theorem_verdicts(unit_lattice(3.0), Window(3.0, 0.1), [])
        with pytest.raises(ValueError):
            theorem_verdicts(unit_lattice(3.0), Window(3.0, 0.1), [1.0, 0.5])
        for c_list in ([math.nan], [0.5, math.inf], [0.5, math.nan, 1.0]):
            with pytest.raises(ValueError):
                theorem_verdicts(unit_lattice(3.0), Window(3.0, 0.1), c_list)

    def test_memory_flat_in_c_list_length(self):
        # the shrunk discs cover at every C, so no uncovered list grows with C
        divisor, _ = generate_covering_rings(1.0, 1.0, 6.0)
        window = Window(6.0, 0.02)

        def peak(c_list):
            tracemalloc.start()
            try:
                verdicts = theorem_verdicts(divisor, window, c_list)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert all(r.holds for r in verdicts.shrunk_cover_by_c)
            return peak

        many = [0.025 * (i + 1) for i in range(40)]
        assert peak(many) <= 1.5 * peak([0.5, 1.0])


class TestExclusivity:
    def test_disjoint_discs_never_cover(self):
        rng = np.random.default_rng(77)
        for trial in range(25):
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            unit = 1 / math.sqrt(alpha)
            c = float(rng.uniform(0.4, 1.2)) * unit
            radius = float(rng.uniform(5.0, 9.0)) * unit
            divisor, _ = generate_disjoint_rings(alpha, c, radius)
            w_radius = max(abs(lam) for lam, _ in divisor.entries) + unit
            step = min(c, w_radius / 10) * 0.9
            window = Window(w_radius, step)
            if sum(1 for lam, _ in divisor.entries if abs(lam) <= w_radius) < 2:
                continue
            assert pairwise_disjoint(divisor, c, +1)[0]
            assert coverage_defect(divisor, c, -1, window).size > 0


class TestRescaling:
    def test_identity_at_unit_alpha(self):
        divisor = unit_lattice(3.0)
        assert rescale_to_unit_alpha(divisor) is divisor

    def test_coordinates_scaled(self):
        divisor = Divisor(FockParams(4.0), ((1.0, 4),))
        rescaled = rescale_to_unit_alpha(divisor)
        assert rescaled.params.alpha == 1.0
        assert rescaled.entries == ((2.0 + 0j, 4),)

    def test_verdicts_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            alpha = float(rng.choice([0.5, 2.0, 4.0]))
            pts = []
            while len(pts) < 5:
                z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
                if all(abs(z - p) > 1e-6 for p in pts):
                    pts.append(z)
            divisor = Divisor(
                FockParams(alpha), tuple((p, int(m)) for p, m in zip(pts, rng.integers(1, 5, 5)))
            )
            scale = math.sqrt(alpha)
            original = theorem_verdicts(divisor, Window(6.0, 0.05), [0.4, 0.8], 0.5)
            rescaled = theorem_verdicts(
                rescale_to_unit_alpha(divisor),
                Window(6.0 * scale, 0.05 * scale),
                [0.4 * scale, 0.8 * scale],
                0.5 * scale,
            )
            assert original.finite_overlap_bound == rescaled.finite_overlap_bound
            assert original.padded_cover_holds == rescaled.padded_cover_holds
            assert [r.holds for r in original.shrunk_cover_by_c] == [
                r.holds for r in rescaled.shrunk_cover_by_c
            ]
            assert original.shrunk_disjoint_holds == rescaled.shrunk_disjoint_holds
            assert original.padded_disjoint_holds == rescaled.padded_disjoint_holds
            assert original.bare_cover_holds == rescaled.bare_cover_holds
            assert original.exclusivity_consistent == rescaled.exclusivity_consistent


def reference_grid(window):
    """The full probe grid as a flat row-major array, clipped to the disc."""
    n = int(math.floor(window.radius / window.grid_step + 1e-9))
    axis = window.grid_step * np.arange(-n, n + 1)
    z = (axis[None, :] + 1j * axis[:, None]).ravel()
    return z[np.abs(z) <= window.radius * (1 + 1e-12)]


def reference_max_overlap(divisor, window):
    """Every entry tested against every grid point."""
    z = reference_grid(window)
    counts = np.zeros(z.shape, dtype=int)
    inv_alpha = 1.0 / divisor.params.alpha
    for lam, m in divisor.entries:
        counts += np.abs(z - lam) ** 2 < m * inv_alpha
    return int(counts.max())


def reference_coverage_defect(divisor, c, sign, window, hole_radius=0.0):
    """Every entry tested against every grid point of the annulus."""
    z = reference_grid(window)
    z = z[np.abs(z) >= hole_radius]
    covered = np.zeros(z.shape, dtype=bool)
    for lam, m in divisor.entries:
        r = disc_radius(m, divisor.params, c, sign)
        if r is None or r <= 0:
            continue
        covered |= np.abs(z - lam) ** 2 < r * r
    return z[~covered]


def reference_pairwise_disjoint(divisor, c, sign):
    """Every pair of kept entries tested in (i, j) order by the scalar rule."""
    kept = [
        (lam, disc_radius(m, divisor.params, c, sign))
        for lam, m in divisor.entries
        if disc_radius(m, divisor.params, c, sign) is not None
    ]
    for i, (lam_i, r_i) in enumerate(kept):
        for lam_j, r_j in kept[i + 1 :]:
            if abs(lam_i - lam_j) < r_i + r_j:
                return False, (lam_i, lam_j)
    return True, None


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_verdicts_match_reference(divisor, window, c_list, hole):
    """theorem_verdicts against the per-C full-grid and scalar pair rules."""
    v = theorem_verdicts(divisor, window, c_list, hole)
    assert v.finite_overlap_bound == reference_max_overlap(divisor, window)
    padded = [
        c for c in c_list if reference_coverage_defect(divisor, c, +1, window).size == 0
    ]
    assert v.padded_cover_witness_c == (padded[0] if padded else None)
    assert v.padded_cover_holds == bool(padded)
    for c, result in zip(c_list, v.shrunk_cover_by_c):
        expected = reference_coverage_defect(divisor, c, -1, window, hole)
        assert result.c == c
        assert result.holds == (expected.size == 0)
        assert same_bits(result.uncovered, expected)
    bare = reference_coverage_defect(divisor, 0.0, +1, window, hole)
    assert v.bare_cover_holds == (bare.size == 0)
    for sign, holds, witness in (
        (-1, v.shrunk_disjoint_holds, v.shrunk_disjoint_witness_c),
        (+1, v.padded_disjoint_holds, v.padded_disjoint_witness_c),
    ):
        ok = [c for c in c_list if reference_pairwise_disjoint(divisor, c, sign)[0]]
        assert witness == (ok[0] if ok else None)
        assert holds == bool(ok)


def sweep_cases():
    """(name, divisor, window, c_list, hole_radius) covering the sweep's edges."""
    rng = np.random.default_rng(31)
    off_grid = Divisor(
        P1,
        tuple(
            (complex(rng.uniform(-4, 4), rng.uniform(-4, 4)), int(m))
            for m in rng.integers(1, 6, 12)
        ),
    )
    outside = Divisor(
        P1,
        (
            (5.3 + 0.37j, 4),  # partly outside the square
            (-4.95 - 4.9j, 2),  # over a corner
            (0.2 - 5.6j, 1),  # mult 1: excluded from every shrunk check below
            (40.0 + 40.0j, 9),  # wholly outside
            (-9.0 + 1.0j, 30),  # centre outside, disc reaching in
            (0.013 + 0.027j, 1),
        ),
    )
    alpha2, _ = generate_lattice(2.0, 0.7, 2, 4.0)
    covering, _ = generate_covering_rings(1.0, 1.0, 6.0)
    disjoint, _ = generate_disjoint_rings(1.0, 1.0, 10.0)
    cs = [0.25, 0.5, 1.0]
    return [
        ("lattice 0.05", unit_lattice(), Window(5.0, 0.05), cs, 0.0),
        ("lattice 0.02", unit_lattice(3.0), Window(3.0, 0.02), cs, 0.0),
        ("lattice hole", unit_lattice(), Window(5.0, 0.05), cs, 1.5),
        ("alpha 2", alpha2, Window(4.5, 0.03), [0.2, 0.5, 1.1], 0.4),
        ("covering rings", covering, Window(6.0, 0.05), [0.25, 0.5, 1.0, 1.5], 0.0),
        ("disjoint rings", disjoint, Window(12.0, 0.12), cs, 2.0),
        ("off-grid centres", off_grid, Window(4.0, 0.037), [0.3, 0.9, 1.7], 0.6),
        ("discs outside", outside, Window(5.0, 0.05), [0.5, 1.2, 2.5], 0.0),
    ]


@pytest.mark.parametrize("case", sweep_cases(), ids=lambda case: case[0])
class TestSweepMatchesFullGrid:
    """The box-culled sweep against the full-grid rule, bit for bit."""

    def test_grid(self, case):
        _, _, window, _, _ = case
        assert same_bits(window.grid(), reference_grid(window))

    def test_max_overlap(self, case):
        _, divisor, window, _, _ = case
        assert max_overlap(divisor, window) == reference_max_overlap(divisor, window)

    def test_coverage_defect(self, case):
        _, divisor, window, c_list, hole = case
        for c in [0.0, *c_list]:
            for sign in (+1, -1):
                got = coverage_defect(divisor, c, sign, window, hole)
                assert same_bits(got, reference_coverage_defect(divisor, c, sign, window, hole))

    def test_theorem_verdicts(self, case):
        _, divisor, window, c_list, hole = case
        assert_verdicts_match_reference(divisor, window, c_list, hole)

    def test_pairwise_disjoint(self, case):
        _, divisor, _, c_list, _ = case
        for c in [0.0, *c_list]:
            for sign in (+1, -1):
                got = pairwise_disjoint(divisor, c, sign)
                assert got == reference_pairwise_disjoint(divisor, c, sign)


class TestSweepEdges:
    def test_boundary_points_are_probed(self):
        # step 0.05 puts grid points exactly on the unit circles of the
        # lattice, where the open-disc rule must leave them uncovered
        grid = Window(5.0, 0.05).grid()
        assert 1.0 in grid and 1j in grid
        uncovered = coverage_defect(Divisor(P1, ((0.0, 1),)), 0.0, +1, Window(5.0, 0.05))
        assert 1.0 in uncovered and -1j in uncovered

    def test_shrunk_exclusion_only(self):
        # m <= alpha*C^2 drops every entry, so nothing is covered
        X = Divisor(P1, ((0.0, 1), (1.0, 1)))
        window = Window(2.0, 0.1)
        assert same_bits(coverage_defect(X, 1.0, -1, window), window.grid())

    def test_tangency_and_first_pair(self):
        X = Divisor(P1, ((0.0, 1), (4.0, 1), (8.0, 1), (11.0, 1), (13.5, 1)))
        # radius 2: 0-4 and 4-8 are tangent, 8-11 is the first overlap
        assert pairwise_disjoint(X, 1.0, +1) == (False, (8.0 + 0j, 11.0 + 0j))
        # radius 1.25: 11-13.5 is tangent
        assert pairwise_disjoint(X, 0.25, +1) == (True, None)

    @pytest.mark.parametrize("block", [geometry._PAIR_BLOCK, 300])
    def test_pairwise_blocks_match_scalar_rule(self, block, monkeypatch):
        # radii near tangency, over one or many row blocks
        monkeypatch.setattr(geometry, "_PAIR_BLOCK", block)
        divisor, _ = generate_disjoint_rings(1.0, 0.3, 60.0)
        for c in (0.3, 0.31, 0.35, 0.5, 1.0):
            for sign in (+1, -1):
                assert pairwise_disjoint(divisor, c, sign) == reference_pairwise_disjoint(
                    divisor, c, sign
                )

    def test_oversized_grid_refused(self):
        with pytest.raises(ValueError, match="grid cells"):
            Window(5.0, 1e-6)
        with pytest.raises(ValueError, match="grid cells"):
            Window(1e300, 1e-300)
        assert geometry.MAX_GRID_CELLS == 2**22
        Window(1023.0, 1.0)  # 2047 x 2047 points, inside the budget
        with pytest.raises(ValueError, match="grid cells"):
            Window(1024.0, 1.0)


# grid-aligned coordinates put disc boundaries on probe points
_coordinate = st.one_of(st.sampled_from([0.0, 1.0, -1.5]), st.floats(-3.5, 3.5))
# repeated values, and Cs large enough that shrunk discs of small m vanish
_c_value = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5]), st.floats(0.01, 3.0))


@st.composite
def verdict_cases(draw):
    """(divisor, c_list, hole_radius) on the window of radius 4, step 0.1."""
    points = draw(
        st.lists(st.builds(complex, _coordinate, _coordinate), min_size=1, max_size=8, unique=True)
    )
    mults = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0]))
    c_list = sorted(draw(st.lists(_c_value, min_size=1, max_size=12)))
    hole = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    return Divisor(FockParams(alpha), tuple(zip(points, mults))), c_list, hole


class TestNestedLevels:
    """One level grid per disc family against the per-C rules, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(verdict_cases())
    # m = 1 and 2 lose their shrunk discs from C = 0.71 and 1.0 on, m = 9
    # keeps its own through every C; one C repeated
    @example((Divisor(FockParams(2.0), ((0.3 + 0.2j, 1), (1.0, 2), (-1.5 - 1.5j, 9))),
              [0.5, 0.5, 0.8, 1.0, 1.9], 0.7))
    # padded discs disjoint at the least C only
    @example((Divisor(FockParams(1.0), ((-3.0 + 1j, 1), (3.0 + 1j, 1))), [0.5, 2.5], 0.0))
    def test_theorem_verdicts(self, case):
        divisor, c_list, hole = case
        assert_verdicts_match_reference(divisor, Window(4.0, 0.1), c_list, hole)
