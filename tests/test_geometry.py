import cmath
import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from focklab import core, geometry
from focklab.kernels import DuplicateLabelError, gram_matrix, overlap_matrix
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
    theorem_verdicts,
)
from focklab.core import LABEL, compose_phase, label_digest, label_records
from focklab.reports import canonical_json, save_divisor

P1 = FockParams(1.0)


def rescale_to_unit_alpha(divisor: Divisor) -> Divisor:
    # the change of variable z -> sqrt(alpha)*z, which maps alpha to 1 and
    # each disc radius sqrt(m/alpha) to sqrt(m)
    points = divisor.points * math.sqrt(divisor.params.alpha)
    return Divisor(FockParams(1.0), label_records(points, divisor.mults))


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

    @pytest.mark.parametrize("mult", [2.7, float("nan"), 2**63, 10**30, 1e30])
    def test_bad_multiplicity_rejected(self, mult):
        with pytest.raises(ValueError, match="multiplicities"):
            Divisor(P1, ((0.0, mult),))

    def test_largest_multiplicity_accepted(self):
        divisor = Divisor(P1, ((0.0, 2**63 - 1), (1.0, 2.0)))
        assert divisor.entries == ((0j, 2**63 - 1), (1 + 0j, 2))
        assert divisor.total_multiplicity() == 2**63 + 1

    def test_atom_labels_order(self):
        divisor = Divisor(P1, ((1.0, 2), (2j, 1)))
        labels = divisor.atom_labels()
        assert labels.dtype == LABEL
        assert labels.tolist() == [(1.0, 0), (1.0, 1), (2j, 0)]

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


class TestDivisorValues:
    """Value semantics of a divisor: distinctness as a Python set decides it,
    entries as Python pairs in input order, equality of equal inputs."""

    def test_signed_zeros_collide(self):
        with pytest.raises(ValueError):
            Divisor(P1, ((0j, 1), (complex(-0.0, -0.0), 1)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("source", ["pairs", "records"])
    @pytest.mark.parametrize(
        "point",
        [complex(math.nan, 1.0), complex(0.5, -math.nan), complex(math.inf, 0.0), complex(-1.0, -math.inf)],
        ids=["nan-re", "nan-im", "inf-re", "-inf-im"],
    )
    def test_nonfinite_points_refused(self, point, source):
        entries = ((1j, 2), (point, 1))
        with pytest.raises(ValueError, match="^divisor points must be finite$"):
            Divisor(P1, entries if source == "pairs" else np.array(list(entries), LABEL))

    def test_finite_rule_between_multiplicities_and_distinctness(self):
        nan = complex(math.nan, 0.0)
        with pytest.raises(ValueError, match="^multiplicities must be"):
            Divisor(P1, ((nan, 0), (1.0, 1)))
        with pytest.raises(ValueError, match="^divisor points must be finite$"):
            Divisor(P1, ((1.0, 1), (1.0, 1), (nan, 1)))

    def test_entries_are_python_pairs_in_input_order(self):
        divisor = Divisor(P1, ((2j, 3), (1.0, 1), (np.complex128(-1 + 1j), np.int64(2))))
        assert divisor.entries == ((2j, 3), (1 + 0j, 1), (-1 + 1j, 2))
        for lam, m in divisor.entries:
            assert type(lam) is complex and type(m) is int

    def test_rescaling_keeps_signed_zeros(self):
        points = [complex(-0.0, -0.0), complex(-0.0, 1.0), complex(1.0, -0.0), complex(-1.0, -0.0)]
        rescaled = rescale_to_unit_alpha(Divisor(FockParams(4.0), tuple((p, 1) for p in points)))
        signs = [(math.copysign(1, lam.real), math.copysign(1, lam.imag)) for lam, _ in rescaled.entries]
        assert signs == [(1, -1), (-1, 1), (1, 1), (-1, -1)]

    def test_equal_inputs_compare_equal(self):
        entries = ((0.5 - 1j, 2), (3.0, 1))
        assert Divisor(P1, entries) == Divisor(P1, entries)
        assert Divisor(P1, entries) != Divisor(P1, entries[:1])
        assert Divisor(P1, entries) != Divisor(FockParams(2.0), entries)

    def test_frozen_with_read_only_arrays(self):
        divisor = Divisor(P1, ((1j, 2), (0.5, 1)))
        assert divisor.points.dtype == np.complex128 and divisor.mults.dtype == np.int64
        with pytest.raises(ValueError):
            divisor.mults[0] = 5
        with pytest.raises(AttributeError):
            divisor.points = np.zeros(2, complex)

    def test_overlap_count_sums_over_entries(self):
        # 300 unit discs share the origin: the level grid must hold 300, not
        # the count of distinct multiplicities
        k = np.arange(300)
        points = 0.39 * (k / 300) * np.exp(2j * np.pi * 0.618 * k)
        divisor = Divisor(P1, tuple((lam, 1) for lam in points.tolist()))
        window = Window(1.0, 0.1)
        assert max_overlap(divisor, window) == 300
        assert theorem_verdicts(divisor, window, [0.5])["finite_overlap_bound"] == 300


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

    def test_matches_scalar_loop(self):
        # the per-entry scalar rule, with probes on disc boundaries
        rng = np.random.default_rng(7)
        for alpha in (1.0, 0.7, 3.0):
            pts = rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)
            ms = rng.integers(1, 6, 40)
            X = Divisor(FockParams(alpha), tuple(zip(pts.tolist(), ms.tolist())))
            rim = pts + np.sqrt(ms / alpha) * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
            probes = rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)
            for z in [*probes.tolist(), *rim.tolist(), *(pts + np.sqrt(ms / alpha)).tolist()]:
                expected = sum(
                    (z - lam).real ** 2 + (z - lam).imag ** 2 < m * (1.0 / alpha)
                    for lam, m in X.entries
                )
                assert overlap_count_at(X, z) == expected

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

    def test_nan_c_and_odd_sign_refused(self):
        # a NaN C once read as no disc, so the whole grid as uncovered
        X, window = Divisor(P1, ((0.0, 1), (1.0, 1))), Window(2.0, 0.1)
        for sign in (+1, -1):
            with pytest.raises(ValueError, match="NaN"):
                coverage_defect(X, math.nan, sign, window)
        with pytest.raises(ValueError, match="sign"):
            coverage_defect(Divisor(P1, ()), 0.5, 0, window)


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

    def test_nan_c_and_odd_sign_refused(self):
        # two unit discs at distance 1 once read as disjoint at a NaN C
        X = Divisor(P1, ((0.0, 1), (1.0, 1)))
        for sign in (+1, -1):
            with pytest.raises(ValueError, match="NaN"):
                pairwise_disjoint(X, math.nan, sign)
        for divisor in (X, Divisor(P1, ())):
            with pytest.raises(ValueError, match="sign"):
                pairwise_disjoint(divisor, 1.0, 2)

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
    def test_unit_lattice_regime(self):
        verdicts = theorem_verdicts(unit_lattice(), Window(5.0, 0.05), [0.25, 0.5, 1.0])
        assert verdicts["padded_cover"]["holds"]
        assert verdicts["padded_cover"]["witness_c"] == 0.25
        assert all(not r["holds"] for r in verdicts["shrunk_cover"])
        assert not verdicts["padded_disjoint"]["holds"]
        assert verdicts["exclusivity_consistent"]
        assert verdicts["finite_overlap_bound"] == 4
        # one pair screen, at the padded reach, decides the shrunk discs at 40 Cs
        # and the padded ones; the certified R = 12 covering check makes none
        many = [i / 40 for i in range(1, 41)]
        verdicts, screens = screened_verdicts(unit_lattice(), Window(5.0, 0.25), many)
        assert verdicts["shrunk_disjoint"]["witness_c"] == 0.5
        assert screens == [2 * (1 + 1 / 40)]
        covering, _ = generate_covering_rings(1.0, 0.97, 12.0)
        verdicts, screens = screened_verdicts(covering, Window(12.0, 0.05), [0.15, 0.3, 0.45, 0.6, 0.75, 0.9])
        assert all(r["holds"] for r in verdicts["shrunk_cover"])
        assert not verdicts["shrunk_disjoint"]["holds"] and not verdicts["padded_disjoint"]["holds"]
        assert screens == []

    def test_uncovered_lists_budgeted(self):
        args = Divisor(P1, ((0.0, 2),)), Window(3.0, 0.1), [0.25, 0.5, 1.0]
        counts = [r["uncovered_count"] for r in theorem_verdicts(*args)["shrunk_cover"]]
        assert 0 < counts[0] < counts[1] < counts[2]
        with mock.patch.object(geometry, "MAX_GRID_CELLS", sum(counts)):
            assert theorem_verdicts(*args)["shrunk_cover"][2]["uncovered_count"] == counts[2]
        with mock.patch.object(geometry, "MAX_GRID_CELLS", sum(counts) - 1):
            with pytest.raises(ValueError, match=f"^the uncovered lists would hold more than {sum(counts) - 1} grid"):
                theorem_verdicts(*args)

    def test_uncovered_lists_refused_before_any_is_built(self):
        # the same refusal, read off one count of the levels: no list is cut
        # from the grid; a repeated C counts its shared list again
        args = Divisor(P1, ((0.0, 2),)), Window(3.0, 0.1), [0.25, 0.5, 0.5, 1.0]
        cuts, sweep = [], geometry._disc_sweep

        class Grid(np.ndarray):
            def __getitem__(self, key):
                cuts.append(key)
                return super().__getitem__(key)

        def watched(divisor, window, discs):
            z, *rest = sweep(divisor, window, discs)
            return z.view(Grid), *rest

        total = sum(r["uncovered_count"] for r in theorem_verdicts(*args)["shrunk_cover"])
        with mock.patch.object(geometry, "_disc_sweep", watched):
            with mock.patch.object(geometry, "MAX_GRID_CELLS", total):
                theorem_verdicts(*args)
            assert len(cuts) == 3
            cuts.clear()
            with mock.patch.object(geometry, "MAX_GRID_CELLS", total - 1), pytest.raises(ValueError, match="^the uncovered"):
                theorem_verdicts(*args)
        assert cuts == []

    def test_far_separated_regime(self):
        divisor, _ = generate_lattice(1.0, 10.0, 1, 10.0)
        verdicts = theorem_verdicts(divisor, Window(10.0, 0.25), [1.0])
        assert verdicts["padded_disjoint"]["holds"]
        assert not verdicts["padded_cover"]["holds"]

    def test_covering_rings_regime(self):
        divisor, _ = generate_covering_rings(1.0, 1.0, 8.0)
        verdicts = theorem_verdicts(divisor, Window(8.0, 0.2), [0.25, 0.5, 1.0])
        assert all(r["holds"] for r in verdicts["shrunk_cover"])
        assert not verdicts["padded_disjoint"]["holds"]
        assert verdicts["bare_cover"]["holds"]
        assert verdicts["exclusivity_consistent"]

    def test_determinism(self):
        divisor = unit_lattice(3.0)
        window = Window(3.0, 0.1)
        a = theorem_verdicts(divisor, window, [0.5, 1.0], 0.25)
        b = theorem_verdicts(divisor, window, [0.5, 1.0], 0.25)
        assert a["finite_overlap_bound"] == b["finite_overlap_bound"]
        assert a["padded_cover"]["witness_c"] == b["padded_cover"]["witness_c"]
        for ra, rb in zip(a["shrunk_cover"], b["shrunk_cover"]):
            assert np.array_equal(ra["uncovered"], rb["uncovered"])

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
            assert all(r["holds"] for r in verdicts["shrunk_cover"])
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
            assert original["finite_overlap_bound"] == rescaled["finite_overlap_bound"]
            assert original["padded_cover"]["holds"] == rescaled["padded_cover"]["holds"]
            assert [r["holds"] for r in original["shrunk_cover"]] == [
                r["holds"] for r in rescaled["shrunk_cover"]
            ]
            assert original["shrunk_disjoint"]["holds"] == rescaled["shrunk_disjoint"]["holds"]
            assert original["padded_disjoint"]["holds"] == rescaled["padded_disjoint"]["holds"]
            assert original["bare_cover"]["holds"] == rescaled["bare_cover"]["holds"]
            assert original["exclusivity_consistent"] == rescaled["exclusivity_consistent"]


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
    assert v["finite_overlap_bound"] == reference_max_overlap(divisor, window)
    padded = [
        c for c in c_list if reference_coverage_defect(divisor, c, +1, window).size == 0
    ]
    assert v["padded_cover"]["witness_c"] == (padded[0] if padded else None)
    assert v["padded_cover"]["holds"] == bool(padded)
    for c, result in zip(c_list, v["shrunk_cover"]):
        expected = reference_coverage_defect(divisor, c, -1, window, hole)
        assert result["c"] == c
        assert result["holds"] == (expected.size == 0)
        assert same_bits(result["uncovered"], expected)
    bare = reference_coverage_defect(divisor, 0.0, +1, window, hole)
    assert v["bare_cover"]["holds"] == (bare.size == 0)
    for sign, holds, witness in (
        (-1, v["shrunk_disjoint"]["holds"], v["shrunk_disjoint"]["witness_c"]),
        (+1, v["padded_disjoint"]["holds"], v["padded_disjoint"]["witness_c"]),
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

    @pytest.mark.parametrize("points", [2**18, 300])
    def test_pairwise_blocks_match_scalar_rule(self, points):
        # radii near tangency, on the whole family (371 points) and on its
        # first 300 points, walked one row at a time
        family, _ = generate_disjoint_rings(1.0, 0.3, 80.0)
        divisor = Divisor(family.params, family.entries[:points])
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
        assert core.MAX_GRID_CELLS == 2**22
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


@pytest.mark.bitwise
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


class _Handed(Exception):
    """Raised in place of the sweep once theorem_verdicts has handed it its families."""


# tiny Cs that leave a radius unchanged, and Cs past every sqrt(m/alpha) drawn
_any_c = st.one_of(
    st.sampled_from([5e-324, 1e-300, 1e-9, 0.5, 1.0, 3.0, 1e9, 1e150, 1e200]), st.floats(1e-3, 20.0)
)


@pytest.mark.bitwise
class TestNestedDiscOrder:
    """theorem_verdicts reads every cover verdict off one nested level, the
    number of an entry's discs holding a cell, which counts the last discs of
    its list only if that list ascends.  The certificate is refused here, so
    that draws it would certify (such as m near 2**62 on the unit window)
    still hand the sweep their level list."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.one_of(st.integers(1, 64), st.integers(1, 2**62)), min_size=1, max_size=6, unique=True),
        st.sampled_from([1e-6, 0.3, 0.5, 2.0, 7.5, 1e6]),
        st.lists(_any_c, min_size=1, max_size=12),
    )
    def test_disc_list_ascends(self, mults, alpha, c_list):
        cs, handed = sorted(c_list), []

        def sweep(divisor, window, discs):
            handed.append(discs)
            raise _Handed

        divisor = Divisor(FockParams(alpha), [(complex(i), m) for i, m in enumerate(mults)])
        with mock.patch.object(geometry, "_disc_sweep", sweep), pytest.raises(_Handed):
            with mock.patch.object(geometry, "_covers", refused):
                theorem_verdicts(divisor, Window(1.0, 0.1), cs)
        # the overlap count is read off row runs, so the sweep gets the nested family alone
        assert len(handed) == 1
        padded = geometry._nested_family(divisor, [0.0, *cs], +1)
        shrunk = geometry._nested_family(divisor, cs, -1)
        for m in mults:
            discs = handed[0](m)
            assert all(a <= b for a, b in zip(discs, discs[1:]))
            # the shrunk discs at descending C, absent ones left out, then the padded ones
            assert discs == shrunk(m)[::-1] + padded(m)


class TestSweepFamilies:
    """A certified window counts in one pass, the row runs, and builds no
    square nor calls the sweep.  One that is not certified adds a second
    pass, the sweep of the nested level family alone."""

    @pytest.mark.parametrize("family, window, step, c_list, passes", [
        # the benchmark's covering check, and its window-4 lattice defect check
        ("covering", 12.0, 0.05, [0.1455, 0.291, 0.4365, 0.582, 0.7275, 0.873], 1),
        ("lattice", 4.0, 0.02, [0.25, 0.5, 1.0], 2),
    ])
    def test_families_handed(self, family, window, step, c_list, passes):
        if family == "covering":
            divisor, _ = generate_covering_rings(1.0, 0.97, window)
        else:
            divisor = unit_lattice(window)
        runs, families, squares = [], [], []
        count, sweep, square = geometry.max_overlap, geometry._disc_sweep, Window._square

        def counted(divisor, window):
            runs.append(window)
            return count(divisor, window)

        def spy(divisor, window, discs):
            families.append(discs)
            return sweep(divisor, window, discs)

        def built(window):
            squares.append(window)
            return square(window)

        with mock.patch.object(geometry, "max_overlap", counted), mock.patch.object(geometry, "_disc_sweep", spy):
            with mock.patch.object(Window, "_square", built):
                verdicts = theorem_verdicts(divisor, Window(window, step), c_list)
        assert len(runs) == 1 and len(families) == len(squares) == passes - 1
        assert all(r["holds"] for r in verdicts["shrunk_cover"]) == (passes == 1)
        if families:  # the nested family: the shrunk discs at descending C, then the padded ones
            padded, shrunk = geometry._nested_family(divisor, [0.0, *c_list], +1), geometry._nested_family(divisor, c_list, -1)
            assert families[0](1) == shrunk(1)[::-1] + padded(1)

    def test_certified_check_holds_less_than_a_square(self):
        # the benchmark's covering check: 481 x 481 cells, whose complex128
        # square alone is 3.7 MB, while row runs hold (disc, row) pairs
        divisor, _ = generate_covering_rings(1.0, 0.97, 12.0)
        window, c_list = Window(12.0, 0.05), [0.1455, 0.291, 0.4365, 0.582, 0.7275, 0.873]
        theorem_verdicts(divisor, window, c_list)
        tracemalloc.start()
        try:
            verdicts = theorem_verdicts(divisor, window, c_list)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r["holds"] for r in verdicts["shrunk_cover"])
        assert peak < 481 * 481 * 16


def overlap_family(divisor):
    """The discs D(lam, sqrt(m/alpha)), summed over entries: the overlap count."""
    inv_alpha = 1.0 / divisor.params.alpha
    return np.add, lambda m: [m * inv_alpha]


def sweep_families(divisor, c_list):
    """The padded and shrunk disc families, each maximised over entries."""
    return [
        (np.maximum, geometry._nested_family(divisor, [0.0, *c_list], +1)),
        (np.maximum, geometry._nested_family(divisor, c_list, -1)),
    ]


def reference_levels(divisor, window, families):
    """Each family's level grid, every entry tested on the full square."""
    n = int(math.floor(window.radius / window.grid_step + 1e-9))
    axis = window.grid_step * np.arange(-n, n + 1)
    z = axis[None, :] + 1j * axis[:, None]
    grids = [np.zeros(z.shape, np.int64) for _ in families]
    for lam, m in divisor.entries:
        with np.errstate(over="ignore", invalid="ignore"):  # far or non-finite centres
            d2 = np.abs(z - lam) ** 2
        for grid, (comb, discs) in zip(grids, families):
            held = np.zeros(z.shape, np.int64)
            for t in discs(m):
                held += d2 < t
            comb(grid, held, out=grid)
    return grids


def assert_levels_match_reference(divisor, window, families):
    for (_, discs), expected in zip(families, reference_levels(divisor, window, families)):
        *_, got = geometry._disc_sweep(divisor, window, discs)
        assert got.dtype.kind == "u" and np.array_equal(got, expected)


# alpha 16 makes the boxes small on the 81 x 81 square of Window(4, 0.1):
# 14 x 14 cells for m = 1 (three clipped ones share a stack of 300 cells, six
# boxes one of 1000) and 16 x 17 for m = 2; the 40 x 40 box of m = 40 takes
# slabs of rows below 1,600 cells; the shrunk disc of m = 1 is absent at
# C = 0.3, so its shrunk family holds one disc
CHUNK_DIVISOR = Divisor(
    FockParams(16.0),
    (
        (0.0, 1), (0.31 + 0.2j, 1), (-0.7 + 1.13j, 1), (1.6 - 2.05j, 1),
        (3.98 + 1.0j, 1), (-4.0 - 4.0j, 1), (2.2 + 4.03j, 1),  # boxes clipped by the square
        (0.45 - 0.5j, 2), (-2.5 + 0.25j, 2), (0.1 + 0.2j, 40),
    ),
)


class TestSweepChunks:
    """The chunked sweep against full-grid levels, bit for bit, at budgets that
    force stacks of several boxes, slabs of rows and clipped boxes in a stack."""

    @pytest.mark.parametrize("budget", [1, 300, 1000, geometry._SWEEP_CELLS])
    def test_levels_match_full_grid(self, budget, monkeypatch):
        window, width = Window(4.0, 0.1), 81
        chunks, original = [], geometry._chunks

        def recorded(r0, r1, c0, c1, cells):
            for chunk in original(r0, r1, c0, c1, cells):
                chunks.append([(r0[k], r1[k], c0[k], c1[k], a, b) for k, a, b in chunk])
                yield chunk

        monkeypatch.setattr(geometry, "_SWEEP_CELLS", budget)
        monkeypatch.setattr(geometry, "_chunks", recorded)
        assert_levels_match_reference(CHUNK_DIVISOR, window, sweep_families(CHUNK_DIVISOR, [0.05, 0.3]))

        cells = max(budget, width)
        assert all(sum((b - a) * (c1 - c0) for _, _, c0, c1, a, b in chunk) <= cells for chunk in chunks)
        stacks = [chunk for chunk in chunks if len(chunk) > 1]
        slabs = [chunk for chunk in chunks if (chunk[0][4], chunk[0][5]) != chunk[0][:2]]
        assert bool(slabs) == (budget < width**2)
        if budget in (300, 1000):
            assert stacks
            assert any(0 in box[:4] or width in box[:4] for chunk in stacks for box in chunk)

    @pytest.mark.bitwise
    @settings(max_examples=60, deadline=None)
    @given(
        verdict_cases(),
        st.sampled_from([1, 97, 400, 2**16]),
        st.lists(st.sampled_from([math.nan, math.inf, -math.inf, 4.05, -3.95]), max_size=3),
    )
    def test_drawn_levels_match_full_grid(self, case, budget, odd_parts):
        divisor, c_list, _ = case
        # centres on or just past the square's edge; one with a non-finite part is refused
        entries = divisor.entries + tuple((complex(x, 0.5 * i), 1) for i, x in enumerate(odd_parts))
        if not all(map(math.isfinite, odd_parts)):
            with pytest.raises(ValueError, match="^divisor points must be finite$"):
                Divisor(divisor.params, entries)
        divisor = Divisor(divisor.params, [(lam, m) for lam, m in entries if cmath.isfinite(lam)])
        families = sweep_families(divisor, c_list)
        with mock.patch.object(geometry, "_SWEEP_CELLS", budget):
            assert_levels_match_reference(divisor, Window(4.0, 0.1), families)


# centres on grid points, and m/alpha an integer: cells such as 3 + 4i at
# distance 5 lie exactly on a circle
@st.composite
def aligned_cases(draw):
    """(divisor, window) with grid-aligned centres and integer m/alpha, at step 0.25 or 0.5."""
    step = draw(st.sampled_from([0.25, 0.5]))
    spots = st.builds(complex, st.integers(-18, 18), st.integers(-18, 18)).map(lambda p: p * step)
    points = draw(st.lists(spots, min_size=1, max_size=8, unique=True))
    alpha = draw(st.sampled_from([0.25, 0.5, 1.0]))
    mults = draw(st.lists(st.integers(1, 30), min_size=len(points), max_size=len(points)))
    return Divisor(FockParams(alpha), tuple(zip(points, mults))), Window(5.0, step)


@st.composite
def far_cases(draw):
    """(divisor, window): discs with m = 2**62 at alpha near 1e-290, so m/alpha
    is inf, centred near 1e154, where the grid's squared distances overflow."""
    alpha = draw(st.floats(1e-291, 1e-289))
    # |lam| around sqrt(max double) = 1.34e154: the grid's squares past it overflow
    far = st.builds(cmath.rect, st.floats(1e154, 1.7e154), st.floats(-math.pi, math.pi))
    points = draw(st.lists(far, min_size=1, max_size=3, unique=True))
    near = draw(st.lists(st.builds(complex, _coordinate, _coordinate), max_size=3, unique=True))
    return Divisor(FockParams(alpha), [(lam, 2**62) for lam in points] + [(lam, 1) for lam in near]), Window(4.0, 0.1)


def reference_window_max(divisor, window):
    """The overlap count's window maximum from the full-grid reference levels."""
    (counts,) = reference_levels(divisor, window, [overlap_family(divisor)])
    n = int(math.floor(window.radius / window.grid_step + 1e-9))
    axis = window.grid_step * np.arange(-n, n + 1)
    inside = np.abs(axis[None, :] + 1j * axis[:, None]) <= window.radius * (1 + 1e-12)
    return int(counts[inside].max())


@pytest.mark.bitwise
class TestOverlapRuns:
    """The row-run overlap count against the full grid, bit for bit, with
    bands of one row and of the default budget; theorem_verdicts, certified
    or not, reads the same bound."""

    def assert_runs_match(self, divisor, window, c_list=(0.5,), hole=0.0):
        expected = reference_window_max(divisor, window)
        for budget in (1, geometry._SWEEP_CELLS):
            with mock.patch.object(geometry, "_SWEEP_CELLS", budget):
                assert max_overlap(divisor, window) == expected
        assert theorem_verdicts(divisor, window, c_list, hole)["finite_overlap_bound"] == expected

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        verdict_cases(),
        st.lists(st.sampled_from([4.05, -3.95, 4.0, -4.1]), max_size=3),
        st.sampled_from([None, 5e-324]),
    )
    # a disc on the square's edge, and a subnormal C
    @example((Divisor(P1, ((0.3j, 2),)), [0.5], 1.5), [4.05], 5e-324)
    def test_drawn_discs(self, case, edge_parts, tiny_c):
        divisor, c_list, hole = case
        entries = divisor.entries + tuple((complex(x, 0.5 * i), 1) for i, x in enumerate(edge_parts))
        divisor = Divisor(divisor.params, dict(entries).items())  # equal points collapse
        self.assert_runs_match(divisor, Window(4.0, 0.1), sorted(c_list + [tiny_c] * (tiny_c is not None)), hole)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(aligned_cases())
    @example((Divisor(P1, ((0j, 25), (0.5 + 0.5j, 2))), Window(5.0, 0.5)))
    def test_cells_on_circles(self, case):
        self.assert_runs_match(*case)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=30, deadline=None)
    @given(far_cases())
    # squares of 1.44e308, in the disc, and of 2.0e308, past the double range and in no disc
    @example((Divisor(FockParams(1e-290), ((1.2e154 + 0j, 2**62), (-1e154 - 1e154j, 2**62))), Window(4.0, 0.1)))
    def test_squares_past_the_double_range(self, case):
        self.assert_runs_match(*case)


class TestPairScreen:
    """pairwise_disjoint against the scalar rule on every pair, with far
    points whose distances pass the double range; a non-finite point is
    refused by the divisor."""

    @pytest.mark.bitwise
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        verdict_cases(),
        st.lists(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]), max_size=3),
    )
    @example((Divisor(P1, ((0j, 1),)), [0.5], 0.0), [math.inf, math.inf])
    # the distance of two far points overflows to inf
    @example((Divisor(P1, ((0j, 1),)), [0.5], 0.0), [1e308, -1e308])
    @example((Divisor(P1, ()), [0.5], 0.0), [])
    @example((Divisor(P1, ((0j, 1),)), [0.5], 0.0), [])
    # repeated distances: the shrunk discs of radius 1 - 0.5 touch their neighbours
    @example((unit_lattice(3.0), [0.5], 0.0), [])
    # the only overlap is between the last two points, in the last row
    @example((Divisor(P1, tuple((complex(x), 1) for x in (0, 5, 10, 15, 16.5))), [0.5], 0.0), [])
    def test_drawn_pairs_match_scalar_rule(self, case, odd_parts):
        divisor, c_list, _ = case
        entries = divisor.entries + tuple((complex(x, 0.5 * i), 1) for i, x in enumerate(odd_parts))
        if not all(map(math.isfinite, odd_parts)):
            with pytest.raises(ValueError, match="^divisor points must be finite$"):
                Divisor(divisor.params, entries)
        divisor = Divisor(divisor.params, [(lam, m) for lam, m in entries if cmath.isfinite(lam)])
        for c in [0.0, *c_list]:
            for sign in (+1, -1):
                expected = reference_pairwise_disjoint(divisor, c, sign)
                assert pairwise_disjoint(divisor, c, sign) == expected


# NaN payloads beyond the default quiet NaN, with either sign bit
_PAYLOAD_NANS = np.array([0x7FF8_0000_0000_0123, 0xFFF0_0000_0000_0001], np.uint64).view(float)
_record_part = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, math.nan, -math.nan, math.inf, -math.inf, 5e-324]),
    st.sampled_from(_PAYLOAD_NANS.tolist()),
    st.floats(allow_nan=True, allow_infinity=True),
)
_record_family = st.lists(
    st.tuples(
        st.builds(complex, _record_part, _record_part),
        st.one_of(st.integers(1, 3), st.just(2**63 - 1), st.integers(-2, 2**63 - 1)),
    ),
    max_size=10,
)


@pytest.mark.bitwise
class TestDivisorRecordsReference:
    """A LABEL array of (point, mult) records builds the divisor its pairs
    build, bit for bit, or is refused with the pairs' message; the divisor's
    digest is the digest of its entries, the spelling it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([0.5, 1.0, 3.7]), _record_family)
    @example(1.0, [])
    @example(1.0, [(0j, 0)])
    @example(1.0, [(1j, 2), (0.5, -1)])
    @example(1.0, [(0j, 1), (complex(-0.0, -0.0), 2)])
    @example(1.0, [(complex(math.nan, 0.0), 1), (complex(math.nan, 0.0), 1)])
    @example(1.0, [(complex(-math.nan, 5e-324), 2**63 - 1), (complex(math.inf, -0.0), 1)])
    def test_records_build_the_pairs_divisor(self, tmp_path_factory, alpha, family):
        params = FockParams(alpha)
        records = np.array(family, LABEL)
        before = records.copy()
        try:
            want = Divisor(params, family)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                Divisor(params, records)
            assert str(refused.value) == str(exc)
            return
        got = Divisor(params, records)
        assert same_bits(got.points, want.points)
        assert np.array_equal(got.mults, want.mults) and got.mults.dtype == np.int64
        if not np.isnan(want.points).any():  # a NaN point equals nothing, not even itself
            assert got == want
        assert got.digest() == want.digest() == label_digest(params, want.entries)
        folder = tmp_path_factory.mktemp("records")
        save_divisor(got, folder / "records.json")
        save_divisor(want, folder / "pairs.json")
        assert (folder / "records.json").read_bytes() == (folder / "pairs.json").read_bytes()
        # the caller's records are copied: neither frozen nor aliased
        assert records.flags.writeable and records.tobytes() == before.tobytes()
        assert not np.shares_memory(got.points, records) and not np.shares_memory(got.mults, records)
        records["n"] = 5
        assert np.array_equal(got.mults, want.mults)

    def test_records_of_any_shape_are_read_in_order(self):
        records = np.array([[(1j, 2), (0.5, 1)], [(2.0, 3), (-1j, 1)]], LABEL)
        divisor = Divisor(P1, records)
        assert divisor.entries == ((1j, 2), (0.5 + 0j, 1), (2 + 0j, 3), (-1j, 1))
        assert Divisor(P1, records[:, 0]).entries == ((1j, 2), (2 + 0j, 3))


class TestConstructionMemory:
    """Construction and digest hold arrays only, no Python object per point."""

    def test_lattice_builds_no_object_per_point(self):
        generate_lattice(1.0, 1.0, 1, 3.0)
        tracemalloc.start()
        try:
            divisor, _ = generate_lattice(1.0, 1.0, 1, 300.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert divisor.points.size == 282_697
        # 28 MiB: the probe square and its masks, the records and the divisor
        # arrays (47.4 MiB through one tuple per point)
        assert peak < 35 * 2**20

    def test_digest_holds_one_record_array(self):
        divisor, _ = generate_lattice(1.0, 1.0, 1, 300.0)
        divisor.digest()
        tracemalloc.start()
        try:
            digest = divisor.digest()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == label_digest(divisor.params, divisor.entries)
        # 6.5 MiB of records, hashed in place (49.5 MiB through entries)
        assert peak < 2 * divisor.points.size * LABEL.itemsize


def _signalling_nan_point():
    # real part 0x7FF0000000000001: numpy's float ops on it raise the invalid flag
    point = np.zeros(1, complex)
    point.view(np.int64)[0] = 0x7FF0000000000001
    return point[0]


class TestSignallingNanPoint:
    """A point with a signalling-NaN part is refused as a divisor point and
    as a kernel label; as a probe it lies in no disc, and it equals no label,
    quietly: no numpy warning is raised on its way."""

    snan = _signalling_nan_point()
    others = ((1.0, 2), (0j, 1), (-1.5 + 1j, 3))

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_point_is_a_signalling_nan(self):
        bits = np.array([self.snan]).view(np.int64)[0]
        assert math.isnan(self.snan.real) and bits == 0x7FF0000000000001

    @pytest.mark.parametrize("source", ["pairs", "records"])
    def test_divisor_refuses_the_point(self, source):
        entries = ((self.snan, 1), *self.others)
        if source == "records":
            entries = np.array(list(entries), LABEL)
            assert entries["point"][:1].view(np.int64)[0] == 0x7FF0000000000001
        with pytest.raises(ValueError, match="^divisor points must be finite$"):
            Divisor(P1, entries)

    @pytest.mark.parametrize("z", [0j, 1.0, 0.5 + 0.5j, 10.0])
    def test_overlap_count_as_without_the_point(self, z):
        # the point never enters a divisor, so every count is that of the others
        with pytest.raises(ValueError, match="^divisor points must be finite$"):
            Divisor(P1, ((self.snan, 4), *self.others))
        want = sum(abs(z - lam) ** 2 < m / P1.alpha for lam, m in self.others)
        assert overlap_count_at(Divisor(P1, self.others), z) == want

    def test_probe_lies_in_no_disc(self):
        assert overlap_count_at(Divisor(P1, self.others), self.snan) == 0

    def test_gram_matrix_refuses_a_duplicate_label_before_the_kernel(self):
        with pytest.raises(DuplicateLabelError, match="must be distinct"):
            gram_matrix([(self.snan, 0), (1.0, 0), (1.0, 0)], P1)

    def test_compose_phase_gives_nan(self):
        phase, shift = compose_phase(self.snan, 1.0 + 2j, P1)
        assert np.isnan(phase) and np.isnan(shift)
        phases, shifts = compose_phase(np.array([self.snan, 1.0]), np.array([1j, 2.0]), P1)
        assert np.isnan(phases[0]) and np.isnan(shifts[0])
        assert same_bits(phases[1:], np.array([compose_phase(1.0, 2.0, P1)[0]])) and shifts[1] == 3.0

    @pytest.mark.parametrize("point", [snan, complex(math.inf, 0.0), complex(1.0, -math.inf), complex(math.nan, 1.0)],
                             ids=["snan", "inf", "1-infj", "qnan"])
    @pytest.mark.parametrize("source", ["pairs", "records"])
    def test_gram_matrix_refuses_the_point(self, point, source):
        # refused before the kernel sorts, multiplies or calls math on the point
        entries = ((point, 0), (1.0, 0))
        if source == "records":
            entries = np.array(list(entries), LABEL)
        with pytest.raises(ValueError, match="^atom points must be finite$"):
            gram_matrix(entries, P1)
        with pytest.raises(ValueError, match="^atom points must be finite$"):
            overlap_matrix(entries[1:], entries, P1)
        with pytest.raises(ValueError, match="^atom points must be finite$"):
            overlap_matrix(entries, entries[1:], P1)


def cover_case(rnd):
    """(divisor, c, sign, window) near the cover threshold, drawn from rnd: random
    discs, a jittered lattice at radius about s/sqrt(2), a few large discs, a
    near-tangent pair among random discs, or discs past 1e154 near a small
    window; C subnormal, tiny or a few percent of the radius; and in some cases
    every length scaled by 1e100, or past 1e154."""
    kind = rnd.choice(["random", "lattice", "large", "tangent", "huge"])
    radius, r = rnd.uniform(1.0, 4.0), rnd.uniform(0.4, 1.5)
    points, mults, scale = [], [], rnd.choice([1.0, 1.0, 1.0, 1e100, 1e155, 1e160])
    if kind == "lattice":
        s = r * math.sqrt(2) / (1 + rnd.choice([-1e-3, 0.0, 1e-9, 1e-6, 1e-3, 0.03, 0.1]))
        jitter, shift = rnd.choice([0.0, 1e-9, 1e-3, 0.02]) * s, complex(rnd.random(), rnd.random()) * s
        n = math.ceil(radius / s) + 1
        for p in range(-n, n + 1):
            for q in range(-n, n + 1):
                noise = complex(rnd.uniform(-jitter, jitter), rnd.uniform(-jitter, jitter))
                points.append(complex(p, q) * s + shift + noise)
                mults.append(1)
    elif kind == "huge":  # radii 1e154 to 1e160 (m = 2**62), centred at 0, near or far
        scale, r = 1.0, 10.0 ** rnd.uniform(154, 160) / 2**31
        for where in rnd.sample([0.0, radius, 1e150, r * 2**31, 1e300], 2):
            points.append(cmath.rect(where, rnd.uniform(-math.pi, math.pi)))
            mults.append(2**62)
    else:
        # enough random discs that the window is about covered
        count = rnd.randrange(4, 40)
        r = (radius + 1) * math.sqrt(rnd.uniform(1.5, 6.0) / count)
        for _ in range(count):
            points.append(cmath.rect((radius + r) * math.sqrt(rnd.random()), rnd.uniform(-math.pi, math.pi)))
            mults.append(1)
        if kind == "large":  # discs of radius 2r to 10r
            for _ in range(rnd.randrange(1, 4)):
                points.append(cmath.rect(radius * rnd.uniform(0, 2), rnd.uniform(-math.pi, math.pi)))
                mults.append(rnd.choice([4, 25, 100]))
        if kind == "tangent":  # circles at d = r1 + r2 or |r1 - r2|, to 1e-9 relative or exactly
            m = rnd.choice([1, 4, 9])
            gap = (1 + math.sqrt(m) * rnd.choice([1, -1])) * r * (1 + rnd.choice([0.0, 1e-12, -1e-9, 1e-6]))
            points.append(points[0] + cmath.rect(abs(gap), rnd.uniform(-math.pi, math.pi)))
            mults.append(m)
    sign = rnd.choice([1, -1])
    c = rnd.choice([5e-324, 1e-300, 1e-12, rnd.uniform(0, 0.05) * r] + [0.0] * (sign == 1))
    entries = {p * scale: m for p, m in zip(points, mults)}  # equal points collapse
    divisor = Divisor(FockParams((1 / (r * scale)) ** 2), tuple(entries.items()))
    window = Window(radius * scale, radius * scale / rnd.choice([10, 20, 40]))
    return divisor, c * scale, sign, window


def certifies(divisor, c, sign, window):
    return geometry._covers(divisor.points, geometry._entry_radii(divisor, c, sign), window.radius, math.inf)


def refused(*_):
    return False


def grid_defect(divisor, c, sign, window, hole=0.0):
    """coverage_defect with the certificate refused, and its full-grid reference, which agree."""
    with mock.patch.object(geometry, "_covers", refused):
        swept = coverage_defect(divisor, c, sign, window, hole)
    with np.errstate(over="ignore"):  # distances past the double range lie in no disc
        assert same_bits(swept, reference_coverage_defect(divisor, c, sign, window, hole))
    return swept


class TestCoversSound:
    """The certificate _covers is sound against the grid rule: whenever it
    certifies, no window cell lies outside the discs, so skipping the sweep
    never changes a report."""

    @pytest.mark.bitwise
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_certified_windows_have_no_grid_defect(self, rnd):
        divisor, c, sign, window = cover_case(rnd)
        if certifies(divisor, c, sign, window):
            assert grid_defect(divisor, c, sign, window).size == 0
            assert coverage_defect(divisor, c, sign, window).size == 0
            if sign == -1 and c > 0:  # the verdicts skip their level grid, with the same report
                cs = [x for x in (c / 2, c, c) if x > 0]
                got = canonical_json(theorem_verdicts(divisor, window, cs))
                with mock.patch.object(geometry, "_covers", refused):
                    assert got == canonical_json(theorem_verdicts(divisor, window, cs))

    def test_fixed_cases_certify_often(self):
        # not vacuous: a fixed set of 300 drawn cases certifies at least a fifth of the time
        cases = [cover_case(random.Random(seed)) for seed in range(300)]
        shares = [certifies(*case) for case in cases]
        assert sum(shares) >= 60
        for case, certified in zip(cases, shares):
            if certified:
                assert grid_defect(*case).size == 0

    def test_window_inside_one_disc_certifies(self):
        divisor, window = Divisor(P1, ((0.1j, 9),)), Window(2.5, 0.1)
        assert certifies(divisor, 0.0, +1, window)
        assert certifies(divisor, 0.25, -1, window)  # radius 2.75
        assert not certifies(divisor, 0.5, -1, window)  # radius 2.5 leaves the rim point 2.5i out

    def test_tangent_discs_refused(self):
        # unit discs tangent at 0, a grid point in neither; with two more at
        # +-i every point near 0 but 0 itself is covered
        window = Window(0.5, 0.05)
        for points in ((1.0, -1.0), (1.0, -1.0, 1j, -1j)):
            divisor = Divisor(P1, tuple((lam, 1) for lam in points))
            assert not certifies(divisor, 0.0, +1, window)
            assert 0j in grid_defect(divisor, 0.0, +1, window)
        assert grid_defect(divisor, 0.0, +1, window).tolist() == [0j]

    def test_gap_between_grid_points_refused(self):
        # three discs of radius 2 whose centres lie 2 + 1e-4 from g leave a
        # triangle about 2e-4 wide around g, between the points of a 0.1 grid
        g = 0.05 + 0.05j
        points = [g + cmath.rect(2 + 1e-4, math.pi / 2 + 2 * math.pi * k / 3) for k in range(3)]
        divisor, window = Divisor(P1, tuple((lam, 4) for lam in points)), Window(1.0, 0.1)
        assert overlap_count_at(divisor, g) == 0
        assert not certifies(divisor, 0.0, +1, window)
        assert coverage_defect(divisor, 0.0, +1, window).size == 0  # the grid's answer
        assert theorem_verdicts(divisor, window, [1e-9])["bare_cover"]["holds"]

    def test_lattice_rim_crescents_refused(self):
        # the unit lattice to R = 10 leaves crescents at the rim that the
        # default step R/100 steps over: the grid says covered, the certificate refuses
        divisor, window = unit_lattice(10.0), Window(10.0, 0.1)
        assert overlap_count_at(divisor, 9.888687 + 1.487905j) == 0
        assert not certifies(divisor, 0.0, +1, window)
        assert grid_defect(divisor, 0.0, +1, window).size == 0
        assert theorem_verdicts(divisor, window, [0.25, 0.5, 1.0])["bare_cover"]["holds"]

    def test_grid_point_on_circle_refused(self):
        # 3 + 4i lies on the circle of the radius-5 disc around 0 (m = 25)
        divisor, window = Divisor(P1, ((0.0, 25),)), Window(5.0, 0.5)
        assert not certifies(divisor, 0.0, +1, window)
        assert 3 + 4j in grid_defect(divisor, 0.0, +1, window)
        assert certifies(divisor, 0.0, +1, Window(4.9, 0.49))

    def test_mask_slack_refused(self):
        # the window mask keeps cells up to R(1 + 1e-12): at step R(1 + 8e-13)/20
        # the 12 cells of modulus R(1 + 8e-13) lie outside a disc of radius
        # R(1 + 5e-13), which holds the window disc itself
        radius, r = 5.0, 5.0 * (1 + 5e-13)
        divisor, window = Divisor(FockParams(1 / (r * r)), ((0.0, 1),)), Window(radius, radius * (1 + 8e-13) / 20)
        assert not certifies(divisor, 0.0, +1, window)
        assert grid_defect(divisor, 0.0, +1, window).size == 12


# far parts past int64 cells (x / reach > 2**63), shared so that far points can meet
_far_part = st.sampled_from([1e20, -1e20, 2.0**63, 1e300, -1e300])


@st.composite
def pair_cases(draw):
    """(divisor, c_list) for the pair screen: lattice points at a spacing of
    1, of the screen's reach at the least C or of its cell side (so on cell
    edges), Pythagorean ties such as 0 and 3 + 4i, and far points sharing a
    part; m of 1 and 2 lose their shrunk discs from C = 1 and 1.42 on."""
    alpha = draw(st.sampled_from([1.0, 0.5, 2.0]))
    c_value = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.floats(0.01, 3.0))
    c_list = sorted(draw(st.lists(c_value, min_size=1, max_size=6)))
    count = draw(st.integers(2, 12))
    mults = draw(st.lists(st.sampled_from([1, 2, 4, 9, 16]), min_size=count, max_size=count))
    reach = 2 * max(disc_radius(m, FockParams(alpha), c_list[0], +1) for m in mults)
    unit = draw(st.sampled_from([1.0, reach, reach * (1 + 2**-20)]))
    small = st.integers(-8, 8)
    spot = st.one_of(
        st.builds(lambda p, q: complex(p * unit, q * unit), small, small),
        st.sampled_from([0j, 3 + 4j, -3 + 4j, 5 + 0j, 4 - 3j]),
        st.builds(complex, _far_part, small),
        st.builds(complex, small, _far_part),
    )
    points = draw(st.lists(spot, min_size=count, max_size=count, unique=True))
    return Divisor(FockParams(alpha), tuple(zip(points, mults))), c_list


@pytest.mark.bitwise
class TestOnePassWitnesses:
    """theorem_verdicts decides both disjointness verdicts at every tested C
    from one pair screen; its witnesses, and pairwise_disjoint's pairs, equal
    the per-C scalar loop's.  The certificate is refused, so the screen runs."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(pair_cases())
    # padded radii 2 and 3 at distance 5: tangent, so disjoint at C = 1 and not past it
    @example((Divisor(P1, ((0j, 1), (3 + 4j, 4))), [1.0, 1.5]))
    # shrunk radii 0.5 and 1.5 tangent at C = 0.5; the third entry is absent from C = 1 on
    @example((Divisor(P1, ((0j, 1), (2.0, 4), (1e20 + 1j, 1), (1e20 + 2j, 1))), [0.5, 1.0]))
    # radii 4 (m = 9) 8(1 - 2**-22) apart, the first just below the edge of the
    # cell of side 8 from 0, so that cells short of the reach would part them
    @example((Divisor(P1, ((0j, 1), (8 - 12 * 2**-20 + 0j, 9), (16 - 14 * 2**-20 + 0j, 9))), [1.0]))
    # padded radii near 1e308: a screen's reach of inf, and parts 2e308 apart
    @example((Divisor(P1, ((1e308 + 0j, 1), (-1e308 + 0j, 1), (0j, 1))), [1e308]))
    def test_witnesses_match_per_c_loop(self, case):
        divisor, c_list = case
        with mock.patch.object(geometry, "_covers", refused):
            v = theorem_verdicts(divisor, Window(2.0, 0.2), c_list)
        for sign, key in ((-1, "shrunk_disjoint"), (+1, "padded_disjoint")):
            expected = [reference_pairwise_disjoint(divisor, c, sign) for c in c_list]
            assert [pairwise_disjoint(divisor, c, sign) for c in c_list] == expected
            ok = [c for c, (holds, _) in zip(c_list, expected) if holds]
            assert v[key] == {"holds": bool(ok), "witness_c": ok[0] if ok else None}


def screened_verdicts(divisor, window, cs):
    """theorem_verdicts, and the reach of each pair screen it made."""
    screens, near = [], geometry._near_pairs

    def counted(points, reach):
        screens.append(reach)
        return near(points, reach)

    with mock.patch.object(geometry, "_near_pairs", counted):
        return theorem_verdicts(divisor, window, cs), screens


class TestCertifiedSkip:
    """A certified check with two kept centres in the window makes no pair
    screen: its discs meet at every tested C, as the scalar loop finds."""

    @pytest.mark.bitwise
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_skipped_screens_find_overlaps(self, rnd):
        divisor, c, _, window = cover_case(rnd)
        cs = [x for x in (c / 2, c) if x > 0]
        if cs and not screened_verdicts(divisor, window, cs)[1]:
            for x in cs:
                for sign in (+1, -1):
                    assert not reference_pairwise_disjoint(divisor, x, sign)[0]

    def test_fixed_cases_skip(self):
        # not vacuous: a fixed set of 100 drawn cases skips the screen at least 10 times
        cases = [cover_case(random.Random(seed)) for seed in range(100)]
        skipped = [not screened_verdicts(d, window, [c])[1] for d, c, _, window in cases if c > 0]
        assert sum(skipped) >= 10


class TestCoversDiscsJustOutside:
    """The certificate has no rim row, so discs that reach the window only by
    rounding, or that miss it and are kept by rounding in its distance
    filter, must fail a circle's row: the point nearest 0 of the disc nearest
    the window is in no other disc and not in the window's exterior."""

    def test_discs_just_outside_refused(self):
        # discs whose centres lie (R' + rho)(1 +- a few ulps) from 0, R' =
        # R(1 + 1e-9) and rho = r(1 - 1e-9) as _covers takes them, with areas
        # above the window's; each family leaves 0 uncovered
        rnd, kept = random.Random(47), 0
        for _ in range(300):
            radius = rnd.choice([1.0, 3.0, rnd.uniform(0.1, 100.0)])
            big, n = radius * (1 + 1e-9), rnd.choice([1, 2, rnd.randint(3, 16)])
            radii = np.array([rnd.uniform(1.01, 2.0) * big / math.sqrt(n) for _ in range(n)])
            rho = radii * (1 - 1e-9)
            ulps = np.array([rnd.randint(-4, 4) for _ in range(n)]) * 2.0**-52
            angles = np.array([rnd.uniform(-math.pi, math.pi) for _ in range(n)])
            points = (big + rho) * (1 + ulps) * np.exp(1j * angles)
            assert np.sum(rho * rho) >= big * big
            kept += bool(np.any(np.hypot(points.real, points.imag) < big + rho))
            assert not geometry._covers(points, radii, radius, math.inf)
        assert kept >= 150  # rounding kept a disc in most families
