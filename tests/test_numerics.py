import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from focklab import (
    Atom,
    Divisor,
    FockFunction,
    FockParams,
    InfeasibleExperimentError,
    MeasurementVector,
    ParameterMismatchError,
    Window,
    analysis_matrix,
    basis_function,
    displaced_basis,
    frame_bounds,
    from_basis_coeffs,
    generate_covering_rings,
    generate_disjoint_rings,
    generate_lattice,
    gram_matrix,
    hole_mass_experiment,
    kernels,
    measurements,
    min_norm_interpolate,
    numerics,
    overlap_matrix,
    riesz_bounds,
)
from focklab.core import LABEL, atom_eval, basis_eval, label_array
from focklab.generators import _rings
from focklab.reports import canonical_json

P1 = FockParams(1.0)


class TestMeasurements:
    def test_atom_at_own_point(self):
        lam = 0.7 - 0.3j
        divisor = Divisor(P1, ((lam, 3),))
        vector = measurements(displaced_basis(lam, 1, P1), divisor)
        assert np.allclose(vector.values, [0, 1, 0], atol=1e-14)

    def test_vacuum_measured_at_displaced_point(self):
        vector = measurements(basis_function(0, P1), Divisor(P1, ((1.0, 1),)))
        assert vector.values[0] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_zero_function(self):
        divisor = Divisor(P1, ((0.0, 2), (1j, 1)))
        from focklab import FockFunction

        vector = measurements(FockFunction(P1, ()), divisor)
        assert np.all(vector.values == 0)

    def test_alpha_mismatch(self):
        with pytest.raises(ParameterMismatchError):
            measurements(basis_function(0, FockParams(2.0)), Divisor(P1, ((0.0, 1),)))


class TestAnalysisMatrix:
    def test_single_point_full_multiplicity_is_identity(self):
        for degree in (3, 7):
            divisor = Divisor(P1, ((0.0, degree + 1),))
            matrix = analysis_matrix(divisor, degree)
            assert np.allclose(matrix.entries, np.eye(degree + 1))

    def test_one_by_one_displacement(self):
        matrix = analysis_matrix(Divisor(P1, ((1.0, 1),)), 0)
        assert matrix.entries[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_path_consistency_with_measurements(self):
        coeffs = np.zeros(9, dtype=complex)
        coeffs[2] = 1.0
        coeffs[5] = 1.0
        f = from_basis_coeffs(coeffs, P1)
        divisor, _ = generate_lattice(1.0, 2.0, 2, 4.0)
        matrix = analysis_matrix(divisor, 8)
        direct = measurements(f, divisor)
        assert np.max(np.abs(matrix.entries @ coeffs - direct.values)) <= 1e-10

    def test_row_norms_at_most_one(self):
        divisor = Divisor(P1, ((0.5 + 0.5j, 2), (-1.0, 1)))
        matrix = analysis_matrix(divisor, 30)
        row_sums = np.sum(np.abs(matrix.entries) ** 2, axis=1)
        assert np.all(row_sums <= 1 + 1e-8)


class TestAnalysisPrefix:
    @pytest.mark.parametrize(
        "generate",
        [lambda: generate_covering_rings(1.0, 1.0, 10.0), lambda: generate_lattice(1.0, 1.0, 3, 3.0)],
        ids=["covering-rings", "lattice"],
    )
    def test_prefixes_equal_fresh_builds_bitwise(self, generate):
        divisor, _ = generate()
        full = analysis_matrix(divisor, 120)
        for degree in range(10, 121, 10):
            prefix, fresh = full.prefix(degree), analysis_matrix(divisor, degree)
            assert prefix.entries.shape == fresh.entries.shape
            assert np.array_equal(prefix.entries.view(np.int64), fresh.entries.view(np.int64))
            assert np.array_equal(prefix.labels, fresh.labels)
            assert (prefix.degree, prefix.divisor_digest) == (fresh.degree, fresh.divisor_digest)
            assert frame_bounds(prefix) == frame_bounds(fresh)

    def test_degree_outside_the_matrix_rejected(self):
        matrix = analysis_matrix(Divisor(P1, ((0.5j, 2),)), 6)
        assert matrix.prefix(0).entries.shape == (2, 1)
        assert matrix.prefix(6).entries.shape == (2, 7)
        with pytest.raises(ValueError, match="degree must be >= 0"):
            matrix.prefix(-1)
        with pytest.raises(ValueError, match="degree must be <= 6"):
            matrix.prefix(7)


class TestFrameBounds:
    def test_trivial_frame(self):
        for degree in (5, 20, 60):
            divisor = Divisor(P1, ((0.0, degree + 1),))
            summary = frame_bounds(analysis_matrix(divisor, degree))
            assert abs(summary["smin"] - 1.0) <= 1e-10
            assert abs(summary["smax"] - 1.0) <= 1e-10
            assert summary["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_rank_deficient_flagged(self):
        divisor = Divisor(P1, ((0.0, 2),))
        summary = frame_bounds(analysis_matrix(divisor, 5))
        assert summary["rank_deficient"]
        assert summary["smin"] == 0.0
        assert math.isinf(summary["ratio"])

    @pytest.mark.parametrize("smin, ratio", [(2.0**-500, 2.0**1000), (1e-160, math.inf)])
    def test_ratio_past_double_range_is_inf(self, smin, ratio):
        # smax / smin = 1e160 is finite, but its square is past the double range;
        # 2**500 squares exactly
        entries = np.diag([1.0, smin]).astype(complex)
        summary = frame_bounds(numerics.AnalysisMatrix(P1, ((0j, 0), (1 + 0j, 0)), 1, entries, "x"))
        assert (summary["smin"], summary["smax"], summary["ratio"]) == (smin, 1.0, ratio)
        assert not summary["rank_deficient"]

    def test_ratio_invariant_under_relabeling(self):
        rng = np.random.default_rng(3)
        pts = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(6)]
        mults = [int(m) for m in rng.integers(1, 4, 6)]
        entries = list(zip(pts, mults))
        divisor = Divisor(P1, tuple(entries))
        permuted = Divisor(P1, tuple(entries[::-1]))
        a = frame_bounds(analysis_matrix(divisor, 10))
        b = frame_bounds(analysis_matrix(permuted, 10))
        assert a["ratio"] == pytest.approx(b["ratio"], rel=1e-10)

    def test_smin_monotone_under_added_points(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            pts = []
            while len(pts) < 5:
                z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                if all(abs(z - p) > 1e-6 for p in pts):
                    pts.append(z)
            mults = [int(m) for m in rng.integers(1, 3, 5)]
            base = Divisor(P1, tuple(zip(pts[:4], mults[:4])))
            bigger = Divisor(P1, tuple(zip(pts, mults)))
            s_base = frame_bounds(analysis_matrix(base, 6))["smin"]
            s_big = frame_bounds(analysis_matrix(bigger, 6))["smin"]
            assert s_big >= s_base - 1e-12

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            frame_bounds(analysis_matrix(Divisor(P1, ()), 4))


class TestRieszBounds:
    def test_identity_gram(self):
        gram = gram_matrix([(0.0, 0), (0.0, 1), (0.0, 2)], P1)
        summary = riesz_bounds(gram)
        assert summary["smin"] == pytest.approx(1.0, abs=1e-12)
        assert summary["smax"] == pytest.approx(1.0, abs=1e-12)
        assert summary["condition"] == pytest.approx(1.0, abs=1e-10)

    def test_condition_number_reported(self):
        gram = gram_matrix([(0.0, 0), (0.5, 0)], P1)
        summary = riesz_bounds(gram)
        assert summary["smin"] < 1 < summary["smax"]
        assert summary["condition"] == pytest.approx(summary["smax"] / summary["smin"], rel=1e-12)


class TestMinNormInterpolate:
    def test_single_point(self):
        divisor = Divisor(P1, ((0.0, 1),))
        data = MeasurementVector(tuple(divisor.atom_labels()), np.array([1.0 + 0j]))
        solution = min_norm_interpolate(divisor, data)
        assert solution.norm == pytest.approx(1.0)
        assert solution.residual <= 1e-12
        assert solution.function.atoms[0].k == 0

    def test_two_point_closed_form(self):
        divisor = Divisor(P1, ((0.0, 1), (4.0, 1)))
        data = MeasurementVector(tuple(divisor.atom_labels()), np.array([1.0 + 0j, 0j]))
        solution = min_norm_interpolate(divisor, data)
        assert solution.norm**2 == pytest.approx(1 / (1 - math.exp(-16)), rel=1e-12)
        assert solution.residual <= 1e-12

    def test_orthonormal_atoms_at_one_point(self):
        divisor = Divisor(P1, ((0.0, 2),))
        data = MeasurementVector(tuple(divisor.atom_labels()), np.array([0j, 1.0 + 0j]))
        solution = min_norm_interpolate(divisor, data)
        assert solution.norm == pytest.approx(1.0)
        assert solution.function.atoms[1].coeff == pytest.approx(1.0)

    def test_solution_measurements_match_data(self):
        divisor, _ = generate_disjoint_rings(1.0, 1.0, 10.0)
        labels = tuple(divisor.atom_labels())
        rng = np.random.default_rng(6)
        data = MeasurementVector(
            labels, rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))
        )
        solution = min_norm_interpolate(divisor, data)
        recovered = measurements(solution.function, divisor)
        assert np.max(np.abs(recovered.values - data.values)) <= 1e-8 * (1 + data.norm())
        assert solution.function.norm() == pytest.approx(solution.norm, rel=1e-9)

    def test_truncation_flag_and_null_space_minimality(self):
        # nearly coincident points make the Gram numerically singular
        divisor = Divisor(P1, ((0.0, 1), (1e-9, 1)))
        labels = tuple(divisor.atom_labels())
        data = MeasurementVector(labels, np.array([1.0 + 0j, 1.0 + 0j]))
        solution = min_norm_interpolate(divisor, data, rcond=1e-6)
        assert solution.truncated
        gram = gram_matrix(labels, P1)
        w, u = np.linalg.eigh(gram.entries)
        null_dirs = u[:, w <= 1e-6 * w[-1]]
        assert null_dirs.shape[1] >= 1
        base = np.array([a.coeff for a in solution.function.atoms])
        base_norm = solution.norm
        rng = np.random.default_rng(1)
        for _ in range(10):
            mix = null_dirs @ (rng.standard_normal(null_dirs.shape[1])
                               + 1j * rng.standard_normal(null_dirs.shape[1]))
            perturbed = base + mix
            norm_sq = float(np.real(perturbed.conj() @ gram.entries @ perturbed))
            assert math.sqrt(max(norm_sq, 0.0)) >= base_norm - 1e-8

    def test_label_mismatch_rejected(self):
        divisor = Divisor(P1, ((0.0, 1), (1.0, 1)))
        bad = MeasurementVector(((0.0, 0),), np.array([1.0 + 0j]))
        with pytest.raises(ValueError):
            min_norm_interpolate(divisor, bad)

    def test_labels_accepted_as_label_array_pairs_or_signed_zeros(self):
        divisor = Divisor(P1, ((0j, 2), (1.5 - 0.5j, 1)))
        values = np.array([1.0, 0.5j, -1.0])
        pairs = ((0.0, 0), (0.0, 1), (1.5 - 0.5j, 0))
        signed = ((complex(-0.0, -0.0), 0), (complex(0.0, -0.0), 1), (1.5 - 0.5j, 0))
        reference = min_norm_interpolate(divisor, MeasurementVector(pairs, values))
        for labels in (divisor.atom_labels(), label_array(divisor.atom_labels()), pairs, signed):
            data = MeasurementVector(labels, values)
            assert data.labels.dtype == LABEL
            solution = min_norm_interpolate(divisor, data)
            assert [(a.lam, a.k) for a in solution.function.atoms] == list(pairs)
            assert solution.norm == reference.norm

    @pytest.mark.parametrize(
        "labels",
        [
            ((0.0, 1), (0.0, 0), (1.5 - 0.5j, 0)),  # reordered
            ((0.0, 0), (0.0, 1)),  # shortened
            ((0.0, 0), (0.0, 1), (1.5 - 0.5j, 1)),  # another degree
        ],
        ids=["reordered", "shortened", "degree"],
    )
    def test_mismatched_labels_refused(self, labels):
        divisor = Divisor(P1, ((0j, 2), (1.5 - 0.5j, 1)))
        data = MeasurementVector(labels, np.ones(len(labels)))
        with pytest.raises(ValueError, match="^measurement labels do not match the divisor$"):
            min_norm_interpolate(divisor, data)

    def test_nan_point_labels_refused(self):
        # a divisor refuses a NaN point, and a NaN label equals none of its labels
        with pytest.raises(ValueError, match="^divisor points must be finite$"):
            Divisor(P1, ((complex(math.nan, 0.0), 1), (1.0, 1)))
        divisor = Divisor(P1, ((0j, 1), (1.0, 1)))
        labels = divisor.atom_labels()
        labels["point"][0] = complex(math.nan, 0.0)
        data = MeasurementVector(labels, np.ones(2))
        with pytest.raises(ValueError, match="^measurement labels do not match the divisor$"):
            min_norm_interpolate(divisor, data)

    def test_bad_rcond_rejected(self):
        divisor = Divisor(P1, ((0.0, 1),))
        data = MeasurementVector(tuple(divisor.atom_labels()), np.array([1.0 + 0j]))
        with pytest.raises(ValueError):
            min_norm_interpolate(divisor, data, rcond=0.0)

    def test_empty_divisor_rejected(self):
        data = MeasurementVector((), np.array([], dtype=complex))
        with pytest.raises(ValueError):
            min_norm_interpolate(Divisor(P1, ()), data)


class TestHoleMass:
    def test_empty_divisor_baseline(self):
        # unconstrained: the vacuum concentrates in any window containing 0
        value = hole_mass_experiment(Divisor(P1, ()), 3, 2.0)
        assert value == pytest.approx(1 - math.exp(-4), rel=1e-10)

    def test_central_point_matches_incomplete_gamma(self):
        # constraints kill c_0..c_3, so the best survivor is e_4
        for radius in (2.0, 1.5):
            value = hole_mass_experiment(Divisor(P1, ((0.0, 4),)), 8, radius)
            assert value == pytest.approx(float(gammainc(5, radius**2)), rel=1e-8)

    def test_decreasing_as_window_shrinks(self):
        divisor = Divisor(P1, ((0.0, 4),))
        big = hole_mass_experiment(divisor, 8, 2.0)
        small = hole_mass_experiment(divisor, 8, 1.5)
        assert small < big < 1

    def test_infeasible_constraints_rejected(self):
        with pytest.raises(InfeasibleExperimentError):
            hole_mass_experiment(Divisor(P1, ((0.0, 4),)), 3, 2.0)

    def test_covering_divisor_expels_vanishing_functions(self):
        from focklab import generate_covering_rings

        divisor, _ = generate_covering_rings(1.0, 0.5, 3.0)
        degree = divisor.total_multiplicity() + 8
        value = hole_mass_experiment(divisor, degree, 3.0)
        baseline = hole_mass_experiment(Divisor(P1, ()), degree, 3.0)
        # FIXTURE: first verified run gave value ~1.1e-22 against baseline ~0.9999;
        # assert a conservative suppression factor
        assert baseline > 0.99
        assert value <= baseline * 1e-12


class TestWindowMasses:
    @pytest.mark.parametrize(
        "degree,x",
        [
            (60, 1e-4),  # x << 1: masses fall to ~1e-299
            (145, 0.5),
            (90, 9.0),
            (90, 90.0),  # x near the degree
            (120, 100.0),
            (40, 45.0),  # x above the degree: one minus the lower sums
            (40, 400.0),  # x >> degree
        ],
    )
    def test_against_incomplete_gamma(self, degree, x):
        from focklab.numerics import _window_masses

        radius = math.sqrt(x)
        got = _window_masses(degree, radius, P1)
        ref = gammainc(np.arange(1, degree + 2), x)
        assert got.shape == ref.shape
        kept = ref >= 1e-300
        if x < 1:
            assert ref[kept].min() < 1e-290
        assert np.all(np.abs(got[kept] - ref[kept]) <= 1e-12 * ref[kept])

    @pytest.mark.parametrize("degree", [0, 1, 40, 171, 2000])
    @pytest.mark.parametrize("x", [1e-4, 0.5, 9.0, 41.5, 400.0, 1e6])
    def test_bits_equal_list_spelling(self, degree, x):
        from focklab.numerics import _window_masses

        radius = math.sqrt(x)
        x = radius**2  # alpha * R**2 at alpha = 1, as the masses read it

        def poisson(counts):  # each log n! from a list, the spelling the table replaced
            log_fact = np.array([math.lgamma(n + 1) for n in counts])
            return np.exp(-x + counts * math.log(x) - log_fact)

        if x > degree + 1:
            listed = 1.0 - np.cumsum(poisson(np.arange(degree + 1)))
        else:
            top = degree + 1 + math.ceil(12 * math.sqrt(x) + 40)
            listed = np.cumsum(poisson(np.arange(top, 0, -1)))[::-1][: degree + 1]
        got = _window_masses(degree, radius, P1)
        assert got.tobytes() == listed.tobytes()

    def test_alpha_enters_through_alpha_r_squared(self):
        from focklab.numerics import _window_masses

        a = _window_masses(30, 2.0, FockParams(2.0))
        b = _window_masses(30, math.sqrt(8.0), P1)
        assert np.allclose(a, b, rtol=1e-13, atol=0)

    def test_underflowed_alpha_r_squared_gives_zero_masses(self):
        from focklab.numerics import _window_masses

        # alpha*R^2 = 1e-320 is subnormal, and the log-domain terms still hold
        # P(1, x) = x; below about R = 1e-162 it is 0.0, where P(n+1, 0) = 0
        tiny = _window_masses(5, 1e-160, P1)
        assert tiny.tolist() == [1e-320, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert _window_masses(5, 1e-170, P1).tolist() == [0.0] * 6
        divisor = Divisor(P1, ((0.0, 1),))
        assert hole_mass_experiment(divisor, 5, 1e-300) == 0.0

    def test_overflowed_alpha_r_squared_gives_unit_masses(self):
        from focklab.numerics import _window_masses

        # R^2 or alpha*R^2 past the double range is inf, where P(n+1, inf) = 1;
        # R^2 past it with alpha*R^2 = 22.5 keeps its incomplete gamma
        assert _window_masses(5, 1e160, P1).tolist() == [1.0] * 6
        assert _window_masses(5, 1e150, FockParams(1e10)).tolist() == [1.0] * 6
        got = _window_masses(40, 1.5e154, FockParams(1e-307))
        ref = gammainc(np.arange(1, 42), 22.5)
        assert np.all(np.abs(got - ref) <= 1e-12 * ref)


def _rule_refusals() -> dict:
    """Each caller of the positive rule (core.require_positive), of the
    multiplicity rule (geometry.require_multiplicities) and of the index rule
    (core.require_index) on each value it refuses, by id: (call, error,
    exact message)."""
    one = Divisor(P1, ((0.0, 1),))
    data = MeasurementVector(((0.0, 0),), np.ones(1))
    positive = {
        "window": ("window radius", lambda v: Window(v, 0.1)),
        "hole-mass": ("window radius", lambda v: hole_mass_experiment(one, 4, v)),
        "rcond": ("rcond", lambda v: min_norm_interpolate(one, data, rcond=v)),
        "lattice-spacing": ("spacing", lambda v: generate_lattice(1.0, v, 1, 4.0)),
        "covering-c": ("c", lambda v: generate_covering_rings(1.0, v, 4.0)),
        "covering-radius": ("radius", lambda v: generate_covering_rings(1.0, 1.0, v)),
        "disjoint-c": ("c", lambda v: generate_disjoint_rings(1.0, v, 4.0)),
        "disjoint-radius": ("radius", lambda v: generate_disjoint_rings(1.0, 1.0, v)),
        "sup-norm-step": ("step", lambda v: basis_function(0, P1).sup_norm_estimate(2.0, v)),
        "oracle-radius": ("radius", lambda v: kernels.quadrature_inner_oracle(*[basis_function(0, P1)] * 2, v)),
    }
    cases = {}
    for caller, (name, call) in positive.items():
        for text in ("nan", "0", "-0.0", "-1", "inf", "-inf"):
            value = float(text)
            message = f"{name} must be {'finite' if value == math.inf else 'positive'}"
            cases[f"{caller}-{text}"] = (lambda call=call, v=value: call(v), ValueError, message)
    mult = {
        "divisor": lambda m: Divisor(P1, ((0.0, m),)),
        "rings": lambda m: _rings("covering-rings", P1, 1.0, 1.0, [{"rho": 0.0, "count": 1, "mult": m}]),
        "lattice": lambda m: generate_lattice(1.0, 1.0, m, 4.0),
    }
    for caller, call in mult.items():
        for text, m in (("0", 0), ("2.5", 2.5), ("nan", math.nan), ("2**63", 2**63), ("2**64", 2**64)):
            message = "multiplicities must be integers m with 1 <= m < 2**63"
            if caller == "lattice" and m == 0:  # the lattice's own check comes first
                message = "mult must be >= 1"
            cases[f"{caller}-mult-{text}"] = (lambda call=call, m=m: call(m), ValueError, message)
    e0 = basis_function(0, P1)
    index = {
        "analysis-degree": ("degree", 0, lambda v: analysis_matrix(one, v)),
        "prefix-degree": ("degree", 0, lambda v: analysis_matrix(one, 4).prefix(v)),
        "hole-mass-degree": ("degree", 0, lambda v: hole_mass_experiment(one, v, 1.0)),
        "to-basis-n-max": ("n_max", 0, lambda v: e0.to_basis_coeffs(v)),
        "basis-eval-k": ("basis index k", 0, lambda v: basis_eval(v, 0.5, P1)),
        "atom-k": ("basis index k", 0, lambda v: Atom(0.0, v)),
        "oracle-n-r": ("n_r", 8, lambda v: kernels.quadrature_inner_oracle(e0, e0, 8.0, v, 16)),
        "oracle-n-theta": ("n_theta", 8, lambda v: kernels.quadrature_inner_oracle(e0, e0, 8.0, 16, v)),
    }
    # a float is refused, even an integral one: an index counts basis states
    fractional = {"2.5": 2.5, "3.0": 3.0, "float64-3": np.float64(3), "nan": math.nan, "inf": math.inf}
    for caller, (name, least, call) in index.items():
        cases[f"{caller}--1"] = (lambda call=call: call(-1), ValueError, f"{name} must be >= {least}")
        for text, v in fractional.items():
            cases[f"{caller}-{text}"] = (lambda call=call, v=v: call(v), ValueError, f"{name} must be an integer")
    return cases


_RULE_REFUSALS = _rule_refusals()


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: Divisor(P1, ((0.0, 1),)) == 3, None, None),
        (
            lambda: kernels.quadrature_inner_oracle(
                basis_function(0, P1), basis_function(0, FockParams(2.0))
            ),
            ParameterMismatchError,
            "inner-product arguments must share alpha",
        ),
        (
            lambda: kernels.quadrature_inner_oracle(basis_function(0, P1), basis_function(0, P1), 0.0),
            ValueError,
            "radius must be positive",
        ),
        (
            lambda: MeasurementVector(((0.0, 0), (1.0, 0)), np.zeros(3)),
            ValueError,
            "values must be one entry per label",
        ),
        (lambda: analysis_matrix(Divisor(P1, ((0.0, 1),)), -1), ValueError, "degree must be >= 0"),
        *_RULE_REFUSALS.values(),
    ],
    ids=["divisor-eq-other-type", "oracle-alpha", "oracle-radius", "values-count", "degree", *_RULE_REFUSALS],
)
def test_library_refusals(call, error, message):
    if error is None:  # not a refusal: a divisor is unequal to any other type
        assert call() is False
        return
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def _index_entry_points() -> dict:
    """Each library entry point that takes a degree, basis index or node
    count, as a function of that integer giving the bytes of its result."""
    d = Divisor(P1, ((0.5 + 0.5j, 2), (-1.0, 3)))
    f = displaced_basis(0.5 - 1j, 2, P1, 0.75 + 0.5j)
    z = np.array([0.3 - 0.7j, 1.5 + 0.25j, 0j])

    def spectrum(matrix) -> bytes:
        return matrix.entries.tobytes() + canonical_json(frame_bounds(matrix)).encode()

    def coefficients(c) -> bytes:
        return c.coeffs.tobytes() + np.float64(c.defect).tobytes()

    return {
        "atom": lambda n: repr(Atom(0.5j, n, 2.0)).encode() + atom_eval(Atom(0.5j, n, 2.0), z, P1).tobytes(),
        "basis-eval": lambda n: basis_eval(n, z, P1).tobytes(),
        "to-basis-coeffs": lambda n: coefficients(f.to_basis_coeffs(n)),
        "analysis-matrix": lambda n: spectrum(analysis_matrix(d, n)),
        "prefix": lambda n: spectrum(analysis_matrix(d, 8).prefix(n)),
        "hole-mass": lambda n: np.float64(hole_mass_experiment(d, n + 3, 1.5)).tobytes(),
        "oracle": lambda n: np.complex128(kernels.quadrature_inner_oracle(f, f, 6.0, n + 13, n + 29)).tobytes(),
    }


@pytest.mark.parametrize("entry", list(_index_entry_points()))
@pytest.mark.parametrize("numpy_int", [np.int64, np.int32, np.uint8])
def test_numpy_integer_index_equals_int_bitwise(entry, numpy_int):
    call = _index_entry_points()[entry]
    assert call(numpy_int(3)) == call(3)


def test_numpy_degree_report_bytes():
    d = Divisor(P1, ((0.5 + 0.5j, 2), (-1.0, 3)))
    assert canonical_json(frame_bounds(analysis_matrix(d, np.int64(3)))) == (
        '{"degree":3,"smin":0.504867591858,"smax":1.38967689672,"ratio":7.57657083073,'
        '"rank_deficient":false,"divisor_digest":"4ab3a3398ab2"}'
    )


def test_measurements_sum_atoms_in_order_with_scalar_products():
    # the values are bit-identical to a plain Python sum over the atoms
    from focklab import Atom, FockFunction, atom_pair_inner

    rng = np.random.default_rng(44)
    divisor, _ = generate_lattice(1.0, 1.5, 2, 4.0)
    atoms = tuple(
        Atom(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), int(rng.integers(0, 4)),
             complex(rng.standard_normal(), rng.standard_normal()))
        for _ in range(9)
    )
    f = FockFunction(P1, atoms)
    got = measurements(f, divisor).values
    for i, (lam, k) in enumerate(divisor.atom_labels()):
        acc = 0j
        for a in atoms:
            acc += a.coeff * atom_pair_inner(a.lam, a.k, lam, k, P1)
        assert got[i] == acc


@st.composite
def interpolation_cases(draw):
    # small divisors whose points may sit 1e-9 to 1e-5 apart, so the Gram is
    # numerically singular and the interpolation truncates
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0]))
    points = []
    for _ in range(draw(st.integers(1, 4))):
        base = complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3))) * 0.75
        if points and draw(st.booleans()):
            base = points[draw(st.integers(0, len(points) - 1))]
            base += draw(st.sampled_from([1e-9, 1e-7, 1e-5j, -1e-6 + 1e-6j]))
        if base not in points:
            points.append(base)
    entries = tuple((lam, draw(st.integers(1, 4))) for lam in points)
    divisor = Divisor(FockParams(alpha), entries)
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    labels = tuple(divisor.atom_labels())
    values = [complex(draw(unit), draw(unit)) for _ in labels]
    return divisor, MeasurementVector(labels, np.array(values, dtype=complex))


def _bits(x) -> bytes:
    return np.asarray(x).tobytes()


class TestInterpolantNormMemo:
    """An interpolant carries <f, f> from min_norm_interpolate; every value
    read from it equals, bit for bit, what a fresh function with its atoms
    computes, and the memo shows in no comparison, hash, repr or copy."""

    @settings(max_examples=80, deadline=None)
    @given(interpolation_cases())
    @example((Divisor(P1, ((0.0, 3), (1e-7, 2), (1.5j, 1))),
              MeasurementVector(((0j, 0), (0j, 1), (0j, 2), (1e-7 + 0j, 0), (1e-7 + 0j, 1),
                                 (1.5j, 0)),
                                np.array([1, 0.5j, -0.25, 1, -0.5j, 0.75 + 0.25j]))))
    def test_primed_memo_is_bit_identical(self, case):
        divisor, data = case
        solution = min_norm_interpolate(divisor, data)
        fresh = FockFunction(divisor.params, solution.function.atoms)
        assert _bits(solution.function.norm()) == _bits(fresh.norm())
        got, want = solution.function.to_basis_coeffs(6), fresh.to_basis_coeffs(6)
        assert _bits(got.coeffs) == _bits(want.coeffs)
        assert _bits(got.defect) == _bits(want.defect)

    def test_one_gram_per_round_trip(self, monkeypatch):
        original = kernels.overlap_matrix
        builds = []

        def spy(rows, cols, params):
            rows, cols = list(rows), list(cols)
            if rows == cols:
                builds.append(len(rows))
            return original(rows, cols, params)

        monkeypatch.setattr(kernels, "overlap_matrix", spy)
        monkeypatch.setattr(numerics, "overlap_matrix", spy)
        divisor, _ = generate_disjoint_rings(1.0, 1.0, 8.0)
        f = FockFunction(P1, (Atom(0.5 - 1j, 2, 1.0 - 0.5j), Atom(3.0 + 2j, 0, 0.25j)))
        solution = min_norm_interpolate(divisor, measurements(f, divisor))
        solution.function.norm()
        solution.function.to_basis_coeffs(20)
        assert builds == [divisor.total_multiplicity()]

    def test_fresh_function_computes_inner_once(self, monkeypatch):
        calls = []
        original = FockFunction.inner

        def counting(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(FockFunction, "inner", counting)
        f = FockFunction(P1, (Atom(0.5, 1, 2.0), Atom(-1j, 3, 1j)))
        first = f.norm()
        assert f.norm() == first
        f.to_basis_coeffs(4)
        assert len(calls) == 1

    def test_memo_is_invisible(self):
        divisor = Divisor(P1, ((0.0, 2), (1.5 + 0.5j, 1)))
        data = MeasurementVector(tuple(divisor.atom_labels()), np.array([1, 0.5j, -1]))
        primed = min_norm_interpolate(divisor, data).function
        plain = FockFunction(P1, primed.atoms)
        for f in (primed, copy.copy(primed), pickle.loads(pickle.dumps(primed))):
            assert f == plain and hash(f) == hash(plain) and repr(f) == repr(plain)
            assert _bits(f.norm()) == _bits(plain.norm())
        assert primed != FockFunction(P1, primed.atoms[:-1])


def accumulated_measurements(f, divisor):
    # the two-line spelling: each atom's column added with the scalar complex
    # product written out, real and imaginary parts apart
    overlaps = overlap_matrix(divisor.atom_labels(), f.atom_labels(), f.params)
    values = np.zeros(overlaps.shape[0], dtype=complex)
    for c, column in zip(f.atom_coeffs(), overlaps.T):
        values.real += c.real * column.real - c.imag * column.imag
        values.imag += c.real * column.imag + c.imag * column.real
    return values


@st.composite
def measurement_cases(draw):
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0]))
    part = st.floats(-3.0, 3.0, allow_nan=False)
    points = draw(st.lists(st.builds(complex, part, part), min_size=1, max_size=5, unique=True))
    divisor = Divisor(FockParams(alpha), tuple((lam, draw(st.integers(1, 4))) for lam in points))
    coeff = st.floats(-1e3, 1e3, allow_nan=False)
    atoms = draw(st.lists(
        st.builds(Atom, st.builds(complex, part, part), st.integers(0, 8), st.builds(complex, coeff, coeff)),
        max_size=8,
    ))
    return FockFunction(FockParams(alpha), tuple(atoms)), divisor


@pytest.mark.bitwise
class TestMeasurementsReference:
    @settings(max_examples=150, deadline=None)
    @given(measurement_cases())
    def test_bits_equal_two_line_accumulation(self, case):
        f, divisor = case
        assert measurements(f, divisor).values.tobytes() == accumulated_measurements(f, divisor).tobytes()


class TestAnalysisLabels:
    def test_row_side_builds_no_tuples(self):
        # one point of multiplicity 2**20: its labels are one 24 MiB array,
        # built with no Python object per label (a list of tuples peaked at
        # 96 MiB); at multiplicity 2**18 (tracing slows the kernel walk) the
        # degree-0 analysis matrix peaks at a few times its 4 MiB of entries
        # (13 times through tuples)
        analysis_matrix(Divisor(P1, ((0.5 - 0.25j, 3),)), 2)
        tracemalloc.start()
        try:
            labels = Divisor(P1, ((0.5 - 0.25j, 2**20),)).atom_labels()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels.dtype == LABEL and labels.nbytes == 24 * 2**20
        assert peak < 2 * labels.nbytes
        del labels
        divisor = Divisor(P1, ((0.5 - 0.25j, 2**18),))
        tracemalloc.start()
        try:
            matrix = analysis_matrix(divisor, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * matrix.entries.nbytes
        assert matrix.labels["n"][-1] == 2**18 - 1

    def test_basis_side_builds_no_tuples(self):
        # the basis labels are one array, so the build peaks at a few times
        # the matrix bytes (18.7 times with a list of (0.0, n) tuples)
        divisor = Divisor(P1, ((0.5 - 0.25j, 1),))
        analysis_matrix(divisor, 10)
        tracemalloc.start()
        try:
            matrix = analysis_matrix(divisor, 50_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * matrix.entries.nbytes
