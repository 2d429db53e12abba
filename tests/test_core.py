import math

import numpy as np
import pytest

from focklab import (
    Atom,
    FockFunction,
    FockParams,
    ParameterMismatchError,
    atom_eval,
    basis_eval,
    basis_function,
    compose_phase,
    displaced_basis,
    from_basis_coeffs,
    quadrature_inner_oracle,
)

P1 = FockParams(1.0)


def random_function(rng, params, max_atoms=10, max_k=6, spread=3.0):
    n = int(rng.integers(1, max_atoms + 1))
    atoms = []
    for _ in range(n):
        lam = complex(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
        k = int(rng.integers(0, max_k + 1))
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        atoms.append(Atom(lam, k, coeff))
    return FockFunction(params, tuple(atoms))


class TestBasisEval:
    def test_degree_zero_is_one_everywhere(self):
        assert basis_eval(0, 3 + 4j, P1) == 1
        assert basis_eval(0, 0.0, P1) == 1

    def test_degree_two_at_one(self):
        assert basis_eval(2, 1.0, P1) == pytest.approx(1 / math.sqrt(2), rel=1e-14)

    def test_large_degree_matches_log_sum_oracle(self):
        # ln k! summed term by term, independent of lgamma
        k, z = 200, 10.0
        log_fact = sum(math.log(i) for i in range(1, k + 1))
        oracle = math.exp(k * math.log(z) - 0.5 * log_fact)
        value = basis_eval(k, z, P1)
        assert math.isfinite(abs(value))
        assert abs(value - oracle) <= 1e-10 * oracle

    def test_degree_five_hundred_stays_finite(self):
        # naive sqrt(a^k/k!) * z^k would overflow through z^k here
        for z in (10.0, 5 - 5j):
            value = basis_eval(500, z, P1)
            assert math.isfinite(abs(value))
            log_fact = sum(math.log(i) for i in range(1, 501))
            oracle = math.exp(500 * math.log(abs(z)) - 0.5 * log_fact)
            assert abs(abs(value) - oracle) <= 1e-9 * oracle

    def test_small_degrees_match_exact_factorials(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = int(rng.integers(0, 30))
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            exact = math.sqrt(alpha**k / math.factorial(k)) * z**k
            got = basis_eval(k, z, FockParams(alpha))
            assert abs(got - exact) <= 1e-12 * (1 + abs(exact))

    def test_array_input_and_zero_handling(self):
        z = np.array([0.0, 1.0, 2j])
        out = basis_eval(3, z, P1)
        assert out.shape == (3,)
        assert out[0] == 0
        assert out[1] == pytest.approx(1 / math.sqrt(6))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            basis_eval(-1, 0.0, P1)


class TestAtomEval:
    def test_undisplaced_atom_is_basis_value(self):
        assert atom_eval(Atom(0.0, 1, 1.0), 1.0, P1) == pytest.approx(1.0)

    def test_displaced_vacuum_at_origin(self):
        got = atom_eval(Atom(1.0, 0, 1.0), 0.0, P1)
        assert got == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_imaginary_displacement_value(self):
        got = atom_eval(Atom(1j, 0, 1.0), 1j, P1)
        assert got == pytest.approx(math.exp(0.5), rel=1e-14)

    def test_matches_basis_series_oracle(self):
        # T_z e_0 expands as sum_j (sqrt(a)*conj(z))^j e^{-a|z|^2/2}/sqrt(j!) e_j
        lam = 1j
        zeta = 1j
        series = 0j
        for j in range(60):
            c_j = lam.conjugate() ** j * math.exp(-0.5) / math.sqrt(math.factorial(j))
            series += c_j * basis_eval(j, zeta, P1)
        got = atom_eval(Atom(lam, 0, 1.0), zeta, P1)
        assert abs(got - series) <= 1e-12


class TestEvaluate:
    def test_empty_function_is_zero(self):
        f = FockFunction(P1, ())
        assert f.evaluate(2.3 - 1j) == 0
        assert f.norm() == 0.0

    def test_sum_of_basis_values(self):
        f = basis_function(0, P1) + basis_function(1, P1)
        assert f.evaluate(1.0) == pytest.approx(2.0)

    def test_displaced_vacuum(self):
        f = displaced_basis(1.0, 0, P1)
        assert f.evaluate(0.0) == pytest.approx(math.exp(-0.5))


class TestComposePhase:
    def test_identity_displacement(self):
        phase, shift = compose_phase(0.0, 2 + 3j, P1)
        assert phase == 1
        assert shift == 2 + 3j

    def test_collinear_real_arguments(self):
        phase, shift = compose_phase(1.0, 1.0, FockParams(2.0))
        assert phase == pytest.approx(1.0)
        assert shift == 2.0

    def test_unit_modulus(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            phase, _ = compose_phase(w, z, FockParams(float(rng.uniform(0.2, 4))))
            assert abs(abs(phase) - 1.0) <= 1e-15

    def test_against_pointwise_grid_oracle(self):
        # compare T_w(T_z f) with phase * T_{w+z} f pointwise for f = e_0
        w, z = 1j, 1.0
        phase, shift = compose_phase(w, z, P1)
        assert phase == pytest.approx(complex(math.cos(1), -math.sin(1)), rel=1e-14)
        f = basis_function(0, P1)
        g = f.translate(z)
        lhs = g.translate(w)
        rhs = f.translate(shift)
        for zeta in np.linspace(-2, 2, 20):
            a = lhs.evaluate(complex(zeta, 0.3))
            b = phase * rhs.evaluate(complex(zeta, 0.3))
            assert abs(a - b) <= 1e-10 * (1 + abs(b))


class TestTranslate:
    def test_zero_shift_is_identity(self):
        f = basis_function(0, P1)
        assert f.translate(0.0).atoms == f.atoms

    def test_shift_of_vacuum(self):
        f = basis_function(0, P1).translate(1.0)
        (atom,) = f.atoms
        assert atom.lam == 1.0 and atom.k == 0 and atom.coeff == 1.0
        assert f.evaluate(0.0) == pytest.approx(math.exp(-0.5))

    def test_phase_accumulation_against_evaluation(self):
        f = displaced_basis(1.0, 0, P1)
        g = f.translate(1j)
        (atom,) = g.atoms
        assert atom.lam == 1 + 1j
        assert atom.coeff == pytest.approx(complex(math.cos(1), -math.sin(1)))
        # pointwise oracle: T_w f(zeta) = exp(a*conj(w)*zeta - a|w|^2/2) f(zeta - w)
        rng = np.random.default_rng(0)
        for _ in range(20):
            zeta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            direct = np.exp(1 * (-1j) * zeta - 0.5) * f.evaluate(zeta - 1j)
            assert abs(g.evaluate(zeta) - direct) <= 1e-10 * (1 + abs(direct))


class TestInnerAndNorm:
    def test_orthonormality(self):
        for j in range(6):
            for k in range(6):
                val = basis_function(j, P1).inner(basis_function(k, P1))
                assert abs(val - (1.0 if j == k else 0.0)) <= 1e-12

    def test_displaced_vacuum_against_quadrature(self):
        f = displaced_basis(1.0, 0, P1)
        e0 = basis_function(0, P1)
        closed = f.inner(e0)
        quad = quadrature_inner_oracle(f, e0, radius=10.0, n_r=96, n_theta=192)
        assert closed == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert abs(closed - quad) <= 1e-8

    def test_two_displaced_vacua(self):
        a = displaced_basis(0.0, 0, P1)
        b = displaced_basis(1.0, 0, P1)
        val = a.inner(b)
        assert val.imag == pytest.approx(0.0, abs=1e-15)
        assert val.real == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            f = random_function(rng, P1, max_atoms=5)
            g = random_function(rng, P1, max_atoms=5)
            lhs = f.inner(g)
            rhs = g.inner(f).conjugate()
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_inner_self_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            f = random_function(rng, P1)
            val = f.inner(f)
            assert abs(val.imag) <= 1e-12 * (1 + abs(val))
            assert val.real >= -1e-12

    def test_parseval_for_basis_supported_functions(self):
        f = basis_function(0, P1) + basis_function(1, P1)
        assert f.norm() == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_atom_norms_are_one(self):
        for lam, k in [(0.0, 0), (2.0, 3), (1 - 2j, 7)]:
            assert displaced_basis(lam, k, P1).norm() == pytest.approx(1.0, rel=1e-12)

    def test_two_atom_closed_form_and_quadrature(self):
        f = basis_function(0, P1) + displaced_basis(4.0, 0, P1)
        expected = math.sqrt(2 + 2 * math.exp(-8))
        assert f.norm() == pytest.approx(expected, rel=1e-12)
        quad = quadrature_inner_oracle(f, f, radius=12.0, n_r=96, n_theta=192)
        assert abs(quad.real - expected**2) <= 1e-8

    def test_alpha_mismatch_rejected(self):
        with pytest.raises(ParameterMismatchError):
            basis_function(0, P1).inner(basis_function(0, FockParams(2.0)))


class TestIsometry:
    def test_translation_preserves_norm(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            f = random_function(rng, P1)
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            n0 = f.norm()
            n1 = f.translate(z).norm()
            assert abs(n1 - n0) <= 1e-9 * n0


class TestBasisCoefficients:
    def test_pure_basis_projection(self):
        coeffs = basis_function(3, P1).to_basis_coeffs(5)
        assert np.allclose(coeffs.coeffs, [0, 0, 0, 1, 0, 0])
        assert abs(coeffs.defect) <= 1e-14

    def test_displaced_vacuum_low_degree(self):
        coeffs = displaced_basis(1.0, 0, P1).to_basis_coeffs(0)
        assert coeffs.coeffs[0] == pytest.approx(math.exp(-0.5), rel=1e-12)
        assert coeffs.defect == pytest.approx(1 - math.exp(-1), rel=1e-10)

    def test_displaced_vacuum_taylor_oracle(self):
        # c_j = (sqrt(a)*conj(z))^j exp(-a|z|^2/2)/sqrt(j!)
        z = 0.7 + 0.4j
        coeffs = displaced_basis(z, 0, P1).to_basis_coeffs(12)
        for j in range(13):
            oracle = z.conjugate() ** j * math.exp(-abs(z) ** 2 / 2) / math.sqrt(math.factorial(j))
            assert abs(coeffs.coeffs[j] - oracle) <= 1e-12

    def test_defect_small_at_high_degree(self):
        coeffs = displaced_basis(1.0, 0, P1).to_basis_coeffs(40)
        assert -1e-12 <= coeffs.defect <= 1e-12

    def test_defect_nonnegative_and_decreasing(self):
        rng = np.random.default_rng(8)
        f = random_function(rng, P1, max_atoms=4, max_k=3, spread=1.5)
        defects = [f.to_basis_coeffs(n).defect for n in (2, 6, 10, 20)]
        norm_sq = f.norm() ** 2
        for d in defects:
            assert d >= -1e-10 * (1 + norm_sq)
        for lo, hi in zip(defects[1:], defects[:-1]):
            assert lo <= hi + 1e-10 * (1 + norm_sq)

    def test_round_trip_through_basis(self):
        coeffs = np.array([0.5, 0, -1j, 2.0])
        f = from_basis_coeffs(coeffs, P1)
        back = f.to_basis_coeffs(3)
        assert np.allclose(back.coeffs, coeffs, atol=1e-14)
        assert f.norm() ** 2 == pytest.approx(float(np.sum(np.abs(coeffs) ** 2)), rel=1e-12)


class TestSupNormEstimate:
    def test_vacuum_peaks_at_origin(self):
        assert basis_function(0, P1).sup_norm_estimate(2.0, 0.05) == pytest.approx(1.0)

    def test_degree_one_peak_on_unit_circle(self):
        # r*exp(-r^2/2) is maximal at r = 1
        got = basis_function(1, P1).sup_norm_estimate(3.0, 0.01)
        assert got == pytest.approx(math.exp(-0.5), abs=1e-3)
        assert got <= math.exp(-0.5) + 1e-12

    def test_displaced_vacuum_peak_at_displacement(self):
        got = displaced_basis(2.0, 0, P1).sup_norm_estimate(4.0, 0.01)
        assert got == pytest.approx(1.0, abs=1e-6)
        assert got <= 1.0 + 1e-9

    def test_monotone_in_radius(self):
        f = displaced_basis(1.5, 2, P1)
        values = [f.sup_norm_estimate(r, 0.05) for r in (1.0, 2.0, 3.0, 4.0)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


    def test_coarse_and_degenerate_squares(self):
        f = displaced_basis(0.5, 1, P1)
        origin = abs(f.evaluate(0.0))
        assert f.sup_norm_estimate(0.0, 0.1) == origin
        assert f.sup_norm_estimate(1.0, 5.0) == origin

    def test_oversized_square_refused_before_evaluation(self, monkeypatch):
        def refuse(self, zeta):
            raise AssertionError(f"evaluated on {np.shape(zeta)}")

        monkeypatch.setattr(FockFunction, "evaluate", refuse)
        f = basis_function(0, P1)
        # sides of 2049 and 2051 points: 4,198,401 and 4,206,601 cells > 2**22
        for radius, step in ((1.0, 1 / 1024), (1025.0, 1.0), (1e300, 1e-300)):
            with pytest.raises(ValueError, match="grid cells"):
                f.sup_norm_estimate(radius, step)


class TestMerging:
    def test_duplicates_summed_and_zeros_dropped(self):
        f = FockFunction(
            P1,
            (
                Atom(1.0, 2, 1.0),
                Atom(1.0, 2, 2.0),
                Atom(0.0, 0, 1.0),
                Atom(0.0, 0, -1.0),
            ),
        )
        merged = f.merged()
        assert merged.atoms == (Atom(1.0, 2, 3.0),)

    def test_evaluation_invariant_under_merging(self):
        rng = np.random.default_rng(31)
        f = random_function(rng, P1, max_atoms=6, max_k=4)
        doubled = FockFunction(P1, f.atoms + f.atoms)
        z = 0.4 - 1.1j
        assert doubled.merged().evaluate(z) == pytest.approx(doubled.evaluate(z), rel=1e-12)

    def test_parseval_after_merging(self):
        f = FockFunction(P1, (Atom(0.0, 1, 1.0), Atom(0.0, 1, 1.0), Atom(0.0, 4, 2j)))
        merged = f.merged()
        total = sum(abs(a.coeff) ** 2 for a in merged.atoms)
        assert f.norm() ** 2 == pytest.approx(total, rel=1e-12)
