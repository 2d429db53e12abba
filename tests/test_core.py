import hashlib
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focklab import (
    Atom,
    BasisCoefficients,
    FockFunction,
    FockParams,
    MeasurementVector,
    ParameterMismatchError,
    atom_eval,
    basis_eval,
    basis_function,
    compose_phase,
    displaced_basis,
    gram_matrix,
    overlap_matrix,
    quadrature_inner_oracle,
)
from focklab.core import LABEL, basis_labels, label_array, label_digest, libm_atan2, libm_cis, libm_exp, libm_log, libm_square
from focklab.core import scalar_math

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


class TestAtom:
    @pytest.mark.parametrize(
        "lam, k, coeff, message",
        [
            (0.0, -1, 1.0, r"^basis index k must be >= 0$"),
            (0.0, 1.5, 1.0, r"^basis index k must be an integer$"),
            (0.0, 0, complex(math.nan, 0.0), r"^atom coefficient must be finite$"),
            (complex(1.0, math.nan), 0, 1.0, r"^atom point must be finite$"),
            (complex(math.inf, 0.0), 0, 1.0, r"^atom point must be finite$"),
            (complex(0.0, -math.inf), 0, 1.0, r"^atom point must be finite$"),
        ],
        ids=["negative-k", "fractional-k", "nan-coeff", "nan-point", "inf-point", "minus-inf-point"],
    )
    def test_invalid_atom_refused(self, lam, k, coeff, message):
        with pytest.raises(ValueError, match=message):
            Atom(lam, k, coeff)

    def test_scaling_and_difference_act_on_coefficients(self):
        f = FockFunction(P1, (Atom(1j, 2, 0.5 - 1j),))
        g = basis_function(0, P1)
        assert (2j * f).atoms == (f * 2j).atoms == (Atom(1j, 2, 2 + 1j),)
        assert (f + -1.0 * g).atoms == (Atom(1j, 2, 0.5 - 1j), Atom(0.0, 0, -1.0))


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


_phase_part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e150, 1e150))


@pytest.mark.bitwise
class TestComposePhaseBits:
    """The phase has the bits of cos(a) + 1j*sin(a) on Python floats, with
    a = -alpha * Im(conj(z)*w) in a scalar complex product's operation order."""

    @staticmethod
    def scalar_phase(w, z, alpha):
        a = -alpha * (z.real * w.imag + -z.imag * w.real)
        return math.cos(a) + 1j * math.sin(a)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.builds(complex, _phase_part, _phase_part), st.builds(complex, _phase_part, _phase_part)),
                 min_size=1, max_size=6),
        st.floats(1e-3, 1e3),
    )
    def test_bits_equal_scalar_python(self, pairs, alpha):
        params = FockParams(alpha)
        want = [self.scalar_phase(w, z, alpha) for w, z in pairs]
        got = [compose_phase(w, z, params)[0] for w, z in pairs]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        w, z = np.array(pairs).T
        assert compose_phase(w, z, params)[0].tobytes() == np.array(want).tobytes()

    def test_sine_of_minus_zero_gives_plus_zero(self):
        # angle -0.0: cexp's imaginary part is sin(-0.0) = -0.0, cos + 1j*sin's is +0.0
        phase, _ = compose_phase(-(1 + 2j), 0j, P1)
        assert math.copysign(1.0, phase.imag) == 1.0
        assert struct.pack("<dd", phase.real, phase.imag) == struct.pack("<dd", 1.0, 0.0)


def _floats_from_bits(*bits):
    # a NaN payload, signalling ones included, kept as it is
    return np.array(bits, np.uint64).view(float)


_BRIDGE = {
    "exp": (math.exp, libm_exp),
    "cos": (math.cos, lambda x: libm_cis(x).real),
    "sin": (math.sin, lambda x: libm_cis(x).imag),
}
_EDGES = np.concatenate([
    [0.0, -0.0, 5e-324, 709.0, np.nextafter(709.0, np.inf), 709.78, np.inf, -np.inf],
    _floats_from_bits(0x7FF8000000000000, 0x7FF0000000000001),
])
_EDGE_IDS = ["zero", "minus-zero", "5e-324", "709", "after-709", "709.78", "inf", "minus-inf", "qnan", "snan"]


_ROUTES = {
    "square": (lambda v: math.pow(v, 2.0), libm_square),
    "log": (math.log, libm_log),
    "atan2": (math.atan2, libm_atan2),
}


def check_bridge(name, *x):
    """A libm bridge or route at the floats x against scalar_math of the math
    function: its bits, or a NaN where it gives a NaN; where math raises, the
    same exception type."""
    fn, spelling = {**_BRIDGE, **_ROUTES}[name]
    try:
        want = scalar_math(fn, *x)
    except (OverflowError, ValueError) as error:
        with pytest.raises(type(error)):
            spelling(*x)
        return
    got = np.asarray(spelling(*x))
    assert got.shape == want.shape
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got) & np.isnan(want))
    assert same.all(), ([a[~same] for a in np.broadcast_arrays(*x)], got[~same], want[~same])


@pytest.mark.bitwise
@pytest.mark.parametrize("name", sorted(_BRIDGE))
class TestLibmBridge:
    """libm_exp and libm_cis give the bits of math.exp, math.cos and math.sin
    as scalar_math maps them, NaNs as NaNs, and raise where math raises: the
    inputs cexp does not treat as math does go through scalar_math."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_random_bit_patterns(self, name):
        # every exponent, both signs, NaNs and infinities among them, and the
        # band above 709 where glibc's cexp rescales (30% of it differs from exp)
        rng = np.random.default_rng(36)
        x = np.concatenate([rng.integers(0, 2**64, 10**5, np.uint64).view(float), rng.uniform(709, 709.79, 10**3)])
        fn = _BRIDGE[name][0]
        raises = np.zeros(x.size, bool)
        for i, v in enumerate(x.tolist()):
            try:
                fn(v)
            except (OverflowError, ValueError):
                raises[i] = True
        check_bridge(name, x[~raises])
        for v in x[raises]:
            check_bridge(name, np.array([v]))

    @pytest.mark.parametrize("value", _EDGES, ids=_EDGE_IDS)
    def test_edge_case(self, name, value):
        check_bridge(name, np.asarray(value))
        check_bridge(name, np.array([value, 0.5]))

    def test_edge_cases_in_one_array(self, name):
        check_bridge(name, _EDGES)
        # without the infinities, cos and sin raise nothing and every entry is compared
        check_bridge(name, _EDGES[~np.isinf(_EDGES)])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.floats(709, 709.79)), min_size=1, max_size=8))
    def test_drawn_floats(self, name, values):
        check_bridge(name, np.array(values))


_DBL_MIN, _DBL_MAX = np.finfo(float).tiny, np.finfo(float).max
_ROUTE_EDGES = {
    "zero": 0.0, "minus-zero": -0.0, "5e-324": 5e-324, "dbl-min": _DBL_MIN,
    "before-half": np.nextafter(0.5, 0), "half": 0.5, "after-half": np.nextafter(0.5, 1),
    "before-one": np.nextafter(1.0, 0), "one": 1.0, "after-one": np.nextafter(1.0, 2),
    "before-two": np.nextafter(2.0, 0), "two": 2.0, "after-two": np.nextafter(2.0, 3),
    "sqrt-max": math.sqrt(_DBL_MAX), "after-sqrt-max": np.nextafter(math.sqrt(_DBL_MAX), np.inf),
    "half-max": _DBL_MAX / 2, "after-half-max": np.nextafter(_DBL_MAX / 2, np.inf), "dbl-max": _DBL_MAX,
    "inf": np.inf, "minus-inf": -np.inf,
}
_ROUTE_EDGE_IDS = [*_ROUTE_EDGES, "qnan", "snan"]
_ROUTE_EDGE_VALUES = np.concatenate([list(_ROUTE_EDGES.values()), _floats_from_bits(0x7FF8000000000000, 0x7FF0000000000001)])
# each value and its negative, so that the sign of a zero, an infinity and a NaN is covered too
_ROUTE_EDGE_VALUES = np.concatenate([_ROUTE_EDGE_VALUES, -_ROUTE_EDGE_VALUES])
_ROUTE_EDGE_IDS += [f"neg-{name}" for name in _ROUTE_EDGE_IDS]


def check_route(name, *x):
    """check_bridge of the route at the floats x, each argument 1-d of one
    length: where some entries make math raise, every entry on its own."""
    try:
        scalar_math(_ROUTES[name][0], *x)
    except (OverflowError, ValueError):
        for one in zip(*x):
            check_bridge(name, *(np.array([v]) for v in one))
        return
    check_bridge(name, *x)


@pytest.mark.bitwise
@pytest.mark.parametrize("name", sorted(_ROUTES))
class TestLibmRoutes:
    """libm_square, libm_log and libm_atan2 give the bits of math.pow(v, 2.0),
    math.log and math.atan2 as scalar_math maps them, NaNs as NaNs, and raise
    where math raises: the inputs where float_power or clog are not math's go
    through scalar_math."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @staticmethod
    def args(name, x, y):
        return (y, x) if name == "atan2" else (x,)

    def test_random_bit_patterns(self, name):
        # every exponent, both signs, NaNs and infinities among them, and a
        # strided view such as the kernel's real and imaginary parts
        rng = np.random.default_rng(39)
        x, y = rng.integers(0, 2**64, (2, 10**5), np.uint64).view(float)
        fn = _ROUTES[name][0]
        raises = np.zeros(x.size, bool)
        for i, v in enumerate(zip(*self.args(name, x, y))):
            try:
                fn(*(float(a) for a in v))
            except (OverflowError, ValueError):
                raises[i] = True
        check_bridge(name, *self.args(name, x[~raises], y[~raises]))
        z = np.empty(np.count_nonzero(~raises), complex)
        z.real, z.imag = x[~raises], y[~raises]
        check_bridge(name, *self.args(name, z.real, z.imag))
        # the first 5,000 that raise (half of log's, a quarter of square's), each on its own
        for one in zip(*self.args(name, x[raises][:5000], y[raises][:5000])):
            check_bridge(name, *(np.array([v]) for v in one))

    def test_routed_bands(self, name):
        # dense draws across the bands clog and float_power treat apart, and
        # their borders: [0.5, 2), subnormals, (DBL_MAX/2, DBL_MAX], squares near overflow
        rng = np.random.default_rng(39)
        bands = [rng.uniform(0.25, 4, 10**4), rng.uniform(0, 1, 10**3) * _DBL_MIN,
                 _DBL_MAX / 4 * rng.uniform(1, 4, 10**3), math.sqrt(_DBL_MAX) * rng.uniform(0.99, 1.01, 10**3)]
        for x in bands:
            check_route(name, *self.args(name, x, rng.permutation(x)))

    @pytest.mark.parametrize("value", _ROUTE_EDGE_VALUES, ids=_ROUTE_EDGE_IDS)
    def test_edge_case(self, name, value):
        # 0-d and 1-d, and for atan2 against every edge value in both places
        if name == "atan2":
            check_route(name, np.full(_ROUTE_EDGE_VALUES.size, value), _ROUTE_EDGE_VALUES)
            check_route(name, _ROUTE_EDGE_VALUES, np.full(_ROUTE_EDGE_VALUES.size, value))
            check_bridge(name, np.asarray(value), np.asarray(1.0))
            check_bridge(name, np.asarray(value), np.array([value, 0.5]))
            return
        check_bridge(name, np.asarray(value))
        check_bridge(name, np.array([value, 3.0]))

    def test_raises_wherever_math_raises(self, name):
        # math.pow overflows on a finite square, math.log refuses v <= 0; math.atan2 never raises
        values = np.concatenate([_ROUTE_EDGE_VALUES, np.nextafter(math.sqrt(_DBL_MAX), np.inf) * np.arange(1, 9)])
        fn, spelling = _ROUTES[name]
        for v in values:
            try:
                fn(*(float(v),) * (2 if name == "atan2" else 1))
            except (OverflowError, ValueError) as error:
                assert name != "atan2"
                with pytest.raises(type(error)):
                    spelling(np.array([3.0, v, 4.0]))
                with pytest.raises(type(error)):
                    spelling(np.asarray(v))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.floats(), st.floats(0.25, 4)), st.floats()), min_size=1, max_size=8))
    def test_drawn_floats(self, name, pairs):
        x, y = np.array(pairs, float).reshape(-1, 2).T
        check_route(name, *self.args(name, x, y))


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


_part = st.floats(-4.0, 4.0)
_coeff = st.builds(
    lambda r, t: r * complex(math.cos(t), math.sin(t)), st.floats(1e-3, 1e3), st.floats(0.0, 6.3)
)


@st.composite
def translation_cases(draw):
    """(f, z): up to 8 atoms of degree <= 8 on [-4, 4]^2, a shift on [-8, 8]^2."""
    params = FockParams(draw(st.sampled_from([0.5, 1.0, 2.0])))
    atoms = draw(
        st.lists(
            st.builds(Atom, st.builds(complex, _part, _part), st.integers(0, 8), _coeff),
            min_size=1,
            max_size=8,
        )
    )
    shift = draw(st.builds(complex, st.floats(-8.0, 8.0), st.floats(-8.0, 8.0)))
    return FockFunction(params, tuple(atoms)), shift


class TestTranslationProperty:
    @settings(max_examples=200, deadline=None)
    @given(translation_cases())
    def test_squared_norm_kept_to_rounding(self, case):
        # each overlap of unit atoms, and so each entry of the two Grams, is
        # within a few ulps of its exact value (at most 4 eps seen in 3,000
        # random cases); ||f||^2 sums |c_i||c_j| such entries, so both squared
        # norms lie within 32 eps (sum |c|)^2 of the exact one
        f, z = case
        bound = 64 * np.finfo(float).eps * sum(abs(a.coeff) for a in f.atoms) ** 2
        assert abs(f.translate(z)._norm_sq - f._norm_sq) <= bound


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

    def test_squared_sum_and_negative_degree(self):
        assert BasisCoefficients(P1, [3.0, 4j, 0.0]).squared_sum() == 25.0
        with pytest.raises(ValueError, match=r"^n_max must be >= 0$"):
            basis_function(0, P1).to_basis_coeffs(-1)

    def test_round_trip_through_basis(self):
        coeffs = np.array([0.5, 0, -1j, 2.0])
        f = FockFunction(P1, tuple(Atom(0.0, n, c) for n, c in enumerate(coeffs) if c != 0))
        back = f.to_basis_coeffs(3)
        assert np.allclose(back.coeffs, coeffs, atol=1e-14)
        assert f.norm() ** 2 == pytest.approx(float(np.sum(np.abs(coeffs) ** 2)), rel=1e-12)


class TestSupNormEstimate:
    FUNCTIONS = {
        "e0": basis_function(0, P1),
        "e1": basis_function(1, P1),
        "T2e0": displaced_basis(2.0, 0, P1),
        "shifted-e3": displaced_basis(0.5 - 1.25j, 3, FockParams(2.5)),
        "three-atoms": basis_function(0, P1) + 2j * basis_function(1, P1)
        + displaced_basis(1 - 1j, 3, P1, coeff=0.5),
    }

    # the first three are the estimates demo 01 prints
    @pytest.mark.parametrize(
        "name, radius, step, expected",
        [
            ("e0", 3.0, 0.01, "1.0"),
            ("e1", 3.0, 0.01, "0.6065306597126335"),
            ("T2e0", 4.0, 0.01, "1.0"),
            ("e1", 5.0, 1 / 3, "0.6065306597126334"),
            ("shifted-e3", 0.0, 0.01, "0.40860433993356826"),
            ("shifted-e3", 0.3, 0.013, "0.4733304951233885"),
            ("shifted-e3", 1.0, 1 / 3, "0.470178861463191"),
            ("shifted-e3", 3.0, 0.013, "0.47333054159494775"),
            ("shifted-e3", 5.0, 5.0, "0.40860433993356826"),
            ("shifted-e3", 5.0, 0.01, "0.47333053812462833"),
            ("three-atoms", 0.0, 5.0, "1.1599500277981618"),
            ("three-atoms", 0.3, 1 / 3, "1.1599500277981618"),
            ("three-atoms", 1.0, 0.01, "1.8874698045989264"),
            ("three-atoms", 3.0, 1 / 3, "1.8817534657870292"),
            ("three-atoms", 5.0, 0.013, "1.8874628108572387"),
        ],
    )
    def test_pinned_values(self, name, radius, step, expected):
        assert repr(self.FUNCTIONS[name].sup_norm_estimate(radius, step)) == expected

    def test_window_slack(self):
        # like a window's, the square takes a grid line within 1e-9 steps past its radius
        f = displaced_basis(3.0, 0, P1)
        assert repr(f.sup_norm_estimate(2.9999999999, 1.0)) == "0.9999999999999999"

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


    @pytest.mark.parametrize(
        "radius, step, message",
        [
            (1.0, 0.0, r"^step must be positive$"),
            (-1.0, 0.1, r"^radius must be nonnegative$"),
            (math.nan, 0.1, r"^radius must be nonnegative$"),
            (math.inf, 0.1, r"^radius must be finite$"),
        ],
    )
    def test_bad_square_refused(self, radius, step, message):
        with pytest.raises(ValueError, match=message):
            basis_function(0, P1).sup_norm_estimate(radius, step)

    # the squares of the grid's outer coordinates leave the double range: they
    # weigh 0, and f is not evaluated there
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("radius, step", [(1e300, 1e300), (1e200, 1e199)])
    @pytest.mark.parametrize(
        "f, expected", [(basis_function(0, P1), 1.0), (displaced_basis(1.0, 2, P1), 0.4288819424803535)]
    )
    def test_squares_past_the_double_range(self, radius, step, f, expected):
        assert f.sup_norm_estimate(radius, step) == expected

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


def struct_digest(params, pairs):
    # the per-pair spelling of label_digest: alpha, then each (point, n) as <ddq
    h = hashlib.sha256()
    h.update(struct.pack("<d", params.alpha))
    for lam, n in pairs:
        h.update(struct.pack("<ddq", lam.real, lam.imag, n))
    return h.hexdigest()[:12]


_label_part = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_label_pairs = st.lists(
    st.tuples(st.builds(complex, _label_part, _label_part), st.integers(-(2**63), 2**63 - 1)),
    max_size=12,
)


@pytest.mark.bitwise
class TestLabelDigestReference:
    """label_digest hashes one LABEL array's bytes: the bytes of the per-pair
    struct.pack("<ddq") digest, signed zeros, NaN payloads and infinities
    included, for lists, lists of lists, numpy scalars and the empty family."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 1e3), _label_pairs)
    def test_matches_per_pair_struct(self, alpha, pairs):
        params = FockParams(alpha)
        expected = struct_digest(params, pairs)
        assert label_digest(params, pairs) == expected
        assert label_digest(params, tuple(pairs)) == expected
        assert label_digest(params, [[lam, n] for lam, n in pairs]) == expected
        numpy_pairs = [(np.complex128(lam), np.int64(n)) for lam, n in pairs]
        assert label_digest(params, numpy_pairs) == expected
        assert label_digest(params, label_array(pairs)) == expected

    def test_empty_family(self):
        assert label_digest(P1, []) == struct_digest(P1, []) == label_digest(P1, label_array(()))
        assert label_array([]).shape == (0,)

    def test_label_array_is_returned_as_it_is(self):
        labels = label_array([(1 - 2j, 3), (0.0, 0)])
        assert label_array(labels) is labels
        assert labels.tolist() == [(1 - 2j, 3), (0j, 0)]

    @pytest.mark.parametrize("degree", [0, 1, 7, 300])
    def test_basis_labels_are_the_undisplaced_pairs(self, degree):
        pairs = [(0.0, n) for n in range(degree + 1)]
        assert basis_labels(degree).tobytes() == label_array(pairs).tobytes()


class TestLabelDigestInPlace:
    """label_digest feeds the record array to the hash as it is, copying
    only a record array that is not contiguous."""

    def test_records_are_not_copied(self):
        records = np.zeros(2**18, LABEL)
        records["point"] = np.arange(records.size) * (0.5 - 1j)
        records["n"] = np.arange(records.size) % 7
        label_digest(P1, records[:4])
        tracemalloc.start()
        try:
            digest = label_digest(P1, records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == struct_digest(P1, records.tolist())
        # two copies of the 6 MiB record bytes before
        assert peak < records.nbytes // 4

    def test_strided_records_hash_their_values(self):
        records = label_array([(1 - 2j, 3), (0.0, 0), (complex(-0.0, math.nan), 5), (7.0, 1)])
        assert label_digest(P1, records[::2]) == struct_digest(P1, records[::2].tolist())
        assert label_digest(P1, records[::-1]) == struct_digest(P1, records[::-1].tolist())


class TestAtomLabelRecords:
    """atom_labels() fills its records from the atoms' lam and k, bit for bit
    the LABEL array of the (lam, k) pairs read through label_array."""

    @pytest.mark.parametrize(
        "atoms",
        [
            (),
            (Atom(0.0, 0),),
            (
                Atom(1 - 2j, 3, 0.5),
                Atom(1 - 2j, 3, -0.5),
                Atom(complex(-0.0, -0.0), 0),
                Atom(0.0, 0, 2j),
                Atom(complex(-1.5, -0.0), 2**63 - 1),
                Atom(1 - 2j, 3, 1j),
                Atom(5e-324, True),
            ),
        ],
    )
    def test_bits_equal_pair_spelling(self, atoms):
        f = FockFunction(P1, atoms)
        got, want = f.atom_labels(), label_array([(a.lam, a.k) for a in f.atoms])
        assert got.dtype == LABEL and got.shape == want.shape == (len(atoms),)
        assert got.tobytes() == want.tobytes()

    def test_unmerged_random_functions(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            f = random_function(rng, P1)
            f = f + f  # every atom twice, unmerged
            assert f.atom_labels().tobytes() == label_array([(a.lam, a.k) for a in f.atoms]).tobytes()


class TestLabelIntegers:
    """label_array reads each integer as operator.index does: a value that is
    not an integer is refused, as range() refuses it, never truncated."""

    def test_overlap_matrix_refuses_a_fractional_degree(self):
        # truncated, 2.5 read as the degree-2 overlap [[1]]
        with pytest.raises(TypeError):
            overlap_matrix([(0.0, 2.5)], [(0.0, 2)], P1)

    def test_gram_matrix_refuses_a_fractional_degree(self):
        # truncated, 1.5 and 1.0 collided as a duplicate label
        with pytest.raises(TypeError):
            gram_matrix([(0.0, 1.5), (0.0, 1.0)], P1)

    def test_measurement_vector_refuses_a_fractional_label(self):
        # truncated, 0.9 was held as the label (0, 0)
        with pytest.raises(TypeError):
            MeasurementVector([(0.0, 0.9)], [1])

    def test_integers_are_read(self):
        labels = label_array([(0.0, 2), (1j, np.int64(2)), (2.0, True), (3.0, np.uint8(4))])
        assert labels.tolist() == [(0j, 2), (1j, 2), (2 + 0j, 1), (3 + 0j, 4)]
