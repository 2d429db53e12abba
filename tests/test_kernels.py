import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from focklab import (
    Atom,
    Divisor,
    DuplicateLabelError,
    FockFunction,
    FockParams,
    analysis_matrix,
    atom_pair_inner,
    basis_function,
    displaced_basis,
    displacement_element,
    generate_covering_rings,
    generate_disjoint_rings,
    generate_lattice,
    gram_matrix,
    kernels,
    overlap_matrix,
    quadrature_inner_oracle,
)
from focklab.core import basis_labels, compose_phase, label_array, label_records, scalar_math

P1 = FockParams(1.0)


class TestDisplacementElement:
    def test_zero_displacement_is_kronecker(self):
        for j in range(5):
            for k in range(5):
                expected = 1.0 if j == k else 0.0
                assert displacement_element(0.0, j, k, P1) == expected

    def test_vacuum_overlap(self):
        assert displacement_element(1.0, 0, 0, P1) == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_first_excited_overlap(self):
        # Taylor coefficient c_1 of exp(a*conj(z)*zeta - a|z|^2/2) at z = i
        got = displacement_element(1j, 1, 0, P1)
        assert got == pytest.approx(-1j * math.exp(-0.5), abs=1e-15)

    def test_against_scipy_laguerre(self):
        # independent closed form through scipy's Laguerre evaluation
        rng = np.random.default_rng(0)
        for _ in range(200):
            j, k = int(rng.integers(0, 25)), int(rng.integers(0, 25))
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            alpha = float(rng.choice([0.5, 1.0, 2.0]))
            x = alpha * abs(z) ** 2
            lo, hi = min(j, k), max(j, k)
            w = math.sqrt(alpha) * z.conjugate() if j >= k else -math.sqrt(alpha) * z
            ref = (
                math.exp(-x / 2)
                * math.sqrt(math.factorial(lo) / math.factorial(hi))
                * w ** (hi - lo)
                * eval_genlaguerre(lo, hi - lo, x)
            )
            got = displacement_element(z, j, k, FockParams(alpha))
            assert abs(got - ref) <= 1e-12 * (1 + abs(ref))

    def test_against_quadrature_oracle(self):
        # spot sample of the full acceptance sweep
        for alpha in (0.5, 2.0):
            params = FockParams(alpha)
            for z in (0.3 + 0.4j, -1.2 + 0.8j, 2.0 + 0j):
                for j in range(0, 7, 2):
                    for k in range(0, 7, 3):
                        closed = displacement_element(z, j, k, params)
                        quad = quadrature_inner_oracle(
                            displaced_basis(z, k, params),
                            basis_function(j, params),
                            n_r=64,
                            n_theta=128,
                        )
                        assert abs(closed - quad) <= 1e-8

    def test_reversal_symmetry_modulus(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            j, k = int(rng.integers(0, 15)), int(rng.integers(0, 15))
            z = complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            a = displacement_element(z, j, k, P1)
            b = displacement_element(-z, k, j, P1)
            assert abs(abs(a) - abs(b)) <= 1e-10
            assert abs(a - b.conjugate()) <= 1e-12 * (1 + abs(a))

    def test_row_sum_unitarity(self):
        # sum_j |<T_z e_k, e_j>|^2 = ||T_z e_k||^2 = 1, truncated tail
        for alpha in (0.5, 1.0, 2.0):
            params = FockParams(alpha)
            for k in (0, 3, 6):
                for z in (0.5, 1.5 - 1.0j, 2.4j):
                    top = k + math.ceil(alpha * abs(z) ** 2) + 60
                    total = sum(
                        abs(displacement_element(z, j, k, params)) ** 2 for j in range(top + 1)
                    )
                    assert abs(total - 1.0) <= 1e-8

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            displacement_element(1.0, -1, 0, P1)


def stdlib_overlap(x: float, lo: int, d: int) -> float:
    """<T_z e_lo, e_(lo+d)> at alpha = 1 and z = sqrt(x) > 0, which is
    exp(-x/2) sqrt(lo!/(lo+d)!) x^(d/2) L_lo^(d)(x), from the standard library
    alone: L summed exactly in Fraction at the float x, the rest in Decimal
    at 50 digits."""
    fx = Fraction(x)
    term, lag = Fraction(math.comb(lo + d, lo)), Fraction(0)
    for i in range(lo + 1):  # term i of L is (-x)^i C(lo + d, lo - i) / i!
        lag += term
        term = -term * fx * (lo - i) / ((i + 1) * (d + i + 1))
    with localcontext() as ctx:
        ctx.prec = 50
        dx = Decimal(x)
        ratio = (Decimal(math.factorial(lo)) / Decimal(math.factorial(lo + d))).sqrt()
        value = Decimal(lag.numerator) / Decimal(lag.denominator)
        return float((-dx / 2).exp() * ratio * dx.sqrt() ** d * value)


class TestPastTheDoubleRange:
    """Past alpha|z|^2 of about 1416 the Laguerre chains leave the double
    range; each is rescaled by 2**-512 and its shift added back at the flush."""

    # (x, lo, d): near the peak of each row, every one NaN before the rescaling.
    # hi stays below 7,000 at x = 1e4: past d*log|w| of about 5e4 the rounding
    # of the log-domain exponent alone exceeds 1e-11, with or without rescaling.
    CASES = [
        (1444.0, 300, 2760), (1444.0, 400, 2964), (1444.0, 700, 3455), (1444.0, 1000, 3847),
        (4096.0, 300, 6313), (4096.0, 400, 1536), (4096.0, 700, 7125), (4096.0, 1000, 48),
        (1e4, 300, 6536), (1e4, 400, 6000), (1e4, 500, 5528), (1e4, 700, 4708),
    ]

    @pytest.mark.parametrize("x,lo,d", CASES)
    def test_against_stdlib_reference(self, x, lo, d):
        ref, z = stdlib_overlap(x, lo, d), math.sqrt(x)
        # w = sqrt(alpha) conj(z) = z for j >= k and -z for j < k
        for j, k, sign in ((lo + d, lo, 1), (lo, lo + d, (-1) ** d)):
            got = displacement_element(z, j, k, P1)
            assert abs(got - sign * ref) <= 1e-11 * abs(ref)

    def test_tangent_discs_of_multiplicity_400_finite(self):
        # discs of radius 20 at distance 40, so alpha|z|^2 = 1600 between them
        labels = Divisor(P1, ((0j, 400), (40.0, 400))).atom_labels()
        gram = gram_matrix(labels, P1).entries
        assert np.isfinite(gram).all()
        assert np.array_equal(np.diag(gram), np.ones(800))

    @pytest.mark.parametrize("alpha,x,theta", [(1.0, 1600, 0.7), (2.0, 2500, -2.3)])
    def test_composition_law(self, alpha, x, theta):
        # <T_{z/2} T_{z/2} e_k, e_j> = phase <T_z e_k, e_j> at x = alpha|z|^2, the
        # left side expanded over e_n, n < N: the half steps (x/4 = 400 and 625)
        # stay below 1416, so chains never rescaled check the chains of T_z that are
        params = FockParams(alpha)
        z = math.sqrt(x / alpha) * complex(math.cos(theta), math.sin(theta))
        phase, shift = compose_phase(z / 2, z / 2, params)
        n = int(x + 12 * math.sqrt(x) + 2000)
        rows, cols = label_records(0j, [0, x // 4 + 60, x // 2 + 7]), [30, x // 4, x // 4 + 100]
        direct = overlap_matrix(rows, label_records(shift, cols), params)
        first = overlap_matrix(basis_labels(n - 1), label_records(z / 2, cols), params)
        second = overlap_matrix(rows, label_records(z / 2, np.arange(n)), params)
        assert np.abs(phase * direct - second @ first).max() <= 1e-12


class TestAtomPairInner:
    def test_reduces_to_displacement_element(self):
        assert atom_pair_inner(1.0, 0, 0.0, 0, P1) == pytest.approx(math.exp(-0.5))

    def test_matches_function_inner(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            mu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            j, k = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            direct = atom_pair_inner(lam, k, mu, j, P1)
            via_functions = displaced_basis(lam, k, P1).inner(displaced_basis(mu, j, P1))
            assert abs(direct - via_functions) <= 1e-13


class TestGramMatrix:
    def test_identity_for_distinct_degrees_at_origin(self):
        gram = gram_matrix([(0.0, 0), (0.0, 1)], P1)
        assert np.allclose(gram.entries, np.eye(2))

    def test_far_points_off_diagonal(self):
        gram = gram_matrix([(0.0, 0), (4.0, 0)], P1)
        assert abs(gram.entries[0, 1]) == pytest.approx(math.exp(-8), rel=1e-10)

    def test_three_point_family_is_hermitian_psd(self):
        gram = gram_matrix([(0.0, 0), (1.0, 0), (1j, 0)], P1)
        assert np.max(np.abs(gram.entries - gram.entries.conj().T)) <= 1e-10
        eigenvalues = np.linalg.eigvalsh(gram.entries)
        assert eigenvalues[0] > 0
        assert eigenvalues[-1] < 3

    def test_unit_diagonal_and_psd_random(self):
        rng = np.random.default_rng(12)
        labels = []
        while len(labels) < 8:
            cand = (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), int(rng.integers(0, 4)))
            if cand not in labels:
                labels.append(cand)
        gram = gram_matrix(labels, P1)
        assert np.max(np.abs(np.diag(gram.entries) - 1.0)) <= 1e-12
        assert np.max(np.abs(gram.entries - gram.entries.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh(gram.entries)[0] >= -1e-9

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_point_difference_past_the_double_range_refused(self):
        # 1e308 - (-1e308) overflows: refused before any factor is formed, with no warning
        labels = Divisor(P1, ((1e308, 1), (-1e308, 1))).atom_labels()
        for call in (
            lambda: gram_matrix(labels, P1),
            lambda: overlap_matrix(labels[:1], labels[1:], P1),
            lambda: overlap_matrix(labels[1:], labels[:1], P1),
        ):
            with pytest.raises(OverflowError, match="a point difference leaves the double range"):
                call()

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabelError):
            gram_matrix([(0.0, 0), (0.0, 0)], P1)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            gram_matrix([], P1)

    def test_digest_stable(self):
        labels = [(0.0, 0), (1.0 + 1j, 2)]
        assert gram_matrix(labels, P1).digest() == gram_matrix(labels, P1).digest()


def set_rule_duplicates(family) -> bool:
    # the rule gram_matrix applied as a set of (complex, int) tuples: each
    # tuple made afresh by tolist, so a NaN point is its own object and, as a
    # Python comparison finds, equals nothing, while 0j equals -0j
    pairs = tuple(label_array(family).tolist())
    return len(set(pairs)) != len(pairs)


_pool_part = st.sampled_from([0.0, -0.0, 1.5, math.nan, math.inf, -math.inf])


@pytest.mark.bitwise
class TestDuplicateRuleReference:
    """gram_matrix refuses a family exactly when the set-of-tuples rule finds
    two equal labels; the overlaps are stubbed, since a non-finite point makes
    the kernel warn, and only the label check is under test."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.builds(complex, _pool_part, _pool_part), st.sampled_from([0, 1, 7])),
                 min_size=1, max_size=8),
        st.booleans(),
    )
    @example([(0j, 0), (complex(-0.0, -0.0), 0)], False)
    @example([(complex(math.nan, 0.0), 1), (complex(math.nan, 0.0), 1)], True)
    @example([(complex(math.inf, 1.5), 7), (complex(1.5, 0.0), 7), (complex(math.inf, 1.5), 7)], False)
    @example([(complex(0.0, math.nan), 0), (0j, 0), (complex(-0.0, 0.0), 1)], True)
    def test_refuses_exactly_when_the_set_rule_does(self, family, as_array):
        expected = set_rule_duplicates(family)

        def stub(rows, cols, params):
            return np.zeros((len(rows), len(cols)), complex)

        with mock.patch.object(kernels, "overlap_matrix", stub):
            try:
                gram = gram_matrix(label_array(family) if as_array else family, P1)
            except DuplicateLabelError:
                refused = True
            else:
                refused = False
                assert gram.labels.tobytes() == label_array(family).tobytes()
        assert refused == expected


class TestLogFactorialTable:
    @pytest.mark.parametrize("top", [0, 170, 171, 10**5])
    def test_bits_equal_list_spelling(self, top):
        # at |z|**2 = top the first entry's size is set by log top!, and the
        # strip reference takes its table from a list of math.lgamma values
        z = math.sqrt(max(top, 1)) * complex(0.6, -0.8)
        rows, cols = [(0.25j, top)], [(0.25j + z, 0), (0.25j + z, 1), (0.25j, 0)]
        got = overlap_matrix(rows, cols, P1)
        assert abs(got[0, 0]) > 1e-2
        assert np.array_equal(got.view(np.int64), strip_overlap_matrix(rows, cols, P1).view(np.int64))


class TestQuadratureOracle:
    def test_normalization(self):
        e0 = basis_function(0, P1)
        val = quadrature_inner_oracle(e0, e0, radius=8.0, n_r=64, n_theta=128)
        assert abs(val - 1.0) <= 1e-10

    def test_angular_orthogonality(self):
        val = quadrature_inner_oracle(
            basis_function(1, P1), basis_function(2, P1), radius=8.0, n_r=64, n_theta=128
        )
        assert abs(val) <= 1e-10

    def test_displaced_vacuum_value(self):
        val = quadrature_inner_oracle(
            displaced_basis(1.0, 0, P1), basis_function(0, P1), radius=10.0, n_r=96, n_theta=192
        )
        assert abs(val - math.exp(-0.5)) <= 1e-8

    def test_default_radius_used_when_omitted(self):
        val = quadrature_inner_oracle(basis_function(4, P1), basis_function(4, P1))
        assert abs(val - 1.0) <= 1e-10

    def test_too_few_nodes_rejected(self):
        e0 = basis_function(0, P1)
        with pytest.raises(ValueError):
            quadrature_inner_oracle(e0, e0, radius=8.0, n_r=4, n_theta=128)

    # a float, even an integral one, is refused: 96.5 would be 96 nodes weighted as 96.5
    @pytest.mark.parametrize("n", [96.5, 96.0, math.inf, math.nan, 7])
    @pytest.mark.parametrize("which", ["n_r", "n_theta"])
    def test_node_counts_must_be_integers(self, which, n):
        e0 = basis_function(0, P1)
        counts = {"n_r": 96, "n_theta": 128, which: n}
        message = f"{which} must be >= 8" if n == 7 else f"{which} must be an integer"
        with pytest.raises(ValueError, match=f"^{message}$"):
            quadrature_inner_oracle(e0, e0, radius=8.0, **counts)

    def test_numpy_integer_node_counts(self):
        e0 = basis_function(0, P1)
        counts = {"n_r": np.int64(64), "n_theta": np.int32(128)}
        assert quadrature_inner_oracle(e0, e0, radius=8.0, **counts) == quadrature_inner_oracle(
            e0, e0, radius=8.0, n_r=64, n_theta=128
        )


def scipy_overlap(mu, j, lam, k, alpha):
    """<T_lam e_k, T_mu e_j> from scipy's Laguerre values and the composition law."""
    z = lam - mu
    x = alpha * abs(z) ** 2
    lo, hi = min(j, k), max(j, k)
    w = math.sqrt(alpha) * z.conjugate() if j >= k else -math.sqrt(alpha) * z
    phase = complex(math.cos(alpha * (lam.conjugate() * mu).imag),
                    math.sin(alpha * (lam.conjugate() * mu).imag))
    return (
        phase
        * math.exp(-x / 2)
        * math.sqrt(math.factorial(lo) / math.factorial(hi))
        * w ** (hi - lo)
        * eval_genlaguerre(lo, hi - lo, x)
    )


def scalar_overlap(mu, j, lam, k, alpha):
    """The same closed form in plain Python floats and the math module."""
    mu, lam = complex(mu), complex(lam)
    angle = -alpha * (lam.conjugate() * -mu).imag
    phase, z = complex(math.cos(angle), math.sin(angle)), -mu + lam
    if z == 0:
        return phase * (1.0 if j == k else 0.0)
    x = alpha * (z.real**2 + z.imag**2)
    lo, hi = min(j, k), max(j, k)
    d = hi - lo
    sa = math.sqrt(alpha)
    w = sa * z.conjugate() if j >= k else -sa * z
    lag, prev = (1.0, 1.0) if lo == 0 else (1.0 + d - x, 1.0)
    for i in range(1, lo):
        prev, lag = lag, ((2 * i + 1 + d - x) * lag - (i + d) * prev) / (i + 1)
    log_mag = -0.5 * x + 0.5 * (math.lgamma(lo + 1) - math.lgamma(hi + 1))
    if d:
        log_mag += d * 0.5 * math.log(w.real**2 + w.imag**2)
    angle = d * math.atan2(w.imag, w.real)
    return phase * (lag * math.exp(log_mag) * complex(math.cos(angle), math.sin(angle)))


def random_labels(rng, n, spread=2.5, max_k=12):
    # a few shared points, so strips hold several degrees
    points = [complex(rng.uniform(-spread, spread), rng.uniform(-spread, spread)) for _ in range(4)]
    return [(points[int(rng.integers(0, 4))], int(rng.integers(0, max_k + 1))) for _ in range(n)]


class TestOverlapMatrix:
    def test_against_scipy_laguerre(self):
        rng = np.random.default_rng(40)
        for alpha in (0.5, 1.0, 2.0):
            params = FockParams(alpha)
            rows, cols = random_labels(rng, 9), random_labels(rng, 11)
            got = overlap_matrix(rows, cols, params)
            assert got.shape == (9, 11)
            for p, (mu, j) in enumerate(rows):
                for q, (lam, k) in enumerate(cols):
                    ref = scipy_overlap(mu, j, lam, k, alpha)
                    assert abs(got[p, q] - ref) <= 1e-12 * (1 + abs(ref))

    def test_one_entry_views(self):
        rng = np.random.default_rng(41)
        rows, cols = random_labels(rng, 5), random_labels(rng, 5)
        got = overlap_matrix(rows, cols, P1)
        for p, (mu, j) in enumerate(rows):
            for q, (lam, k) in enumerate(cols):
                assert atom_pair_inner(lam, k, mu, j, P1) == got[p, q]
        basis = [(0.0, n) for n in range(6)]
        got = overlap_matrix(basis, cols, P1)
        for n in range(6):
            for q, (lam, k) in enumerate(cols):
                assert displacement_element(lam, n, k, P1) == got[n, q]

    def test_bit_identical_to_scalar_python(self):
        # axis points and coincident points exercise the signed-zero and z = 0 cases
        rng = np.random.default_rng(43)
        for alpha in (0.5, 1.0, 2.0):
            params = FockParams(alpha)
            rows = random_labels(rng, 10) + [(0.0, 3), (2.0, 1), (-1.5, 2), (1.5j, 0), (-2j, 4)]
            # the point 2.0 again, with a zero sign that must give it its own strip
            rows.append((complex(2.0, -0.0), 2))
            cols = random_labels(rng, 10) + [(0.0, 1), (-1.0, 3), (2.0, 0), (-0.5j, 2), (1j, 5)]
            # the point -1.0 again, with a zero sign that picks the other atan2 branch
            cols.append((complex(-1.0, -0.0), 1))
            got = overlap_matrix(rows, cols, params)
            for p, (mu, j) in enumerate(rows):
                for q, (lam, k) in enumerate(cols):
                    assert got[p, q] == scalar_overlap(mu, j, lam, k, alpha)

    def test_coincident_points_give_kronecker_delta(self):
        for lam in (0.0, 1.5 - 0.5j, -3j):
            rows = [(lam, j) for j in range(8)]
            cols = [(lam, k) for k in range(6)]
            got = overlap_matrix(rows, cols, FockParams(2.0))
            assert np.max(np.abs(got - np.eye(8, 6))) <= 1e-15

    def test_empty_families(self):
        labels = [(0.5, 1), (1j, 0)]
        for rows, cols, shape in (([], labels, (0, 2)), (labels, [], (2, 0)), ([], [], (0, 0))):
            got = overlap_matrix(rows, cols, P1)
            assert got.shape == shape
            assert got.dtype == complex

    def test_duplicate_atoms_in_inner(self):
        atom = Atom(1.0 - 0.5j, 2, 0.5 + 1j)
        doubled = FockFunction(P1, (atom, atom))
        g = FockFunction(P1, (Atom(0.3j, 1, 1.0), Atom(0.3j, 1, -2j), Atom(-1.0, 0, 0.7)))
        merged = FockFunction(P1, (Atom(0.3j, 1, 1.0 - 2j), Atom(-1.0, 0, 0.7)))  # g, duplicates summed
        expected = 2 * displaced_basis(atom.lam, atom.k, P1, atom.coeff).inner(merged)
        assert abs(doubled.inner(g) - expected) <= 1e-14
        assert abs(doubled.norm() - 2 * abs(atom.coeff)) <= 1e-14
        rows = overlap_matrix([(0.3j, 1), (0.3j, 1)], [(atom.lam, atom.k)], P1)
        assert rows[0, 0] == rows[1, 0]

    def test_large_degree_gaps_stay_finite(self):
        # columns of the unitary T_z in the basis: unit norm up to the truncated tail
        basis = [(0.0, j) for j in range(801)]
        for k in (0, 250, 500):
            column = overlap_matrix(basis, [(1.5 - 1j, k)], P1)[:, 0]
            assert np.all(np.isfinite(column))
            assert abs(np.sum(np.abs(column) ** 2) - 1.0) <= 1e-10
        far = overlap_matrix([(0.0, 0), (0.0, 500)], [(0.0, 500), (40.0, 0), (0.5j, 0)], P1)
        assert np.all(np.isfinite(far))
        assert far[0, 0] == 0 and far[1, 0] == 1

    def test_no_runtime_warnings(self):
        rows = [(0.0, j) for j in range(0, 501, 50)] + [(2 + 1j, 3), (2 + 1j, 0)]
        cols = [(0.0, 500), (2 + 1j, 0), (2 + 1j, 3), (60.0, 40), (1e-200, 2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = overlap_matrix(rows, cols, P1)
        assert np.all(np.isfinite(got))

    def test_negative_indices_rejected(self):
        with pytest.raises(ValueError):
            overlap_matrix([(0.0, 0)], [(1.0, -1)], P1)

    @pytest.mark.parametrize("n", [2**61, 2**63 - 1])
    def test_indices_whose_sums_wrap_rejected(self, n):
        # at 2**63 - 1 the log-factorial table was empty and the walk's end
        # index, first + 1, wrapped, so no step ran: a zero matrix, norm 0.0
        message = r"^basis indices must be below 2\*\*61$"
        with pytest.raises(ValueError, match=message):
            overlap_matrix([(0.5, n)], [(0.5, n)], P1)
        with pytest.raises(ValueError, match=message):
            overlap_matrix([(0.0, 0)], [(0.5, n)], P1)
        with pytest.raises(ValueError, match=message):
            FockFunction(P1, (Atom(0.5, n),)).norm()


# axis coordinates of both zero signs (an imaginary part of -0.0 gives a
# real-axis pair the same arg w in both directions), far points whose overlaps
# underflow to signed zeros, and arbitrary finite coordinates
_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -1.5, 30.0, -30.0]), st.floats(-4.0, 4.0)
)


@st.composite
def equal_families(draw):
    """(labels, alpha) with shared points, repeated labels and interleaved
    point order; distinct points differ in their bits, so value-equal points
    of opposite zero signs are distinct."""
    drawn = draw(st.lists(st.builds(complex, _coordinate, _coordinate), min_size=1, max_size=5))
    points = list({_bits(z): z for z in drawn}.values())
    picks = st.tuples(st.integers(0, len(points) - 1), st.integers(0, 10))
    labels = [(points[i], k) for i, k in draw(st.lists(picks, min_size=2, max_size=14))]
    return labels, draw(st.sampled_from([0.5, 1.0, 2.0]))


def _bits(z):
    return tuple(np.array([z]).view(np.int64).tolist())


def _row_by_row(labels, params):
    # a single row never equals the family, so nothing is mirrored
    return np.vstack([overlap_matrix([row], labels, params) for row in labels])


@pytest.mark.bitwise
class TestHermitianHalfFill:
    @settings(max_examples=150, deadline=None)
    @given(equal_families())
    # a real-axis pair with a -0.0 imaginary part, and two points so close
    # that their overlaps take the z = 0 branch of the closed form
    @example(([(complex(-1.5, -0.0), 0), (0j, 1)], 0.5))
    @example(([(1 + 0j, 0), (1 + 1e-200j, 0), (1 + 0j, 1), (1 + 1e-200j, 2)], 1.0))
    def test_bits_equal_row_by_row_reference(self, family):
        labels, alpha = family
        params = FockParams(alpha)
        minus_zero = any(lam.imag == 0 and math.copysign(1.0, lam.imag) < 0 for lam, _ in labels)
        # interleaved as drawn, then sorted by the bits of the point, where
        # the computed blocks hold the lower triangle
        grouped = sorted(labels, key=lambda label: _bits(label[0]))
        for family_order in (labels, grouped):
            got = overlap_matrix(family_order, family_order, params)
            reference = _row_by_row(family_order, params)
            # computed: the column point at or before the row point in bit order
            point = [_bits(lam) for lam, _ in family_order]
            computed = np.array([[q <= p for q in point] for p in point])
            assert np.array_equal(got[computed].view(np.int64), reference[computed].view(np.int64))
            mirrored = got.T.conj() + 0.0
            assert np.array_equal(got[~computed].view(np.int64), mirrored[~computed].view(np.int64))
            assert np.array_equal(got, got.conj().T)
            if minus_zero:
                # a real-axis pair with a -0.0 imaginary part can take arg w = pi
                # in both directions: the direct entry's sine part is then
                # sin(d*fl(pi)) of |G| and the mirror's its negation, 1.1*d*eps
                # of |G| apart while d*fl(pi) is exact (d <= 10, as drawn here)
                degree = np.array([n for _, n in family_order])
                gap = np.maximum(np.abs(degree[:, None] - degree[None, :]), 1)
                eps = np.finfo(float).eps
                assert np.all(np.abs(got - reference) <= 4 * gap * eps * np.abs(reference))
            else:
                assert np.array_equal(got, reference)
        # positive semidefinite up to a backward-stable eigensolver's error
        bound = len(labels) * np.finfo(float).eps * np.linalg.norm(got, 2)
        assert np.linalg.eigvalsh(got)[0] >= -bound


def strip_overlap_matrix(rows, cols, params):
    """The kernel in its one-strip-per-row-point form: each distinct row
    point's strip evaluates its column points' factors, then every entry's
    cos and sin; an equal family's strips reach up to their own point and
    mirror the rest as conjugates plus 0.0.  The block kernel must equal it
    bit for bit."""
    rows = [(complex(mu), int(j)) for mu, j in rows]
    cols = [(complex(lam), int(k)) for lam, k in cols]
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    if not rows or not cols:
        return out
    log_fact = np.array([math.lgamma(n + 1) for n in range(max(j for _, j in rows + cols) + 1)])
    mu, j = np.array([mu for mu, _ in rows]), np.array([j for _, j in rows])
    lam, k = np.array([lam for lam, _ in cols]), np.array([k for _, k in cols])
    (row_points, row_of), (points, point_of) = _strip_table(mu), _strip_table(lam)
    equal = np.array_equal(mu.view(np.int64), lam.view(np.int64)) and np.array_equal(j, k)
    for s, point in enumerate(row_points):
        index = np.flatnonzero(row_of == s)
        sel = np.flatnonzero(point_of <= s) if equal else np.arange(len(cols))
        reach = points[: s + 1] if equal else points
        phase, *factors = [f[point_of[sel]] for f in _strip_factors(point, reach, params)]
        re, im = _strip_elements(j[index, None], k[sel], factors, log_fact)
        block = out[np.ix_(index, sel)] = _strip_rotate(phase, re, im)
        if equal:
            mirror = point_of[sel] < s
            out[np.ix_(sel[mirror], index)] = block[:, mirror].T.conj() + 0.0
    return out


def _strip_table(z):
    _, first, point_of = np.unique(
        z.view(np.int64).reshape(-1, 2), axis=0, return_index=True, return_inverse=True
    )
    return z[first], point_of.ravel()


def _strip_rotate(phase, re, im):
    out = np.empty(re.shape, dtype=complex)
    out.real = phase.real * re - phase.imag * im
    out.imag = phase.real * im + phase.imag * re
    return out


def _strip_factors(mu, points, params):
    # the composition phase of T_{-mu} T_lam by its scalar rule on Python
    # floats, one point at a time, as TestComposePhaseBits pins it
    w = complex(-mu)
    angles = [-params.alpha * (lam.real * w.imag + -lam.imag * w.real) for lam in points.tolist()]
    phase = np.array([math.cos(a) + 1j * math.sin(a) for a in angles], dtype=complex)
    z = w + points
    sa = math.sqrt(params.alpha)
    x = params.alpha * (scalar_math(math.pow, z.real, 2.0) + scalar_math(math.pow, z.imag, 2.0))
    wr, wi = sa * z.real, -(sa * z.imag) + 0.0 * z.real
    r2 = scalar_math(math.pow, wr, 2.0) + scalar_math(math.pow, wi, 2.0)
    at_zero = r2 == 0
    log_w = 0.5 * scalar_math(math.log, np.where(at_zero, 1.0, r2))
    arg_ge = scalar_math(math.atan2, wi, wr)
    arg_lt = scalar_math(math.atan2, wi, -wr)
    return phase, x, log_w, arg_ge, arg_lt, at_zero


def _strip_elements(j, k, factors, log_fact):
    x, log_w, arg_ge, arg_lt, at_zero = factors
    lo, d = np.minimum(j, k), np.abs(j - k)
    prev, cur = np.ones(lo.shape), 1.0 + d - x
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, int(lo.max())):
            nxt = ((2 * i + 1 + d - x) * cur - (i + d) * prev) / (i + 1)
            active = i < lo
            prev, cur = np.where(active, cur, prev), np.where(active, nxt, cur)
    log_mag = -0.5 * x + 0.5 * (log_fact[lo] - log_fact[lo + d]) + d * log_w
    value = np.where(lo > 0, cur, 1.0) * scalar_math(math.exp, log_mag)
    angle = d * np.where(j >= k, arg_ge, arg_lt)
    re = np.where(at_zero, (j == k) * 1.0, value * scalar_math(math.cos, angle))
    im = np.where(at_zero, 0.0, value * scalar_math(math.sin, angle))
    return re, im


# zero coordinates of both signs (value-equal, bit-distinct points; an
# imaginary part of -0.0 on a real-axis pair), 1e-200 (a point pair whose
# z = 0 branch is taken by underflow), far points and arbitrary coordinates
_block_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-200, 2.0, -1.5, 30.0]), st.floats(-4.0, 4.0)
)
# small, sparse and repeated degrees with gaps up to 130
_degree = st.one_of(st.integers(0, 6), st.sampled_from([0, 1, 9, 40, 130]))


@st.composite
def label_families(draw):
    """(rows, cols, alpha): either family possibly empty, cols possibly the
    rows themselves, labels drawn from a few shared points."""
    points = draw(
        st.lists(st.builds(complex, _block_coordinate, _block_coordinate), min_size=1, max_size=5)
    )
    labels = st.lists(st.tuples(st.sampled_from(points), _degree), max_size=12)
    rows = draw(labels)
    cols = rows if draw(st.booleans()) else draw(labels)
    return rows, cols, draw(st.sampled_from([0.5, 1.0, 2.0]))


@pytest.mark.bitwise
class TestBlockKernel:
    @settings(max_examples=200, deadline=None)
    @given(label_families())
    # an equal family whose mirrored entries include z = 0 pairs of distinct
    # points (by underflow, and exactly at zero coordinates of both signs),
    # and a family with the same degree gap on both branches at one pair
    @example(([(1 + 0j, 0), (1 + 1e-200j, 0), (1 + 0j, 1), (1 + 1e-200j, 2)],) * 2 + (1.0,))
    @example(([(0.5j, 0), (complex(-0.0, 0.5), 1), (0.5j, 2), (complex(-0.0, 0.5), 0)],) * 2 + (2.0,))
    @example(([(0j, 1), (0j, 3)], [(1.5 - 0.5j, 3), (1.5 - 0.5j, 1)], 1.0))
    # a point whose labels split into three runs (a repeated degree, then a
    # gap), in an equal family with a second point
    @example(([(2.0 - 1.5j, d) for d in (4, 1, 0, 5, 1)] + [(-1.5 + 0j, 2)],) * 2 + (0.5,))
    def test_bits_equal_strip_kernel(self, family):
        rows, cols, alpha = family
        params = FockParams(alpha)
        reference = strip_overlap_matrix(rows, cols, params)
        # budgets of one pair per block, of blocks that end inside a row
        # point's run of pairs, and the default
        for budget in (1, 7, kernels._BLOCK_ENTRIES):
            with mock.patch.object(kernels, "_BLOCK_ENTRIES", budget):
                got = overlap_matrix(rows, cols, params)
            assert np.array_equal(got.view(np.int64), reference.view(np.int64))


@pytest.mark.parametrize(
    "generate,radius,degree",
    [
        (generate_covering_rings, 8.0, None),
        (generate_covering_rings, 10.0, 120),
        (generate_disjoint_rings, 35.0, None),
        (generate_disjoint_rings, 50.0, 40),
        (lambda alpha, spacing, radius: generate_lattice(alpha, spacing, 3, radius), 6.0, None),
    ],
    ids=["covering R=8 Gram", "covering R=10 analysis", "disjoint R=35 Gram",
         "disjoint R=50 analysis", "lattice m=3 R=6 Gram"],
)
def test_benchmark_shaped_families_bits_equal_strip_kernel(generate, radius, degree):
    # the families the benchmark builds, whose run pairs hold hundreds of
    # Laguerre chains of up to 29 steps, and a lattice of short runs; turned
    # by 4 radians, the centre point becomes 0 - 0j, whose real-axis pairs
    # take arg w = +-pi in both directions
    divisor, _ = generate(1.0, 1.0, radius)
    turn = complex(math.cos(4.0), math.sin(4.0))
    turned = Divisor(divisor.params, [(lam * turn, m) for lam, m in divisor.entries])
    assert any(lam == 0 and math.copysign(1.0, lam.imag) < 0 for lam in turned.points)
    for d in (divisor, turned):
        rows = d.atom_labels()
        cols = rows if degree is None else [(0.0, n) for n in range(degree + 1)]
        got = overlap_matrix(rows, cols, d.params)
        reference = strip_overlap_matrix(rows, cols, d.params)
        assert np.array_equal(got.view(np.int64), reference.view(np.int64))


@pytest.mark.parametrize("budget", [1, 7, 64])
def test_run_pair_longer_than_budget_bits_equal_strip_kernel(budget):
    # one point of multiplicity 40: against itself its one run pair holds 79
    # chains, against the degrees 0..120 at the origin 160, so every budget
    # splits a run pair by chain range
    rows = [(1.5 - 0.5j, j) for j in range(40)]
    params = FockParams(1.0)
    for cols in (rows, [(0.0, k) for k in range(121)]):
        reference = strip_overlap_matrix(rows, cols, params)
        with mock.patch.object(kernels, "_BLOCK_ENTRIES", budget):
            got = overlap_matrix(rows, cols, params)
        assert np.array_equal(got.view(np.int64), reference.view(np.int64))


def test_gram_and_analysis_memory_bounded_by_blocks():
    # covering rings at R = 12, 770 atoms: the temporaries of a block, not of
    # the whole family, come on top of the matrix itself
    divisor, _ = generate_covering_rings(1.0, 1.0, 12.0)
    labels = divisor.atom_labels()
    assert len(labels) == 770
    for build in (lambda: gram_matrix(labels, divisor.params).entries,
                  lambda: analysis_matrix(divisor, 120).entries):
        tracemalloc.start()
        try:
            entries = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= entries.nbytes + 2 * 2**20
