import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from focklab import (
    Atom,
    DuplicateLabelError,
    FockFunction,
    FockParams,
    analysis_matrix,
    atom_pair_inner,
    basis_function,
    displaced_basis,
    displacement_element,
    generate_covering_rings,
    gram_matrix,
    kernels,
    overlap_matrix,
    quadrature_inner_oracle,
)
from focklab.core import compose_phase, scalar_math

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

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabelError):
            gram_matrix([(0.0, 0), (0.0, 0)], P1)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            gram_matrix([], P1)

    def test_digest_stable(self):
        labels = [(0.0, 0), (1.0 + 1j, 2)]
        assert gram_matrix(labels, P1).digest() == gram_matrix(labels, P1).digest()


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
        expected = 2 * displaced_basis(atom.lam, atom.k, P1, atom.coeff).inner(g.merged())
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


# axis coordinates of both zero signs (an imaginary part of -0.0 makes the
# kernel compute the family in full), far points whose overlaps underflow to
# signed zeros, and arbitrary finite coordinates
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
        # interleaved as drawn, then sorted by the bits of the point, where
        # the computed blocks hold the lower triangle
        grouped = sorted(labels, key=lambda label: _bits(label[0]))
        for family_order in (labels, grouped):
            got = overlap_matrix(family_order, family_order, params)
            reference = _row_by_row(family_order, params)
            assert np.array_equal(got.view(np.int64), reference.view(np.int64))
        # positive semidefinite up to a backward-stable eigensolver's error
        bound = len(labels) * np.finfo(float).eps * np.linalg.norm(got, 2)
        assert np.linalg.eigvalsh(got)[0] >= -bound
        # a -0.0 imaginary part has the family computed in full, and then the
        # atan2 branch of the closed form can break the symmetry by rounding
        if not any(lam.imag == 0 and math.copysign(1.0, lam.imag) < 0 for lam, _ in labels):
            assert np.array_equal(got, got.conj().T)


def strip_overlap_matrix(rows, cols, params):
    """The kernel in its one-strip-per-row-point form: each distinct row
    point's strip evaluates its column points' factors, then every entry's
    cos and sin.  The block kernel must equal it bit for bit."""
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
    hermitian = equal and not np.any(np.signbit(lam.imag) & (lam.imag == 0))
    for s, point in enumerate(row_points):
        index = np.flatnonzero(row_of == s)
        sel = np.flatnonzero(point_of <= s) if hermitian else np.arange(len(cols))
        reach = points[: s + 1] if hermitian else points
        phase, *factors = [f[point_of[sel]] for f in _strip_factors(point, reach, params)]
        re, im = _strip_elements(j[index, None], k[sel], factors, log_fact)
        out[np.ix_(index, sel)] = _strip_rotate(phase, re, im)
        if hermitian:
            mirror, at_zero = point_of[sel] < s, factors[-1]
            back, _ = compose_phase(-points[:s], point, params)
            im = np.where(at_zero[mirror], im[:, mirror], -im[:, mirror])
            block = _strip_rotate(back[point_of[sel[mirror]]], re[:, mirror], im)
            out[np.ix_(sel[mirror], index)] = block.T
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
    phase, z = compose_phase(-mu, points, params)
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
# imaginary part of -0.0 turns the mirror off), 1e-200 (a point pair whose
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


class TestBlockKernel:
    @settings(max_examples=200, deadline=None)
    @given(label_families())
    # an equal family whose mirrored entries include z = 0 pairs of distinct
    # points (by underflow, and exactly at zero coordinates of both signs),
    # and a family with the same degree gap on both branches at one pair
    @example(([(1 + 0j, 0), (1 + 1e-200j, 0), (1 + 0j, 1), (1 + 1e-200j, 2)],) * 2 + (1.0,))
    @example(([(0.5j, 0), (complex(-0.0, 0.5), 1), (0.5j, 2), (complex(-0.0, 0.5), 0)],) * 2 + (2.0,))
    @example(([(0j, 1), (0j, 3)], [(1.5 - 0.5j, 3), (1.5 - 0.5j, 1)], 1.0))
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
