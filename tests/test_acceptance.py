"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  Experiment baselines
(marked FIXTURE) were recorded with the first verified run of this suite and
guard against silent regressions.
"""

import cmath
import json
import math
import subprocess
import sys

import numpy as np

from focklab import (
    Atom,
    Divisor,
    FockFunction,
    FockParams,
    MeasurementVector,
    Window,
    analysis_matrix,
    basis_function,
    compose_phase,
    coverage_defect,
    default_oracle_radius,
    displaced_basis,
    frame_bounds,
    generate_covering_rings,
    generate_disjoint_rings,
    generate_lattice,
    gram_matrix,
    load_divisor,
    min_norm_interpolate,
    overlap_matrix,
    pairwise_disjoint,
    quadrature_inner_oracle,
    riesz_bounds,
    rescale_to_unit_alpha,
    save_divisor,
    theorem_verdicts,
)
from focklab.core import basis_labels

P1 = FockParams(1.0)


def random_function(rng, params, max_atoms, max_k=6, spread=3.0):
    n = int(rng.integers(1, max_atoms + 1))
    atoms = tuple(
        Atom(
            complex(rng.uniform(-spread, spread), rng.uniform(-spread, spread)),
            int(rng.integers(0, max_k + 1)),
            complex(rng.standard_normal(), rng.standard_normal()),
        )
        for _ in range(n)
    )
    return FockFunction(params, atoms)


def test_orthonormality_and_parseval():
    # <e_j, e_k> = delta_{jk} within 1e-10 for j, k <= 60
    worst = float(np.max(np.abs(overlap_matrix(basis_labels(60), basis_labels(60), P1) - np.eye(61))))
    assert worst <= 1e-10
    # Parseval on 100 random basis-supported functions, 1e-12 relative
    rng = np.random.default_rng(100)
    for _ in range(100):
        degree = int(rng.integers(1, 40))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f = FockFunction(P1, tuple(Atom(0.0, n, c) for n, c in enumerate(coeffs)))
        total = float(np.sum(np.abs(coeffs) ** 2))
        assert abs(f.norm() ** 2 - total) <= 1e-12 * total
    print("PASS orthonormality/Parseval: basis overlap error "
          f"{worst:.2e} <= 1e-10; 100 random Parseval checks <= 1e-12 relative")


def test_translation_isometry():
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(200):
        f = random_function(rng, P1, max_atoms=10)
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        n0 = f.norm()
        n1 = f.translate(z).norm()
        worst = max(worst, abs(n1 - n0) / n0)
    assert worst <= 1e-9
    print(f"PASS isometry: worst relative norm deviation {worst:.2e} <= 1e-9 over 200 trials")


def basis_from_log(log_u, at_zero, top, alpha):
    """e_0..e_top at the points u with logarithms log_u, bit for bit as
    core.basis_eval forms them: exp(log coefficient + k log u), 0 where u = 0."""
    values = [np.ones_like(log_u)]
    for k in range(1, top + 1):
        log_coeff = 0.5 * (k * math.log(alpha) - math.lgamma(k + 1))
        values.append(np.where(at_zero, 0j, np.exp(log_coeff + k * log_u)))
    return values


def test_displacement_closed_form_vs_quadrature():
    # quadrature_inner_oracle's rule (48 x 96 polar nodes), restated on one
    # node grid per (alpha, |z|, max(j, k)), on which its default radius
    # depends alone.  T_z e_k(w) = factor(w) e_k(w - z), as core.atom_eval
    # forms it: log w once per grid, and the factor and log(w - z) once per
    # z and grid, give every e_j(w) and T_z e_k(w) with the bits of evaluate
    nodes, weights = np.polynomial.legendre.leggauss(48)
    turn = np.exp(1j * (2.0 * np.pi * np.arange(96) / 96))
    # (alpha, z, j, k) at which the restated rule is checked against the oracle
    spot_checks = {(0.5, 2.5 - 1.25j, 12, 3), (1.0, 0j, 5, 5), (2.0, -2.5 + 2.5j, 0, 12)}
    grid = [-2.5, -1.25, 0.0, 1.25, 2.5]
    by_modulus = {}  # the 25 points z fall on 6 values of |z|
    for re in grid:
        for im in grid:
            by_modulus.setdefault(abs(complex(re, im)), []).append(complex(re, im))
    worst = spot_worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        params = FockParams(alpha)
        for zs in by_modulus.values():
            # entry [j, k] is displacement_element(z, j, k, params), bit for bit
            closed = {
                z: overlap_matrix([(0.0, j) for j in range(13)], [(z, k) for k in range(13)], params)
                for z in zs
            }
            for top in range(13):
                radius = default_oracle_radius(
                    displaced_basis(zs[0], top, params), basis_function(top, params)
                )
                r = 0.5 * radius * (nodes + 1.0)
                zgrid = r[:, None] * turn[None, :]
                radial = np.exp(-alpha * r**2) * r * (0.5 * radius * weights)
                with np.errstate(divide="ignore", invalid="ignore"):
                    log_w = np.log(zgrid)
                basis = [np.conj(e) for e in basis_from_log(log_w, zgrid == 0, top, alpha)]
                for z in zs:
                    factor = np.exp(alpha * z.conjugate() * zgrid - 0.5 * alpha * (z.real**2 + z.imag**2))
                    with np.errstate(divide="ignore", invalid="ignore"):
                        log_shift = np.log(zgrid - z)
                    displaced = [factor * e for e in basis_from_log(log_shift, zgrid == z, top, alpha)]
                    for j, k in {(top, k) for k in range(top + 1)} | {(j, top) for j in range(top)}:
                        integral = (2.0 * np.pi / 96) * np.sum(displaced[k] * basis[j] * radial[:, None])
                        value = complex(alpha / np.pi * integral)
                        worst = max(worst, abs(closed[z][j, k] - value))
                        if (alpha, z, j, k) in spot_checks:
                            oracle = quadrature_inner_oracle(
                                displaced_basis(z, k, params), basis_function(j, params),
                                n_r=48, n_theta=96,
                            )
                            spot_worst = max(spot_worst, abs(value - oracle))
                            spot_checks.remove((alpha, z, j, k))
    assert not spot_checks
    assert spot_worst <= 1e-15
    assert worst <= 1e-8
    print(f"PASS displacement vs quadrature: max abs error {worst:.2e} <= 1e-8 "
          "(j,k <= 12, 5x5 z-grid, alpha in {0.5,1,2})")


def test_composition_phase_law():
    rng = np.random.default_rng(300)
    eval_points = [complex(x, y) for x, y in rng.uniform(-2, 2, size=(20, 2))]
    worst = 0.0
    for _ in range(50):
        w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        f = random_function(rng, P1, max_atoms=5, max_k=4, spread=2.0)
        phase, shift = compose_phase(w, z, P1)
        g = f.translate(z)
        combined = f.translate(shift)
        alpha = P1.alpha
        for zeta in eval_points:
            # T_w applied pointwise to g, against phase * T_{w+z} f
            lhs = np.exp(alpha * w.conjugate() * zeta - 0.5 * alpha * abs(w) ** 2) * g.evaluate(
                zeta - w
            )
            rhs = phase * combined.evaluate(zeta)
            err = abs(lhs - rhs) / (1 + abs(rhs))
            worst = max(worst, err)
    assert worst <= 1e-10
    print(f"PASS composition phase law: worst pointwise deviation {worst:.2e} <= 1e-10")


def test_trivial_frame():
    for degree in (5, 20, 60):
        divisor = Divisor(P1, ((0.0, degree + 1),))
        summary = frame_bounds(analysis_matrix(divisor, degree))
        assert abs(summary["smin"] - 1.0) <= 1e-10
        assert abs(summary["smax"] - 1.0) <= 1e-10
    print("PASS trivial frame: divisor {(0, N+1)} gives smin = smax = 1 for N in {5, 20, 60}")


# FIXTURE: Gram smin of generate_disjoint_rings(alpha=1, C=1, radius=10),
# recorded with the first verified run; stable across runs to 1e-10.
DISJOINT_GRAM_SMIN = 0.9999348398333918


def test_interpolation_exactness_disjoint_regime():
    divisor, _ = generate_disjoint_rings(1.0, 1.0, 10.0)
    labels = tuple(divisor.atom_labels())
    assert len(labels) <= 40
    gram = gram_matrix(labels, P1)
    smin = riesz_bounds(gram)["smin"]
    assert abs(smin - DISJOINT_GRAM_SMIN) <= 1e-10
    rng = np.random.default_rng(400)
    worst = 0.0
    for _ in range(20):
        data = MeasurementVector(
            labels, rng.standard_normal(len(labels)) + 1j * rng.standard_normal(len(labels))
        )
        solution = min_norm_interpolate(divisor, data)
        worst = max(worst, solution.residual / (1 + data.norm()))
    assert worst <= 1e-8
    print(f"PASS interpolation exactness: {len(labels)} atoms, worst residual/(1+|v|) "
          f"{worst:.2e} <= 1e-8; Gram smin matches fixture {DISJOINT_GRAM_SMIN}")


def test_conditioning_contrast():
    divisor, _ = generate_disjoint_rings(1.0, 1.0, 10.0)
    baseline = riesz_bounds(gram_matrix(divisor.atom_labels(), P1))["condition"]
    shrunk = Divisor(P1, tuple((lam / 4, m) for lam, m in divisor.entries))
    overlapping = riesz_bounds(gram_matrix(shrunk.atom_labels(), P1))["condition"]
    assert overlapping >= 100 * baseline
    print(f"PASS conditioning contrast: overlapping condition {overlapping:.3e} >= "
          f"100x disjoint condition {baseline:.6f}")


# FIXTURE: hole-divisor smin sweep (lattice spacing 1.5 clipped to 5 <= |lam| <= 9,
# alpha=1) and covering-rings ratio sweep (C=1, radius 8.5), N in {10,20,30,40};
# recorded with the first verified run.
HOLE_SMIN_BASELINE = (1.7733732802081575e-07, 4.442712641559411e-08,
                      1.4608633586008152e-08, 1.6648552921753947e-09)
COVERING_RATIO_BASELINE = (1.727720153658195, 2.0934196286446953,
                           2.667002084913018, 3.450299966239534)
SWEEP_DEGREES = (10, 20, 30, 40)


def test_sampling_trend_hole_vs_covering():
    lattice, _ = generate_lattice(1.0, 1.5, 1, 9.0)
    hole = Divisor(P1, tuple((lam, m) for lam, m in lattice.entries if abs(lam) >= 5))
    smins = [frame_bounds(analysis_matrix(hole, n))["smin"] for n in SWEEP_DEGREES]
    # monotone decay (5% tolerance) and at least a factor 10 across the sweep
    for later, earlier in zip(smins[1:], smins[:-1]):
        assert later <= earlier * 1.05
    assert smins[0] / smins[-1] >= 10
    assert np.allclose(smins, HOLE_SMIN_BASELINE, rtol=1e-4)

    covering, _ = generate_covering_rings(1.0, 1.0, 8.5)
    ratios = [frame_bounds(analysis_matrix(covering, n))["ratio"] for n in SWEEP_DEGREES]
    assert max(ratios) / min(ratios) < 3
    assert np.allclose(ratios, COVERING_RATIO_BASELINE, rtol=1e-4)
    print(f"PASS sampling trend: hole smin decay factor {smins[0]/smins[-1]:.1f} >= 10; "
          f"covering ratio spread {max(ratios)/min(ratios):.2f} < 3")


def test_geometric_exclusivity():
    rng = np.random.default_rng(500)
    checked = 0
    for trial in range(100):
        alpha = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        unit = 1 / math.sqrt(alpha)
        c = float(rng.uniform(0.3, 1.5)) * unit
        radius = float(rng.uniform(5.0, 10.0)) * unit
        if trial % 2 == 0:
            divisor, _ = generate_covering_rings(alpha, c, radius)
        else:
            divisor, _ = generate_disjoint_rings(alpha, c, radius)
        w_radius = max(abs(lam) for lam, _ in divisor.entries) + unit
        step = min(c, w_radius / 10) * 0.9
        window = Window(w_radius, step)
        if sum(1 for lam, _ in divisor.entries if abs(lam) <= w_radius) < 2:
            continue
        if pairwise_disjoint(divisor, c, +1)[0]:
            assert coverage_defect(divisor, c, -1, window).size > 0, (
                f"exclusivity counterexample at trial {trial}"
            )
            checked += 1
    assert checked >= 30
    print(f"PASS geometric exclusivity: {checked} non-vacuous implications over "
          "100 generated divisors, zero counterexamples")


def test_alpha_rescaling_invariance():
    rng = np.random.default_rng(600)
    for _ in range(20):
        alpha = float(rng.choice([0.5, 2.0, 4.0]))
        points = []
        while len(points) < 5:
            z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if all(abs(z - p) > 1e-6 for p in points):
                points.append(z)
        divisor = Divisor(
            FockParams(alpha),
            tuple((p, int(m)) for p, m in zip(points, rng.integers(1, 5, 5))),
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
        assert [r["uncovered"].size for r in original["shrunk_cover"]] == [
            r["uncovered"].size for r in rescaled["shrunk_cover"]
        ]
        assert original["shrunk_disjoint"]["holds"] == rescaled["shrunk_disjoint"]["holds"]
        assert original["padded_disjoint"]["holds"] == rescaled["padded_disjoint"]["holds"]
        assert original["bare_cover"]["holds"] == rescaled["bare_cover"]["holds"]
        assert original["exclusivity_consistent"] == rescaled["exclusivity_consistent"]
    print("PASS alpha-rescaling invariance: 20 random divisors, verdicts identical "
          "after the unit-alpha change of variable")


def _pair_block_norm(m, gap):
    """2-norm of the overlap block between the atoms (lam, k), k < m, of two
    points at distance 2*sqrt(m) + gap (alpha = 1): the discs D(lam, sqrt(m))
    are tangent at gap 0."""
    rows = Divisor(P1, ((0.0, m),)).atom_labels()
    cols = Divisor(P1, ((2.0 * math.sqrt(m) + gap, m),)).atom_labels()
    return float(np.linalg.norm(overlap_matrix(rows, cols, P1), 2))


def test_two_disc_block_norm_law():
    # one atom each: |<k_0, k_2>| = exp(-alpha*|2|^2/2)
    assert abs(_pair_block_norm(1, 0.0) - math.exp(-2.0)) <= 1e-15
    # FIXTURE (probe): the pair separates on the scale m^(-1/6), the Airy
    # scale of Laguerre polynomials at their turning point, and the norm at
    # tangency rises towards about 0.175
    tangent = []
    for m in (16, 64, 256):
        assert 0.45 <= _pair_block_norm(m, -0.75 * m ** (-1 / 6)) <= 0.55
        tangent.append(_pair_block_norm(m, 0.0))
    assert 0.165 <= tangent[0] < tangent[1] < tangent[2] <= 0.176
    # the norm crosses 0.9 and 0.1 between fixed gaps in units of m^(-1/6),
    # which bound the width of the transition times m^(1/6)
    above, below = (-1.67, -1.64), (0.28, 0.31)
    for m in (64, 256):
        scale = m ** (-1 / 6)
        assert _pair_block_norm(m, above[0] * scale) > 0.9 > _pair_block_norm(m, above[1] * scale)
        assert _pair_block_norm(m, below[0] * scale) > 0.1 > _pair_block_norm(m, below[1] * scale)
    narrowest, widest = below[0] - above[1], below[1] - above[0]
    assert 0.98 * 1.95 <= narrowest < widest <= 1.02 * 1.95
    print(f"PASS two-disc law: tangent block norms {', '.join(f'{t:.4f}' for t in tangent)} "
          f"(m = 16, 64, 256); width * m^(1/6) in [{narrowest:.2f}, {widest:.2f}] for m = 64, 256")


def test_tangent_cluster_bounds():
    # FIXTURE (probe): a centre and six neighbours at distance 2*sqrt(m) + g
    # (alpha = 1), a patch of the tangent hexagonal packing at g = 0, keep
    # Riesz bounds that do not decay in m, as a C independent of m asks
    lows = []
    for m in (4, 16, 64):
        for gap in (0.0, 1.0):
            d = 2.0 * math.sqrt(m) + gap
            points = [0.0, *(d * cmath.exp(1j * math.pi / 3 * k) for k in range(6))]
            family = Divisor(P1, tuple((p, m) for p in points)).atom_labels()
            bounds = riesz_bounds(gram_matrix(family, P1))
            if gap == 0.0:
                assert 0.55 <= bounds["smin"] <= 0.80 and bounds["smax"] <= 1.40
                lows.append(bounds["smin"])
            else:
                assert bounds["smin"] >= 0.98
    print(f"PASS tangent clusters: smin {', '.join(f'{s:.3f}' for s in lows)} at g = 0 "
          "(m = 4, 16, 64), >= 0.98 at g = 1")


def test_cli_determinism_and_round_trip(tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "focklab", *args], capture_output=True, text=True
        )

    out = tmp_path / "lat.json"
    gen_a = run("generate", "lattice", "--spacing", "1", "--mult", "1",
                "--window", "4", "--out", str(out))
    bytes_a = out.read_text()
    gen_b = run("generate", "lattice", "--spacing", "1", "--mult", "1",
                "--window", "4", "--out", str(out))
    assert gen_a.returncode == gen_b.returncode == 0
    assert gen_a.stdout == gen_b.stdout
    assert out.read_text() == bytes_a

    check_args = ("check-geometry", str(out), "--window", "4", "--grid-step", "0.1")
    first = run(*check_args)
    second = run(*check_args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout)  # well-formed

    # ingest -> serialize is idempotent
    twice = tmp_path / "twice.json"
    save_divisor(load_divisor(out), twice)
    thrice = tmp_path / "thrice.json"
    save_divisor(load_divisor(twice), thrice)
    assert twice.read_text() == thrice.read_text() == bytes_a
    print("PASS CLI determinism: byte-identical reports on repeated runs; "
          "divisor round-trip idempotent")
