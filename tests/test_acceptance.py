"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`.  Experiment baselines
(marked FIXTURE) were recorded with the first verified run of this suite and
guard against silent regressions.
"""

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
    displaced_basis,
    displacement_element,
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
    worst = 0.0
    for j in range(61):
        for k in range(61):
            value = displacement_element(0.0, j, k, P1)
            worst = max(worst, abs(value - (1.0 if j == k else 0.0)))
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


def test_displacement_closed_form_vs_quadrature():
    grid = [-2.5, -1.25, 0.0, 1.25, 2.5]
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        params = FockParams(alpha)
        for re in grid:
            for im in grid:
                z = complex(re, im)
                # entry [j, k] is displacement_element(z, j, k, params), bit for bit
                closed = overlap_matrix(
                    [(0.0, j) for j in range(13)], [(z, k) for k in range(13)], params
                )
                for j in range(13):
                    for k in range(13):
                        oracle = quadrature_inner_oracle(
                            displaced_basis(z, k, params),
                            basis_function(j, params),
                            n_r=48,
                            n_theta=96,
                        )
                        worst = max(worst, abs(closed[j, k] - oracle))
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
        assert abs(summary.smin - 1.0) <= 1e-10
        assert abs(summary.smax - 1.0) <= 1e-10
    print("PASS trivial frame: divisor {(0, N+1)} gives smin = smax = 1 for N in {5, 20, 60}")


# FIXTURE: Gram smin of generate_disjoint_rings(alpha=1, C=1, radius=10),
# recorded with the first verified run; stable across runs to 1e-10.
DISJOINT_GRAM_SMIN = 0.9999348398333918


def test_interpolation_exactness_disjoint_regime():
    divisor, _ = generate_disjoint_rings(1.0, 1.0, 10.0)
    labels = tuple(divisor.atom_labels())
    assert len(labels) <= 40
    gram = gram_matrix(labels, P1)
    smin = riesz_bounds(gram).smin
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
    baseline = riesz_bounds(gram_matrix(divisor.atom_labels(), P1)).ratio
    shrunk = Divisor(P1, tuple((lam / 4, m) for lam, m in divisor.entries))
    overlapping = riesz_bounds(gram_matrix(shrunk.atom_labels(), P1)).ratio
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
    smins = [frame_bounds(analysis_matrix(hole, n)).smin for n in SWEEP_DEGREES]
    # monotone decay (5% tolerance) and at least a factor 10 across the sweep
    for later, earlier in zip(smins[1:], smins[:-1]):
        assert later <= earlier * 1.05
    assert smins[0] / smins[-1] >= 10
    assert np.allclose(smins, HOLE_SMIN_BASELINE, rtol=1e-4)

    covering, _ = generate_covering_rings(1.0, 1.0, 8.5)
    ratios = [frame_bounds(analysis_matrix(covering, n)).ratio for n in SWEEP_DEGREES]
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
        assert original.finite_overlap_bound == rescaled.finite_overlap_bound
        assert original.padded_cover_holds == rescaled.padded_cover_holds
        assert [r.holds for r in original.shrunk_cover_by_c] == [
            r.holds for r in rescaled.shrunk_cover_by_c
        ]
        assert [r.uncovered.size for r in original.shrunk_cover_by_c] == [
            r.uncovered.size for r in rescaled.shrunk_cover_by_c
        ]
        assert original.shrunk_disjoint_holds == rescaled.shrunk_disjoint_holds
        assert original.padded_disjoint_holds == rescaled.padded_disjoint_holds
        assert original.bare_cover_holds == rescaled.bare_cover_holds
        assert original.exclusivity_consistent == rescaled.exclusivity_consistent
    print("PASS alpha-rescaling invariance: 20 random divisors, verdicts identical "
          "after the unit-alpha change of variable")


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
