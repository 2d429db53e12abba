"""Spectral side of the sampling and interpolation definitions on truncated
spaces: measurement vectors, analysis matrices, empirical frame and Riesz
bounds, minimal-norm interpolation and the vanishing-subspace mass experiment.

The genuine notions are infinite dimensional.  Everything here lives on the
span of e_0..e_N and a finite window, and every summary carries that (degree,
divisor) provenance, so the results are labeled for what they are: desk-scale
estimates of the frame and Riesz constants.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .core import Atom, FockFunction, FockParams, ParameterMismatchError, basis_labels, label_array
from .core import require_index, require_positive, scalar_math, scalar_mul
from .geometry import Divisor
from .kernels import GramMatrix, gram_matrix, overlap_matrix

__all__ = [
    "MeasurementVector",
    "AnalysisMatrix",
    "InterpolationSolution",
    "InfeasibleExperimentError",
    "measurements",
    "analysis_matrix",
    "frame_bounds",
    "min_norm_interpolate",
    "riesz_bounds",
    "eigenvalue_bounds",
    "hole_mass_experiment",
]


class InfeasibleExperimentError(ValueError):
    """The vanishing constraints leave no admissible subspace."""


@dataclass(frozen=True, eq=False)
class MeasurementVector:
    """Values <f, T_lam e_k> at the labels (lam, k), k < m_lam, a LABEL array in divisor order."""

    labels: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", label_array(self.labels))
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (len(self.labels),):
            raise ValueError("values must be one entry per label")
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))


@dataclass(frozen=True, eq=False)
class AnalysisMatrix:
    """Matrix A[(lam,k), n] = <e_n, T_lam e_k> for n = 0..degree.

    For a function with basis coefficients c, A @ c reproduces its divisor
    measurements up to the degree-N truncation defect.
    """

    params: FockParams
    labels: np.ndarray
    degree: int
    entries: np.ndarray
    divisor_digest: str


@dataclass(frozen=True, eq=False)
class InterpolationSolution:
    """Minimal-norm interpolant in the span of the divisor atoms.  `spectrum` is
    the ascending Gram spectrum the solve took or, from a solve that took none,
    the Gram, kept until gram_condition's first read takes its eigvalsh spectrum."""

    function: FockFunction
    residual: float
    norm: float
    truncated: bool
    spectrum: InitVar[np.ndarray]

    def __post_init__(self, spectrum):
        if spectrum.ndim == 1:
            self.__dict__["gram_condition"] = eigenvalue_bounds(spectrum)[2]
        else:
            self.__dict__["_gram"] = spectrum

    @cached_property
    def gram_condition(self) -> float:
        """smax/smin of the Gram's spectrum, inf unless smin > 0."""
        return eigenvalue_bounds(np.linalg.eigvalsh(self._gram))[2]


def measurements(f: FockFunction, divisor: Divisor) -> MeasurementVector:
    """Measurement vector <f, T_lam e_k>, 0 <= k < m_lam, in divisor order."""
    if f.params.alpha != divisor.params.alpha:
        raise ParameterMismatchError("function and divisor must share alpha")
    labels = divisor.atom_labels()
    overlaps = overlap_matrix(labels, f.atom_labels(), f.params)
    # summed atom by atom by scalar_mul, not by BLAS: the values do not depend on the machine
    values = np.zeros(len(labels), dtype=complex)
    for c, column in zip(f.atom_coeffs(), overlaps.T):
        values += scalar_mul(c, column.real, column.imag)
    return MeasurementVector(labels, values)


def analysis_matrix(divisor: Divisor, degree: int) -> AnalysisMatrix:
    """Analysis map of the divisor restricted to span(e_0..e_degree)."""
    degree = require_index("degree", degree)
    labels = divisor.atom_labels()
    entries = overlap_matrix(labels, basis_labels(degree), divisor.params)
    return AnalysisMatrix(divisor.params, labels, degree, entries, divisor.digest())


def frame_bounds(matrix: AnalysisMatrix) -> dict:
    """Extreme singular values of the analysis map on span(e_0..e_degree), as
    the block `frame-bounds` prints for each degree, keys in report order:
    {degree, smin, smax, ratio, rank_deficient, divisor_digest}.  ratio is
    (smax/smin)^2, the empirical frame-bound ratio, inf when smin is 0 or the
    square leaves the double range.  With fewer measurement rows than basis
    columns the map has a kernel by construction: smin is reported as 0 and
    rank_deficient is set.  divisor_digest is the divisor's.
    """
    return _sweep_frame_bounds(matrix, [matrix.degree])[0]


# LAPACK crossovers: zgesdd QR-factors a rows x p matrix first when rows >=
# MNTHR1 = int(17p / 9) (zgesdd.f), and zgeqrf runs unblocked up to NX = 128
# columns (ilaenv.f), where a wider R's leading p x p block is the prefix's R.
_QR_FIRST, _QR_UNBLOCKED_COLS = (17, 9), 128


def _sweep_frame_bounds(matrix: AnalysisMatrix, degrees) -> list[dict]:
    """frame_bounds(analysis_matrix(divisor, d)) for the ascending degrees d,
    read off the matrix's column prefixes by the R-SVD (Chan 1982): each
    prefix of p = d + 1 <= 128 columns with rows >= int(17p / 9) takes its
    singular values from R[:p, :p] of one QR of the widest such prefix, the R
    that reference LAPACK's zgesdd factors first, which keeps every bit under
    single-threaded BLAS (on more threads the shared R moves the svd's last
    bits differently, mostly where smin is at rounding level).  Fewer than two
    such prefixes make no QR, so a single degree takes the svd of its block."""
    rows, (num, den) = matrix.entries.shape[0], _QR_FIRST
    if rows == 0:
        raise ValueError("analysis matrix has no measurement rows")
    shared = [d for d in degrees if d < _QR_UNBLOCKED_COLS and rows >= num * (d + 1) // den]
    r = np.linalg.qr(matrix.entries[:, : shared[-1] + 1], mode="r") if len(shared) > 1 else None
    summaries = []
    for d in degrees:
        p = d + 1
        block = r[:p, :p] if r is not None and d <= shared[-1] else matrix.entries[:, :p]
        s = np.linalg.svd(block, compute_uv=False)
        smax, smin = float(s[0]), 0.0 if rows < p else float(s[-1])
        try:
            ratio = (smax / smin) ** 2
        except (ZeroDivisionError, OverflowError):  # smin = 0, or a quotient past 1.3e154
            ratio = math.inf
        summaries.append({"degree": d, "smin": smin, "smax": smax, "ratio": ratio,
                          "rank_deficient": rows < p, "divisor_digest": matrix.divisor_digest})
    return summaries


def riesz_bounds(gram: GramMatrix) -> dict:
    """Spectrum of an atom Gram matrix, as the block `gram` prints, keys in
    report order: {size, eigenvalues, smin, smax, condition, divisor_digest}.
    size counts the atoms, the eigenvalues ascend as eigvalsh returns them,
    condition is smax/smin (inf unless smin > 0), and divisor_digest is the
    Gram's, of (alpha, labels)."""
    w = np.linalg.eigvalsh(gram.entries)
    smin, smax, condition = eigenvalue_bounds(w)
    return {"size": len(w), "eigenvalues": w, "smin": smin, "smax": smax,
            "condition": condition, "divisor_digest": gram.digest()}


def eigenvalue_bounds(w: np.ndarray) -> tuple[float, float, float]:
    """smin, smax and the condition number smax/smin (inf unless smin > 0) of
    an ascending spectrum, as eigvalsh and eigh return it."""
    smin, smax = float(w[0]), float(w[-1])
    return smin, smax, math.inf if smin <= 0 else smax / smin


def _disc_bounds(entries: np.ndarray) -> tuple[float, float]:
    """[lower, upper] holding the spectrum of a Hermitian G, exact or as eigvalsh
    finds it: Gershgorin's (1931) discs [g_ii - r_i, g_ii + r_i], r_i the sum of
    |g_ij| over j != i, widened by kappa·n·ε·upper, kappa = 8: n·ε for the row
    sums' rounding (n terms, each rounded by abs and by the sum), the rest for
    eigvalsh's backward error, p(n)·ε·||G|| with p(n) a modest function of n
    (LAPACK), and ||G|| <= upper.  g_ii - r_i is row i's dominance margin, which
    no Schur complement lowers: lower > 0 keeps every Cholesky pivot above it."""
    centre = entries.diagonal().real
    radius = np.abs(entries).sum(axis=1) - np.abs(centre)  # |G| is freed here
    lower, upper = float(np.min(centre - radius)), float(np.max(centre + radius))
    margin = 8 * len(centre) * np.finfo(float).eps * upper
    return lower - margin, upper + margin


def min_norm_interpolate(
    divisor: Divisor, data: MeasurementVector, rcond: float = 1e-12
) -> InterpolationSolution:
    """Solve <f, T_lam e_k> = v for the minimal-norm f in the atom span.

    Three routes.  A Gram G whose Gershgorin enclosure (_disc_bounds) lies
    above rcond times its top is inverted by np.linalg.solve at once, with no
    factor or spectrum.  Any other G is screened by a Cholesky factor: if it
    has one and its eigvalsh spectrum lies above rcond times the largest,
    solve inverts it; else eigh's eigenvalues at or below rcond times the
    largest are truncated (pseudo-inverse), so near-coincident points need no
    perturbed input.  gram_condition is that of eigh's spectrum or of
    riesz_bounds' eigvalsh one, taken on its first read on the first route.
    The norm is sqrt(Re(conj(c) . v)); <f, f> = conj(c) . G c is kept with
    the interpolant.
    """
    require_positive("rcond", rcond)
    labels = divisor.atom_labels()
    if not labels.size:
        raise ValueError("divisor must be nonempty")
    if not np.array_equal(data.labels, labels):  # by value: 0j equals -0j, a NaN equals nothing
        raise ValueError("measurement labels do not match the divisor")
    gram = gram_matrix(labels, divisor.params)
    lower, upper = _disc_bounds(gram.entries)
    certified, w = lower > rcond * upper, None
    if not certified:
        try:  # a cheap screen: a Gram that is not positive definite has no Cholesky factor
            np.linalg.cholesky(gram.entries)
        except np.linalg.LinAlgError:
            pass
        else:
            w = np.linalg.eigvalsh(gram.entries)
    if certified or w is not None and w[0] > rcond * w[-1]:
        coeffs, truncated = np.linalg.solve(gram.entries, data.values), False
    else:
        w, u = np.linalg.eigh(gram.entries)
        keep = w > rcond * w[-1]
        truncated = not bool(keep.all())
        inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
        coeffs = u @ (inv * (u.conj().T @ data.values))
    atoms = map(Atom, labels["point"].tolist(), labels["n"].tolist(), coeffs)
    function = FockFunction(divisor.params, atoms)
    product = gram.entries @ coeffs
    residual = float(np.max(np.abs(product - data.values)))
    # <f, f> as f.inner(f) evaluates it, on the same Gram bits
    object.__setattr__(function, "_norm_sq", complex(np.vdot(coeffs, product)).real)
    norm = math.sqrt(max(float(np.real(np.vdot(coeffs, data.values))), 0.0))
    return InterpolationSolution(function, residual, norm, truncated, gram.entries if certified else w)


def _window_masses(degree: int, radius: float, params: FockParams) -> np.ndarray:
    """Weighted window mass of each e_n, n = 0..degree: the regularized
    incomplete gamma P(n+1, x), x = alpha*R^2, which is the chance that a
    Poisson(x) count exceeds n.  Each Poisson term is formed on its own in the
    log domain and the tails are summed from the top down, which keeps tiny
    masses accurate; for x > degree + 1 the masses are at least about one
    half and are one minus the lower sums, so no array grows with x.
    """
    try:
        x = params.alpha * radius**2
    except OverflowError:  # R^2 leaves the double range, alpha*R^2 may not
        x = params.alpha * radius * radius
    if x in (0, math.inf):  # alpha*R^2 underflowed or overflowed: P(n+1, 0) = 0, P(n+1, inf) = 1
        return np.full(degree + 1, 0.0 if x == 0 else 1.0)

    top = degree if x > degree + 1 else degree + 1 + math.ceil(12 * math.sqrt(x) + 40)
    log_fact = scalar_math(math.lgamma, np.arange(1, top + 2))
    terms = np.exp(-x + np.arange(top + 1) * math.log(x) - log_fact)  # Poisson(x) at 0..top
    if x > degree + 1:
        return 1.0 - np.cumsum(terms)
    return np.cumsum(terms[:0:-1])[::-1][: degree + 1]


def hole_mass_experiment(divisor: Divisor, degree: int, radius: float) -> float:
    """Largest mass fraction in the window |z| <= radius reachable by unit-norm
    functions of degree <= N whose divisor measurements all vanish.

    The vanishing constraints are the rows of the analysis matrix; the search
    space is its null space.  A small value means every such function lives
    essentially outside the window, the numerical shadow of the divisor not
    being a zero divisor when its bare discs cover the window.
    """
    require_positive("window radius", radius)
    degree = require_index("degree", degree)
    n_constraints = divisor.total_multiplicity()
    if n_constraints >= degree + 1:
        raise InfeasibleExperimentError(
            f"{n_constraints} vanishing constraints leave no degree-{degree} subspace"
        )
    # an empty divisor gives a matrix without rows, whose vh is the identity
    matrix = analysis_matrix(divisor, degree)
    _, s, vh = np.linalg.svd(matrix.entries)
    tol = max(matrix.entries.shape) * np.finfo(float).eps * float(s[0]) if s.size else 0.0
    rank = int(np.sum(s > tol))
    null_basis = vh[rank:].conj().T
    masses = _window_masses(degree, radius, divisor.params)
    restricted = (null_basis.conj().T * masses) @ null_basis
    eigenvalues = np.linalg.eigvalsh(restricted)
    return float(eigenvalues[-1])
