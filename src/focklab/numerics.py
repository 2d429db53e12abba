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
from dataclasses import dataclass

import numpy as np

from .core import Atom, FockFunction, FockParams, ParameterMismatchError
from .geometry import Divisor, Window
from .kernels import GramMatrix, gram_matrix, overlap_matrix

__all__ = [
    "MeasurementVector",
    "AnalysisMatrix",
    "SpectralSummary",
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
    """Values <f, T_lam e_k> ordered like the divisor labels (k < m_lam)."""

    labels: tuple[tuple[complex, int], ...]
    values: np.ndarray

    def __post_init__(self):
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
    labels: tuple[tuple[complex, int], ...]
    degree: int
    entries: np.ndarray
    divisor_digest: str

    def prefix(self, degree: int) -> "AnalysisMatrix":
        """The analysis map on span(e_0..e_degree): the first degree + 1
        columns, equal to analysis_matrix(divisor, degree) entry for entry."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if degree > self.degree:
            raise ValueError(f"degree must be <= {self.degree}")
        entries = self.entries[:, : degree + 1]
        return AnalysisMatrix(self.params, self.labels, degree, entries, self.divisor_digest)


@dataclass(frozen=True)
class SpectralSummary:
    """Extreme spectrum of an analysis or Gram matrix.

    For analysis matrices smin/smax are singular values and ratio is
    (smax/smin)^2, the empirical frame-bound ratio; for Gram matrices they are
    eigenvalues and ratio is the condition number.  ratio is inf when smin is
    zero (flagged rank_deficient for under-determined analysis maps).
    """

    smin: float
    smax: float
    ratio: float
    degree: int | None
    divisor_digest: str
    rank_deficient: bool = False


@dataclass(frozen=True, eq=False)
class InterpolationSolution:
    """Minimal-norm interpolant in the span of the divisor atoms."""

    function: FockFunction
    residual: float
    norm: float
    gram_condition: float
    truncated: bool


def measurements(f: FockFunction, divisor: Divisor) -> MeasurementVector:
    """Measurement vector <f, T_lam e_k>, 0 <= k < m_lam, in divisor order."""
    if f.params.alpha != divisor.params.alpha:
        raise ParameterMismatchError("function and divisor must share alpha")
    labels = divisor.atom_labels()
    overlaps = overlap_matrix(labels, f.atom_labels(), f.params)
    # summed atom by atom with the scalar complex product, not by BLAS, so the
    # values (which data files and reports carry) do not depend on the machine
    values = np.zeros(len(labels), dtype=complex)
    for c, column in zip(f.atom_coeffs(), overlaps.T):
        values.real += c.real * column.real - c.imag * column.imag
        values.imag += c.real * column.imag + c.imag * column.real
    return MeasurementVector(tuple(labels), values)


def analysis_matrix(divisor: Divisor, degree: int) -> AnalysisMatrix:
    """Analysis map of the divisor restricted to span(e_0..e_degree)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    labels = divisor.atom_labels()
    basis = [(0.0, n) for n in range(degree + 1)]
    entries = overlap_matrix(labels, basis, divisor.params)
    return AnalysisMatrix(divisor.params, tuple(labels), degree, entries, divisor.digest())


def frame_bounds(matrix: AnalysisMatrix) -> SpectralSummary:
    """Extreme singular values of the analysis map on the truncated space.

    With fewer measurement rows than basis columns the map has a kernel by
    construction, so smin is reported as 0 and the summary is flagged.
    """
    rows, cols = matrix.entries.shape
    if rows == 0:
        raise ValueError("analysis matrix has no measurement rows")
    s = np.linalg.svd(matrix.entries, compute_uv=False)
    smax = float(s[0])
    rank_deficient = rows < cols
    smin = 0.0 if rank_deficient else float(s[-1])
    ratio = math.inf if smin == 0 else (smax / smin) ** 2
    return SpectralSummary(smin, smax, ratio, matrix.degree, matrix.divisor_digest, rank_deficient)


def riesz_bounds(gram: GramMatrix) -> SpectralSummary:
    """Extreme eigenvalues and condition number of an atom Gram matrix."""
    bounds = eigenvalue_bounds(np.linalg.eigvalsh(gram.entries))
    return SpectralSummary(*bounds, None, gram.digest())


def eigenvalue_bounds(w: np.ndarray) -> tuple[float, float, float]:
    """smin, smax and the condition number smax/smin (inf unless smin > 0) of
    an ascending spectrum, as eigvalsh and eigh return it."""
    smin, smax = float(w[0]), float(w[-1])
    return smin, smax, math.inf if smin <= 0 else smax / smin


def min_norm_interpolate(
    divisor: Divisor, data: MeasurementVector, rcond: float = 1e-12
) -> InterpolationSolution:
    """Solve <f, T_lam e_k> = v for the minimal-norm f in the atom span.

    Solves G c = v through the eigendecomposition of the Gram matrix G;
    eigenvalues below rcond times the largest are truncated (pseudo-inverse),
    which handles near-coincident points without perturbing any input.  The
    reported norm is sqrt(Re(conj(c) . v)); the interpolant keeps <f, f> =
    conj(c) . G c, the bits its inner() gives, so its norm() builds no Gram.
    """
    if rcond <= 0:
        raise ValueError("rcond must be positive")
    labels = divisor.atom_labels()
    if not labels:
        raise ValueError("divisor must be nonempty")
    if tuple(data.labels) != tuple(labels):
        raise ValueError("measurement labels do not match the divisor")
    gram = gram_matrix(labels, divisor.params)
    w, u = np.linalg.eigh(gram.entries)
    _, wmax, condition = eigenvalue_bounds(w)
    keep = w > rcond * wmax
    truncated = not bool(keep.all())
    inv = np.where(keep, 1.0 / np.where(keep, w, 1.0), 0.0)
    coeffs = u @ (inv * (u.conj().T @ data.values))
    atoms = tuple(Atom(lam, k, c) for (lam, k), c in zip(labels, coeffs))
    function = FockFunction(divisor.params, atoms)
    product = gram.entries @ coeffs
    residual = float(np.max(np.abs(product - data.values)))
    # <f, f> as f.inner(f) evaluates it, on the same Gram bits
    object.__setattr__(function, "_norm_sq", complex(np.vdot(coeffs, product)).real)
    norm = math.sqrt(max(float(np.real(np.vdot(coeffs, data.values))), 0.0))
    return InterpolationSolution(function, residual, norm, condition, truncated)


def _window_masses(degree: int, window: Window, params: FockParams) -> np.ndarray:
    """Weighted window mass of each e_n, n = 0..degree: the regularized
    incomplete gamma P(n+1, x), x = alpha*R^2, which is the chance that a
    Poisson(x) count exceeds n.  Each Poisson term is formed on its own in the
    log domain and the tails are summed from the top down, which keeps tiny
    masses accurate; for x > degree + 1 the masses are at least about one
    half and are one minus the lower sums, so no array grows with x.
    """
    x = params.alpha * window.radius**2

    def poisson(counts):
        log_fact = np.array([math.lgamma(n + 1) for n in counts])
        return np.exp(-x + counts * math.log(x) - log_fact)

    if x > degree + 1:
        return 1.0 - np.cumsum(poisson(np.arange(degree + 1)))
    top = degree + 1 + math.ceil(12 * math.sqrt(x) + 40)
    return np.cumsum(poisson(np.arange(top, 0, -1)))[::-1][: degree + 1]


def hole_mass_experiment(divisor: Divisor, degree: int, window: Window) -> float:
    """Largest window-mass fraction reachable by unit-norm functions of degree
    <= N whose divisor measurements all vanish.

    The vanishing constraints are the rows of the analysis matrix; the search
    space is its null space.  A small value means every such function lives
    essentially outside the window, the numerical shadow of the divisor not
    being a zero divisor when its bare discs cover the window.
    """
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
    masses = _window_masses(degree, window, divisor.params)
    restricted = (null_basis.conj().T * masses) @ null_basis
    eigenvalues = np.linalg.eigvalsh(restricted)
    return float(eigenvalues[-1])
