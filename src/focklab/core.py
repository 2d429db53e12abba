"""Atom algebra of the Gaussian-weighted space of entire functions.

A function is stored as a finite combination of unit-norm atoms, each a
degree-k basis state displaced to a point of the plane.  Displacement maps
atoms to atoms exactly, so translation, inner products and norms are computed
from the atom data alone, with no series truncation anywhere.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FockParams",
    "Atom",
    "FockFunction",
    "BasisCoefficients",
    "ParameterMismatchError",
    "basis_eval",
    "atom_eval",
    "compose_phase",
    "basis_function",
    "displaced_basis",
    "from_basis_coeffs",
]


class ParameterMismatchError(ValueError):
    """Two objects built for different weight parameters were combined."""


@dataclass(frozen=True)
class FockParams:
    """Weight parameter alpha > 0 of the Gaussian measure exp(-alpha*|z|^2)."""

    alpha: float

    def __post_init__(self):
        alpha = float(self.alpha)
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"alpha must be a positive finite real, got {self.alpha!r}")
        object.__setattr__(self, "alpha", alpha)


def label_digest(params: FockParams, pairs) -> str:
    """Short stable fingerprint of alpha and (point, integer) pairs, used for
    report provenance by divisors and Gram matrices alike."""
    h = hashlib.sha256()
    h.update(struct.pack("<d", params.alpha))
    for lam, n in pairs:
        h.update(struct.pack("<ddq", lam.real, lam.imag, n))
    return h.hexdigest()[:12]


# Most cells of a probe square (sides of at most 2047 points).  Its complex grid
# takes 16 bytes a cell and a geometric check adds three small-integer grids,
# however many C it tests, so this bounds every grid before numpy allocates it.
MAX_GRID_CELLS = 2**22


def square_axis(half: float, step: float, what: str) -> np.ndarray:
    """Axis step*(-n..n), n = floor(half), of a square grid; a square above
    MAX_GRID_CELLS is refused with a ValueError naming `what`."""
    if not half < MAX_GRID_CELLS or (2 * math.floor(half) + 1) ** 2 > MAX_GRID_CELLS:
        raise ValueError(f"{what} needs more than {MAX_GRID_CELLS} grid cells")
    n = math.floor(half)
    return step * np.arange(-n, n + 1)


@dataclass(frozen=True)
class Atom:
    """One term coeff * (degree-k basis state displaced to lam).

    Every atom has unit norm before the coefficient is applied, so the atom
    data is all that norm and inner-product computations need.
    """

    lam: complex
    k: int
    coeff: complex = 1.0 + 0.0j

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 0:
            raise ValueError(f"basis index k must be a nonnegative integer, got {self.k!r}")
        c = complex(self.coeff)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("atom coefficient must be finite")
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "k", int(self.k))
        object.__setattr__(self, "coeff", c)


def basis_eval(k: int, z, params: FockParams):
    """Evaluate the degree-k orthonormal basis function sqrt(alpha^k/k!) * z^k.

    The value is assembled in the log domain, so large degrees (k of order
    500) neither overflow nor lose their phase.  `z` may be a scalar or an
    ndarray; the result matches the input shape.
    """
    if k < 0:
        raise ValueError("basis index k must be >= 0")
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0
    if k == 0:
        out = np.ones_like(zz)
    else:
        log_coeff = 0.5 * (k * math.log(params.alpha) - math.lgamma(k + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(log_coeff + k * np.log(zz))
        out = np.where(zz == 0, 0.0 + 0.0j, out)
    return complex(out) if scalar else out


def atom_eval(atom: Atom, zeta, params: FockParams):
    """Evaluate coeff * T_lam e_k at zeta.

    The displacement acts as T_z f(w) = exp(alpha*conj(z)*w - alpha*|z|^2/2)
    * f(w - z); only the displacement factor and a basis evaluation at the
    shifted argument are needed.
    """
    zz = np.asarray(zeta, dtype=complex)
    scalar = zz.ndim == 0
    a = params.alpha
    lam = atom.lam
    pref = np.exp(a * lam.conjugate() * zz - 0.5 * a * (lam.real**2 + lam.imag**2))
    out = atom.coeff * pref * basis_eval(atom.k, zz - lam, params)
    return complex(out) if scalar else out


def scalar_math(fn, *args) -> np.ndarray:
    """Apply a `math` function elementwise, exactly as scalar Python does;
    numpy's own exp, log, atan2 and power round some arguments differently
    from the C library, and differently on different CPUs."""
    return np.asarray(np.frompyfunc(fn, len(args), 1)(*args), dtype=float)


def compose_phase(w, z, params: FockParams):
    """Phase and shift of the composition T_w T_z = phase * T_{w+z}.

    The phase is exp(-1j*alpha*Im(conj(z)*w)).  The exponent is kept as a real
    angle and turned into cos/sin separately, so the returned factor is
    unimodular to rounding.  Every module must take its signs from here.
    `w` and `z` may be scalars or broadcastable ndarrays; scalar inputs give
    complex scalars.
    """
    ww, zz = np.asarray(w, dtype=complex), np.asarray(z, dtype=complex)
    # Im(conj(z)*w) in the operation order of a scalar complex product
    angle = -params.alpha * (zz.real * ww.imag + -zz.imag * ww.real)
    phase = scalar_math(math.cos, angle) + 1j * scalar_math(math.sin, angle)
    shift = ww + zz
    if phase.ndim == 0:
        return complex(phase), complex(shift)
    return phase, shift


@dataclass(frozen=True)
class BasisCoefficients:
    """Coefficients c_0..c_N of a projection onto the span of e_0..e_N.

    `defect` is the squared norm lost by the truncation, nonnegative up to
    rounding; it vanishes exactly when the projected function is a degree-N
    combination of undisplaced atoms.
    """

    params: FockParams
    coeffs: np.ndarray
    defect: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))

    def squared_sum(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


@dataclass(frozen=True)
class FockFunction:
    """Finite combination of displaced basis atoms; the empty tuple is f = 0."""

    params: FockParams
    atoms: tuple[Atom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    def __add__(self, other: "FockFunction") -> "FockFunction":
        self._check_params(other)
        return FockFunction(self.params, self.atoms + other.atoms)

    def __sub__(self, other: "FockFunction") -> "FockFunction":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "FockFunction":
        c = complex(scalar)
        return FockFunction(self.params, tuple(Atom(a.lam, a.k, a.coeff * c) for a in self.atoms))

    __rmul__ = __mul__

    def atom_labels(self) -> list[tuple[complex, int]]:
        """Atom labels (lam, k) in atom order."""
        return [(a.lam, a.k) for a in self.atoms]

    def atom_coeffs(self) -> np.ndarray:
        """Atom coefficients in atom order."""
        return np.array([a.coeff for a in self.atoms], dtype=complex)

    def _check_params(self, other: "FockFunction"):
        if self.params.alpha != other.params.alpha:
            raise ParameterMismatchError(
                f"weight parameters differ: {self.params.alpha} vs {other.params.alpha}"
            )

    def evaluate(self, zeta):
        """Pointwise value at zeta (scalar or ndarray)."""
        zz = np.asarray(zeta, dtype=complex)
        scalar = zz.ndim == 0
        out = np.zeros_like(zz)
        for atom in self.atoms:
            out = out + atom_eval(atom, zz, self.params)
        return complex(out) if scalar else out

    def translate(self, z) -> "FockFunction":
        """Exact image under T_z: each atom moves to lam+z and picks up the
        composition phase, so the norm is preserved to rounding."""
        moved = []
        for a in self.atoms:
            phase, shift = compose_phase(z, a.lam, self.params)
            moved.append(Atom(shift, a.k, a.coeff * phase))
        return FockFunction(self.params, tuple(moved))

    def inner(self, other: "FockFunction") -> complex:
        """Inner product by bilinear expansion over atom pairs."""
        self._check_params(other)
        # imported here because kernels itself imports this module
        from .kernels import overlap_matrix

        overlaps = overlap_matrix(other.atom_labels(), self.atom_labels(), self.params)
        return complex(np.vdot(other.atom_coeffs(), overlaps @ self.atom_coeffs()))

    @cached_property
    def _norm_sq(self) -> float:
        # Re <f, f>, at most once per function; min_norm_interpolate fills it
        return self.inner(self).real

    def norm(self) -> float:
        """Hilbert norm; zero for the empty function.  <f, f> is computed once
        per function and shared with to_basis_coeffs."""
        return math.sqrt(max(self._norm_sq, 0.0))

    def to_basis_coeffs(self, n_max: int) -> BasisCoefficients:
        """Project onto span(e_0..e_{n_max}) and report the truncation defect."""
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        from .kernels import overlap_matrix

        basis = [(0.0, n) for n in range(n_max + 1)]
        coeffs = overlap_matrix(basis, self.atom_labels(), self.params) @ self.atom_coeffs()
        defect = self._norm_sq - float(np.sum(np.abs(coeffs) ** 2))
        return BasisCoefficients(self.params, coeffs, defect)

    def sup_norm_estimate(self, radius: float, step: float) -> float:
        """Grid maximum of |f(z)| * exp(-alpha*|z|^2/2) over the square
        |Re z|, |Im z| <= radius.

        A plain grid scan: a supporting estimate, not a certified bound.  A
        square of more than MAX_GRID_CELLS points is refused before any of it
        is allocated.
        """
        if step <= 0:
            raise ValueError("step must be positive")
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        what = f"step {step} on a square of radius {radius}"
        axis = square_axis(radius / step + 1e-12, step, what)
        x = axis[None, :]
        y = axis[:, None]
        z = x + 1j * y
        weight = np.exp(-0.5 * self.params.alpha * (x**2 + y**2))
        vals = np.abs(self.evaluate(z)) * weight
        return float(vals.max())

    def merged(self) -> "FockFunction":
        """Merge duplicate (lam, k) atoms by summing coefficients.

        Keys compare by exact stored values; atoms whose merged coefficient is
        exactly zero are dropped.  Evaluation is invariant under merging.
        """
        acc: dict[tuple[complex, int], complex] = {}
        order: list[tuple[complex, int]] = []
        for a in self.atoms:
            key = (a.lam, a.k)
            if key not in acc:
                acc[key] = 0.0 + 0.0j
                order.append(key)
            acc[key] += a.coeff
        atoms = tuple(Atom(lam, k, acc[(lam, k)]) for lam, k in order if acc[(lam, k)] != 0)
        return FockFunction(self.params, atoms)


def basis_function(k: int, params: FockParams) -> FockFunction:
    """The basis state e_k as a one-atom function."""
    return FockFunction(params, (Atom(0.0, k, 1.0),))


def displaced_basis(lam, k: int, params: FockParams, coeff=1.0) -> FockFunction:
    """coeff * T_lam e_k as a one-atom function."""
    return FockFunction(params, (Atom(lam, k, coeff),))


def from_basis_coeffs(coeffs, params: FockParams) -> FockFunction:
    """Function with the given coefficients on the undisplaced basis."""
    cs = np.asarray(coeffs, dtype=complex)
    return FockFunction(params, tuple(Atom(0.0, n, c) for n, c in enumerate(cs) if c != 0))
