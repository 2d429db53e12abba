"""Atom algebra of the Gaussian-weighted space of entire functions.

A function is stored as a finite combination of unit-norm atoms, each a
degree-k basis state displaced to a point of the plane.  Displacement maps
atoms to atoms exactly, so translation, inner products and norms are computed
from the atom data alone, with no series truncation anywhere.
"""

from __future__ import annotations

import hashlib
import math
import operator
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


# Most cells of a probe square (sides of at most 2047 points).  Its complex grid
# takes 16 bytes a cell and a geometric check adds two small-integer grids,
# however many C it tests, so this bounds every grid before numpy allocates it.
MAX_GRID_CELLS = 2**22
# A label (lam, n): a point and an integer, such as a degree or a multiplicity.
LABEL = np.dtype([("point", "<c16"), ("n", "<i8")])


def label_array(pairs) -> np.ndarray:
    """The (point, integer) pairs as a LABEL array, each pair read as
    (complex(point), operator.index(n)); a LABEL array is returned as it is."""
    if isinstance(pairs, np.ndarray) and pairs.dtype == LABEL:
        return pairs
    return np.array([(complex(lam), operator.index(n)) for lam, n in pairs], LABEL)


def label_records(points, ns) -> np.ndarray:
    """The LABEL array of points and integers, broadcast together."""
    labels = np.empty(np.broadcast(points, ns).shape, LABEL)
    labels["point"], labels["n"] = points, ns
    return labels


def basis_labels(degree: int) -> np.ndarray:
    """The labels (0, n), n = 0..degree, of the undisplaced basis states."""
    return label_records(0j, np.arange(degree + 1))


def label_digest(params: FockParams, pairs) -> str:
    """Short stable fingerprint of alpha and (point, integer) pairs, used for
    report provenance by divisors and Gram matrices alike."""
    digest = hashlib.sha256(np.array(params.alpha, "<f8").tobytes())
    digest.update(np.ascontiguousarray(label_array(pairs)))
    return digest.hexdigest()[:12]


def disc_grid(radius: float, step: float):
    """Builder of the square grid step*(p + iq), |p|, |q| <= floor(radius/step
    + 1e-9), its moduli and its disc mask |z| <= radius*(1 + 1e-12) (empty for
    a negative radius), with the axis as .axis; refuses a square over MAX_GRID_CELLS."""
    half = max(radius / step, -1.0) + 1e-9
    if not half < MAX_GRID_CELLS or (2 * math.floor(half) + 1) ** 2 > MAX_GRID_CELLS:
        raise ValueError(f"step {step} on a disc of radius {radius} needs more than {MAX_GRID_CELLS} grid cells")
    n = math.floor(half)
    axis = step * np.arange(-n, n + 1)

    def build() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # z = complex(axis[p], axis[q]), the bits of axis[None, :] + 1j * axis[:, None]
        z = np.empty((axis.size, axis.size), complex)
        z.real, z.imag = axis[None, :], axis[:, None]
        modulus = np.abs(z)
        return z, modulus, modulus <= radius * (1 + 1e-12)

    build.axis = axis
    return build


def require_positive(name: str, value: float) -> None:
    """The rule of a scalar such as C, a radius or rcond: positive (a NaN is not), then finite."""
    if not value > 0:
        raise ValueError(f"{name} must be positive")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


def require_index(name: str, value, least: int = 0) -> int:
    """The rule of a degree, basis index or node count: an __index__ type, never a float, >= least."""
    try:
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer") from None
    if index < least:
        raise ValueError(f"{name} must be >= {least}")
    return index


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
        object.__setattr__(self, "k", require_index("basis index k", self.k))
        lam, c = complex(self.lam), complex(self.coeff)
        if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
            raise ValueError("atom point must be finite")
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError("atom coefficient must be finite")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "coeff", c)


def basis_eval(k: int, z, params: FockParams):
    """Evaluate the degree-k orthonormal basis function sqrt(alpha^k/k!) * z^k.

    The value is assembled in the log domain, so large degrees (k of order
    500) neither overflow nor lose their phase.  `z` may be a scalar or an
    ndarray; the result matches the input shape.
    """
    k = require_index("basis index k", k)
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
    """Apply a `math` function elementwise over the Python floats of the broadcast
    arguments, exactly as scalar Python does; numpy's own exp, log, atan2 and power
    round some inputs otherwise.  It serves lgamma and the libm_* routes' inputs."""
    args = np.broadcast_arrays(*args)
    values = map(fn, *(a.ravel().tolist() for a in args))
    return np.fromiter(values, float, args[0].size).reshape(args[0].shape)


def _route(out, routed, fn, v, *rest) -> np.ndarray:
    """out with its routed entries set to scalar_math(fn, v[routed], *rest)."""
    if routed.any():
        out[routed] = scalar_math(fn, v[routed], *rest)
    return out


def libm_exp(v) -> np.ndarray:
    """math.exp elementwise, with its bits, from one C loop: the real part of
    numpy's complex exp, the C library's cexp, exp(x) * (cos y + i sin y), at
    v + 0i, where cos 0 = 1 and sin 0 = 0 exactly.  Inputs not at most 709 go
    through scalar_math: glibc's cexp rescales those above and rounds them
    differently, math.exp raises past 709.78, and cexp only flags a NaN."""
    v = np.asarray(v, float)
    z = v.astype(complex)
    with np.errstate(all="ignore"):  # the routed inputs' flags
        out = np.exp(z, out=z).real
    return _route(out, ~(v <= 709), math.exp, v)


def libm_cis(angle) -> np.ndarray:
    """math.cos(angle) + i math.sin(angle) elementwise, with their bits (a sine
    of -0.0 included), from one C loop: numpy's complex exp at 0 + i angle,
    where exp 0 = 1 exactly.  A non-finite angle goes through scalar_math:
    math.cos raises for an infinite one and gives a NaN quietly."""
    angle = np.asarray(angle, float)
    out = np.zeros(angle.shape, complex)
    out.imag = angle
    with np.errstate(all="ignore"):  # the routed angles' flags
        np.exp(out, out=out)
    routed = ~np.isfinite(angle)
    _route(out.real, routed, math.cos, angle)
    _route(out.imag, routed, math.sin, angle)
    return out


def libm_square(v) -> np.ndarray:
    """math.pow(v, 2.0) elementwise, with its bits, from one C loop: numpy's
    float_power calls the C library's pow (np.power does not).  A finite v whose
    square overflows goes through scalar_math, which raises as math.pow does."""
    v = np.asarray(v, float)
    with np.errstate(all="ignore"):  # the overflows' flags
        out = np.float_power(v, 2.0, out=np.empty(v.shape))
    return _route(out, np.isinf(out) & np.isfinite(v), math.pow, v, 2.0)


def libm_log(v) -> np.ndarray:
    """math.log elementwise, with its bits, from one C loop: the real part of the
    C library's clog (numpy's complex log) at v + 0i.  A v outside [DBL_MIN, 0.5)
    and [2, DBL_MAX/2] goes through scalar_math: clog rescales it or takes log1p."""
    v, tiny, half_max = np.asarray(v, float), np.finfo(float).tiny, np.finfo(float).max / 2
    z = v.astype(complex)
    with np.errstate(all="ignore"):  # the routed inputs' flags
        out = np.log(z, out=z).real
    return _route(out, ~((v >= tiny) & (v < 0.5) | (v >= 2) & (v <= half_max)), math.log, v)


def libm_atan2(y, x) -> np.ndarray:
    """math.atan2(y, x) elementwise, with its bits, from one C loop: the imaginary
    part of the C library's clog (numpy's complex log) at x + iy, which is atan2."""
    z = np.empty(np.broadcast(y, x).shape, complex)
    z.real, z.imag = x, y
    with np.errstate(all="ignore"):  # clog's division by zero at 0
        return np.log(z, out=z).imag


def scalar_mul(a, re, im) -> np.ndarray:
    """a * (re + i im) elementwise, in the operation order of a scalar complex product."""
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = a.real * re - a.imag * im, a.real * im + a.imag * re
    return out


def compose_phase(w, z, params: FockParams):
    """Phase and shift of the composition T_w T_z = phase * T_{w+z}.

    The phase is exp(-1j*alpha*Im(conj(z)*w)).  The exponent is kept as a real
    angle and turned into cos/sin separately, so the returned factor is
    unimodular to rounding.  Every module must take its signs from here.
    `w` and `z` may be scalars or broadcastable ndarrays; scalar inputs give
    complex scalars.
    """
    ww, zz = np.asarray(w, dtype=complex), np.asarray(z, dtype=complex)
    with np.errstate(invalid="ignore"):  # a signalling NaN part gives a NaN quietly
        # Im(conj(z)*w) in the operation order of a scalar complex product
        angle = -params.alpha * (zz.real * ww.imag + -zz.imag * ww.real)
        shift = ww + zz
    phase = libm_cis(angle) + 0.0  # +0.0 where sin is -0.0, as cos + 1j*sin gives
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

    def __mul__(self, scalar) -> "FockFunction":
        c = complex(scalar)
        return FockFunction(self.params, tuple(Atom(a.lam, a.k, a.coeff * c) for a in self.atoms))

    __rmul__ = __mul__

    def atom_labels(self) -> np.ndarray:
        """Atom labels (lam, k) in atom order, as a LABEL array."""
        return label_records([a.lam for a in self.atoms], [a.k for a in self.atoms])

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
        n_max = require_index("n_max", n_max)
        from .kernels import overlap_matrix

        overlaps = overlap_matrix(basis_labels(n_max), self.atom_labels(), self.params)
        coeffs = overlaps @ self.atom_coeffs()
        defect = self._norm_sq - float(np.sum(np.abs(coeffs) ** 2))
        return BasisCoefficients(self.params, coeffs, defect)

    def sup_norm_estimate(self, radius: float, step: float) -> float:
        """Grid maximum of |f(z)| * exp(-alpha*|z|^2/2) over the square grid of
        disc_grid(radius, step): |Re z|, |Im z| <= radius, to 1e-9 steps.

        A plain grid scan: a supporting estimate, not a certified bound.  A
        square of more than MAX_GRID_CELLS points is refused before any of it
        is allocated.
        """
        require_positive("step", step)
        if not radius >= 0:  # a NaN radius is not nonnegative
            raise ValueError("radius must be nonnegative")
        if not math.isfinite(radius):
            raise ValueError("radius must be finite")
        z, _, _ = disc_grid(radius, step)()
        with np.errstate(over="ignore"):  # a square past the double range weighs 0
            weight = np.exp(-0.5 * self.params.alpha * (z.real**2 + z.imag**2))
        live = weight > 0  # the origin weighs 1; f may overflow where its weight underflows
        return float((np.abs(self.evaluate(z[live])) * weight[live]).max())


def basis_function(k: int, params: FockParams) -> FockFunction:
    """The basis state e_k as a one-atom function."""
    return FockFunction(params, (Atom(0.0, k, 1.0),))


def displaced_basis(lam, k: int, params: FockParams, coeff=1.0) -> FockFunction:
    """coeff * T_lam e_k as a one-atom function."""
    return FockFunction(params, (Atom(lam, k, coeff),))
