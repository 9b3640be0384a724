"""Test functions, Szego kernels, and the rational inner data they generate.

The constrained algebra in play is the subalgebra of the disk algebra whose
elements have vanishing derivative at the origin; it is generated by z^2 and
z^3.  Its test functions are psi_lambda(z) = z^2 (z - lambda)/(1 - conj(lambda) z)
for lambda in the open disk together with the degenerate member z^2, indexed
here by the parameter ``np.inf``.  As |lambda| -> 1 the Blaschke factor
collapses to a unimodular constant, so every boundary parameter gives the
same generator as infinity up to phase; parameters are therefore kept
strictly inside the disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from neilcone import linalg

# Parameters this close to the unit circle are treated as degenerate and
# rejected; the infinity point represents that whole class.
BOUNDARY_MARGIN = 1e-9
# Two sample points closer than this are considered coincident.
MIN_SEPARATION = 1e-8
UNITARY_TOL = 1e-12
DIAGONALITY_TOL = 1e-10


def extended_points(values) -> np.ndarray:
    """Generator parameters as a 1-D complex array, ``np.inf`` for z^2.

    Raises ValueError for NaN and for finite parameters within
    BOUNDARY_MARGIN of the unit circle; infinity stands for that whole
    degenerate class.
    """
    pts = np.asarray(values, dtype=complex)
    if pts.ndim != 1:
        raise ValueError("generator parameters must form a 1-D sequence")
    bad = np.isnan(pts) | (np.isfinite(pts)
                           & (np.abs(pts) > 1.0 - BOUNDARY_MARGIN))
    if bad.any():
        raise ValueError(
            "disk parameter %r is NaN or within %g of the boundary; use inf "
            "for the degenerate generator"
            % (complex(pts[np.argmax(bad)]), BOUNDARY_MARGIN)
        )
    return pts


@dataclass(frozen=True)
class SampleSet:
    """A finite set of distinct interior points of the disk."""

    points: tuple[complex, ...]

    def __post_init__(self):
        pts = tuple(complex(z) for z in self.points)
        if not pts:
            raise ValueError("a sample set needs at least one point")
        for z in pts:
            if not abs(z) < 1.0:  # also rejects NaN and infinities
                raise ValueError("sample point %r is not inside the open disk" % (z,))
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if abs(pts[i] - pts[j]) < MIN_SEPARATION:
                    raise ValueError(
                        "sample points %r and %r are closer than %g"
                        % (pts[i], pts[j], MIN_SEPARATION)
                    )
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def array(self) -> np.ndarray:
        return np.array(self.points, dtype=complex)


#: Default interpolation nodes; they include 0 and the default zeros +-1/2.
DEFAULT_SAMPLES = SampleSet((0.0, 0.5, -0.5, 0.3j, -0.3j, 0.6))

#: Default mixing unitary for the two-zero inner function; no zero entries.
DEFAULT_UNITARY = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def blaschke(lam: complex, z):
    """Single Blaschke factor (z - lam)/(1 - conj(lam) z)."""
    if not abs(lam) < 1.0:  # also rejects NaN
        raise ValueError("Blaschke parameter must lie in the open disk")
    z = np.asarray(z, dtype=complex)
    return (z - lam) / (1.0 - np.conj(lam) * z)


def test_fn(lam, z):
    """Generators psi_lam(z) = z^2 b_lam(z), and z^2 where lam is infinite.

    ``lam`` and ``z`` broadcast against each other, so a column of
    parameters against a row of points gives one generator per row.
    """
    lam = np.asarray(lam, dtype=complex)
    z = np.asarray(z, dtype=complex)
    at_inf = np.isinf(lam)
    lam = np.where(at_inf, 0.0, lam)  # finite stand-in: no inf/inf NaNs
    sq = z * z
    return np.where(at_inf, sq, sq * ((z - lam) / (1.0 - np.conj(lam) * z)))


def szego(x, y):
    """Szego kernel 1/(1 - x conj(y)); broadcasts over both arguments."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return 1.0 / (1.0 - x * np.conj(y))


def norm_szego(lam: complex, z):
    """Normalized Szego kernel sqrt(1-|lam|^2)/(1 - conj(lam) z)."""
    if not abs(lam) < 1.0:  # also rejects NaN
        raise ValueError("kernel parameter must lie in the open disk")
    z = np.asarray(z, dtype=complex)
    return np.sqrt(1.0 - abs(lam) ** 2) / (1.0 - np.conj(lam) * z)


@dataclass(frozen=True)
class MatrixBlaschke:
    """2x2 inner function diag(b_1(z), 1) U diag(1, b_2(z)).

    The zeros lam1 != lam2 must be nonzero points of the open disk and U must
    be unitary.  With the default U the product has no zero entries, which is
    the non-degenerate case; a diagonal or antidiagonal U collapses it to
    (a permutation of) diag(b_1, b_2).
    """

    lam1: complex
    lam2: complex
    unitary: np.ndarray = field(default_factory=lambda: DEFAULT_UNITARY.copy())

    def __post_init__(self):
        l1, l2 = complex(self.lam1), complex(self.lam2)
        for lam in (l1, l2):
            if not 0.0 < abs(lam) <= 1.0 - BOUNDARY_MARGIN:
                raise ValueError(
                    "zero %r must be a nonzero interior point of the disk" % (lam,)
                )
        if abs(l1 - l2) < MIN_SEPARATION:
            raise ValueError("the two zeros must be distinct")
        u = np.asarray(self.unitary, dtype=complex)
        if u.shape != (2, 2):
            raise ValueError("mixing matrix must be 2x2")
        if linalg.op_norm(u.conj().T @ u - np.eye(2)) > UNITARY_TOL:
            raise ValueError("mixing matrix is not unitary within %g" % UNITARY_TOL)
        object.__setattr__(self, "lam1", l1)
        object.__setattr__(self, "lam2", l2)
        object.__setattr__(self, "unitary", u)


def phi_eval(mb: MatrixBlaschke, z) -> np.ndarray:
    """Evaluate the 2x2 inner function; returns shape z.shape + (2, 2)."""
    z = np.asarray(z, dtype=complex)
    b1 = blaschke(mb.lam1, z)
    b2 = blaschke(mb.lam2, z)
    out = np.empty(z.shape + (2, 2), dtype=complex)
    u = mb.unitary
    out[..., 0, 0] = b1 * u[0, 0]
    out[..., 0, 1] = b1 * u[0, 1] * b2
    out[..., 1, 0] = u[1, 0]
    out[..., 1, 1] = u[1, 1] * b2
    return out


def f_eval(mb: MatrixBlaschke, z) -> np.ndarray:
    """z^2 times the inner function: the extremal element of the constrained ball."""
    z = np.asarray(z, dtype=complex)
    return (z * z)[..., None, None] * phi_eval(mb, z)


def diagonality_test(mb: MatrixBlaschke) -> bool:
    """True when the mixing matrix is diagonal or antidiagonal within
    DIAGONALITY_TOL.

    Either pattern makes the product a diagonal inner function up to a
    permutation, which is the degenerate case the membership argument
    excludes.
    """
    u = np.abs(mb.unitary)
    off = max(u[0, 1], u[1, 0])
    dia = max(u[0, 0], u[1, 1])
    return bool(off < DIAGONALITY_TOL or dia < DIAGONALITY_TOL)


@dataclass
class MatrixKernel:
    """A Hermitian matrix kernel on a sample set, stored flattened.

    Block (i, j) of ``flat`` is the d x d value at (x_i, x_j).  Only the
    lower triangle is authoritative; construction rebuilds the upper one.
    """

    sample_set: SampleSet
    block_dim: int
    flat: np.ndarray

    def __post_init__(self):
        if not self.block_dim >= 1:
            raise ValueError("block dimension must be at least 1, got %r" % (self.block_dim,))
        n = len(self.sample_set) * self.block_dim
        flat = np.asarray(self.flat, dtype=complex)
        if flat.shape != (n, n):
            raise ValueError("flat storage must be %d x %d, got %r" % (n, n, flat.shape))
        self.flat = linalg.from_lower(flat)
        if not np.isfinite(self.flat).all():
            raise ValueError("kernel has non-finite entries")

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.block_dim
        return self.flat[i * d : (i + 1) * d, j * d : (j + 1) * d]


def sigma_kernel(f_values: np.ndarray, samples: SampleSet) -> MatrixKernel:
    """Kernel I - F(x) F(y)* from matrix values F(x_i), flattened to blocks."""
    f_values = np.asarray(f_values, dtype=complex)
    n = len(samples)
    if f_values.shape[0] != n or f_values.shape[1] != f_values.shape[2]:
        raise ValueError("need one square matrix value per sample point")
    d = f_values.shape[1]
    prod = np.einsum("iab,jcb->iajc", f_values, np.conj(f_values))
    # Every block (i, j) carries the d-dim identity, not just the diagonal.
    flat = np.kron(np.ones((n, n)), np.eye(d)) - prod.reshape(n * d, n * d)
    return MatrixKernel(samples, d, flat)


def defect_kernel(mb: MatrixBlaschke, samples: SampleSet) -> MatrixKernel:
    """Szego-weighted defect (I - Phi(x) Phi(y)*)/(1 - x conj(y)), flattened.

    On any sample set this matrix is PSD of rank two: the defect is spanned
    by the two normalized kernel sections attached to the zeros of det Phi.
    """
    x = samples.array()
    n = len(x)
    phi = phi_eval(mb, x)
    # prod[i, a, j, c] = (Phi(x_i) Phi(x_j)*)[a, c]
    prod = np.einsum("iab,jcb->iajc", phi, np.conj(phi))
    eye = np.zeros_like(prod)
    eye[:, 0, :, 0] = 1.0
    eye[:, 1, :, 1] = 1.0
    s = szego(x[:, None], x[None, :])
    flat = ((eye - prod) * s[:, None, :, None]).reshape(2 * n, 2 * n)
    return MatrixKernel(samples, 2, flat)
