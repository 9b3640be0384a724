"""Quotient Hilbert spaces built from cone-positive functionals.

A positive semidefinite Gram matrix W on stacked sample values defines a
pre-inner product <f, g> = g^* W f on vector-valued functions over the
sample set.  Quotienting by the null space gives a finite-dimensional
Hilbert space on which pointwise multiplication acts; when W comes from a
separating certificate, the resulting representation is contractive on the
constrained algebra yet fails contractivity after matrix amplification.
This module builds the space, the multiplication operators, the amplified
deficiency number that witnesses the failure, and the commuting-pair model
generated by the squaring and cubing multipliers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .kernels import SampleSet, sigma_kernel

#: Multiplication must leak at most this much out of the carrier subspace.
WELLDEF_TOL = 1e-6

#: Pair gates: norm slack (also the counterexample's ``norms_ok``), relation
#: residual (XY = YX, X^3 = Y^2), and the excess the witness norm must show.
PAIR_TOL = 1e-8
WITNESS_EXCESS = 1e-3


@dataclass(frozen=True)
class GnsSpace:
    """The quotient space of a Gram functional, in orthonormal coordinates.

    ``factor`` has one column per retained eigenvalue of ``gram`` (largest
    first) and satisfies gram ~= factor @ factor^*.  A stacked value vector
    f maps to coordinates factor^* @ f; the coordinate inner product then
    reproduces g^* W f, so operator norms in coordinates are norms in the
    quotient space.  ``complement`` holds the dropped eigenvectors of the
    same decomposition: an orthonormal basis of the complement of the
    carrier (the range of ``factor``), empty at full rank.
    """

    sample_set: SampleSet
    block_dim: int
    gram: np.ndarray
    factor: np.ndarray
    eigs: np.ndarray
    rank: int
    complement: np.ndarray

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def coords(self, values: np.ndarray) -> np.ndarray:
        """Coordinates of a stacked value vector in the quotient space."""
        values = np.asarray(values, dtype=complex)
        if values.shape != (self.dim,):
            raise ValueError(
                "expected a stacked vector of length %d, got %r"
                % (self.dim, values.shape)
            )
        return self.factor.conj().T @ values


@dataclass(frozen=True)
class RepOperator:
    """A multiplication operator in quotient coordinates."""

    matrix: np.ndarray
    welldef_residual: float


def build_gns(w: np.ndarray, samples: SampleSet, block_dim: int = 1) -> GnsSpace:
    """Quotient the stacked value space by the null vectors of ``w``.

    ``w`` must be positive semidefinite up to ``linalg.RANK_TOL`` relative to
    its top eigenvalue, the cutoff that also separates the quotient from the
    null space; an indefinite matrix is rejected with the offending
    eigenvalue named.  Coordinates come from the spectral factorization
    rather than Cholesky because certificate Grams are often rank
    deficient by design.
    """
    w = linalg.from_lower(np.asarray(w, dtype=complex))
    n = len(samples) * block_dim
    if w.shape != (n, n):
        raise ValueError(
            "Gram matrix is %r but %d samples at block dimension %d need "
            "(%d, %d)" % (w.shape, len(samples), block_dim, n, n)
        )
    factor, complement = linalg.rank_factor(w)
    eigs = np.real(np.sum(np.abs(factor) ** 2, axis=0))
    return GnsSpace(
        sample_set=samples,
        block_dim=block_dim,
        gram=w,
        factor=factor,
        eigs=eigs,
        rank=factor.shape[1],
        complement=complement,
    )


def _mult_blocks(space: GnsSpace, values_batch):
    """(matrices, residuals) of quotient multiplication, ``linalg.GRID_BLOCK``
    rows at a time.

    ``values_batch`` has one row of per-sample values per multiplier.  The
    residual of a row measures how much its multiplication D moves the
    carrier subspace of the Gram matrix: ||Q* D B|| for the orthonormal
    carrier basis B and its complement Q (``GnsSpace.complement``), which
    equals ||(I - B B*) D B||, scaled by the spread of the retained
    spectrum.  At full rank Q is empty and the residual is exactly 0.
    Beyond WELLDEF_TOL the operator is not well defined on the quotient,
    and the batch is rejected rather than projected, with the worst row of
    the first failing block named by its index in the whole batch.
    """
    vals = np.asarray(values_batch, dtype=complex)
    if vals.ndim != 2 or vals.shape[1] != len(space.sample_set):
        raise ValueError("need one value per sample point in every row")
    if space.rank == 0:
        yield np.zeros((len(vals), 0, 0), dtype=complex), np.zeros(len(vals))
        return
    e = space.factor
    basis = e / np.sqrt(space.eigs)[None, :]
    spread = math.sqrt(float(space.eigs[0] / space.eigs[-1]))
    q_adj = space.complement.conj().T
    step = linalg.GRID_BLOCK
    for start in range(0, len(vals), step):
        block = vals[start:start + step]
        dg = np.repeat(block, space.block_dim, axis=1)  # (K, n)
        moved = dg[:, :, None] * basis[None, :, :]  # (K, n, r)
        residuals = linalg.op_norm_batch(q_adj @ moved) * spread
        worst = int(np.argmax(residuals))
        if residuals[worst] > WELLDEF_TOL:
            raise ValueError(
                "multiplication leaks %.3e out of the quotient carrier "
                "(tolerance %.1e) for multiplier %d"
                % (residuals[worst], WELLDEF_TOL, start + worst)
            )
        mats = (e.conj().T[None] @ moved) / np.sqrt(space.eigs)[None, None, :]
        yield mats, residuals


def _mult_matrices(space: GnsSpace, values_batch):
    """(matrices, residuals) of a whole batch, gated as in ``_mult_blocks``."""
    mats, residuals = zip(*_mult_blocks(space, values_batch))
    return np.concatenate(mats), np.concatenate(residuals)


def mult_operator(space: GnsSpace, g_values) -> RepOperator:
    """Multiplication by ``g_values``, gated as in ``_mult_matrices``."""
    mats, residuals = _mult_matrices(space, np.asarray(g_values)[None])
    return RepOperator(matrix=mats[0], welldef_residual=float(residuals[0]))


def rep_norm(space: GnsSpace, op: RepOperator) -> float:
    """Operator norm of a multiplier; coordinates are orthonormal already."""
    if op.matrix.shape != (space.rank, space.rank):
        raise ValueError("operator does not act on this space")
    return linalg.op_norm(op.matrix)


def rep_norm_sweep(space: GnsSpace, values_batch) -> np.ndarray:
    """Multiplier norms for a family of functions, one row of per-sample
    values each, gated and normed one block of rows at a time (see
    ``_mult_blocks``); the norms equal those of one full-stack call."""
    return np.concatenate([linalg.op_norm_batch(mats)
                           for mats, _ in _mult_blocks(space, values_batch)])


def amplified_deficiency(space: GnsSpace, f_values: np.ndarray) -> float:
    """Contractivity deficit of the transposed 2x2 multiplier amplification.

    Returns t = <(I - A^*A) h, h> where A is the block operator matrix of
    entrywise multiplication by the transposed matrix function and h stacks
    the coordinates of the two constant basis functions.  A negative t
    certifies that the amplified representation has norm above one.  It
    equals trace(W Sigma-hat) for the defect kernel of the function, which
    ties the number to the certificate's violation.
    """
    if space.block_dim != 2:
        raise ValueError("amplification needs block dimension 2")
    f = np.asarray(f_values, dtype=complex)
    n_samples = len(space.sample_set)
    if f.shape != (n_samples, 2, 2):
        raise ValueError(
            "expected %d sample values of a 2x2 function, got %r"
            % (n_samples, f.shape)
        )
    # Row 2a + b multiplies by entry (b, a): the transposed function.
    mats = _mult_matrices(space, f.transpose(2, 1, 0).reshape(4, n_samples))[0]
    amp = np.block([[mats[0], mats[1]], [mats[2], mats[3]]])
    h = np.concatenate([space.coords(np.tile(e, n_samples)) for e in np.eye(2)])
    image = amp @ h
    return float(np.real(np.vdot(h, h) - np.vdot(image, image)))


@dataclass(frozen=True)
class CommutingPairReport:
    """Diagnostics for the squaring/cubing multiplier pair."""

    x_norm: float
    y_norm: float
    commutator_norm: float
    relation_gap: float
    witness_norm: float
    rank: int

    def contractive(self) -> bool:
        return self.x_norm <= 1.0 + PAIR_TOL and self.y_norm <= 1.0 + PAIR_TOL

    def relations_hold(self) -> bool:
        return self.commutator_norm <= PAIR_TOL and self.relation_gap <= PAIR_TOL

    def norm_violated(self) -> bool:
        return self.witness_norm >= 1.0 + WITNESS_EXCESS


def build_noxy(samples: SampleSet, w: np.ndarray, witness_values):
    """Commuting contractions X, Y with X^3 = Y^2 from a two-generator Gram.

    ``w`` should be positive for the squaring and cubing generators alone
    (the restricted cone); X and Y are then the multipliers of z^2 and z^3
    on the quotient, built with the witness's in one ``_mult_matrices``
    batch.  They commute and satisfy X^3 = Y^2 because both sides multiply
    by z^6.  The report records their norms, the relation residuals, and
    the quotient norm of the scalar witness, which exceeds one exactly when
    the functional separates the witness's defect kernel from the
    restricted cone.  Returns (X, Y, report).
    """
    space = build_gns(w, samples, block_dim=1)
    pts = samples.array()
    mats = _mult_matrices(space, [pts ** 2, pts ** 3, witness_values])[0]
    x, y = mats[0], mats[1]
    x_norm, y_norm, witness_norm = linalg.op_norm_batch(mats)
    report = CommutingPairReport(
        x_norm=float(x_norm),
        y_norm=float(y_norm),
        commutator_norm=linalg.op_norm(x @ y - y @ x),
        relation_gap=linalg.op_norm(x @ x @ x - y @ y),
        witness_norm=float(witness_norm),
        rank=space.rank,
    )
    return x, y, report


def deficiency_matches_kernel(space: GnsSpace, f_values: np.ndarray) -> float:
    """Gap between the amplified deficiency and trace(W Sigma-hat).

    The two numbers agree by the chain of inner-product identities behind
    the amplification argument; the gap is exposed for direct checking.
    """
    f = np.asarray(f_values, dtype=complex)
    kern = sigma_kernel(f, space.sample_set)
    direct = float(np.real(np.trace(space.gram @ kern.flat)))
    return abs(amplified_deficiency(space, f) - direct)
