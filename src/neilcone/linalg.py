"""Self-contained dense complex linear algebra on small Hermitian matrices.

Everything is built on a cyclic Jacobi eigensolver: pivots are visited in a
fixed row-major order, so a given input always produces bit-for-bit the same
output.  Matrices here are small (dimension a few hundred at most) and many
of them are processed at once, so the solver works on a stacked batch and the
single-matrix routines are thin wrappers.

Only the lower triangle of a Hermitian argument is trusted; ``from_lower``
rebuilds the full matrix before any decomposition.
"""

from __future__ import annotations

import math

import numpy as np

# Fixed settings; no routine takes a tolerance or cap as an argument.
RANK_TOL = 1e-9
ISOMETRY_TOL = 1e-10
SWEEP_CAP = 60
SQUARINGS = 40  # steps of repeated squaring in ``spectral_radius``

# Sweep until the off-diagonal Frobenius norm drops below this multiple of
# the matrix norm; well below the 1e-11 contract so the residual bound holds
# with slack.
_OFF_TARGET = 1e-14
# Pivots below this relative size are skipped; n of them contribute less
# than _OFF_TARGET to the off-norm.
_PIVOT_SKIP = 1e-16


class ConvergenceError(RuntimeError):
    """Jacobi sweep cap reached before the off-diagonal target."""


def from_lower(h: np.ndarray) -> np.ndarray:
    """Rebuild a Hermitian matrix (or stack) from its lower triangle."""
    h = np.asarray(h, dtype=complex)
    lower = np.tril(h, -1)
    diag = np.real(np.diagonal(h, axis1=-2, axis2=-1))
    out = lower + lower.conj().swapaxes(-1, -2)
    idx = np.arange(h.shape[-1])
    out[..., idx, idx] = diag
    return out


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Average a matrix (or stack) with its conjugate transpose."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _tournament_rounds(n: int):
    """Round-robin schedule: n-1 rounds of disjoint index pairs covering all
    (p, q).  Fixed schedule, so the sweep order is deterministic."""
    m = n if n % 2 == 0 else n + 1
    arr = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = []
        for i in range(m // 2):
            p, q = arr[i], arr[m - 1 - i]
            if p > q:
                p, q = q, p
            if q < n:  # drop the bye of an odd-sized problem
                pairs.append((p, q))
        rounds.append(
            (np.array([p for p, _ in pairs]), np.array([q for _, q in pairs]))
        )
        arr = [arr[0], arr[-1]] + arr[1:-1]
    return rounds


def _jacobi_batch(h, want_vectors):
    """Cyclic Jacobi on a stack of Hermitian matrices.

    One sweep visits every off-diagonal pair once, as n-1 tournament rounds
    of disjoint pairs; the rotations inside a round commute, so each round is
    applied as one vectorized two-sided update across the whole stack.
    Sweeping stops once the off-diagonal norm is below _OFF_TARGET times the
    matrix norm; SWEEP_CAP sweeps without that raise ConvergenceError.
    h is modified in place and must already be exactly Hermitian with real
    diagonal.  Returns (w, v) with eigenvalues ascending; v is None when
    vectors are not requested.
    """
    b, n, _ = h.shape
    v = None
    if want_vectors:
        v = np.zeros((b, n, n), dtype=complex)
        v[:, np.arange(n), np.arange(n)] = 1.0
    if n == 1:
        w = np.real(np.diagonal(h, axis1=1, axis2=2)).copy()
        return w, v

    scale = np.sqrt(np.sum(np.abs(h) ** 2, axis=(1, 2)))
    # Zero matrices are already diagonal; keep their scale harmless.
    skip_at = _PIVOT_SKIP * np.where(scale > 0.0, scale, 1.0)
    target = (_OFF_TARGET * scale) ** 2

    idx = np.arange(n)

    def _off2():
        # Summing the off-diagonal entries directly avoids the cancellation
        # that a norm-minus-diagonal formula suffers near convergence.
        mag = np.abs(h) ** 2
        mag[:, idx, idx] = 0.0
        return np.sum(mag, axis=(1, 2))

    def _finish():
        w = np.real(h[:, idx, idx]).copy()
        order = np.argsort(w, axis=1, kind="stable")
        w = np.take_along_axis(w, order, axis=1)
        vv = np.take_along_axis(v, order[:, None, :], axis=2) if want_vectors else None
        return w, vv

    rounds = _tournament_rounds(n)
    for _ in range(SWEEP_CAP):
        off2 = _off2()
        if np.all(off2 <= target):
            return _finish()
        # Freeze batch elements that are already converged: they get exact
        # identity rotations from here on, so a matrix decomposes to the same
        # bits whether it is solved alone or inside a larger stack.
        busy = off2 > target
        for pp, qq in rounds:
            g = h[:, pp, qq]
            absg = np.abs(g)
            live = (absg > skip_at[:, None]) & busy[:, None]
            if not np.any(live):
                continue
            safe = np.where(live, absg, 1.0)
            u = np.where(live, g / safe, 1.0)
            tau = (np.real(h[:, qq, qq]) - np.real(h[:, pp, pp])) / (2.0 * safe)
            t = np.sign(tau)
            t = np.where(t == 0.0, 1.0, t) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = np.where(live, 1.0 / np.sqrt(1.0 + t * t), 1.0)
            s = np.where(live, t * c, 0.0)
            su = s * u
            suc = s * np.conj(u)

            # H <- R* H R with R the identity outside the round's pairs and
            # R[[p,q],[p,q]] = [[c, s u],[-s conj(u), c]] on each pair; the
            # pairs are disjoint, so all of them apply in one update.
            hp = h[:, :, pp]
            hq = h[:, :, qq]
            h[:, :, pp] = hp * c[:, None, :] - hq * suc[:, None, :]
            h[:, :, qq] = hp * su[:, None, :] + hq * c[:, None, :]
            rp = h[:, pp, :]
            rq = h[:, qq, :]
            h[:, pp, :] = rp * c[:, :, None] - rq * su[:, :, None]
            h[:, qq, :] = rp * suc[:, :, None] + rq * c[:, :, None]
            # Exact zeros at the pivots; real diagonal by construction.
            h[:, pp, qq] = np.where(live, 0.0, h[:, pp, qq])
            h[:, qq, pp] = np.conj(h[:, pp, qq])
            h[:, pp, pp] = np.real(h[:, pp, pp])
            h[:, qq, qq] = np.real(h[:, qq, qq])
            if want_vectors:
                vp = v[:, :, pp]
                vq = v[:, :, qq]
                v[:, :, pp] = vp * c[:, None, :] - vq * suc[:, None, :]
                v[:, :, qq] = vp * su[:, None, :] + vq * c[:, None, :]
    off2 = _off2()
    if np.all(off2 <= target):
        return _finish()
    raise ConvergenceError(
        "cyclic Jacobi did not converge in %d sweeps (off-norm %.3e, target %.3e)"
        % (SWEEP_CAP, float(np.max(np.sqrt(off2))), float(np.min(np.sqrt(target))))
    )


def herm_eig_batch(h, want_vectors: bool = True):
    """Eigen-decompose a stack of Hermitian matrices, eigenvalues ascending.

    A stack with a NaN or an infinite entry (an overflow upstream, say)
    raises ValueError.  Each matrix is scaled by a power of two to a largest
    entry in [1/2, 1) before sweeping, which is exact, so entries whose
    squares would underflow still rotate; the exponent is clipped so that
    the factor itself stays finite for subnormal input.
    """
    work = from_lower(h)
    if work.ndim != 3 or work.shape[-1] != work.shape[-2]:
        raise ValueError("expected a (batch, n, n) stack, got %r" % (work.shape,))
    if not np.isfinite(work).all():
        raise ValueError("cannot decompose a matrix with non-finite entries")
    exponent = np.frexp(np.max(np.abs(work), axis=(1, 2), initial=0.0))[1]
    factor = np.exp2(-np.maximum(exponent, -1023))
    work *= factor[:, None, None]
    w, v = _jacobi_batch(work, want_vectors)
    return w / factor[:, None], v


def herm_eigvals_batch(h) -> np.ndarray:
    """Eigenvalues only for a stack of Hermitian matrices."""
    return herm_eig_batch(h, want_vectors=False)[0]


def herm_eig(h):
    """Eigenvalues (ascending) and eigenvector matrix of one Hermitian matrix."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix, got %r" % (h.shape,))
    w, v = herm_eig_batch(h[None], want_vectors=True)
    return w[0], v[0]


def min_eig(h) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    w, _ = herm_eig_batch(np.asarray(h, dtype=complex)[None], want_vectors=False)
    return float(w[0, 0])


def min_eig_batch(h) -> np.ndarray:
    """Smallest eigenvalue of every matrix in a Hermitian stack."""
    return herm_eigvals_batch(h)[:, 0]


def op_norm(a) -> float:
    """Largest singular value, via the Gram matrix on the smaller side."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a matrix, got %r" % (a.shape,))
    if a.size == 0:
        return 0.0
    if a.shape[0] < a.shape[1]:
        gram = a @ a.conj().T
    else:
        gram = a.conj().T @ a
    w = herm_eigvals_batch(gram[None])[0]
    return math.sqrt(max(float(w[-1]), 0.0))


def op_norm_batch(a) -> np.ndarray:
    """Largest singular value of every matrix in a square stack."""
    a = np.asarray(a, dtype=complex)
    if a.shape[-1] == 0:
        return np.zeros(a.shape[0])
    gram = a.conj().swapaxes(-1, -2) @ a
    w = herm_eigvals_batch(gram)
    return np.sqrt(np.maximum(w[:, -1], 0.0))


def psd_project(h) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix."""
    return psd_project_batch(np.asarray(h, dtype=complex)[None])[0]


def psd_project_batch(h) -> np.ndarray:
    """Frobenius-nearest PSD matrix for every matrix in a Hermitian stack."""
    w, v = herm_eig_batch(h, want_vectors=True)
    w = np.maximum(w, 0.0)
    out = (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return from_lower(out)


def rank_factor(h) -> np.ndarray:
    """Factor a PSD matrix as E E* with one column per eigenvalue above
    RANK_TOL times the largest eigenvalue (RANK_TOL itself for a zero matrix).

    A matrix that is indefinite beyond the same threshold is rejected.
    """
    w, v = herm_eig(h)
    lam_max = max(float(w[-1]), 0.0)
    thresh = RANK_TOL * lam_max if lam_max > 0.0 else RANK_TOL
    if float(w[0]) < -thresh:
        raise ValueError(
            "matrix is indefinite: smallest eigenvalue %.6e is below -%.1e"
            % (float(w[0]), thresh)
        )
    keep = np.flatnonzero(w > thresh)[::-1]  # descending
    return v[:, keep] * np.sqrt(w[keep])[None, :]


def align_isometries(v, w) -> np.ndarray:
    """Unitary U with U v = w for two isometries with equal shapes.

    Both arguments must satisfy A* A = I within ISOMETRY_TOL.  U acts as
    w v* on the range of v and maps the orthogonal complement of v's range
    onto that of w's, each taken from one eigendecomposition as the
    eigenvectors of I - A A* for eigenvalue 1.
    """
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if v.shape != w.shape or v.ndim != 2:
        raise ValueError("isometries must share one (m, n) shape")
    m, n = v.shape
    if m < n:
        raise ValueError("an isometry needs at least as many rows as columns")
    eye = np.eye(n)
    for name, a in (("first", v), ("second", w)):
        defect = op_norm(a.conj().T @ a - eye)
        if defect > ISOMETRY_TOL:
            raise ValueError(
                "%s argument is not an isometry: ||A*A - I|| = %.3e" % (name, defect)
            )
    v_perp = herm_eig(np.eye(m) - v @ v.conj().T)[1][:, n:]
    w_perp = herm_eig(np.eye(m) - w @ w.conj().T)[1][:, n:]
    return np.column_stack([w, w_perp]) @ np.column_stack([v, v_perp]).conj().T


def spectral_radius(a) -> float:
    """Spectral radius by Gelfand's formula with repeated squaring.

    Returns ||A^(2^J)||^(1/2^J), J = SQUARINGS, accumulated in log space;
    the overestimate decays like log(cond)/2^J, far below 1e-8.
    """
    t = np.asarray(a, dtype=complex)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("expected a square matrix, got %r" % (t.shape,))
    log_est = 0.0
    for j in range(SQUARINGS):
        c = op_norm(t)
        if c == 0.0:
            return 0.0
        log_est += math.log(c) / (2.0**j)
        t = t / c
        t = t @ t
    return math.exp(log_est)
