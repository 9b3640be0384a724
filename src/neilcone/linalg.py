"""Dense complex linear algebra on small, batched Hermitian matrices.

Each operation has one entry point, and it takes a stack (a stack of one
matrix where a caller has one matrix): eigenvalues alone (floors, margins,
norms) come from LAPACK's ``eigvalsh`` in ``herm_eigvals_batch``,
eigenvectors from a cyclic Jacobi solver with a fixed pivot order in
``herm_eig_batch``, PSD projections from ``psd_project_batch`` and largest
singular values from ``op_norm_batch`` (``op_norm`` adds the choice of the
smaller Gram side for one matrix).  A matrix gets the same bits alone as
inside a stack, and an input the same bits on one machine and numpy build.

Only the lower triangle of a Hermitian argument is read: LAPACK reads
nothing else, and ``from_lower`` rebuilds the full matrix for Jacobi.
"""

from __future__ import annotations

import math

import numpy as np

# Fixed settings; no routine takes a tolerance or cap as an argument.
RANK_TOL = 1e-9
ISOMETRY_TOL = 1e-10
SWEEP_CAP = 60
SQUARINGS = 40  # steps of repeated squaring in ``spectral_radius``
# Matrices per batch when a sweep walks a long grid (audit generators,
# multiplier rows, mixing angles): no sweep holds more than this many at once.
GRID_BLOCK = 512

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


def _jacobi_batch(h):
    """Cyclic Jacobi on a stack of Hermitian matrices.

    One sweep visits every off-diagonal pair once, as n-1 tournament rounds
    of disjoint pairs; the rotations inside a round commute, so each round is
    applied as one vectorized two-sided update across the whole stack.
    Sweeping stops once the off-diagonal norm is below _OFF_TARGET times the
    matrix norm; SWEEP_CAP sweeps without that raise ConvergenceError.
    h is modified in place and must already be exactly Hermitian with real
    diagonal.  Returns (w, v) with eigenvalues ascending.
    """
    b, n, _ = h.shape
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
        return w, np.take_along_axis(v, order[:, None, :], axis=2)

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


def _pow2_factors(a) -> np.ndarray:
    """Exact per-matrix scalings to a largest |entry| in [1/2, 1); the
    exponent is clipped so that the factor stays finite for subnormal input."""
    exponent = np.frexp(np.max(np.abs(a), axis=(-2, -1), initial=0.0))[1]
    return np.exp2(-np.maximum(exponent, -1023))


def herm_eig_batch(h):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian stack, by Jacobi.

    A stack with a NaN or an infinite entry (an overflow upstream, say)
    raises ValueError.  Each matrix is scaled by ``_pow2_factors`` before
    sweeping, so entries whose squares would underflow still rotate.
    """
    work = from_lower(h)
    if work.ndim != 3 or work.shape[-1] != work.shape[-2]:
        raise ValueError("expected a (batch, n, n) stack, got %r" % (work.shape,))
    if not np.isfinite(work).all():
        raise ValueError("cannot decompose a matrix with non-finite entries")
    factor = _pow2_factors(work)
    work *= factor[:, None, None]
    w, v = _jacobi_batch(work)
    return w / factor[:, None], v


def herm_eigvals_batch(h) -> np.ndarray:
    """Eigenvalues (ascending) of a Hermitian stack, from LAPACK, which
    reads only the lower triangle; a NaN or an infinity there raises."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 3 or h.shape[-1] != h.shape[-2]:
        raise ValueError("expected a (batch, n, n) stack, got %r" % (h.shape,))
    if not np.isfinite(h).all() and np.tril(~np.isfinite(h)).any():
        raise ValueError("cannot decompose a matrix with non-finite entries")
    return np.linalg.eigvalsh(h, UPLO="L")


def op_norm(a) -> float:
    """Largest singular value, via the Gram matrix on the smaller side."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("expected a matrix, got %r" % (a.shape,))
    if a.shape[0] < a.shape[1]:
        a = a.conj().T
    return float(op_norm_batch(a[None])[0])


def op_norm_batch(a) -> np.ndarray:
    """Largest singular value of every matrix in a stack, via (f A)* A f
    with f from ``_pow2_factors``, so huge and tiny entries keep their norm.
    Empty matrices (no rows or no columns) have norm 0, with no eigen call."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3:
        raise ValueError("expected a (batch, m, n) stack, got %r" % (a.shape,))
    if 0 in a.shape[1:]:
        return np.zeros(a.shape[0])
    if not np.isfinite(a).all():
        raise ValueError("cannot take the norm of a matrix with non-finite entries")
    factor = _pow2_factors(a)[:, None, None]
    gram = a.conj()  # scaled in place: no copy beyond the two A* A needs
    gram *= factor
    gram = gram.swapaxes(-1, -2) @ a
    gram *= factor
    w = herm_eigvals_batch(gram)[:, -1]
    return np.sqrt(np.maximum(w, 0.0)) / factor[:, 0, 0]


def psd_project_batch(h) -> np.ndarray:
    """Frobenius-nearest PSD matrix for every matrix in a Hermitian stack."""
    w, v = herm_eig_batch(h)
    w = np.maximum(w, 0.0)
    out = (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)
    return from_lower(out)


def rank_factor(h) -> tuple[np.ndarray, np.ndarray]:
    """Factor a PSD matrix as E E* with one column per eigenvalue above
    RANK_TOL times the largest eigenvalue (RANK_TOL itself for a zero matrix).

    Returns (E, Q): Q holds the other eigenvectors of the same
    decomposition, an orthonormal basis of the complement of E's range.
    A matrix that is indefinite beyond the same threshold is rejected.
    """
    (w,), (v,) = herm_eig_batch(np.asarray(h, dtype=complex)[None])
    lam_max = max(float(w[-1]), 0.0)
    thresh = RANK_TOL * lam_max if lam_max > 0.0 else RANK_TOL
    if float(w[0]) < -thresh:
        raise ValueError(
            "matrix is indefinite: smallest eigenvalue %.6e is below -%.1e"
            % (float(w[0]), thresh)
        )
    keep = w > thresh
    kept = np.flatnonzero(keep)[::-1]  # descending
    return v[:, kept] * np.sqrt(w[kept])[None, :], v[:, ~keep]


def align_isometries(v, w) -> np.ndarray:
    """Unitary U with U v = w for two isometries with equal shapes.

    Both arguments must satisfy A* A = I within ISOMETRY_TOL.  U acts as
    w v* on the range of v and maps the orthogonal complement of v's range
    onto that of w's, both taken from one batched eigendecomposition as
    the eigenvectors of I - A A* for eigenvalue 1.
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
    gram = np.stack([v @ v.conj().T, w @ w.conj().T])
    v_perp, w_perp = herm_eig_batch(np.eye(m) - gram)[1][:, :, n:]
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
