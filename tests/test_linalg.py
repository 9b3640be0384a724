from __future__ import annotations

import numpy as np
import pytest

from neilcone import linalg
from conftest import random_hermitian, random_psd, random_unitary


def test_herm_eig_hand_checked_2x2():
    w, v = linalg.herm_eig_batch(np.array([[[0.0, 1.0], [1.0, 0.0]]], dtype=complex))
    assert np.allclose(w[0], [-1.0, 1.0], atol=1e-12)
    assert linalg.op_norm(v[0].conj().T @ v[0] - np.eye(2)) < 1e-12


def test_min_eig_hand_checked_2x2():
    h = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    assert abs(linalg.herm_eigvals_batch(h[None])[0, 0] - 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
def test_herm_eig_residual_and_orthonormality(n):
    rng = np.random.default_rng(17 + n)
    h = random_hermitian(rng, n, scale=3.0)
    (w,), (v,) = linalg.herm_eig_batch(h[None])
    fro = np.linalg.norm(h)
    assert np.linalg.norm(h @ v - v * w[None, :]) <= 1e-11 * (1.0 + fro)
    assert linalg.op_norm(v.conj().T @ v - np.eye(n)) <= 1e-11
    assert np.all(np.diff(w) >= 0.0)


def test_herm_eig_matches_independent_solver():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 6, 7, 12, 15):
        h = random_hermitian(rng, n)
        w = linalg.herm_eig_batch(h[None])[0][0]
        ref = np.linalg.eigvalsh(h)
        assert np.allclose(w, ref, atol=1e-11 * (1 + np.linalg.norm(h)))
        # The LAPACK eigenvalue path agrees with the Jacobi one.
        vals = linalg.herm_eigvals_batch(h[None])[0]
        assert np.max(np.abs(vals - w)) <= 1e-12 * (1 + np.linalg.norm(h))


@pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e300])
def test_herm_eig_tiny_and_huge_entries_match_independent_solver(scale):
    # Squared entries below about 1e-162 underflow to zero; the solver must
    # still rotate such a matrix rather than return its diagonal.
    h = scale * np.array([[1.0, 1.0], [1.0, 2.0]], dtype=complex)
    ref = np.linalg.eigvalsh(h)
    got = linalg.herm_eigvals_batch(h[None])[0]
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
    h3 = scale * np.array([[2.0, 1.0j, 0.0], [-1.0j, 2.0, 1.0], [0.0, 1.0, 2.0]])
    (w,), (v,) = linalg.herm_eig_batch(h3[None])
    assert np.allclose(w, np.linalg.eigvalsh(h3), rtol=1e-12, atol=0.0)
    assert linalg.op_norm(v.conj().T @ v - np.eye(3)) <= 1e-12


def test_herm_eig_subnormal_entries_stay_finite():
    w = linalg.herm_eigvals_batch(np.full((1, 2, 2), 5e-324, dtype=complex))
    assert np.all(np.isfinite(w)) and np.all(np.abs(w) <= 1e-322)


def test_herm_eig_batch_matches_single():
    rng = np.random.default_rng(99)
    hs = np.stack([random_hermitian(rng, 6) for _ in range(5)])
    wb, vb = linalg.herm_eig_batch(hs)
    vals = linalg.herm_eigvals_batch(hs)
    for k in range(5):
        (w,), (v,) = linalg.herm_eig_batch(hs[k][None])  # the matrix alone
        assert np.allclose(wb[k], w, atol=0.0)  # identical sweep order, identical bits
        assert np.array_equal(vb[k], v)
        assert np.array_equal(vals[k], linalg.herm_eigvals_batch(hs[k][None])[0])
    assert linalg.herm_eigvals_batch(np.zeros((0, 4, 4))).shape == (0, 4)


def test_herm_eig_deterministic():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 9)
    w1, v1 = linalg.herm_eig_batch(h[None])
    w2, v2 = linalg.herm_eig_batch(h[None])
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


def test_herm_eig_uses_lower_triangle_only():
    h = np.array([[1.0, 99.0], [2.0 - 1.0j, -1.0]], dtype=complex)
    w, v = linalg.herm_eig_batch(h[None])
    ref = np.linalg.eigvalsh(np.array([[1.0, 2.0 + 1.0j], [2.0 - 1.0j, -1.0]]))
    assert np.allclose(w[0], ref, atol=1e-12)
    clean = linalg.herm_eigvals_batch(linalg.from_lower(h)[None])[0]
    for upper in (99.0, np.nan, np.inf):
        h[0, 1] = upper
        assert np.array_equal(linalg.herm_eigvals_batch(h[None])[0], clean)
        got_w, got_v = linalg.herm_eig_batch(h[None])
        assert np.array_equal(got_w, w) and np.array_equal(got_v, v)


def test_op_norm_hand_checked():
    a = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    assert abs(linalg.op_norm(a) - np.sqrt(2.0)) < 1e-12
    with pytest.raises(ValueError, match="stack"):
        linalg.op_norm_batch(a)


def test_op_norm_unitary_invariance():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    u = random_unitary(rng, 4)
    v = random_unitary(rng, 6)
    assert abs(linalg.op_norm(u @ a @ v) - linalg.op_norm(a)) < 1e-10


def test_op_norm_rectangular_both_orientations():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    assert abs(linalg.op_norm(a) - linalg.op_norm(a.conj().T)) < 1e-11
    assert abs(linalg.op_norm(a) - np.linalg.svd(a, compute_uv=False)[0]) < 1e-10


@pytest.mark.parametrize("scale", [1e200, 3e160, 1e-170])
def test_op_norm_huge_and_tiny_entries(scale):
    # A* A of such entries overflows or underflows unless scaled first.
    rng = np.random.default_rng(31)
    for shape in ((1, 1), (2, 2), (3, 5), (5, 3)):
        a = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        ref = np.linalg.norm(a, 2)
        assert abs(linalg.op_norm(a) - ref) <= 1e-12 * ref
        if shape[0] == shape[1]:
            got = linalg.op_norm_batch(np.stack([a, np.zeros(shape)]))
            assert abs(got[0] - ref) <= 1e-12 * ref and got[1] == 0.0
    assert linalg.op_norm(np.diag([1e-170, 2e-170])) == 2e-170


def test_op_norm_batch_of_empty_matrices_makes_no_eigen_call(monkeypatch):
    # No rows or no columns: every norm is 0, with no Gram or eigen work.
    def refuse(h):
        raise AssertionError("eigen call on empty matrices")

    monkeypatch.setattr(linalg, "herm_eigvals_batch", refuse)
    for shape in ((3, 0, 4), (3, 4, 0), (3, 0, 0)):
        got = linalg.op_norm_batch(np.zeros(shape, dtype=complex))
        assert got.shape == (3,) and not got.any()


def test_psd_project_hand_checked():
    h = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.allclose(linalg.psd_project_batch(h[None])[0], 0.5 * np.ones((2, 2)),
                       atol=1e-12)
    assert np.allclose(linalg.psd_project_batch(np.zeros((1, 3, 3))), 0.0, atol=0.0)


def test_psd_project_fixes_psd_input_and_is_nearest():
    rng = np.random.default_rng(11)
    p = random_psd(rng, 5)
    fixed = linalg.psd_project_batch(p[None])[0]
    assert np.linalg.norm(fixed - p) < 1e-10 * (1 + np.linalg.norm(p))
    h = random_hermitian(rng, 5)
    proj = linalg.psd_project_batch(h[None])[0]
    assert linalg.herm_eigvals_batch(proj[None])[0, 0] >= -1e-12
    d0 = np.linalg.norm(proj - h)
    for _ in range(40):
        cand = random_psd(rng, 5)
        cand *= np.trace(h).real / max(np.trace(cand).real, 1e-9)
        assert np.linalg.norm(cand - h) >= d0 - 1e-9


def test_psd_project_batch_matches_single_and_uses_lower_triangle_only():
    # The Douglas-Rachford step projects 2x - z as it stands: a matrix must
    # get the same bits alone as inside a stack, whatever its upper triangle.
    rng = np.random.default_rng(41)
    hs = np.stack([random_hermitian(rng, 5) for _ in range(4)])
    proj = linalg.psd_project_batch(hs)
    for k in range(4):
        assert np.array_equal(linalg.psd_project_batch(hs[k][None])[0], proj[k])
    rows, cols = np.triu_indices(5, 1)
    for upper in (99.0, np.nan, np.inf):
        h = hs.copy()
        h[:, rows, cols] = upper
        assert np.array_equal(linalg.psd_project_batch(h), proj)


def test_rank_factor_hand_checked():
    e, q = linalg.rank_factor(np.eye(2))
    assert e.shape == (2, 2) and q.shape == (2, 0)
    assert np.allclose(e @ e.conj().T, np.eye(2), atol=1e-12)
    e, q = linalg.rank_factor(np.diag([4.0, 0.0]).astype(complex))
    assert e.shape == (2, 1)
    assert np.allclose(e, [[2.0], [0.0]], atol=1e-12)
    assert np.allclose(np.abs(q), [[0.0], [1.0]], atol=1e-12)


def test_rank_factor_roundtrip_low_rank():
    rng = np.random.default_rng(7)
    for r in (1, 2, 4):
        h = random_psd(rng, 6, rank=r)
        e, q = linalg.rank_factor(h)
        assert e.shape[1] == r and q.shape == (6, 6 - r)
        assert np.linalg.norm(e @ e.conj().T - h) <= 1e-9 * 6 * (1 + np.linalg.norm(h))
        # The complement is orthonormal and orthogonal to the factor.
        assert np.max(np.abs(q.conj().T @ q - np.eye(6 - r))) < 1e-12
        assert np.max(np.abs(q.conj().T @ e)) < 1e-12 * (1 + np.linalg.norm(h))


def test_rank_factor_rejects_indefinite():
    with pytest.raises(ValueError, match="indefinite"):
        linalg.rank_factor(np.diag([-1.0, 5.0]).astype(complex))


def test_align_isometries_roundtrip():
    rng = np.random.default_rng(13)
    for m, n in ((4, 4), (6, 2), (9, 5)):
        v = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))[0]
        w = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))[0]
        u = linalg.align_isometries(v, w)
        assert linalg.op_norm(u @ v - w) <= 1e-9
        assert linalg.op_norm(u.conj().T @ u - np.eye(m)) <= 1e-10


def test_align_isometries_rejects_non_isometry():
    v = np.ones((3, 2), dtype=complex)
    w = np.eye(3, 2, dtype=complex)
    with pytest.raises(ValueError, match="isometry"):
        linalg.align_isometries(v, w)


def test_spectral_radius_cases():
    nil = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert linalg.spectral_radius(nil) == 0.0
    rng = np.random.default_rng(23)
    u = random_unitary(rng, 4)
    assert abs(linalg.spectral_radius(u) - 1.0) < 1e-10
    a = np.array([[0.5, 3.0], [0.0, -0.25]], dtype=complex)
    assert abs(linalg.spectral_radius(a) - 0.5) < 1e-8


def test_herm_eig_rejects_non_finite_stack():
    for bad in (np.nan, np.inf):
        h = np.eye(3, dtype=complex)[None].repeat(2, axis=0)
        h[1, 2, 0] = bad
        for fn in (linalg.herm_eig_batch, linalg.psd_project_batch,
                   linalg.herm_eigvals_batch, linalg.op_norm_batch,
                   linalg.op_norm):
            with pytest.raises(ValueError, match="non-finite"):
                fn(h if fn.__name__.endswith("batch") else h[1])


def test_from_lower_builds_hermitian():
    a = np.array([[1.0 + 2.0j, 9.0], [3.0 - 4.0j, 5.0 + 6.0j]])
    h = linalg.from_lower(a)
    assert np.allclose(h, h.conj().T, atol=0.0)
    assert h[0, 0] == 1.0 and h[1, 1] == 5.0
    assert h[0, 1] == np.conj(h[1, 0]) == 3.0 + 4.0j
