from __future__ import annotations

import numpy as np
import pytest

from neilcone import kernels, linalg
from neilcone.cone import _generator_data, default_grid
from neilcone.kernels import MatrixBlaschke, SampleSet, extended_points
from conftest import random_disk_points, random_unitary

BOUNDARY = np.exp(2j * np.pi * np.arange(256) / 256)


def test_blaschke_unimodular_on_boundary_and_zero_at_parameter():
    for lam in (0.3, -0.5 + 0.2j, 0.0, 0.9j):
        vals = kernels.blaschke(lam, BOUNDARY)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12
        assert abs(kernels.blaschke(lam, lam)) < 1e-15


def test_blaschke_rejects_boundary_parameter():
    with pytest.raises(ValueError):
        kernels.blaschke(1.0, 0.5)
    for fn in (kernels.blaschke, kernels.norm_szego):
        with pytest.raises(ValueError):
            fn(float("nan"), 0.5)


def test_test_fn_infinity_is_square():
    z = np.array([0.3, -0.2 + 0.1j, 0.9j])
    assert np.allclose(kernels.test_fn(np.inf, z), z * z, atol=0.0)


def test_test_fn_bound_and_algebra_membership():
    rng = np.random.default_rng(8)
    pts = [np.inf] + random_disk_points(rng, 6, rmax=0.98)
    z = np.array(random_disk_points(rng, 40, rmax=0.999), dtype=complex)
    for p in pts:
        vals = kernels.test_fn(p, z)
        assert np.all(np.abs(vals) <= np.abs(z) ** 2 + 1e-13)
        # psi(0) = 0 and psi'(0) = 0: the z^2 factor kills the derivative.
        h = 1e-5
        assert abs(kernels.test_fn(p, 0.0)) == 0.0
        assert abs(kernels.test_fn(p, h)) / h < 2 * h


def test_test_fn_broadcast_matches_per_point_formula():
    # One broadcast call over a grid gives, bit for bit, what the per-point
    # formula z^2 b_lam(z) gives, and the infinite parameter warns of nothing.
    z = kernels.DEFAULT_SAMPLES.array()
    grid = default_grid()
    with np.errstate(all="raise"):
        got = kernels.test_fn(grid[:, None], z)
    assert got.shape == (len(grid), len(z))
    assert np.array_equal(got[0], z * z)
    for g, lam in enumerate(grid[1:], start=1):
        assert np.array_equal(got[g], z * z * kernels.blaschke(lam, z))


def test_szego_identity_with_normalized_kernel():
    rng = np.random.default_rng(4)
    x = np.array(random_disk_points(rng, 12), dtype=complex)
    for lam in (0.4, -0.2 + 0.6j, 0.0):
        lhs = (1.0 - kernels.blaschke(lam, x)[:, None]
               * np.conj(kernels.blaschke(lam, x))[None, :]) \
            * kernels.szego(x[:, None], x[None, :])
        k = kernels.norm_szego(lam, x)
        assert np.max(np.abs(lhs - k[:, None] * np.conj(k)[None, :])) < 1e-12


def test_szego_gram_invertible_on_random_nodes():
    rng = np.random.default_rng(12)
    for trial in range(6):
        n = int(rng.integers(2, 9))
        x = np.array(random_disk_points(rng, n), dtype=complex)
        gram = kernels.szego(x[:, None], x[None, :])
        assert linalg.herm_eigvals_batch(gram[None])[0, 0] > 1e-10


def test_phi_eval_unitary_on_boundary():
    mb = MatrixBlaschke(0.5, -0.5)
    vals = kernels.phi_eval(mb, BOUNDARY)
    dev = vals @ vals.conj().swapaxes(-1, -2) - np.eye(2)
    assert np.max(np.abs(dev)) < 1e-12


def test_phi_eval_determinant_vanishes_exactly_at_zeros():
    mb = MatrixBlaschke(0.5, -0.5)
    det = np.linalg.det(kernels.phi_eval(mb, np.array([0.5, -0.5, 0.1, 0.3j])))
    assert abs(det[0]) < 1e-14 and abs(det[1]) < 1e-14
    assert abs(det[2]) > 1e-3 and abs(det[3]) > 1e-3


def test_phi_eval_default_has_no_zero_entries():
    mb = MatrixBlaschke(0.5, -0.5)
    z = np.array([0.1, 0.3 - 0.2j, 0.7j, -0.6])
    vals = kernels.phi_eval(mb, z)
    assert np.min(np.abs(vals)) > 1e-3


def test_f_eval_inner_of_norm_one():
    mb = MatrixBlaschke(0.5, -0.5)
    vals = kernels.f_eval(mb, BOUNDARY)
    norms = linalg.op_norm_batch(vals)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    # interior contractivity and the double zero at the origin
    inside = kernels.f_eval(mb, np.array([0.0, 1e-5, 0.4 + 0.2j]))
    assert np.max(np.abs(inside[0])) == 0.0
    assert np.max(np.abs(inside[1])) < 1e-9  # O(z^2) smallness
    assert linalg.op_norm(inside[2]) < 1.0


def test_diagonality_test_patterns():
    assert not kernels.diagonality_test(MatrixBlaschke(0.5, -0.5))
    eye_mb = MatrixBlaschke(0.5, -0.5, np.eye(2, dtype=complex))
    assert kernels.diagonality_test(eye_mb)
    anti = MatrixBlaschke(0.5, -0.5, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    assert kernels.diagonality_test(anti)
    near = np.array([[1.0, 1e-12], [-1e-12, 1.0]], dtype=complex)
    assert kernels.diagonality_test(MatrixBlaschke(0.5, -0.5, near))


def test_sigma_kernel_structure():
    mb = MatrixBlaschke(0.5, -0.5)
    samples = kernels.DEFAULT_SAMPLES
    f_vals = kernels.f_eval(mb, samples.array())
    sig = kernels.sigma_kernel(f_vals, samples)
    n, d = len(samples), 2
    assert sig.flat.shape == (n * d, n * d)
    assert np.array_equal(sig.flat, sig.flat.conj().T)
    for i in range(n):
        for j in range(n):
            blk = sig.block(i, j)
            expect = np.eye(2) - f_vals[i] @ f_vals[j].conj().T
            assert np.max(np.abs(blk - expect)) < 1e-12
        # strict inside the disk
        assert linalg.herm_eigvals_batch(sig.block(i, i)[None])[0, 0] > 0.0


def test_generator_diag_contractive_and_blockwise():
    samples = kernels.DEFAULT_SAMPLES
    diags, _ = _generator_data([np.inf, 0.3 - 0.1j], samples, block_dim=2)
    assert diags.shape == (2, 12)
    assert np.array_equal(diags[:, ::2], diags[:, 1::2])
    bound = max(abs(z) ** 2 for z in samples)
    assert np.max(np.abs(diags)) <= bound + 1e-15


def _defect_oracle(mb: MatrixBlaschke, samples: SampleSet) -> np.ndarray:
    """Independent rank-two form of the Szego-weighted defect.

    Peeling the product structure of Phi gives
    I - Phi(x)Phi(y)* = (1 - b1 b1~) e1 e1* + D1(x) U (1 - b2 b2~) e2 e2* U* D1(y)*,
    and each scalar factor divided by 1 - x conj(y) is a normalized Szego
    rank-one, so the kernel is a(x)a(y)* + b(x)b(y)* with
    a(x) = k1(x) e1 and b(x) = k2(x) (b1(x) U[0,1], U[1,1]).
    """
    x = samples.array()
    k1 = kernels.norm_szego(mb.lam1, x)
    k2 = kernels.norm_szego(mb.lam2, x)
    b1 = kernels.blaschke(mb.lam1, x)
    u = mb.unitary
    a = np.zeros((len(x), 2), dtype=complex)
    a[:, 0] = k1
    b = np.stack([k2 * b1 * u[0, 1], k2 * np.full(len(x), u[1, 1])], axis=1)
    ahat = a.reshape(-1)
    bhat = b.reshape(-1)
    return np.outer(ahat, ahat.conj()) + np.outer(bhat, bhat.conj())


@pytest.mark.parametrize("lam1,lam2", [(0.5, -0.5), (0.3 + 0.2j, -0.1 - 0.6j)])
def test_defect_kernel_matches_rank_two_oracle(lam1, lam2):
    mb = MatrixBlaschke(lam1, lam2)
    samples = kernels.DEFAULT_SAMPLES
    dk = kernels.defect_kernel(mb, samples)
    oracle = _defect_oracle(mb, samples)
    assert np.max(np.abs(dk.flat - oracle)) < 1e-12


def test_defect_kernel_rank_two_random_unitaries():
    rng = np.random.default_rng(77)
    samples = kernels.DEFAULT_SAMPLES
    for trial in range(10):
        u = random_unitary(rng, 2)
        mb = MatrixBlaschke(0.5, -0.5, u)
        w = linalg.herm_eig_batch(kernels.defect_kernel(mb, samples).flat[None])[0][0]
        assert w[0] > -1e-11 * w[-1]
        assert w[-3] <= 1e-9 * w[-1]


def test_defect_kernel_diagonal_identity():
    mb = MatrixBlaschke(0.5, -0.5, np.eye(2, dtype=complex))
    samples = kernels.DEFAULT_SAMPLES
    dk = kernels.defect_kernel(mb, samples)
    x = samples.array()
    for j, lam in enumerate((0.5, -0.5)):
        k = kernels.norm_szego(lam, x)
        expect = k[:, None] * np.conj(k)[None, :]
        got = np.array([[dk.block(i, m)[j, j] for m in range(len(x))]
                        for i in range(len(x))])
        assert np.max(np.abs(got - expect)) < 1e-12


def test_extended_point_validation():
    pts = extended_points((np.inf, 0.5))
    assert pts.dtype == complex
    assert np.isinf(pts[0]) and pts[1] == 0.5
    for bad in ([1.0], [0.2, 1.0 - 1e-12], [np.nan], [complex(0.3, np.nan)],
                [[0.1, 0.2]]):
        with pytest.raises(ValueError):
            extended_points(bad)


def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet((0.2, 0.2 + 1e-10))
    with pytest.raises(ValueError):
        SampleSet((1.0, 0.0))
    with pytest.raises(ValueError):
        SampleSet(())
    for bad in (float("nan"), complex(0.1, float("nan")), complex(np.inf)):
        with pytest.raises(ValueError):
            SampleSet((0.0, bad))
    assert len(kernels.DEFAULT_SAMPLES) == 6
    assert kernels.DEFAULT_SAMPLES.points[0] == 0.0


def test_matrix_blaschke_validation():
    with pytest.raises(ValueError):
        MatrixBlaschke(0.0, 0.5)
    with pytest.raises(ValueError):
        MatrixBlaschke(0.5, 0.5)
    with pytest.raises(ValueError):
        MatrixBlaschke(0.5, -0.5, np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        MatrixBlaschke(0.5, -0.5, np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_matrix_kernel_rejects_non_finite_entries():
    samples = SampleSet((0.3, -0.2))
    for bad in (np.nan, np.inf):
        flat = np.eye(2, dtype=complex)
        flat[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            kernels.MatrixKernel(samples, 1, flat)
