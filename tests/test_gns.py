from __future__ import annotations

import numpy as np
import pytest

from neilcone import gns, kernels, linalg
from neilcone.cone import ConeProblem, default_grid, dual_search
from neilcone.gns import amplified_deficiency, build_gns, build_noxy, mult_operator, rep_norm
from neilcone.kernels import DEFAULT_SAMPLES
from conftest import random_psd

SAMPLES = DEFAULT_SAMPLES
N = len(SAMPLES)


def random_values(rng, count=N):
    return rng.standard_normal(count) + 1j * rng.standard_normal(count)


# ---------------------------------------------------------------------------
# construction


def test_identity_gram_is_full_rank_and_unital():
    space = build_gns(np.eye(2 * N), SAMPLES, block_dim=2)
    assert space.rank == 2 * N
    assert np.max(np.abs(space.factor @ space.factor.conj().T
                         - np.eye(2 * N))) < 1e-14
    one = mult_operator(space, np.ones(N))
    assert np.array_equal(one.matrix, np.eye(2 * N))
    assert one.welldef_residual == 0.0
    assert rep_norm(space, one) == pytest.approx(1.0, abs=1e-14)


def test_identity_gram_diagonal_norm_formula():
    rng = np.random.default_rng(2)
    space = build_gns(np.eye(N), SAMPLES)
    g = random_values(rng)
    assert rep_norm(space, mult_operator(space, g)) == pytest.approx(
        float(np.max(np.abs(g))), abs=1e-12)


def test_rank_one_gram():
    rng = np.random.default_rng(3)
    v = random_values(rng)
    space = build_gns(np.outer(v, np.conj(v)), SAMPLES)
    assert space.rank == 1
    # Multiplication is genuinely ill defined on a spread-out rank-one
    # functional: the carrier is not invariant.
    with pytest.raises(ValueError):
        mult_operator(space, random_values(rng))


def test_rank_one_point_mass_carries_evaluation():
    v = np.zeros(N, dtype=complex)
    v[3] = 2.0 - 1.0j
    space = build_gns(np.outer(v, np.conj(v)), SAMPLES)
    assert space.rank == 1
    g = np.arange(1, N + 1).astype(complex)
    op = mult_operator(space, g)
    assert op.matrix.shape == (1, 1)
    assert op.matrix[0, 0] == pytest.approx(g[3], abs=1e-12)


def test_indefinite_gram_rejected_with_eigenvalue():
    w = np.diag([1.0] * (N - 1) + [-1e-3]).astype(complex)
    with pytest.raises(ValueError, match="eigenvalue"):
        build_gns(w, SAMPLES)


def test_round_trip_on_rank_deficient_gram():
    rng = np.random.default_rng(4)
    w = random_psd(rng, 2 * N, rank=7)
    space = build_gns(w, SAMPLES, block_dim=2)
    assert space.rank == 7
    scale = float(np.abs(w).max())
    assert np.max(np.abs(space.factor @ space.factor.conj().T - w)) < 1e-12 * scale


def test_leak_is_the_carrier_complement_norm(monkeypatch):
    # The leak ||Q* D B|| of the complement Q equals ||(I - B B*) D B||
    # times the spread, on rank-deficient Grams whose multiplications leak
    # by any amount (the gate is lifted here to read every leak).
    monkeypatch.setattr(gns, "WELLDEF_TOL", np.inf)
    rng = np.random.default_rng(17)
    for rank, d in ((1, 1), (3, 1), (7, 2)):
        space = build_gns(random_psd(rng, d * N, rank=rank), SAMPLES,
                          block_dim=d)
        assert space.rank == rank
        assert space.complement.shape == (d * N, d * N - rank)
        basis = space.factor / np.sqrt(space.eigs)
        spread = np.sqrt(space.eigs[0] / space.eigs[-1])
        outside = np.eye(d * N) - basis @ basis.conj().T
        for _ in range(3):
            g = random_values(rng)
            moved = np.repeat(g, d)[:, None] * basis
            ref = np.linalg.norm(outside @ moved, 2) * spread
            got = mult_operator(space, g).welldef_residual
            assert ref > 1e-3
            assert abs(got - ref) <= 1e-12


def test_full_rank_leak_is_exactly_zero(monkeypatch):
    # At full rank the complement is empty: every residual is exactly 0.0,
    # and the multiplication matrices need no eigen call.
    rng = np.random.default_rng(18)
    space = build_gns(random_psd(rng, 2 * N) + 1e-3 * np.eye(2 * N), SAMPLES,
                      block_dim=2)
    assert space.rank == 2 * N and space.complement.shape == (2 * N, 0)

    def refuse(h):
        raise AssertionError("eigen call for a full-rank leak")

    monkeypatch.setattr(linalg, "herm_eigvals_batch", refuse)
    values = rng.standard_normal((5, N)) + 1j * rng.standard_normal((5, N))
    assert gns._mult_matrices(space, values)[1].tolist() == [0.0] * 5


def test_zero_gram_gives_trivial_quotient():
    space = build_gns(np.zeros((2 * N, 2 * N)), SAMPLES, block_dim=2)
    assert space.rank == 0
    op = mult_operator(space, np.ones(N))
    assert op.matrix.shape == (0, 0)
    assert gns.rep_norm_sweep(space, np.ones((3, N))).tolist() == [0.0] * 3
    f = np.zeros((N, 2, 2), dtype=complex)
    assert amplified_deficiency(space, f) == 0.0


def test_argument_validation():
    space = build_gns(np.eye(N), SAMPLES)
    with pytest.raises(ValueError):
        mult_operator(space, np.ones(N + 1))
    with pytest.raises(ValueError):
        space.coords(np.ones(N + 1))
    with pytest.raises(ValueError):
        build_gns(np.eye(5), SAMPLES)
    other = build_gns(np.eye(2 * N), SAMPLES, block_dim=2)
    with pytest.raises(ValueError):
        rep_norm(other, mult_operator(space, np.ones(N)))
    with pytest.raises(ValueError):
        amplified_deficiency(space, np.zeros((N, 2, 2)))


# ---------------------------------------------------------------------------
# representation algebra


def test_multiplicativity_on_random_grams():
    rng = np.random.default_rng(5)
    for _ in range(5):
        space = build_gns(random_psd(rng, N), SAMPLES)
        g = random_values(rng)
        h = random_values(rng)
        a_g = mult_operator(space, g).matrix
        a_h = mult_operator(space, h).matrix
        a_gh = mult_operator(space, g * h).matrix
        scale = 1.0 + float(np.abs(a_gh).max())
        assert np.max(np.abs(a_gh - a_g @ a_h)) < 1e-8 * scale


def test_spectral_inclusion_in_sampled_values():
    rng = np.random.default_rng(6)
    x = SAMPLES.array()
    for g_vals in (x ** 3, random_values(rng)):
        space = build_gns(random_psd(rng, N), SAMPLES)
        a = mult_operator(space, g_vals).matrix
        for ev in np.linalg.eigvals(a):
            assert min(abs(ev - v) for v in g_vals) < 1e-7


def test_norm_sweep_matches_pointwise():
    # Reference from numpy.linalg alone: the squared norm of multiplication
    # by D is the largest eigenvalue of D* W D against W on the range of W,
    # which is everything for these full-rank W.
    rng = np.random.default_rng(21)
    for w, d in ((random_psd(rng, N) + 1e-3 * np.eye(N), 1),
                 (random_psd(rng, 2 * N) + 1e-3 * np.eye(2 * N), 2)):
        space = build_gns(w, SAMPLES, block_dim=d)
        batch = rng.standard_normal((7, N)) + 1j * rng.standard_normal((7, N))
        swept = gns.rep_norm_sweep(space, batch)
        lam, vecs = np.linalg.eigh(w)
        whiten = vecs / np.sqrt(lam)[None, :]
        for k in range(7):
            dw = np.repeat(batch[k], d)[:, None] * whiten
            top = np.linalg.eigvalsh(dw.conj().T @ w @ dw)[-1]
            assert swept[k] == pytest.approx(np.sqrt(top), rel=1e-10)
    with pytest.raises(ValueError):
        gns.rep_norm_sweep(space, np.ones((2, N + 1)))


def test_norm_sweep_rejects_when_pointwise_rejects():
    rng = np.random.default_rng(22)
    space = build_gns(random_psd(rng, N, rank=4), SAMPLES)
    g = random_values(rng)
    with pytest.raises(ValueError, match="leak"):
        mult_operator(space, g)
    with pytest.raises(ValueError, match="leak"):
        gns.rep_norm_sweep(space, g[None, :])


def test_norm_sweep_names_the_leaking_row_of_the_whole_batch():
    # The sweep runs in blocks; a leaking row past the first block is named
    # by its index in the batch, not within its block.
    rng = np.random.default_rng(22)
    space = build_gns(random_psd(rng, N, rank=4), SAMPLES)
    batch = np.ones((linalg.GRID_BLOCK + 40, N), dtype=complex)
    row = linalg.GRID_BLOCK + 18
    batch[row] = random_values(rng)
    with pytest.raises(ValueError, match="for multiplier %d$" % row):
        gns.rep_norm_sweep(space, batch)


def test_certificate_norm_bridge():
    # Positivity of W - D* W D on the carrier is the same statement as the
    # multiplier being a contraction; both sides are computed independently.
    rng = np.random.default_rng(7)
    lam = 0.3 - 0.2j
    psi = kernels.test_fn(lam, SAMPLES.array())
    d_mat = np.diag(psi)
    checked_pos = checked_neg = 0
    for trial in range(12):
        rank = None if trial % 2 == 0 else 2
        w = random_psd(rng, N, rank=rank) + 1e-6 * np.eye(N)
        margin = linalg.herm_eigvals_batch((w - d_mat.conj().T @ w @ d_mat)[None])[0, 0]
        space = build_gns(w, SAMPLES)
        norm = rep_norm(space, mult_operator(space, psi))
        if margin >= 1e-7:
            checked_pos += 1
            assert norm <= 1.0 + 1e-7
        elif margin <= -1e-7:
            checked_neg += 1
            assert norm >= 1.0 - 1e-7
    assert checked_pos and checked_neg


# ---------------------------------------------------------------------------
# amplified deficiency


def test_deficiency_of_zero_function_is_squared_length():
    rng = np.random.default_rng(8)
    w = random_psd(rng, 2 * N)
    space = build_gns(w, SAMPLES, block_dim=2)
    f = np.zeros((N, 2, 2), dtype=complex)
    t = amplified_deficiency(space, f)
    assert t >= 0.0
    flat_ones = np.kron(np.ones((N, N)), np.eye(2))
    assert t == pytest.approx(float(np.real(np.trace(w @ flat_ones))), rel=1e-10)


def test_deficiency_matches_kernel_pairing():
    rng = np.random.default_rng(9)
    for _ in range(10):
        w = random_psd(rng, 2 * N)
        space = build_gns(w, SAMPLES, block_dim=2)
        f = rng.standard_normal((N, 2, 2)) + 1j * rng.standard_normal((N, 2, 2))
        assert gns.deficiency_matches_kernel(space, f) < 1e-7


# ---------------------------------------------------------------------------
# the commuting-pair model


def test_noxy_identity_gram_is_diagonal_and_tame():
    x_vals = SAMPLES.array()
    witness = kernels.test_fn(0.4, x_vals)
    x, y, report = build_noxy(SAMPLES, np.eye(N), witness)
    off = x - np.diag(np.diagonal(x))
    assert np.max(np.abs(off)) < 1e-14
    assert report.x_norm == pytest.approx(float(np.max(np.abs(x_vals) ** 2)),
                                          abs=1e-12)
    assert report.y_norm == pytest.approx(float(np.max(np.abs(x_vals) ** 3)),
                                          abs=1e-12)
    assert report.relations_hold()
    assert report.contractive()
    assert not report.norm_violated()


@pytest.fixture(scope="module")
def restricted_certificate():
    mu = 0.4
    witness = kernels.test_fn(mu, SAMPLES.array())
    target = kernels.sigma_kernel(witness[:, None, None], SAMPLES)
    problem = ConeProblem(
        SAMPLES, 1, default_grid(), target,
        generator_restriction=(0.0, np.inf),
    )
    cert = dual_search(problem)
    assert cert is not None
    return witness, cert


def test_noxy_solver_certificate_is_conclusive(restricted_certificate):
    witness, cert = restricted_certificate
    x, y, report = build_noxy(SAMPLES, cert.w, witness)
    assert report.contractive()
    assert report.relations_hold()
    assert report.norm_violated()
    assert report.commutator_norm < 1e-10
    assert report.relation_gap < 1e-10


def test_noxy_witness_norm_reflects_violation(restricted_certificate):
    # The constant function exhibits the norm violation concretely:
    # |rho(f) 1|^2 - |1|^2 equals the negated pairing with the defect kernel.
    witness, cert = restricted_certificate
    space = build_gns(cert.w, SAMPLES)
    ones = np.ones(N, dtype=complex)
    h = space.coords(ones)
    image = mult_operator(space, witness).matrix @ h
    gap = float(np.real(np.vdot(image, image) - np.vdot(h, h)))
    assert gap == pytest.approx(-cert.violation, rel=1e-6)
    assert gap > 0.0
    norm_sq = float(np.real(np.vdot(h, h)))
    assert np.vdot(image, image).real > norm_sq
    assert rep_norm(space, mult_operator(space, witness)) ** 2 \
        >= 1.0 + gap / norm_sq - 1e-9
