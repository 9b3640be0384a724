from __future__ import annotations

import numpy as np
import pytest

from neilcone import dilation, linalg
from neilcone.dilation import (
    CompressionReport,
    NaimarkDilation,
    NaimarkInput,
    VarietyPair,
    cc_dilation_verify,
    naimark,
    no_T_obstruction,
    variety_check,
    variety_extend,
    variety_verdict,
)
from conftest import random_unitary


def reconstruction_error(inp: NaimarkInput, dil: NaimarkDilation) -> float:
    v = dil.v
    worst = linalg.op_norm(v.conj().T @ v - np.eye(inp.dim))
    for a, p in zip(inp.a_list, dil.p_list):
        worst = max(worst, linalg.op_norm(v.conj().T @ p @ v - a))
    for b, q in zip(inp.b_list, dil.q_list):
        worst = max(worst, linalg.op_norm(v.conj().T @ q @ v - b))
    worst = max(worst, linalg.op_norm(sum(dil.p_list) - np.eye(len(dil.p_list))))
    worst = max(worst, linalg.op_norm(sum(dil.q_list) - np.eye(len(dil.q_list))))
    worst = max(worst, linalg.op_norm(dil.u.conj().T @ dil.u - np.eye(len(dil.p_list))))
    for p, q in zip(dil.p_list, dil.q_list):
        worst = max(worst, linalg.op_norm(dil.u.conj().T @ p @ dil.u - q))
    return worst


def split_identity(rng, n: int, m: int, zero_rows=()):
    """Random rank-one summands of I_n from the rows of an m x n isometry."""
    live = m - len(zero_rows)
    assert live >= n, "cannot split the identity into fewer than n rank ones"
    iso = random_unitary(rng, live)[:, :n]
    rows = iter(iso)
    summands = []
    for j in range(m):
        if j in zero_rows:
            summands.append(np.zeros((n, n), dtype=complex))
        else:
            r = next(rows)
            summands.append(np.outer(r.conj(), r))
    return summands


# ---------------------------------------------------------------------------
# joint dilation


def test_naimark_halves():
    half = np.array([[0.5]], dtype=complex)
    dil = naimark(NaimarkInput((half, half), (half, half)))
    assert np.allclose(dil.v, np.full((2, 1), 1.0 / np.sqrt(2.0)))
    for p in dil.p_list:
        assert dil.v.conj().T @ p @ dil.v == pytest.approx(half, abs=1e-12)


def test_naimark_coordinate_family_is_exact():
    n = 4
    eyes = [np.diag((np.arange(n) == j).astype(complex)) for j in range(n)]
    dil = naimark(NaimarkInput(tuple(eyes), tuple(eyes)))
    inp = NaimarkInput(tuple(eyes), tuple(eyes))
    assert reconstruction_error(inp, dil) < 1e-10
    assert linalg.op_norm(dil.v.conj().T @ dil.v - np.eye(n)) < 1e-12


def test_naimark_zero_summand_gives_zero_row():
    rng = np.random.default_rng(10)
    a = split_identity(rng, 2, 3, zero_rows=(1,))
    b = split_identity(rng, 2, 3)
    inp = NaimarkInput(tuple(a), tuple(b))
    dil = naimark(inp)
    assert np.all(dil.v[1, :] == 0.0)
    assert linalg.op_norm(dil.v.conj().T @ dil.p_list[1] @ dil.v) < 1e-12
    assert reconstruction_error(inp, dil) < 1e-10


def test_naimark_random_round_trip():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n, 13))
        zeros_a = (0,) if trial % 4 == 0 and m > n else ()
        a = split_identity(rng, n, m, zero_rows=zeros_a)
        b = split_identity(rng, n, m)
        inp = NaimarkInput(tuple(a), tuple(b))
        assert reconstruction_error(inp, naimark(inp)) < 1e-10


def test_naimark_rejects_bad_sum():
    bad = (np.array([[0.5]], dtype=complex), np.array([[0.4]], dtype=complex))
    good = (np.array([[0.5]], dtype=complex), np.array([[0.5]], dtype=complex))
    with pytest.raises(ValueError, match="deviates from the identity"):
        NaimarkInput(bad, good)
    with pytest.raises(ValueError, match="non-finite"):
        NaimarkInput((np.array([[np.nan]]), good[1]), good)


def test_naimark_rejects_rank_two_summand():
    half_eye = 0.5 * np.eye(2, dtype=complex)
    inp = NaimarkInput((half_eye, half_eye), (half_eye, half_eye))
    with pytest.raises(ValueError, match="rank one"):
        naimark(inp)


# ---------------------------------------------------------------------------
# compression verifier


def cyclic_shift(dim: int) -> np.ndarray:
    u = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        u[(i + 1) % dim, i] = 1.0
    return u


def test_verify_trivial_compression():
    u = random_unitary(np.random.default_rng(12), 5)
    x = u @ u
    y = x @ u
    report = cc_dilation_verify(x, y, u, np.eye(5), 8)
    assert report.ok(1e-10)
    assert report.max_deviation < 1e-12


def test_verify_shift_invariant_subspace():
    window = 8
    dim = 2 * window + 1
    u = cyclic_shift(dim)
    h = (0,) + tuple(range(2, window + 1))
    embed = np.zeros((dim, len(h)), dtype=complex)
    for col, k in enumerate(h):
        embed[window + k, col] = 1.0
    x = embed.conj().T @ np.linalg.matrix_power(u, 2) @ embed
    y = embed.conj().T @ np.linalg.matrix_power(u, 3) @ embed
    report = cc_dilation_verify(x, y, u, embed, 5)
    for n, dev in report.deviations:
        assert dev <= 1e-10, "degree %d deviates by %.3e" % (n, dev)


def test_verify_reports_mismatch_without_raising():
    rng = np.random.default_rng(13)
    u = random_unitary(rng, 4)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    report = cc_dilation_verify(x, x @ x, u, np.eye(4), 4)
    assert isinstance(report, CompressionReport)
    assert report.max_deviation > 1e-3


def test_verify_rejects_bad_frames():
    u = cyclic_shift(3)
    with pytest.raises(ValueError, match="unitary"):
        cc_dilation_verify(np.eye(3), np.eye(3), 2.0 * u, np.eye(3), 2)
    with pytest.raises(ValueError, match="isometry"):
        cc_dilation_verify(np.eye(3), np.eye(3), u, 2.0 * np.eye(3), 2)


def test_obstruction_window_eight():
    report = no_T_obstruction(8)
    assert report.max_overlap <= 1e-14
    assert report.cube_overlap == pytest.approx(1.0, abs=1e-14)


def test_obstruction_smaller_and_growing_windows():
    small = no_T_obstruction(4)
    assert small.max_overlap <= 1e-14
    assert small.cube_overlap == pytest.approx(1.0, abs=1e-14)
    for window in (5, 9, 16):
        grown = no_T_obstruction(window)
        assert grown.max_overlap <= 1e-14
        assert grown.cube_overlap == small.cube_overlap


# ---------------------------------------------------------------------------
# equal-squares variety


def nilpotent_pair():
    s = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    t = np.array([[0.0, 1.0j], [0.0, 0.0]], dtype=complex)
    return VarietyPair(s, t)


def test_pair_validation():
    with pytest.raises(ValueError, match="commute"):
        VarietyPair(np.array([[0.0, 1.0], [0.0, 0.0]]),
                    np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="squares"):
        VarietyPair(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="radius"):
        VarietyPair(1.5 * np.eye(2), 1.5 * np.eye(2))
    nan = np.array([[np.nan]])
    with pytest.raises(ValueError, match="non-finite"):
        VarietyPair(nan, nan)


def test_sweep_constant_for_equal_pair():
    s = 0.7 * random_unitary(np.random.default_rng(14), 3)
    sweep = variety_check(VarietyPair(s, s))
    assert sweep.max_norm == pytest.approx(0.7, abs=1e-10)
    assert sweep.max_adjacent_diff < 1e-10


def test_sweep_negated_unitary_stays_at_one():
    u = random_unitary(np.random.default_rng(15), 3)
    sweep = variety_check(VarietyPair(u, -u))
    assert sweep.max_norm == pytest.approx(1.0, abs=1e-12)
    assert variety_verdict(VarietyPair(u, -u)).passed


def test_sweep_nilpotent_pair_hits_root_two():
    sweep = variety_check(nilpotent_pair())
    assert sweep.max_norm == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert sweep.witness == pytest.approx(0.5 + 0.5j, abs=1e-12)
    verdict = variety_verdict(nilpotent_pair())
    assert not verdict.passed
    assert verdict.witness == pytest.approx(0.5 + 0.5j, abs=1e-12)


def test_verdict_passes_easy_pairs():
    half = 0.5 * np.eye(2, dtype=complex)
    verdict = variety_verdict(VarietyPair(half, half))
    assert verdict.passed
    assert verdict.message == "dilation exists"


def peaked_pair(p, q):
    """Nilpotent pair whose mix has norm |p + q e^{i theta}|, peaking at
    |p| + |q| where theta = arg p - arg q."""
    s = np.array([[0.0, p + q], [0.0, 0.0]], dtype=complex)
    t = np.array([[0.0, p - q], [0.0, 0.0]], dtype=complex)
    return VarietyPair(s, t)


def test_verdict_fails_between_the_samples():
    # The norm reaches 1 + 1e-6 at theta = pi/720, midway between two of
    # the 720 samples, where every sample stays below 1.
    r = 0.5 * (1.0 + 1e-6)
    pair = peaked_pair(r * np.exp(1j * np.pi / 720), r)
    assert variety_check(pair).max_norm < 1.0
    verdict = variety_verdict(pair)
    assert not verdict.passed and verdict.reason is None
    assert verdict.max_norm > 1.0 + 1e-8
    theta = np.angle(2.0 * verdict.witness - 1.0)
    assert abs(theta - np.pi / 720) < 3e-3
    lam = verdict.witness
    assert linalg.op_norm(lam * pair.s + (1.0 - lam) * pair.t) == pytest.approx(
        verdict.max_norm, abs=1e-12)


def test_verdict_proves_a_pair_touching_one():
    verdict = variety_verdict(peaked_pair(0.5 * np.exp(0.3j), 0.5))
    assert verdict.passed and verdict.reason is None
    assert verdict.message == "dilation exists"


def test_verdict_out_of_evaluations_is_undecided(monkeypatch):
    monkeypatch.setattr(dilation, "ARC_EVALS", 1000)
    verdict = variety_verdict(peaked_pair(0.5 * np.exp(0.3j), 0.5))
    assert not verdict.passed
    assert "still open" in verdict.reason
    assert verdict.message == verdict.reason
    assert verdict.max_norm <= 1.0


def test_sweep_unitary_conjugation_invariance():
    rng = np.random.default_rng(16)
    pair = nilpotent_pair()
    base = variety_check(pair, angle_samples=360)
    for _ in range(3):
        w = random_unitary(rng, 2)
        conj = VarietyPair(w @ pair.s @ w.conj().T, w @ pair.t @ w.conj().T)
        sweep = variety_check(conj, angle_samples=360)
        assert np.max(np.abs(sweep.profile - base.profile)) < 1e-10


def test_mixing_coefficients_bounded_on_boundary_circles():
    # the defining property of the sweep circle: the linear mix has modulus
    # at most 1 on both branches w = z and w = -z of the torus
    theta = 2.0 * np.pi * np.arange(512) / 512
    z = np.exp(1j * theta)
    for k in range(16):
        lam = 0.5 * (1.0 + np.exp(2j * np.pi * k / 16))
        on_diag = np.max(np.abs(lam * z + (1.0 - lam) * z))
        on_anti = np.max(np.abs(lam * z - (1.0 - lam) * z))
        assert on_diag == pytest.approx(1.0, abs=1e-12)
        assert on_anti == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# extension across the branches


def test_extend_zero_and_constants():
    zero = lambda t: 0.0
    assert variety_extend(zero, zero, 0.3, 0.1) == pytest.approx(0.0, abs=1e-15)
    const = lambda t: np.array([[2.0, 1.0], [0.0, 1.0]], dtype=complex)
    out = variety_extend(const, const, 0.3 + 0.2j, -0.1)
    assert np.allclose(out, const(0.0), atol=1e-12)


def test_extend_linear_branches():
    hp = lambda t: t
    hm = lambda t: -t
    for t in (0.2, -0.4 + 0.1j, 0.5j):
        assert variety_extend(hp, hm, t, t) == pytest.approx(t, abs=1e-12)
        assert variety_extend(hp, hm, t, -t) == pytest.approx(-t, abs=1e-12)


def test_extend_random_polynomial_branches():
    rng = np.random.default_rng(17)
    for _ in range(5):
        cp = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        cm = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        cm[0] = cp[0]  # agree at the origin
        hp = lambda t, c=cp: np.polyval(c[::-1], t)
        hm = lambda t, c=cm: np.polyval(c[::-1], t)
        for t in rng.standard_normal(4) * 0.5:
            assert variety_extend(hp, hm, t, t) == pytest.approx(hp(t), abs=1e-12)
            assert variety_extend(hp, hm, t, -t) == pytest.approx(hm(t), abs=1e-12)


def test_extend_rejects_mismatched_origin():
    with pytest.raises(ValueError, match="origin"):
        variety_extend(lambda t: 1.0, lambda t: 0.0, 0.1, 0.1)
