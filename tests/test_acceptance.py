"""End-to-end acceptance scorecard.

One test per advertised capability, each printing a single PASS/FAIL line
(run with -s to watch the scorecard stream) before asserting the stated
tolerances.  Oracles here lean on numpy.linalg so the checks stay
independent of the package's own eigensolver.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from neilcone import cli, dilation, gns, kernels, linalg
from neilcone.cone import (
    ConeProblem,
    DiscreteMeasure,
    Feasible,
    apply_generators,
    dual_search,
    primal_feasibility,
    recover_structure,
)
from neilcone.kernels import (
    DEFAULT_SAMPLES,
    MatrixBlaschke,
    MatrixKernel,
    SampleSet,
)
from conftest import random_disk_points, random_psd, random_unitary

INF = np.inf


def scorecard(num: int, label: str, ok: bool) -> None:
    print("acceptance %d %-36s %s" % (num, "(%s):" % label,
                                      "PASS" if ok else "FAIL"))


def onorm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


# ---------------------------------------------------------------------------
# 1. flagship pipeline: certified non-membership for the two-zero product


@pytest.fixture(scope="module")
def flagship(tmp_path_factory):
    out = tmp_path_factory.mktemp("flagship") / "certificate.json"
    start = time.monotonic()
    code = cli.main(["counterexample", "--out", str(out)])
    wall = time.monotonic() - start
    return code, json.loads(out.read_text()), wall


def test_counterexample_certificate(flagship):
    code, data, wall = flagship
    rep = data.get("representation", {})
    val = data.get("validation", {})
    cert = data.get("certificate", {})
    checks = {
        "exit_zero": code == 0 and data.get("status") == "certified",
        "violation": cert.get("violation", 0.0) <= -2.4e-2,
        "fine_margin": val.get("worst_margin", -1.0) >= -1e-6,
        "deficiency": rep.get("deficiency", 0.0) <= -1e-4,
        "test_norms": rep.get("max_test_norm", 2.0) <= 1.0 + 1e-6,
        "dense_grid": rep.get("norm_grid_size") == 64 * 128 + 321,
        "wall_time": wall <= 600.0,
    }
    scorecard(1, "counterexample certificate", all(checks.values()))
    assert all(checks.values()), (checks, data.get("status"), round(wall, 1))


# ---------------------------------------------------------------------------
# 2. diagonal product: closed-form witness, independent primal, structure


def test_diagonal_witness_and_structure():
    samples = DEFAULT_SAMPLES
    n = len(samples)
    mb = MatrixBlaschke(0.5, -0.5, np.eye(2, dtype=complex))
    f_vals = kernels.f_eval(mb, samples.array())
    target = kernels.sigma_kernel(f_vals, samples)
    grid = (INF, 0.0, 0.5, -0.5, 0.3j, -0.3j)
    problem = ConeProblem(samples, 2, grid, target)

    e1 = np.diag([1.0, 0.0]).astype(complex)
    e2 = np.diag([0.0, 1.0]).astype(complex)
    blocks = np.zeros((len(grid), 2 * n, 2 * n), dtype=complex)
    blocks[2] = np.kron(np.ones((n, n)), e1)
    blocks[3] = np.kron(np.ones((n, n)), e2)
    witness = DiscreteMeasure(grid, blocks)
    closed_residual = onorm(apply_generators(witness, problem).flat - target.flat)

    primal = primal_feasibility(problem, tol=1e-9)
    feasible = isinstance(primal, Feasible)

    structure_ok = False
    if feasible:
        report = recover_structure(primal.measure, problem)
        near = lambda z: min(report.clusters,
                             key=lambda c: abs(c.center - z))
        c_pos, c_neg = near(0.5), near(-0.5)
        structure_ok = (
            len(report.clusters) == 2
            and abs(c_pos.center - 0.5) <= 1e-6
            and abs(c_neg.center + 0.5) <= 1e-6
            and report.projection_deviation is not None
            and report.projection_deviation <= 1e-5
            and onorm(c_pos.zero_block - e1) <= 1e-5
            and onorm(c_neg.zero_block - e2) <= 1e-5
        )

    checks = {
        "closed_form": closed_residual <= 1e-10,
        "primal": feasible and primal.residual <= 1e-7,
        "structure": structure_ok,
    }
    scorecard(2, "diagonal witness and structure", all(checks.values()))
    assert all(checks.values()), (checks, closed_residual)


# ---------------------------------------------------------------------------
# 3. primal and dual never both claim success


def feasible_by_construction(seed: int, block_dim: int):
    rng = np.random.default_rng(seed)
    samples = SampleSet(tuple(random_disk_points(rng, 3, rmax=0.7,
                                                 min_sep=0.15)))
    grid = (INF, 0.25, -0.3 + 0.2j)
    n = len(samples) * block_dim
    blocks = np.stack([random_psd(rng, n) for _ in grid])
    base = ConeProblem(
        samples, block_dim, grid,
        MatrixKernel(samples, block_dim,
                     np.kron(np.ones((len(samples), len(samples))),
                             np.eye(block_dim))))
    inside = apply_generators(DiscreteMeasure(grid, blocks), base)
    return ConeProblem(samples, block_dim, grid, inside)


def perturbed_negative(seed: int, block_dim: int):
    problem = feasible_by_construction(seed, block_dim)
    n = problem.dim
    tr = float(np.real(np.trace(problem.target.flat)))
    flat = problem.target.flat - (2.0 * tr / n) * np.eye(n)
    return ConeProblem(problem.sample_set, block_dim, problem.grid,
                       MatrixKernel(problem.sample_set, block_dim, flat))


def test_primal_dual_mutual_exclusion():
    exclusive = True
    decided_feasible = 0
    decided_infeasible = 0
    for seed in range(10):
        block_dim = 1 if seed < 5 else 2
        problem = feasible_by_construction(100 + seed, block_dim)
        primal = primal_feasibility(problem)
        cert = dual_search(problem)
        exclusive &= not (isinstance(primal, Feasible) and cert is not None)
        decided_feasible += isinstance(primal, Feasible)
    for seed in range(10):
        block_dim = 1 if seed < 5 else 2
        problem = perturbed_negative(200 + seed, block_dim)
        primal = primal_feasibility(problem)
        cert = dual_search(problem)
        exclusive &= not (isinstance(primal, Feasible) and cert is not None)
        decided_infeasible += cert is not None
    checks = {
        "exclusive": exclusive,
        "feasible_side": decided_feasible == 10,
        "infeasible_side": decided_infeasible == 10,
    }
    scorecard(3, "primal/dual mutual exclusion", all(checks.values()))
    assert all(checks.values()), checks


# ---------------------------------------------------------------------------
# 4. two-dimensional defect span for the mixed product family


def test_defect_gram_rank_two():
    worst_ratio = 0.0
    for trial in range(20):
        rng = np.random.default_rng(300 + trial)
        zeros = []
        while len(zeros) < 2:
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            if 0.15 <= abs(z) <= 0.8 and all(abs(z - p) > 0.1 for p in zeros):
                zeros.append(z)
        u = random_unitary(rng, 2)
        mb = MatrixBlaschke(zeros[0], zeros[1], u)
        assert not kernels.diagonality_test(mb)
        gram = kernels.defect_kernel(mb, DEFAULT_SAMPLES).flat
        eigs = np.sort(np.linalg.eigvalsh(gram))[::-1]
        assert eigs[-1] >= -1e-9 * eigs[0]
        worst_ratio = max(worst_ratio, float(eigs[2] / eigs[0]))
    ok = worst_ratio <= 1e-9
    scorecard(4, "defect kernel rank two", ok)
    assert ok, worst_ratio


# ---------------------------------------------------------------------------
# 5. exact joint dilation of rank-one partitions of the identity


def identity_partition(rng, n: int, m: int, zero_rows=()):
    live = m - len(zero_rows)
    assert live >= n
    iso = random_unitary(rng, live)[:, :n]
    out = []
    row = 0
    for j in range(m):
        if j in zero_rows:
            out.append(np.zeros((n, n), dtype=complex))
        else:
            r = iso[row]
            out.append(np.outer(r.conj(), r))
            row += 1
    return tuple(out)


def naimark_error(inp: dilation.NaimarkInput,
                  dil: dilation.NaimarkDilation) -> float:
    m, n = inp.count, inp.dim
    worst = onorm(dil.v.conj().T @ dil.v - np.eye(n))
    worst = max(worst, onorm(dil.u.conj().T @ dil.u - np.eye(m)))
    worst = max(worst, onorm(sum(dil.p_list) - np.eye(m)))
    worst = max(worst, onorm(sum(dil.q_list) - np.eye(m)))
    for mat, proj in zip(inp.a_list + inp.b_list, dil.p_list + dil.q_list):
        worst = max(worst, onorm(proj @ proj - proj))
        worst = max(worst, onorm(dil.v.conj().T @ proj @ dil.v - mat))
    return worst


def test_naimark_exactness_randomized():
    worst = 0.0
    with_zeros = 0
    for trial in range(50):
        rng = np.random.default_rng(400 + trial)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n, 13))
        zero_a: tuple = ()
        zero_b: tuple = ()
        if trial % 5 == 0 and m >= n + 2:
            zero_a = (0, int(rng.integers(1, m)))
            zero_b = (int(rng.integers(0, m)),)
            with_zeros += 1
        inp = dilation.NaimarkInput(
            identity_partition(rng, n, m, zero_rows=set(zero_a)),
            identity_partition(rng, n, m, zero_rows=set(zero_b)))
        worst = max(worst, naimark_error(inp, dilation.naimark(inp)))
    ok = worst <= 1e-10 and with_zeros >= 5
    scorecard(5, "rank-one dilation exactness", ok)
    assert ok, (worst, with_zeros)


# ---------------------------------------------------------------------------
# 6. equal-squares variety sweep verdicts


def test_variety_sweep_verdicts():
    nilpotent = dilation.VarietyPair(
        np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.0, 1.0j], [0.0, 0.0]], dtype=complex))
    bad = dilation.variety_verdict(nilpotent)
    unitary = kernels.DEFAULT_UNITARY
    flipped = dilation.VarietyPair(unitary, -unitary)
    good = dilation.variety_verdict(flipped)
    checks = {
        "fail_detected": not bad.passed,
        "fail_norm": abs(bad.max_norm - 1.414213562) <= 1e-8,
        "fail_witness": abs(bad.witness - (0.5 + 0.5j)) <= 1e-12,
        "pass_detected": good.passed,
        "pass_norm": abs(good.max_norm - 1.0) <= 1e-12,
    }
    scorecard(6, "equal-squares variety verdicts", all(checks.values()))
    assert all(checks.values()), (checks, bad.max_norm, good.max_norm)


# ---------------------------------------------------------------------------
# 7. commuting contractions with x^3 = y^2 and a norm-violating witness


def test_commuting_pair_pipeline(tmp_path):
    out = tmp_path / "noxy.json"
    code = cli.main(["noxy", "--out", str(out)])
    if code != 0:
        scorecard(7, "commuting pair with witness", False)
        pytest.fail("dual search inconclusive (exit %d); criterion unmet"
                    % code)
    data = json.loads(out.read_text())
    x = cli.decode_matrix(data["x"], "x")
    y = cli.decode_matrix(data["y"], "y")
    checks = {
        "criteria_met": data["criteria_met"] is True,
        "x_contractive": onorm(x) <= 1.0 + 1e-8,
        "y_contractive": onorm(y) <= 1.0 + 1e-8,
        "commuting": onorm(x @ y - y @ x) <= 1e-8,
        "relation": onorm(np.linalg.matrix_power(x, 3) - y @ y) <= 1e-8,
        "witness": data["report"]["witness_norm"] >= 1.0 + 1e-3,
    }
    scorecard(7, "commuting pair with witness", all(checks.values()))
    assert all(checks.values()), checks


# ---------------------------------------------------------------------------
# 8. functional-to-representation bridge identities


def test_gns_bridge_identities():
    samples = DEFAULT_SAMPLES
    n = 2 * len(samples)
    x = samples.array()
    worst_gap = 0.0
    checked_pos = 0
    checked_neg = 0
    norm_ok = True
    for trial in range(100):
        rng = np.random.default_rng(500 + trial)
        if trial % 5 == 0:
            # identity-anchored draws keep a healthy positive-margin share
            w = np.eye(n, dtype=complex) + 0.05 * random_psd(rng, n)
        else:
            rank = None if trial % 2 == 0 else int(rng.integers(2, 5))
            ridge = 1e-3 if rank is None else 1e-6
            w = random_psd(rng, n, rank=rank) + ridge * np.eye(n)
        w *= n / float(np.real(np.trace(w)))

        zeros = []
        while len(zeros) < 2:
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            if 0.15 <= abs(z) and all(abs(z - p) > 0.1 for p in zeros):
                zeros.append(z)
        mb = MatrixBlaschke(zeros[0], zeros[1], random_unitary(rng, 2))
        f_vals = kernels.f_eval(mb, x)

        space = gns.build_gns(w, samples, block_dim=2)
        worst_gap = max(worst_gap,
                        gns.deficiency_matches_kernel(space, f_vals))

        lam = 0.6 * np.exp(2j * np.pi * rng.random()) if trial % 4 else INF
        psi = kernels.test_fn(lam, x)
        d_mat = np.diag(np.repeat(psi, 2))
        margin = float(np.min(np.linalg.eigvalsh(
            w - d_mat.conj().T @ w @ d_mat)))
        norm = gns.rep_norm(space, gns.mult_operator(space, psi))
        if margin >= 1e-7:
            checked_pos += 1
            norm_ok &= norm <= 1.0 + 1e-7
        elif margin <= -1e-7:
            checked_neg += 1
            norm_ok &= norm >= 1.0 - 1e-7
    checks = {
        "deficiency_identity": worst_gap <= 1e-7,
        "norm_equivalence": norm_ok,
        "both_signs_seen": checked_pos >= 10 and checked_neg >= 10,
    }
    scorecard(8, "representation bridge identities", all(checks.values()))
    assert all(checks.values()), (checks, worst_gap, checked_pos, checked_neg)


# ---------------------------------------------------------------------------
# 9. invariant-subspace obstruction for the cyclic shift model


def test_shift_model_obstruction():
    report = dilation.no_T_obstruction(window=8)
    checks = {
        "square_misses": report.max_overlap <= 1e-14,
        "cube_hits": abs(report.cube_overlap - 1.0) <= 1e-14,
        "window": report.window == 8
        and report.h_indices == (0,) + tuple(range(2, 9)),
    }
    scorecard(9, "shift model obstruction", all(checks.values()))
    assert all(checks.values()), checks
