from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from neilcone import kernels, linalg
from neilcone.cone import (
    ConeProblem,
    DiscreteMeasure,
    DualCertificate,
    DualOptions,
    Feasible,
    PrimalOptions,
    Undecided,
    apply_generators,
    default_grid,
    dual_search,
    margins,
    pick_check,
    primal_feasibility,
    recover_structure,
    validate_certificate,
    validation_grid,
    _apply_coefs,
    _dual_polish,
)
from neilcone.kernels import (
    DEFAULT_SAMPLES,
    DEFAULT_UNITARY,
    ExtendedPoint,
    MatrixBlaschke,
    MatrixKernel,
    SampleSet,
)
from conftest import random_disk_points, random_psd

INF = ExtendedPoint.infinity()


def small_grid():
    return (INF, ExtendedPoint.disk(0.0), ExtendedPoint.disk(0.5),
            ExtendedPoint.disk(-0.5), ExtendedPoint.disk(0.3j),
            ExtendedPoint.disk(-0.3j))


def diagonal_problem():
    """Sigma kernel of z^2 diag(b_{1/2}, b_{-1/2}) with its exact witness."""
    samples = DEFAULT_SAMPLES
    mb = MatrixBlaschke(0.5, -0.5, np.eye(2, dtype=complex))
    f_vals = np.stack([kernels.f_eval(mb, x) for x in samples.points])
    target = kernels.sigma_kernel(f_vals, samples)
    problem = ConeProblem(samples, 2, small_grid(), target)
    n = len(samples)
    e1 = np.zeros((2, 2), dtype=complex)
    e1[0, 0] = 1.0
    e2 = np.zeros((2, 2), dtype=complex)
    e2[1, 1] = 1.0
    blocks = np.zeros((len(problem.grid), 2 * n, 2 * n), dtype=complex)
    blocks[2] = np.kron(np.ones((n, n)), e1)
    blocks[3] = np.kron(np.ones((n, n)), e2)
    witness = DiscreteMeasure(problem.grid, blocks)
    return problem, witness


def flat_identity(n: int, d: int) -> np.ndarray:
    return np.kron(np.ones((n, n)), np.eye(d))


def perturbed_problem(seed: int, block_dim: int = 1):
    """A target pushed out of the cone by subtracting a chunk of identity."""
    rng = np.random.default_rng(seed)
    samples = SampleSet(tuple(random_disk_points(rng, 3, rmax=0.7,
                                                 min_sep=0.15)))
    grid = (INF, ExtendedPoint.disk(0.25), ExtendedPoint.disk(-0.3 + 0.2j))
    n = len(samples) * block_dim
    blocks = np.stack([random_psd(rng, n) for _ in grid])
    base = ConeProblem(
        samples, block_dim, grid,
        MatrixKernel(samples, block_dim, flat_identity(len(samples), block_dim)))
    inside = apply_generators(DiscreteMeasure(grid, blocks), base)
    tr = float(np.real(np.trace(inside.flat)))
    flat = inside.flat - (2.0 * tr / n) * np.eye(n)
    problem = ConeProblem(samples, block_dim, grid,
                          MatrixKernel(samples, block_dim, flat))
    return problem, DiscreteMeasure(grid, blocks)


@pytest.fixture(scope="module")
def diagonal():
    return diagonal_problem()


@pytest.fixture(scope="module")
def diagonal_primal(diagonal):
    problem, _ = diagonal
    return primal_feasibility(problem)


@pytest.fixture(scope="module")
def perturbed_cert():
    problem, _ = perturbed_problem(11)
    cert = dual_search(problem)
    assert cert is not None
    return problem, cert


# ---------------------------------------------------------------------------
# grids and problem validation


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == 321
    assert grid[0].is_infinity
    finite = [p.point for p in grid[1:]]
    assert len(set(finite)) == 320
    assert all(0.0 < abs(z) < 1.0 for z in finite)


def test_validation_grid_density():
    grid = validation_grid(64, 128)
    assert len(grid) == 64 * 128 + 1
    assert grid[0].is_infinity
    assert max(abs(p.point) for p in grid[1:]) <= 0.999 + 1e-12


def test_problem_requires_infinity_without_restriction():
    samples = SampleSet((0.3, -0.2))
    target = MatrixKernel(samples, 1, np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        ConeProblem(samples, 1, (ExtendedPoint.disk(0.1),), target)
    # A restriction may drop infinity deliberately.
    ConeProblem(samples, 1, (ExtendedPoint.disk(0.1),), target,
                generator_restriction=(ExtendedPoint.disk(0.1),))


def test_problem_rejects_mismatched_target():
    samples = SampleSet((0.3, -0.2))
    other = SampleSet((0.25, -0.2))
    target = MatrixKernel(other, 1, np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        ConeProblem(samples, 1, (INF,), target)
    with pytest.raises(ValueError):
        ConeProblem(samples, 3, (INF,),
                    MatrixKernel(samples, 1, np.eye(2, dtype=complex)))


def test_measure_rejects_indefinite_block():
    bad = np.diag([1.0, -1e-3]).astype(complex)
    with pytest.raises(ValueError):
        DiscreteMeasure((INF,), bad[None])
    # A dip within the documented tolerance is accepted as numerical noise.
    ok = np.diag([1.0, -1e-10]).astype(complex)
    DiscreteMeasure((INF,), ok[None])


# ---------------------------------------------------------------------------
# apply_generators


def test_apply_generators_zero_measure():
    problem, witness = diagonal_problem()
    zero = DiscreteMeasure(problem.grid,
                           np.zeros_like(witness.blocks))
    out = apply_generators(zero, problem)
    assert np.all(out.flat == 0.0)


def test_apply_generators_square_via_cube_weighting():
    # A single mass at the cubing generator turns the weighted square back
    # into the bare square: (1 - x^3 conj(y)^3) * s3 = 1 entrywise.
    rng = np.random.default_rng(3)
    samples = DEFAULT_SAMPLES
    x = samples.array()
    f = rng.standard_normal(len(samples)) + 1j * rng.standard_normal(len(samples))
    s3 = kernels.szego(x[:, None] ** 3, x[None, :] ** 3)
    block = s3 * (f[:, None] * np.conj(f)[None, :])
    grid = (ExtendedPoint.disk(0.0),)
    problem = ConeProblem(
        samples, 1, grid,
        MatrixKernel(samples, 1, f[:, None] * np.conj(f)[None, :]),
        generator_restriction=grid,
    )
    measure = DiscreteMeasure(grid, block[None])
    out = apply_generators(measure, problem)
    expect = f[:, None] * np.conj(f)[None, :]
    assert np.max(np.abs(out.flat - expect)) < 1e-12


def test_closed_form_diagonal_witness_is_exact():
    problem, witness = diagonal_problem()
    out = apply_generators(witness, problem)
    residual = float(np.linalg.norm(out.flat - problem.target.flat))
    assert residual <= 1e-10


# ---------------------------------------------------------------------------
# margins


def test_margins_of_identity_match_diagonal_formula():
    samples = DEFAULT_SAMPLES
    pts = [INF] + [ExtendedPoint.disk(z)
                   for z in random_disk_points(np.random.default_rng(5), 7)]
    coefs = _apply_coefs(pts, samples, 1)
    got = margins(np.eye(len(samples), dtype=complex), coefs)
    x = samples.array()
    for k, p in enumerate(pts):
        psi = kernels.test_fn(p, x)
        assert got[k] == pytest.approx(float(np.min(1.0 - np.abs(psi) ** 2)),
                                       abs=1e-12)


# ---------------------------------------------------------------------------
# primal feasibility


def test_primal_zero_target_feasible_with_zero_measure():
    samples = SampleSet((0.3, -0.4))
    target = MatrixKernel(samples, 1, np.zeros((2, 2), dtype=complex))
    problem = ConeProblem(samples, 1, (INF, ExtendedPoint.disk(0.2)), target)
    got = primal_feasibility(problem)
    assert isinstance(got, Feasible)
    assert got.residual <= 1e-12
    assert got.measure.total_trace() <= 1e-9


def test_primal_recovers_diagonal_target(diagonal, diagonal_primal):
    problem, _ = diagonal
    got = diagonal_primal
    assert isinstance(got, Feasible)
    assert got.residual <= 1e-7
    again = apply_generators(got.measure, problem)
    assert float(np.linalg.norm(again.flat - problem.target.flat)) <= 1e-7
    assert np.min(linalg.min_eig_batch(got.measure.blocks)) >= -1e-8


def test_primal_single_point_scalar_always_feasible():
    samples = SampleSet((0.45,))
    for w in (0.0, 0.7, -0.3 + 0.5j):
        target = MatrixKernel(
            samples, 1, np.array([[1.0 - abs(w) ** 2]], dtype=complex))
        problem = ConeProblem(samples, 1, (INF, ExtendedPoint.disk(0.2)),
                              target)
        got = primal_feasibility(problem)
        assert isinstance(got, Feasible)
        assert got.residual <= 1e-7


def test_primal_iteration_cap_reports_undecided():
    problem, _ = diagonal_problem()
    got = primal_feasibility(problem, PrimalOptions(max_iter=3))
    assert isinstance(got, Undecided)
    assert got.residual > 0.0
    assert got.iterations <= 3


def restricted_infeasible_problem():
    """-I on three samples over {inf, 0}: no measure reaches a negative
    diagonal."""
    samples = SampleSet((0.0, 0.4, -0.3 + 0.2j))
    target = MatrixKernel(samples, 1, -np.eye(3, dtype=complex))
    return ConeProblem(samples, 1, default_grid(), target,
                       generator_restriction=(INF, ExtendedPoint.disk(0.0)))


def test_primal_infeasible_stops_at_first_stall_check():
    opts = PrimalOptions()
    got = primal_feasibility(restricted_infeasible_problem(), opts)
    assert isinstance(got, Undecided)
    assert got.iterations == 2 * opts.stall_window


# ---------------------------------------------------------------------------
# dual search


def test_dual_polish_gives_up_at_first_plateau_check(monkeypatch):
    problem, _ = perturbed_problem(11)
    n = problem.dim
    sigma = problem.target.flat
    conj_coefs = np.conj(_apply_coefs(problem.grid, problem.sample_set,
                                      problem.block_dim))
    # trace(W sigma) >= n * min_eig(sigma) for every PSD W of trace n.
    unreachable = 2.0 * n * float(np.min(np.linalg.eigvalsh(sigma))) - 1.0
    calls = []
    project = linalg.psd_project_batch

    def counting(stack):
        calls.append(len(stack))
        return project(stack)

    monkeypatch.setattr(linalg, "psd_project_batch", counting)
    opts = DualOptions()
    got = _dual_polish(np.eye(n, dtype=complex), sigma, conj_coefs, n,
                       unreachable, opts.polish_margin, opts)
    assert got is None
    assert len(calls) == 600


def test_dual_zero_target_yields_none():
    samples = SampleSet((0.3, -0.4))
    target = MatrixKernel(samples, 1, np.zeros((2, 2), dtype=complex))
    problem = ConeProblem(samples, 1, (INF, ExtendedPoint.disk(0.2)), target)
    assert dual_search(problem) is None


def test_dual_certificate_on_perturbed_target(perturbed_cert):
    problem, cert = perturbed_cert
    assert cert.violation <= -1e-4
    assert cert.grid_margin >= -1e-8
    n = problem.dim
    assert float(np.real(np.trace(cert.w))) == pytest.approx(n, rel=1e-6)
    assert linalg.min_eig(cert.w) >= -1e-8 * max(1.0, float(np.abs(cert.w).max()))


def test_dual_certificate_margins_cover_problem_grid(perturbed_cert):
    problem, cert = perturbed_cert
    coefs = _apply_coefs(list(problem.grid), problem.sample_set,
                         problem.block_dim)
    assert float(np.min(margins(cert.w, coefs))) >= -1e-8


def test_dual_soundness_against_random_measures(perturbed_cert):
    problem, cert = perturbed_cert
    rng = np.random.default_rng(99)
    n = problem.dim
    for _ in range(100):
        blocks = np.stack([random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
                           for _ in problem.grid])
        m = DiscreteMeasure(problem.grid, blocks)
        value = float(np.real(np.trace(cert.w @ apply_generators(m, problem).flat)))
        assert value >= -1e-8 * m.total_trace()


def test_dual_pairing_matches_adjoint_identity():
    # trace(W (M - D M D*)) = trace((W - D* W D) M): the identity that turns
    # grid margins into soundness against every measure on the grid.
    rng = np.random.default_rng(21)
    samples = SampleSet(tuple(random_disk_points(rng, 4, min_sep=0.1)))
    pts = [INF, ExtendedPoint.disk(0.3), ExtendedPoint.disk(-0.2j)]
    n = len(samples)
    w = np.asarray(random_psd(rng, n), dtype=complex)
    coefs = _apply_coefs(pts, samples, 1)
    diags = np.stack([kernels.generator_diag(p, samples, 1) for p in pts])
    for g, p in enumerate(pts):
        m = random_psd(rng, n)
        dg = np.diag(diags[g])
        lhs = np.trace(w @ (m - dg @ m @ dg.conj().T))
        rhs = np.trace((w - dg.conj().T @ w @ dg) @ m)
        assert abs(lhs - rhs) < 1e-10
        assert np.max(np.abs(w * np.conj(coefs[g])
                             - (w - dg.conj().T @ w @ dg))) < 1e-12


def test_dual_squares_positivity(perturbed_cert):
    problem, cert = perturbed_cert
    rng = np.random.default_rng(5)
    n = problem.dim
    for _ in range(50):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        val = float(np.real(np.vdot(f, cert.w @ f)))
        assert val >= -1e-7 * float(np.vdot(f, f).real)


def test_mutual_exclusion_small_suite(diagonal, diagonal_primal):
    for seed in range(2):
        problem, _ = perturbed_problem(40 + seed)
        primal = primal_feasibility(problem)
        cert = dual_search(problem)
        assert not (isinstance(primal, Feasible) and cert is not None)
        assert cert is not None  # perturbation guarantees separation
    problem, _ = diagonal
    assert isinstance(diagonal_primal, Feasible)
    assert dual_search(problem) is None


# ---------------------------------------------------------------------------
# certificate validation


def test_validate_certificate_identity_margins():
    samples = SampleSet((0.3, -0.4, 0.2j))
    n = len(samples)
    target = MatrixKernel(samples, 1, -np.eye(n, dtype=complex))
    problem = ConeProblem(samples, 1, (INF,), target)
    cert = DualCertificate(np.eye(n, dtype=complex), 1.0, -float(n),
                           validation_grid_size=1)
    report = validate_certificate(cert, problem, radii=16, angles=24)
    assert report.worst_margin > 0.0
    x = samples.array()
    psi = kernels.test_fn(report.worst_point, x)
    assert report.worst_margin == pytest.approx(
        float(np.min(1.0 - np.abs(psi) ** 2)), abs=1e-12)
    assert report.grid_size == 16 * 24 + 1
    assert report.modulus_estimate < 0.2


def test_validate_certificate_negative_for_negated_gram():
    samples = SampleSet((0.3, -0.4))
    target = MatrixKernel(samples, 1, -np.eye(2, dtype=complex))
    problem = ConeProblem(samples, 1, (INF,), target)
    shim = SimpleNamespace(w=-np.eye(2, dtype=complex))
    report = validate_certificate(shim, problem, radii=8, angles=8)
    assert report.worst_margin < 0.0


def test_validate_certificate_explicit_grid(perturbed_cert):
    problem, cert = perturbed_cert
    pts = [INF, ExtendedPoint.disk(0.25)]
    report = validate_certificate(cert, problem, fine_grid=pts)
    assert report.grid_size == 2
    assert report.worst_margin >= -1e-8


# ---------------------------------------------------------------------------
# pick_check


def test_pick_single_node_feasible():
    got = pick_check([0.35], [0.6 - 0.2j])
    assert got.status == "feasible"
    assert got.measure is not None


def test_pick_tautological_test_function_values():
    lam = 0.25 * np.exp(2j * np.pi * 3 / 32)  # lies on the default grid
    nodes = (0.0, 0.5, -0.5, 0.3j)
    w = kernels.test_fn(ExtendedPoint.disk(lam), np.array(nodes, dtype=complex))
    got = pick_check(nodes, w)
    assert got.status == "feasible"


def test_pick_on_grid_target_keeps_the_scanned_atom():
    # 1 - psi_lam psi_lam* is one atom at lam: the greedy scan's first
    # checked measure is the answer, on the one-point subgrid {lam}.
    lam = 0.45 * np.exp(2j * np.pi * 9 / 32)  # ring 4 of the default grid
    nodes = (0.0, 0.5, -0.5, 0.3j)
    w = kernels.test_fn(ExtendedPoint.disk(lam), np.array(nodes, dtype=complex))
    got = pick_check(nodes, w)
    assert got.status == "feasible"
    assert got.residual <= PrimalOptions().tol
    assert len(got.measure.grid) == 1
    assert abs(got.measure.grid[0].point - lam) <= 1e-12


def test_pick_two_nodes_against_classical_oracle():
    nodes = (0.5, -0.5)
    targets = (0.5, 0.5)
    x = np.array(nodes, dtype=complex)
    w = np.array(targets, dtype=complex)
    classical = (1.0 - w[:, None] * np.conj(w)[None, :]) / (
        1.0 - x[:, None] * np.conj(x)[None, :])
    assert np.min(np.linalg.eigvalsh(classical)) >= -1e-12
    got = pick_check(nodes, targets)
    # Constrained feasibility must not contradict the classical relaxation.
    assert got.status == "feasible"


def test_pick_rejects_wrong_target_count():
    with pytest.raises(ValueError):
        pick_check([0.3, 0.4], [0.5])


# ---------------------------------------------------------------------------
# structure recovery


def test_recover_structure_zero_measure_is_empty():
    problem, witness = diagonal_problem()
    zero = DiscreteMeasure(problem.grid, np.zeros_like(witness.blocks))
    report = recover_structure(zero, problem)
    assert report.clusters == []
    assert report.projection_deviation is None


def test_recover_structure_infinity_only():
    samples = SampleSet((0.3, -0.4))
    grid = (INF, ExtendedPoint.disk(0.2))
    target = MatrixKernel(samples, 1, np.eye(2, dtype=complex))
    problem = ConeProblem(samples, 1, grid, target)
    blocks = np.zeros((2, 2, 2), dtype=complex)
    blocks[0] = np.eye(2)
    report = recover_structure(DiscreteMeasure(grid, blocks), problem)
    assert len(report.clusters) == 1
    assert report.clusters[0].center.is_infinity


def test_recover_structure_diagonal_witness_clusters():
    problem, witness = diagonal_problem()
    report = recover_structure(witness, problem)
    assert len(report.clusters) == 2
    centers = sorted((c.center.point for c in report.clusters),
                     key=lambda z: z.real)
    assert centers[0] == pytest.approx(-0.5)
    assert centers[1] == pytest.approx(0.5)
    by_center = {round(c.center.point.real, 3): c for c in report.clusters}
    e1 = np.zeros((2, 2), dtype=complex)
    e1[0, 0] = 1.0
    e2 = np.zeros((2, 2), dtype=complex)
    e2[1, 1] = 1.0
    assert np.max(np.abs(by_center[0.5].zero_block - e1)) < 1e-6
    assert np.max(np.abs(by_center[-0.5].zero_block - e2)) < 1e-6
    assert report.projection_deviation < 1e-6


def test_recover_structure_on_computed_diagonal_measure(diagonal, diagonal_primal):
    problem, _ = diagonal
    got = diagonal_primal
    assert isinstance(got, Feasible)
    report = recover_structure(got.measure, problem)
    centers = [c.center.point for c in report.clusters
               if not c.center.is_infinity]
    assert any(abs(c - 0.5) < 0.05 for c in centers)
    assert any(abs(c + 0.5) < 0.05 for c in centers)
