from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from neilcone import cone, gns, kernels, linalg
from neilcone.cone import (
    GRID_EPS,
    POLISH_GAIN,
    POLISH_MARGIN,
    PRIMAL_TOL,
    STALL_WINDOW,
    ConeProblem,
    DiscreteMeasure,
    DualCertificate,
    Feasible,
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
    _admm_min_violation,
    _dual_polish,
    _generator_data,
)
from neilcone.kernels import (
    DEFAULT_SAMPLES,
    DEFAULT_UNITARY,
    MatrixBlaschke,
    MatrixKernel,
    SampleSet,
)
from conftest import random_disk_points, random_psd

INF = np.inf


def small_grid():
    return (INF, 0.0, 0.5, -0.5, 0.3j, -0.3j)


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


def perturbed_problem(seed: int, block_dim: int = 1, restricted=False):
    """A target pushed out of the cone by subtracting a chunk of identity;
    ``restricted`` poses it over its three generators alone."""
    rng = np.random.default_rng(seed)
    samples = SampleSet(tuple(random_disk_points(rng, 3, rmax=0.7,
                                                 min_sep=0.15)))
    grid = (INF, 0.25, -0.3 + 0.2j)
    n = len(samples) * block_dim
    blocks = np.stack([random_psd(rng, n) for _ in grid])
    base = ConeProblem(
        samples, block_dim, grid,
        MatrixKernel(samples, block_dim, flat_identity(len(samples), block_dim)))
    inside = apply_generators(DiscreteMeasure(grid, blocks), base)
    tr = float(np.real(np.trace(inside.flat)))
    flat = inside.flat - (2.0 * tr / n) * np.eye(n)
    problem = ConeProblem(samples, block_dim, grid,
                          MatrixKernel(samples, block_dim, flat),
                          generator_restriction=grid if restricted else None)
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
    assert np.isinf(grid[0])
    finite = grid[1:]
    assert len(set(finite)) == 320
    assert np.all((0.0 < np.abs(finite)) & (np.abs(finite) < 1.0))


def test_validation_grid_density():
    grid = validation_grid(64, 128)
    assert len(grid) == 64 * 128 + 1
    assert np.isinf(grid[0])
    assert np.max(np.abs(grid[1:])) <= 0.999 + 1e-12


def test_problem_requires_infinity_without_restriction():
    samples = SampleSet((0.3, -0.2))
    target = MatrixKernel(samples, 1, np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        ConeProblem(samples, 1, (0.1,), target)
    # A restriction may drop infinity deliberately.
    ConeProblem(samples, 1, (0.1,), target,
                generator_restriction=(0.1,))


def test_problem_rejects_mismatched_target():
    samples = SampleSet((0.3, -0.2))
    other = SampleSet((0.25, -0.2))
    target = MatrixKernel(other, 1, np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        ConeProblem(samples, 1, (INF,), target)
    with pytest.raises(ValueError):
        ConeProblem(samples, 3, (INF,),
                    MatrixKernel(samples, 1, np.eye(2, dtype=complex)))


def test_problem_and_measure_reject_nan_parameters():
    samples = SampleSet((0.3, -0.2))
    target = MatrixKernel(samples, 1, np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="NaN"):
        ConeProblem(samples, 1, (INF, complex(0.1, np.nan)), target)
    with pytest.raises(ValueError, match="NaN"):
        ConeProblem(samples, 1, (INF,), target,
                    generator_restriction=(np.nan,))
    with pytest.raises(ValueError, match="NaN"):
        DiscreteMeasure((np.nan,), np.eye(2, dtype=complex)[None])


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
    grid = (0.0,)
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
    pts = [INF] + random_disk_points(np.random.default_rng(5), 7)
    coefs = _generator_data(pts, samples, 1)[1]
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
    problem = ConeProblem(samples, 1, (INF, 0.2), target)
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
    assert np.min(linalg.herm_eigvals_batch(got.measure.blocks)) >= -1e-8


def test_primal_single_point_scalar_always_feasible():
    samples = SampleSet((0.45,))
    for w in (0.0, 0.7, -0.3 + 0.5j):
        target = MatrixKernel(
            samples, 1, np.array([[1.0 - abs(w) ** 2]], dtype=complex))
        problem = ConeProblem(samples, 1, (INF, 0.2),
                              target)
        got = primal_feasibility(problem)
        assert isinstance(got, Feasible)
        assert got.residual <= 1e-7


def test_primal_iteration_cap_reports_undecided(monkeypatch):
    # The cap bounds the whole search, on the 6-point grid and on the
    # 321-point default grid alike.
    small, _ = diagonal_problem()
    large = ConeProblem(small.sample_set, 2, default_grid(), small.target)
    monkeypatch.setattr(cone, "PRIMAL_MAX_ITER", 3)
    for problem in (small, large):
        got = primal_feasibility(problem)
        assert isinstance(got, Undecided)
        assert got.residual > 0.0
        assert got.iterations <= 3


def no_splitting(*_args):
    raise AssertionError("a one-atom target must not reach Douglas-Rachford")


ONE_ATOM = 0.35 * np.exp(2j * np.pi * 7 / 32)  # ring 3 of the default grid


@pytest.mark.parametrize("restriction", [(INF, 0.25, ONE_ATOM), None])
def test_primal_one_atom_decided_without_splitting(monkeypatch, restriction):
    # K = A_g o M for one generator g and a rank-two PSD M: the closed-form
    # step finds g on a 3-point restriction and on the 321-point grid.
    rng = np.random.default_rng(23)
    samples = SampleSet((0.0, 0.4, -0.3 + 0.2j))
    block = random_psd(rng, 6, rank=2)
    base = ConeProblem(samples, 2, default_grid(),
                       MatrixKernel(samples, 2, flat_identity(3, 2)))
    target = apply_generators(DiscreteMeasure((ONE_ATOM,), block[None]), base)
    problem = ConeProblem(samples, 2, default_grid(), target,
                          generator_restriction=restriction)
    monkeypatch.setattr(cone, "_dr_run", no_splitting)
    got = primal_feasibility(problem)
    assert isinstance(got, Feasible)
    assert got.residual <= PRIMAL_TOL
    assert len(got.measure.grid) == 1
    again = apply_generators(got.measure, problem)
    assert float(np.linalg.norm(again.flat - target.flat)) <= PRIMAL_TOL
    assert abs(got.measure.grid[0] - ONE_ATOM) <= 1e-12
    assert np.allclose(got.measure.blocks[0], block, atol=1e-9)


@pytest.mark.parametrize("ring, angle", [(6, 5), (7, 20), (9, 11)])
def test_pick_on_outer_rings_decides_one_atom(ring, angle):
    # Rings 6, 7 and 9 are where the greedy scan used to miss the atom and
    # come back undecided.
    lam = (ring + 0.5) / 10 * np.exp(2j * np.pi * angle / 32)
    nodes = (0.0, 0.5, -0.5, 0.3j)
    got = pick_check(nodes, kernels.test_fn(lam, np.array(nodes)))
    assert got.status == "feasible"
    assert got.residual <= PRIMAL_TOL
    assert len(got.measure.grid) == 1
    assert abs(got.measure.grid[0] - lam) <= 1e-12


def restricted_infeasible_problem():
    """-I on three samples over {inf, 0}: no measure reaches a negative
    diagonal."""
    samples = SampleSet((0.0, 0.4, -0.3 + 0.2j))
    target = MatrixKernel(samples, 1, -np.eye(3, dtype=complex))
    return ConeProblem(samples, 1, default_grid(), target,
                       generator_restriction=(INF, 0.0))


def test_primal_infeasible_separates_at_first_check():
    # The first affine step's multiplier is a positive diagonal W, which
    # pairs negatively with -I: the run ends at iteration 1.
    got = primal_feasibility(restricted_infeasible_problem())
    assert isinstance(got, Undecided)
    assert got.iterations == 1
    assert np.isfinite(got.residual) and got.residual > 0.0


def test_primal_infeasible_stops_at_first_stall_check(monkeypatch):
    monkeypatch.setattr(cone, "_separating", lambda *args: None)
    got = primal_feasibility(restricted_infeasible_problem())
    assert isinstance(got, Undecided)
    assert got.iterations == 2 * STALL_WINDOW


def test_primal_whole_grid_separates_in_one_run(monkeypatch):
    # -I over the whole 321-point grid: one splitting run over every
    # generator, which separates at its first check.
    samples = SampleSet((0.0, 0.4, -0.3 + 0.2j))
    problem = ConeProblem(samples, 1, default_grid(),
                          MatrixKernel(samples, 1, -np.eye(3, dtype=complex)))
    runs = []
    dr_run = cone._dr_run

    def recording(coefs, k_hat, tol):
        runs.append(len(coefs))
        return dr_run(coefs, k_hat, tol)

    monkeypatch.setattr(cone, "_dr_run", recording)
    got = primal_feasibility(problem)
    assert isinstance(got, Undecided)
    assert runs == [321]
    assert got.iterations == 1


# ---------------------------------------------------------------------------
# dual search


def test_dual_polish_gives_up_at_first_plateau_check(monkeypatch):
    problem, _ = perturbed_problem(11)
    n = problem.dim
    sigma = problem.target.flat
    coefs = _generator_data(problem.grid, problem.sample_set,
                            problem.block_dim)[1]
    # trace(W sigma) >= n * min_eig(sigma) for every PSD W of trace n.
    unreachable = 2.0 * n * float(np.min(np.linalg.eigvalsh(sigma))) - 1.0
    calls = []
    project = linalg.psd_project_batch

    def counting(stack):
        calls.append(len(stack))
        return project(stack)

    monkeypatch.setattr(linalg, "psd_project_batch", counting)
    start = np.eye(n, dtype=complex)
    got = _dual_polish(start, sigma, np.conj(coefs), n, unreachable,
                       POLISH_MARGIN)
    assert len(calls) == 200
    if got is not None:
        # Anytime contract: the best kept W is PSD, clears a quarter of the
        # margin floor on its work grid and pairs below its start.
        scale = 1.0 + float(np.abs(got).max())
        assert np.linalg.eigvalsh(got)[0] >= -1e-9 * scale
        assert np.min(margins(got, coefs)) >= 0.25 * POLISH_MARGIN
        pairing = float(np.real(np.sum(got * np.conj(sigma))))
        assert pairing < float(np.real(np.trace(start @ sigma)))


def recording_admm_floor(monkeypatch):
    """Wrap the ADMM stage so a test can read the floor L it returned."""
    floors = []
    admm = cone._admm_min_violation

    def recording(*args):
        w, floor = admm(*args)
        floors.append(floor)
        return w, floor

    monkeypatch.setattr(cone, "_admm_min_violation", recording)
    return floors


@pytest.mark.parametrize("seed, block_dim", [(11, 1), (40, 1), (41, 1),
                                             (11, 2)])
def test_admm_floor_is_below_the_certificate_violation(monkeypatch, seed,
                                                        block_dim):
    # The certificate lies in the restriction's dual cone, so weak duality
    # puts its violation at or above L.  Only restricted problems run ADMM.
    floors = recording_admm_floor(monkeypatch)
    problem, _ = perturbed_problem(seed, block_dim, restricted=True)
    cert = dual_search(problem)
    assert cert is not None
    assert len(floors) == 1
    assert floors[0] <= cert.violation + 1e-9 * abs(cert.violation)


def test_unreachable_polish_is_skipped(monkeypatch):
    # For K = -I every trace-n W pairs to exactly -n, so L <= -n, and the
    # tight ADMM floor leaves the polish target 1.05 * (-n) below L: no
    # polish may run.
    def no_polish(*_args):
        raise AssertionError("the polish target lies below the ADMM floor")

    floors = recording_admm_floor(monkeypatch)
    monkeypatch.setattr(cone, "_dual_polish", no_polish)
    problem = restricted_infeasible_problem()
    cert = dual_search(problem)
    assert cert is not None
    n = problem.dim
    assert -1.05 * n < floors[0] <= -n + 1e-9 * n
    report = validate_certificate(cert, problem)
    assert report.worst_margin >= -cert.eps
    assert cert.violation <= -cert.delta


def recording_gain_gate(monkeypatch):
    """Wrap the gain gate so a test can read each (v, L, skip) it decided."""
    calls = []
    gate = cone._gain_unreachable

    def recording(viol, floor):
        calls.append((viol, floor, gate(viol, floor)))
        return calls[-1][2]

    monkeypatch.setattr(cone, "_gain_unreachable", recording)
    return calls


@pytest.mark.parametrize("make_problem", [
    restricted_infeasible_problem,
    lambda: perturbed_problem(11, 2, restricted=True)[0],
], ids=["restricted", "perturbed-11-2"])
def test_admm_stops_once_no_gain_is_left(monkeypatch, make_problem):
    problem = make_problem()
    n = problem.dim
    sigma = problem.target.flat
    conj_coefs = np.conj(_generator_data(problem.effective_grid,
                                         problem.sample_set,
                                         problem.block_dim)[1])
    # The same ADMM with the gap test switched off ends at its stall rule.
    stall_checks = []

    def never(viol, floor):
        stall_checks.append(viol)
        return False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cone, "_gain_unreachable", never)
        _admm_min_violation(sigma, conj_coefs, n)

    calls = recording_gain_gate(monkeypatch)
    floors = recording_admm_floor(monkeypatch)
    cert = dual_search(problem)
    assert cert is not None
    # ADMM asks the gate once per check and returns at the first skip; then
    # dual_search asks it once more, for the polish.
    skips = [skip for _, _, skip in calls]
    stop = skips.index(True)
    assert len(calls) == stop + 2
    assert stop + 1 < len(stall_checks)
    viol, floor, _ = calls[stop]
    assert floor == floors[0]
    assert POLISH_GAIN * viol < floor - GRID_EPS * abs(floor)
    # Weak duality: the feasible iterate and the certificate both lie in
    # the restriction's dual cone, so both pair at or above L.
    assert floor <= viol + 1e-9 * abs(viol)
    assert floor <= cert.violation + 1e-9 * abs(cert.violation)


def row_entries(kind: str, size: int):
    """The grid entries and phases of an equation's rows, in row order: 1
    reads an entry's real part, -1j its imaginary part, and a sum row is
    None."""
    if kind == "sum":
        return [None]
    r, c = np.divmod(np.arange(size * size), size)
    low = (r >= c) | (kind == "full")
    below = (r > c) | (kind == "full")
    return ([(a, b, 1.0) for a, b in zip(r[low], c[low])]
            + [(a, b, -1j) for a, b in zip(r[below], c[below])])


def row_residuals(rows, b, blocks):
    """Each row of an ``_sdp`` problem read on the blocks, minus its b."""
    got = []
    for kind, size, terms in rows:
        e = sum(coef * blocks[k][ro:ro + size, co:co + size]
                for k, ro, co, coef in terms)
        got += [np.real(np.sum(e)) if entry is None
                else np.real(entry[2] * e[entry[0], entry[1]])
                for entry in row_entries(kind, size)]
    return np.array(got) - b


def row_matrices(rows, sizes):
    """Each row's Hermitian A_ik, block by block, built entry by entry: the
    row reads Re sum_k tr(A_ik X_k) on Hermitian blocks X_k."""
    mats = []
    for kind, size, terms in rows:
        for entry in row_entries(kind, size):
            gs = [np.zeros((s, s), dtype=complex) for s in sizes]
            for k, ro, co, coef in terms:
                coef = np.broadcast_to(coef, (size, size))
                if entry is None:
                    gs[k][co:co + size, ro:ro + size] += coef.T
                else:
                    a, c, phase = entry
                    gs[k][co + c, ro + a] += phase * coef[a, c]
            mats.append([0.5 * (g + g.conj().T) for g in gs])
    return mats


def test_sos_rows_encode_the_identity():
    # For a random Hermitian W of trace n, C* (W - D* W D) C =
    # sum lam^p conj(lam)^q P_pq at three values of lam.  A random split of
    # the P_pq into S and T that reproduces P_W with V = (I, lam I,
    # conj(lam) I) has S's (lam, conj(lam)) block 0, so S splits into A on
    # the clique (1, lam) and B on (1, conj(lam)); that pair reproduces P_W
    # too and meets the rows of ``_sos_rows``.
    rng = np.random.default_rng(3)
    x = np.repeat(random_disk_points(rng, 3, rmax=0.7, min_sep=0.15), 2)
    n = len(x)

    def hermitian():
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return a + a.conj().T

    w = hermitian()
    w += (n - np.real(np.trace(w))) / n * np.eye(n)
    xm = np.diag(x)
    xh = xm.conj().T
    p00 = w - xh @ xh @ xh @ w @ xm @ xm @ xm
    p10 = -xh @ w + xh @ xh @ xh @ w @ xm @ xm
    p11 = xh @ w @ xm - xh @ xh @ w @ xm @ xm
    t, s11 = hermitian(), hermitian()
    s20 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = np.zeros((3 * n, 3 * n), dtype=complex)
    s[:n, :n] = p00 - t
    s[n:2 * n, n:2 * n] = s11
    s[2 * n:, 2 * n:] = p11 + t - s11
    s[:n, n:2 * n] = p10 - s20
    s[n:2 * n, :n] = s[:n, n:2 * n].conj().T
    s[2 * n:, :n] = s20
    s[:n, 2 * n:] = s20.conj().T
    for lam in (0.3 - 0.2j, -0.7j, 0.95):
        c = np.eye(n) - np.conj(lam) * xm
        d = np.diag(kernels.test_fn(lam, x))
        lhs = c.conj().T @ (w - d.conj().T @ w @ d) @ c
        rhs = (p00 + lam * p10 + np.conj(lam) * p10.conj().T
               + abs(lam) ** 2 * p11)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        v = np.vstack([np.eye(n), lam * np.eye(n), np.conj(lam) * np.eye(n)])
        sos = v.conj().T @ s @ v + (1.0 - abs(lam) ** 2) * t
        assert np.max(np.abs(lhs - sos)) < 1e-12
    # The clique pair: A's and B's corner blocks split S_00 at random.
    h = hermitian()
    one, bar = np.r_[:n, n:2 * n], np.r_[:n, 2 * n:3 * n]
    a, bb = s[np.ix_(one, one)], s[np.ix_(bar, bar)]
    a[:n, :n] = h
    bb[:n, :n] -= h
    for lam in (0.3 - 0.2j, -0.7j, 0.95):
        c = np.eye(n) - np.conj(lam) * xm
        d = np.diag(kernels.test_fn(lam, x))
        lhs = c.conj().T @ (w - d.conj().T @ w @ d) @ c
        v1 = np.vstack([np.eye(n), lam * np.eye(n)])
        v2 = np.vstack([np.eye(n), np.conj(lam) * np.eye(n)])
        sos = (v1.conj().T @ a @ v1 + v2.conj().T @ bb @ v2
               + (1.0 - abs(lam) ** 2) * t)
        assert np.max(np.abs(lhs - sos)) < 1e-12

    rows, b, sizes = cone._sos_rows(x)
    assert len(b) == 4 * n * n + 1
    assert sizes == [n, 2 * n, 2 * n, n]
    assert np.max(np.abs(row_residuals(rows, b, [w, a, bb, t]))) < 1e-12
    # A changed lam coefficient, or a W off trace n, breaks a row.
    a[:n, n:] += 1e-3
    a[n:, :n] += 1e-3
    assert np.max(np.abs(row_residuals(rows, b, [w, a, bb, t]))) >= 1e-3
    assert np.max(np.abs(row_residuals(
        rows, b, [2 * w, 0 * a, 0 * bb, 0 * t]))) > 1.0


def sos_costs(k, sizes):
    """``_sdp`` costs for the SOS rows: the kernel on W, zero elsewhere."""
    return [k] + [np.zeros((s, s)) for s in sizes[1:]]


def trace_rows(n: int):
    """The one row trace X = 1 of an n x n block."""
    return [("sum", n, [(0, 0, 0, np.eye(n))])]


@pytest.mark.parametrize("n", [2, 4])
def test_schur_matches_dense_reference(n):
    # M_ij = sum_k Re tr(A_ik X_k A_jk Z_k^-1) from each row's Hermitian
    # A_ik, for the SOS rows and random positive definite blocks.
    rng = np.random.default_rng(40 + n)
    x = np.array(random_disk_points(rng, n, rmax=0.8, min_sep=0.1))
    rows, b, sizes = cone._sos_rows(x)
    xs = [random_psd(rng, s) + 0.1 * np.eye(s) for s in sizes]
    zis = [np.linalg.inv(random_psd(rng, s) + 0.1 * np.eye(s)) for s in sizes]
    zis = [0.5 * (z + z.conj().T) for z in zis]
    mats = row_matrices(rows, sizes)
    assert len(mats) == len(b)
    # The matrices read the rows: Re tr(A_i X) is row i on Hermitian X.
    read = [sum(np.real(np.trace(a @ x_k)) for a, x_k in zip(m, xs))
            for m in mats]
    assert np.max(np.abs(read - b - row_residuals(rows, b, xs))) < 1e-12
    ref = np.array([[sum(np.real(np.trace(a @ x_k @ c @ z_k))
                         for a, c, x_k, z_k in zip(mi, mj, xs, zis))
                     for mj in mats] for mi in mats])
    got = cone._Rows(rows, sizes).schur(xs, zis)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_sdp_finds_the_least_eigenvalue(monkeypatch):
    # min Re tr(C X) over PSD X of trace 1 is the least eigenvalue of C,
    # and the dual y is the same number.
    rng = np.random.default_rng(8)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    c = a + a.conj().T
    low = float(np.linalg.eigvalsh(c)[0])
    (x,), y, stop = cone._sdp([c], trace_rows(5), np.ones(1))
    assert stop == "converged"
    assert abs(float(np.real(np.trace(c @ x))) - low) < 1e-7
    assert abs(float(y[0]) - low) < 1e-7
    monkeypatch.setattr(cone, "SDP_ITERS", 2)
    assert cone._sdp([c], trace_rows(5), np.ones(1))[2] == "cap"


def test_sdp_stops_when_the_schur_cholesky_fails():
    # The same row twice makes the Schur complement singular: the solver
    # stops at its first factorization and returns the starting iterate.
    twice = trace_rows(4) * 2
    (x,), y, stop = cone._sdp([np.diag([1.0, 2.0, 3.0, 4.0])], twice,
                              np.ones(2))
    assert stop == "cholesky"
    assert np.array_equal(x, np.eye(4)) and np.array_equal(y, np.zeros(2))


def test_sos_optimum_is_sound_on_members():
    # The diagonal-unitary kernel at the three flagship points lies in the
    # cone, so no W with P_W a sum of squares pairs below -MIN_VIOLATION
    # with it, and the search certifies nothing.
    samples = SampleSet((0.0, 0.5, -0.5))
    mb = MatrixBlaschke(0.5, -0.5, np.eye(2, dtype=complex))
    target = kernels.sigma_kernel(kernels.f_eval(mb, samples.array()),
                                  samples)
    rows, b, sizes = cone._sos_rows(np.repeat(samples.array(), 2))
    xs, _, stop = cone._sdp(sos_costs(target.flat, sizes), rows, b)
    assert stop in ("converged", "cholesky")
    assert np.max(np.abs(row_residuals(rows, b, xs))) < 1e-6
    assert float(np.real(np.trace(xs[0] @ target.flat))) >= -cone.MIN_VIOLATION
    assert dual_search(ConeProblem(samples, 2, default_grid(), target)) is None


def flagship_target(points) -> MatrixKernel:
    """The flagship kernel (lambda = +-1/2, the default unitary) on the
    sample points."""
    samples = SampleSet(tuple(points))
    mb = MatrixBlaschke(0.5, -0.5, DEFAULT_UNITARY)
    return kernels.sigma_kernel(kernels.f_eval(mb, samples.array()), samples)


def test_sdp_meets_the_rows_on_the_flagship():
    # Whatever the stop, the last iterate of the flagship's SOS solve meets
    # every row within 1e-9 (1 + |b|) at three points and 1e-8 (1 + |b|) at
    # the six default ones, and its duality gap pobj - b.y is below 1e-6
    # relative.
    for points, bound in (((0.0, 0.5, -0.5), 1e-9),
                          (DEFAULT_SAMPLES.points, 1e-8)):
        target = flagship_target(points)
        rows, b, sizes = cone._sos_rows(np.repeat(np.array(points), 2))
        xs, y, _ = cone._sdp(sos_costs(target.flat, sizes), rows, b)
        scale = 1.0 + float(np.linalg.norm(b))
        assert np.max(np.abs(row_residuals(rows, b, xs))) <= bound * scale
        pobj = float(np.real(np.trace(xs[0] @ target.flat)))
        dobj = float(b @ y)
        assert abs(pobj - dobj) <= 1e-6 * (1.0 + abs(pobj) + abs(dobj))


def full_s_rows(x):
    """The level-1 SOS rows with one PSD block S of size 3n on
    V = (I, lam I, conj(lam) I), its (lam, conj(lam)) block held at 0 by a
    full equation of its own: 6 n^2 + 1 rows over the blocks W, S and T."""
    n = len(x)
    cx, rx = np.conj(x)[:, None], x[None, :]
    p00 = 1.0 - cx ** 3 * rx ** 3
    p10 = -cx + cx ** 3 * rx ** 2
    p11 = cx * rx - cx ** 2 * rx ** 2
    rows = [
        ("sum", n, [(0, 0, 0, np.eye(n))]),
        ("hermitian", n, [(1, 0, 0, 1.0), (2, 0, 0, 1.0), (0, 0, 0, -p00)]),
        ("hermitian", n, [(1, n, n, 1.0), (1, 2 * n, 2 * n, 1.0),
                          (2, 0, 0, -1.0), (0, 0, 0, -p11)]),
        ("full", n, [(1, 0, n, 1.0), (1, 2 * n, 0, 1.0), (0, 0, 0, -p10)]),
        ("full", n, [(1, 2 * n, n, 1.0)]),
    ]
    b = np.zeros(6 * n * n + 1)
    b[0] = n
    return rows, b, [n, 3 * n, n]


def test_chordal_split_keeps_the_optimum():
    # A PSD S with a zero (lam, conj(lam)) block is exactly a sum of PSD
    # blocks on its two cliques, so the clique pair of ``_sos_rows`` and
    # the single 3n block reach the same optimum b.y: on the three-point
    # flagship and on a block-dimension-1 draw.
    problem, _ = perturbed_problem(11)
    cases = [(np.repeat([0.0, 0.5, -0.5], 2),
              flagship_target((0.0, 0.5, -0.5)).flat),
             (problem.sample_set.array(), problem.target.flat)]
    for x, k in cases:
        optima = []
        for rows, b, sizes in (cone._sos_rows(x), full_s_rows(x)):
            y = cone._sdp(sos_costs(k, sizes), rows, b)[1]
            optima.append(float(b @ y))
        chordal, full = optima
        assert full < -cone.MIN_VIOLATION
        assert abs(chordal - full) <= 1e-5 * abs(full)


def dense_disk_scan(w, samples, block_dim):
    """W's least margin at infinity and on 300 radii out to 1 - 1e-7, 720
    angles each, in grid blocks."""
    pts = cone._polar_grid((1.0 - 1e-7) * np.arange(1, 301) / 300, 720)
    step = linalg.GRID_BLOCK
    return min(float(np.min(margins(w, _generator_data(
        pts[i:i + step], samples, block_dim)[1])))
        for i in range(0, len(pts), step))


def test_sos_margin_bound_is_sound():
    # The residual bound never exceeds the exact least margin of the W it
    # speaks for, on the audit grid and on a dense scan of the closed disk:
    # the three- and six-point flagship and a block-dimension-1 draw.
    problem, _ = perturbed_problem(11)
    cases = [(flagship_target((0.0, 0.5, -0.5)), 2),
             (flagship_target(DEFAULT_SAMPLES.points), 2),
             (problem.target, 1)]
    for target, d in cases:
        samples = target.sample_set
        x = np.repeat(samples.array(), d)
        rows, b, sizes = cone._sos_rows(x)
        xs = cone._sdp(sos_costs(target.flat, sizes), rows, b)[0]
        bound = cone._sos_margin_bound(xs, rows, x)
        w = cone._trace_normalized_psd(xs[0], len(x))
        audited = ConeProblem(samples, d, default_grid(), target)
        assert bound <= float(np.min(cone._audit_margins(w, audited)[0]))
        assert bound <= dense_disk_scan(w, samples, d)
    # T made indefinite by eps: the bound drops by at least
    # eps / (1 - r)^2, whatever the residual grids do.
    eps = 1e-3
    r = float(np.max(np.abs(x)))
    t = xs[3]
    low = float(np.linalg.eigvalsh(t)[0])
    broken = xs[:3] + [t - (low + eps) * np.eye(len(t))]
    assert np.linalg.eigvalsh(broken[3])[0] == pytest.approx(-eps)
    dropped = cone._sos_margin_bound(broken, rows, x)
    assert dropped <= bound - eps / (1.0 - r) ** 2


def test_dual_zero_target_yields_none():
    samples = SampleSet((0.3, -0.4))
    target = MatrixKernel(samples, 1, np.zeros((2, 2), dtype=complex))
    problem = ConeProblem(samples, 1, (INF, 0.2), target)
    assert dual_search(problem) is None


def test_dual_certificate_on_perturbed_target(perturbed_cert):
    problem, cert = perturbed_cert
    assert cert.violation <= -1e-4
    assert cert.grid_margin >= -1e-8
    n = problem.dim
    assert float(np.real(np.trace(cert.w))) == pytest.approx(n, rel=1e-6)
    floor = linalg.herm_eigvals_batch(cert.w[None])[0, 0]
    assert floor >= -1e-8 * max(1.0, float(np.abs(cert.w).max()))


def test_dual_certificate_margins_cover_problem_grid(perturbed_cert):
    problem, cert = perturbed_cert
    coefs = _generator_data(problem.grid, problem.sample_set,
                            problem.block_dim)[1]
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
    pts = [INF, 0.3, -0.2j]
    n = len(samples)
    w = np.asarray(random_psd(rng, n), dtype=complex)
    diags, coefs = _generator_data(pts, samples, 1)
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
    problem = ConeProblem(samples, 1, (INF,), target, validation_radii=16,
                          validation_angles=24)
    cert = DualCertificate(np.eye(n, dtype=complex), 1.0, -float(n),
                           validation_grid_size=1)
    report = validate_certificate(cert, problem)
    assert report.worst_margin > 0.0
    x = samples.array()
    psi = kernels.test_fn(report.worst_point, x)
    assert report.worst_margin == pytest.approx(
        float(np.min(1.0 - np.abs(psi) ** 2)), abs=1e-12)
    assert report.grid_size == 16 * 24 + 1
    assert report.modulus_estimate < 0.2
    # Every gate fails on NaN; every number must be finite, eps and delta
    # positive.
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError):
        DualCertificate(np.eye(3), nan, nan, 10)
    for margin, violation, eps, delta in ((nan, -3.0, 1e-8, 1e-4),
                                          (1.0, nan, 1e-8, 1e-4),
                                          (inf, -3.0, 1e-8, 1e-4),
                                          (1.0, -inf, 1e-8, 1e-4),
                                          (1.0, -3.0, nan, 1e-4),
                                          (1.0, -3.0, 1e-8, nan),
                                          (1.0, -3.0, inf, 1e-4),
                                          (1.0, -3.0, 1e-8, inf),
                                          (1.0, -3.0, 0.0, 1e-4)):
        with pytest.raises(ValueError):
            DualCertificate(np.eye(3), margin, violation, 10,
                            eps=eps, delta=delta)
    with pytest.raises(ValueError, match="trace"):
        DualCertificate(np.diag([1.0, 1.0, nan]), 1.0, -3.0, 10)


def test_validate_certificate_negative_for_negated_gram():
    samples = SampleSet((0.3, -0.4))
    target = MatrixKernel(samples, 1, -np.eye(2, dtype=complex))
    problem = ConeProblem(samples, 1, (INF,), target, validation_radii=8,
                          validation_angles=8)
    shim = SimpleNamespace(w=-np.eye(2, dtype=complex))
    report = validate_certificate(shim, problem)
    assert report.worst_margin < 0.0


def test_validate_certificate_explicit_grid(perturbed_cert):
    # A restricted problem is audited on its restriction alone, which has
    # no rings to take a modulus over.
    problem, cert = perturbed_cert
    restricted = ConeProblem(problem.sample_set, problem.block_dim,
                             problem.grid, problem.target,
                             generator_restriction=[INF, 0.25])
    report = validate_certificate(cert, restricted)
    assert report.grid_size == 2
    assert report.worst_margin >= -1e-8
    assert report.modulus_estimate is None


def test_validate_certificate_covers_the_audit_grid(perturbed_cert):
    # The audit reads the grid the search certified on: the problem grid
    # and then the dense rings.
    problem, cert = perturbed_cert
    pts = problem.audit_grid
    assert len(pts) == len(problem.grid) + 64 * 128
    assert np.array_equal(pts[:len(problem.grid)], problem.grid)
    vals = margins(cert.w, _generator_data(pts, problem.sample_set,
                                           problem.block_dim)[1])
    report = validate_certificate(cert, problem)
    assert report.grid_size == cert.validation_grid_size == len(pts)
    assert report.worst_margin == float(np.min(vals))
    assert report.worst_point == complex(pts[int(np.argmin(vals))])


def recording_audits(monkeypatch):
    """Wrap the grid audit so a test can read the margins of each call."""
    calls = []
    audit = cone._audit_margins

    def recording(w, problem):
        calls.append(audit(w, problem))
        return calls[-1]

    monkeypatch.setattr(cone, "_audit_margins", recording)
    return calls


def test_audit_and_norm_sweep_run_in_grid_blocks(monkeypatch):
    # The 8,195-generator audit grid spans many blocks: no eigenvalue batch
    # of the audit or the norm sweep may hold more than one, and the
    # blocked results equal one full-stack evaluation bit for bit.
    # The search makes no grid-block batch at all: its mix toward I reads
    # the SOS solve's residual bound (``_sos_margin_bound``), and the mix
    # is proved by concavity, so the certificate's margin is the floor.
    problem, _ = perturbed_problem(11)
    pts = problem.audit_grid
    assert len(pts) > 2 * linalg.GRID_BLOCK
    sizes = []
    eigvals = linalg.herm_eigvals_batch

    def recorder(h):
        sizes.append(len(h))
        return eigvals(h)

    with monkeypatch.context() as m:
        audits = recording_audits(m)
        m.setattr(linalg, "herm_eigvals_batch", recorder)
        cert = dual_search(problem)
        search = [size for size in sizes if size > 1]
        assert audits == []
        mark = len(sizes)
        report = validate_certificate(cert, problem)
        reaudit = sizes[mark:]
        space = gns.build_gns(cert.w, problem.sample_set)
        values = kernels.test_fn(pts[:, None], problem.sample_set.array())
        norms = gns.rep_norm_sweep(space, values)
    assert sizes and max(sizes) <= linalg.GRID_BLOCK
    assert search == []

    full = margins(cert.w, _generator_data(pts, problem.sample_set,
                                           problem.block_dim)[1])
    assert np.array_equal(cone._audit_margins(cert.w, problem)[0], full)
    assert cert.grid_margin == cone.MARGIN_FLOOR <= float(np.min(full))
    blocks = [len(pts[i:i + linalg.GRID_BLOCK])
              for i in range(0, len(pts), linalg.GRID_BLOCK)]
    assert len(blocks) == 17 and reaudit == blocks
    assert cert.validation_grid_size == len(pts)
    rect = full[-64 * 128:].reshape(64, 128)
    modulus = max(np.abs(np.diff(rect, axis=0)).max(),
                  np.abs(rect - np.roll(rect, 1, axis=1)).max())
    assert report.worst_margin == float(np.min(full))
    assert report.worst_point == complex(pts[int(np.argmin(full))])
    assert report.modulus_estimate == float(modulus)
    assert report.grid_size == len(pts)
    reference = linalg.op_norm_batch(gns._mult_matrices(space, values)[0])
    assert np.array_equal(norms, reference)


def test_restricted_search_audits_its_restriction_once(monkeypatch):
    # A restricted problem has no SOS proof: the search audits its
    # restriction once, exactly, and the polish is skipped for K = -I.
    problem = restricted_infeasible_problem()
    audits = recording_audits(monkeypatch)
    cert = dual_search(problem)
    assert cert is not None and len(audits) == 1
    vals, identity = audits[0]
    coefs = _generator_data(problem.effective_grid, problem.sample_set,
                            problem.block_dim)[1]
    assert len(vals) == len(problem.effective_grid)
    assert identity == cone._identity_margin(coefs)
    assert cert.grid_margin <= float(np.min(margins(cert.w, coefs)))


# ---------------------------------------------------------------------------
# pick_check


def test_pick_single_node_feasible():
    got = pick_check([0.35], [0.6 - 0.2j])
    assert got.status == "feasible"
    assert got.measure is not None


def test_pick_tautological_test_function_values():
    lam = 0.25 * np.exp(2j * np.pi * 3 / 32)  # lies on the default grid
    nodes = (0.0, 0.5, -0.5, 0.3j)
    w = kernels.test_fn(lam, np.array(nodes, dtype=complex))
    got = pick_check(nodes, w)
    assert got.status == "feasible"


def test_pick_on_grid_target_keeps_the_scanned_atom():
    # 1 - psi_lam psi_lam* is one atom at lam: K / A_lam is the all-ones
    # matrix, so the closed-form one-atom step returns {lam} before any
    # Douglas-Rachford run.
    lam = 0.45 * np.exp(2j * np.pi * 9 / 32)  # ring 4 of the default grid
    nodes = (0.0, 0.5, -0.5, 0.3j)
    w = kernels.test_fn(lam, np.array(nodes, dtype=complex))
    got = pick_check(nodes, w)
    assert got.status == "feasible"
    assert got.residual <= PRIMAL_TOL
    assert len(got.measure.grid) == 1
    assert abs(got.measure.grid[0] - lam) <= 1e-12


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
    grid = (INF, 0.2)
    target = MatrixKernel(samples, 1, np.eye(2, dtype=complex))
    problem = ConeProblem(samples, 1, grid, target)
    blocks = np.zeros((2, 2, 2), dtype=complex)
    blocks[0] = np.eye(2)
    report = recover_structure(DiscreteMeasure(grid, blocks), problem)
    assert len(report.clusters) == 1
    assert np.isinf(report.clusters[0].center)


def test_recover_structure_diagonal_witness_clusters():
    problem, witness = diagonal_problem()
    report = recover_structure(witness, problem)
    assert len(report.clusters) == 2
    centers = sorted((c.center for c in report.clusters),
                     key=lambda z: z.real)
    assert centers[0] == pytest.approx(-0.5)
    assert centers[1] == pytest.approx(0.5)
    by_center = {round(c.center.real, 3): c for c in report.clusters}
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
    centers = [c.center for c in report.clusters
               if not np.isinf(c.center)]
    assert any(abs(c - 0.5) < 0.05 for c in centers)
    assert any(abs(c + 0.5) < 0.05 for c in centers)
