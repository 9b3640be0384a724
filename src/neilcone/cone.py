"""Membership machinery for the discretized test-function cone.

A kernel K on a sample set belongs to the cone when it can be written as
sum_g (M_g - D_g M_g D_g*) with every M_g PSD, where g runs over a grid of
generator parameters and D_g is the diagonal of generator values.  Because
the D_g are diagonal, both the generator action and its adjoint are Hadamard
products, which keeps every projection in the solvers entrywise cheap; the
only nontrivial step is the eigendecomposition behind PSD projections and
margin checks, done batched across the grid.

Membership is decided from both sides:

* ``primal_feasibility`` searches for the measure itself.  It first decides
  every one-atom case in closed form: K = A_g o M forces M = K / A_g
  entrywise, so one batched eigenvalue test over the grid finds any single
  generator that represents K.  Otherwise one Douglas-Rachford run over the
  whole grid splits between the affine slab of exact representations and
  the product of PSD cones.  It can affirm membership (with the measure as
  witness) but never denies it.
* ``dual_search`` looks for a separating functional W with
  W - D_g* W D_g >= 0 across the grid but trace(W K) < 0.  Such a W is a
  checkable certificate of non-membership: squares make any cone element
  pair nonnegatively with W, so nothing in the cone can reach the target.

Both can come back empty-handed; ``Undecided``/``None`` is the honest third
outcome and the two positive outcomes exclude each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from neilcone import linalg
from neilcone.kernels import MatrixKernel, SampleSet, extended_points, test_fn

GRID_EPS = 1e-8          # allowed margin slack on the problem grid
MIN_VIOLATION = 1e-4     # a certificate must beat the target by this much
PRIMAL_TOL = 1e-7        # residual at which a measure counts as exact
BLOCK_PSD_TOL = 1e-9     # PSD slack allowed on measure blocks
MERGE_DISTANCE = 0.05    # grid points this close aggregate into one cluster
DUST_TRACE = 1e-6        # clusters below this total trace are discarded
AUDIT_RADIUS = 0.999     # outermost ring of the dense audit grid

# Primal search (Douglas-Rachford); see ``primal_feasibility``.
PRIMAL_MAX_ITER = 20000  # iteration cap of the one splitting run
STALL_WINDOW = 250       # stall rule window (see ``_dr_run``)
STALL_RATIO = 0.98       # stall rule: less than 2% gain per window

# Dual search (ADMM, Dykstra polish, identity mixing) settings.
ADMM_ITERS = 3000
ADMM_BETA = 0.3          # initial penalty, rebalanced every ADMM_CHECK
ADMM_RELAX = 1.6         # over-relaxation
ADMM_CHECK = 50
ADMM_STALL = 1e-5        # relative violation change that ends ADMM
POLISH_MARGIN = 1e-5     # margin floor the polish enforces on the work grid
POLISH_ITERS = 2500
MARGIN_FLOOR = 1e-5      # audit margin that identity mixing restores
WORKING_LIMIT = 48       # generators in the thinned working set


def _polar_grid(radii: np.ndarray, angles: int) -> np.ndarray:
    """Infinity, then ``angles`` equally spaced points on each radius."""
    if len(radii) < 1 or angles < 1:
        raise ValueError("a polar grid needs at least one radius and one "
                         "angle")
    ring = np.exp(2j * np.pi * np.arange(angles) / angles)
    return np.concatenate([[np.inf], (radii[:, None] * ring).ravel()])


def default_grid(radii: int = 10, angles: int = 32) -> np.ndarray:
    """Infinity plus concentric rings of disk parameters.

    Radii sit at (j + 1/2)/radii, so the default ten rings run 0.05..0.95;
    boundary-adjacent parameters are redundant with infinity and excluded.
    """
    return _polar_grid((np.arange(radii) + 0.5) / radii, angles)


def validation_grid(radii: int = 64, angles: int = 128) -> np.ndarray:
    """Dense audit grid reaching almost to the boundary, plus infinity."""
    return _polar_grid(AUDIT_RADIUS * (np.arange(radii) + 1.0) / radii, angles)


@dataclass
class ConeProblem:
    """A membership question: is ``target`` in the cone over ``grid``?

    Grids are generator parameters (see ``kernels.extended_points``), with
    ``np.inf`` for the z^2 generator.
    """

    sample_set: SampleSet
    block_dim: int
    grid: np.ndarray
    target: MatrixKernel
    generator_restriction: np.ndarray | None = None

    def __post_init__(self):
        if self.block_dim not in (1, 2):
            raise ValueError("block dimension must be 1 or 2")
        if self.target.block_dim != self.block_dim:
            raise ValueError("target block dimension does not match the problem")
        if self.target.sample_set.points != self.sample_set.points:
            raise ValueError("target lives on a different sample set")
        self.grid = extended_points(self.grid)
        if self.generator_restriction is not None:
            self.generator_restriction = extended_points(
                self.generator_restriction)
        if not len(self.effective_grid):
            raise ValueError("the generator grid is empty")
        if (self.generator_restriction is None
                and not np.isinf(self.grid).any()):
            raise ValueError("an unrestricted grid must include infinity")

    @property
    def effective_grid(self) -> np.ndarray:
        if self.generator_restriction is not None:
            return self.generator_restriction
        return self.grid

    @property
    def dim(self) -> int:
        return len(self.sample_set) * self.block_dim


@dataclass
class DiscreteMeasure:
    """A matrix measure supported on finitely many generator parameters."""

    grid: np.ndarray  # generator parameters, np.inf for z^2
    blocks: np.ndarray  # (G, n, n), each PSD

    def __post_init__(self):
        self.grid = extended_points(self.grid)
        blocks = linalg.from_lower(np.asarray(self.blocks, dtype=complex))
        if blocks.ndim != 3 or blocks.shape[0] != len(self.grid):
            raise ValueError("need one square block per grid point")
        floor = np.min(linalg.min_eig_batch(blocks))
        scale = 1.0 + float(np.max(np.abs(blocks), initial=0.0))
        if floor < -BLOCK_PSD_TOL * scale:
            raise ValueError(
                "measure block has eigenvalue %.3e beyond the PSD tolerance" % floor
            )
        self.blocks = blocks

    def total_trace(self) -> float:
        return float(np.real(np.trace(self.blocks, axis1=1, axis2=2)).sum())


@dataclass
class DualCertificate:
    """A separating functional, stored with its audit numbers.

    ``grid_margin`` is the worst min-eigenvalue of W - D* W D over the
    validation grid the search finished on; ``violation`` is trace(W K).
    W is normalized to trace n and must itself stay PSD up to slack, since
    squares lie in the cone.  Every gate is written so that NaN fails it.
    """

    w: np.ndarray
    grid_margin: float
    violation: float
    validation_grid_size: int
    eps: float = GRID_EPS
    delta: float = MIN_VIOLATION

    def __post_init__(self):
        self.w = linalg.from_lower(np.asarray(self.w, dtype=complex))
        n = self.w.shape[0]
        if not abs(float(np.real(np.trace(self.w))) - n) <= 1e-6 * n:
            raise ValueError("certificate is not normalized to trace n")
        numbers = (self.grid_margin, self.violation, self.eps, self.delta)
        if not (all(map(math.isfinite, numbers))
                and min(self.eps, self.delta) > 0.0):
            raise ValueError("certificate numbers must be finite, eps and "
                             "delta positive")
        if not self.grid_margin >= -self.eps:
            raise ValueError(
                "certificate margin %.3e dips below -%.1e" % (self.grid_margin, self.eps)
            )
        if not self.violation <= -self.delta:
            raise ValueError(
                "certificate violation %.3e does not clear -%.1e"
                % (self.violation, self.delta)
            )
        if not linalg.min_eig(self.w) >= -self.eps * max(1.0, float(np.abs(self.w).max())):
            raise ValueError("certificate is not PSD within tolerance")


@dataclass
class Feasible:
    measure: DiscreteMeasure
    residual: float


@dataclass
class Undecided:
    residual: float
    iterations: int


@dataclass
class ValidationReport:
    worst_margin: float
    worst_point: complex  # inf for the z^2 generator
    modulus_estimate: float
    grid_size: int
    margins: np.ndarray


@dataclass
class Cluster:
    center: complex  # inf for the z^2 generator
    total_trace: float
    weight: np.ndarray
    zero_block: np.ndarray | None
    zero_block_eigs: np.ndarray | None


@dataclass
class StructureReport:
    clusters: list[Cluster]
    projection_deviation: float | None


@dataclass
class Decision:
    status: str  # "feasible" | "infeasible" | "undecided"
    measure: DiscreteMeasure | None = None
    certificate: DualCertificate | None = None
    residual: float | None = None


def _generator_data(grid, samples: SampleSet, block_dim: int):
    """Generator diagonals and Hadamard coefficients A_g = 1 - d d*.

    (M_g - D_g M_g D_g*)_{ij} = A_g[i, j] * (M_g)_{ij}; the adjoint that
    shows up in dual margins uses conj(A_g).  Row g of the diagonals is
    psi_g(x_i), each entry repeated block_dim times; every entry has modulus
    at most max|x_i|^2 < 1.
    """
    vals = test_fn(np.asarray(grid, dtype=complex)[:, None], samples.array())
    diags = np.repeat(vals, block_dim, axis=1)
    return diags, 1.0 - diags[:, :, None] * np.conj(diags[:, None, :])


def apply_generators(measure: DiscreteMeasure, problem: ConeProblem) -> MatrixKernel:
    """Assemble sum_g (M_g - D_g M_g D_g*) as a flat kernel."""
    coefs = _generator_data(measure.grid, problem.sample_set,
                            problem.block_dim)[1]
    flat = np.einsum("gij,gij->ij", coefs, measure.blocks)
    return MatrixKernel(problem.sample_set, problem.block_dim, flat)


def margins(w: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """min_eig(W - D_g* W D_g) for every generator, as one batched solve."""
    stack = w[None, :, :] * np.conj(coefs)
    return linalg.herm_eigvals_batch(stack)[:, 0]


def primal_feasibility(problem: ConeProblem,
                       tol: float = PRIMAL_TOL) -> Feasible | Undecided:
    """Search for a representing measure, one atom first, then by splitting.

    The exact first step: a measure with one atom g represents K only as
    M = K / A_g entrywise, so the floors of all those matrices, taken in
    one batched eigenvalue call, decide every one-atom case.  The first
    generator in grid order whose matrix is PSD within BLOCK_PSD_TOL, and
    whose stored block reproduces the target within the acceptance bound,
    is returned as a one-atom measure.

    A measure is accepted only when its residual is at most
    ``tol * min(1, ||K||_F)``, so the zero measure, whose residual is
    ||K||_F, never represents a kernel K != 0; ``tol`` must be below 1.

    Otherwise one Douglas-Rachford run over the whole effective grid, at
    most PRIMAL_MAX_ITER iterations, goes between the affine slab of exact
    representations and the product of PSD cones; the slab projection is
    entrywise closed-form because the generator action is a Hadamard
    product.  It stops at the first checked measure, at its stall rule, on
    a functional that separates K from the cone over the grid, or at the
    cap (see ``_dr_run``).  Returns Feasible only after re-checking, at
    full precision, that the blocks are PSD and reproduce the target;
    anything else is Undecided, never a claim of infeasibility.
    """
    if not tol < 1.0:
        raise ValueError("tolerance must be below 1, got %r" % (tol,))
    grid = problem.effective_grid
    coefs = _generator_data(grid, problem.sample_set, problem.block_dim)[1]
    k_hat = problem.target.flat
    tol = tol * min(1.0, float(np.linalg.norm(k_hat)))

    # One-atom step.  No entry of A_g vanishes, since every generator value
    # has modulus below 1, so K / A_g is always defined.
    single = linalg.from_lower(k_hat / coefs)
    floors = linalg.min_eig_batch(single)
    scale = 1.0 + np.max(np.abs(single), axis=(1, 2))
    hits = np.flatnonzero(floors >= -BLOCK_PSD_TOL * scale)
    if hits.size:
        measure = DiscreteMeasure(grid[hits[:1]], single[hits[:1]])
        residual = float(np.linalg.norm(
            coefs[hits[0]] * measure.blocks[0] - k_hat))
        if residual <= tol:
            return Feasible(measure, residual)

    blocks, best, it = _dr_run(coefs, k_hat, tol)
    if blocks is not None:
        return Feasible(DiscreteMeasure(grid, blocks), best)
    return Undecided(best, it)


def _separating(theta, k_hat, coefs, tol):
    """The affine step's multiplier as a separating functional, or None.

    W = -herm(theta), normalized to trace n and mixed toward I until its
    margins over ``coefs`` clear MARGIN_FLOOR (see ``_mixed_with_identity``).
    Returned only when every margin is >= 0 and
    trace(W K) < -tol ||W||_F - MIN_VIOLATION; ``_dr_run`` states what that
    proves.
    """
    w = -linalg.hermitian_part(theta)
    tr = float(np.real(np.trace(w)))
    if not tr > 0.0:
        return None
    w *= w.shape[0] / tr
    w, vals, viol = _mixed_with_identity(w, k_hat, coefs, MARGIN_FLOOR)
    if (float(np.min(vals)) >= 0.0
            and viol < -tol * float(np.linalg.norm(w)) - MIN_VIOLATION):
        return w
    return None


def _dr_run(coefs, k_hat, tol):
    """Douglas-Rachford on (affine slab, product PSD cone) over ``coefs``.

    The PSD-side iterate is always an honest measure candidate whose only
    defect is the affine residual, which the splitting drives to the
    distance between the sets (zero exactly when a measure exists).
    Stops at the first iterate whose residual is within ``tol`` and whose
    blocks pass the PSD check, at the stall rule (checked from iteration
    2 * STALL_WINDOW on), after PRIMAL_MAX_ITER iterations, or on a
    separating functional, tested at iterations 1, 2, 4, 8, ... after the
    residual is recorded (see ``_separating``).
    Weak duality: if every margin of W is >= 0, then
    trace(W sum_g A_g o Y_g) >= 0 for PSD blocks Y_g, and by Cauchy-Schwarz
    a residual ||sum_g A_g o Y_g - K||_F <= tol forces
    trace(W K) >= -tol ||W||_F.  So once trace(W K) lies below that by
    MIN_VIOLATION, no measure on the grid passes the acceptance test.
    MIN_VIOLATION is the slack for that test's own PSD tolerance: blocks
    may dip to -BLOCK_PSD_TOL (1 + max|Y|), which moves the pairing by at
    most that times G n (the margin traces of a trace-n W sum to at most
    G n over G generators).
    Returns (feasible_blocks_or_None, best_residual, iterations).
    """
    conj_coefs = np.conj(coefs)
    denom = np.sum(np.abs(coefs) ** 2, axis=0)  # strictly positive entrywise
    z = np.zeros_like(coefs)
    best = math.inf
    history: list[float] = []
    it = 0
    for it in range(1, PRIMAL_MAX_ITER + 1):
        # Affine step: smallest correction of z that makes the representation
        # exact, computed independently at every matrix entry.
        theta = (k_hat - np.einsum("gij,gij->ij", coefs, z)) / denom
        x = z + conj_coefs * theta[None, :, :]
        y = linalg.psd_project_batch(linalg.hermitian_part(2.0 * x - z))
        z = z + y - x
        residual = float(
            np.linalg.norm(np.einsum("gij,gij->ij", coefs, y) - k_hat)
        )
        best = min(best, residual)
        history.append(best)
        if residual <= tol:
            floor = float(np.min(linalg.min_eig_batch(y)))
            scale = 1.0 + float(np.max(np.abs(y), initial=0.0))
            if floor >= -BLOCK_PSD_TOL * scale:
                return y, residual, it
        if (it & (it - 1) == 0
                and _separating(theta, k_hat, coefs, tol) is not None):
            return None, best, it
        # Stall rule: give up only when a whole window brought less than a
        # (1 - STALL_RATIO) relative improvement; slow steady linear decay
        # at that rate cannot reach tol within the iteration cap anyway.
        # With the 250-iteration window the first check falls at iteration
        # 500; infeasible runs are flat to three digits by then.
        if (
            it >= 2 * STALL_WINDOW
            and history[-1] > STALL_RATIO * history[-STALL_WINDOW]
        ):
            break
    return None, best, it


def _project_affine(w_tilde, ys, conj_coefs, denom_s, trace_target):
    """Project (w, y) onto {y_g = w . conj(coef_g), trace w = n}.

    Normal equations are diagonal in the entrywise basis: the least-squares
    w scales by 1/denom_s entrywise, and the trace constraint is a rank-one
    correction in the same metric.
    """
    rhs = w_tilde + np.einsum("gij,gij->ij", np.conj(conj_coefs), ys)
    w = rhs / denom_s
    inv_diag = 1.0 / np.real(np.diagonal(denom_s))
    mu = (trace_target - float(np.real(np.trace(w)))) / float(np.sum(inv_diag))
    w = w + np.diag(mu * inv_diag).astype(complex)
    return w, w[None, :, :] * conj_coefs


def _dual_polish(w0, sigma_hat, conj_coefs, trace_target, v_target, margin_floor):
    """Anytime Dykstra search for W with trace(W Sigma) near ``v_target``.

    Cycles three sets in product space: the affine slab tying Y_g to W with
    trace W = n, the PSD product cone (W itself and every Y_g - margin I),
    and the violation halfspace.  Corrections are kept for the two non-affine
    sets.  Every 25 iterations the affine-projected W is mixed toward I until
    its margins over the work grid clear 0.25 ``margin_floor`` (see
    ``_mixed_with_identity``), and the mix is kept when it is PSD and pairs
    lower with Sigma than the best so far (``w0`` at the start).

    Returns a kept W as soon as it lies in the band
    v_target + 0.1 |v_target|; otherwise, at the plateau test or the
    iteration cap, the best kept W, or None when nothing beat ``w0``.  The
    plateau test runs every 100 iterations from iteration 200 on and stops
    when the cone step's gap is still above 0.8 of its value 100 iterations
    earlier; a polish still making headway shrinks it far faster.
    """
    sig_norm2 = float(np.sum(np.abs(sigma_hat) ** 2))
    if sig_norm2 == 0.0:
        return None
    n = conj_coefs.shape[1]
    coefs = np.conj(conj_coefs)
    denom_s = 1.0 + np.sum(np.abs(conj_coefs) ** 2, axis=0)
    best = None
    best_viol = float(np.real(np.sum(w0 * np.conj(sigma_hat))))
    w = w0.copy()
    ys = w[None, :, :] * conj_coefs
    corr_cone_w = np.zeros_like(w)
    corr_cone_y = np.zeros_like(ys)
    corr_half = np.zeros_like(w)
    eye = np.eye(n)
    last_gap = math.inf
    for it in range(1, POLISH_ITERS + 1):
        w, ys = _project_affine(w, ys, conj_coefs, denom_s, trace_target)
        if it % 25 == 0:
            # The affine-projected W satisfies the equality constraints
            # exactly; mixing repairs its margins at a small violation cost.
            mixed, vals, viol = _mixed_with_identity(
                w, sigma_hat, coefs, 0.25 * margin_floor)
            scale = 1.0 + float(np.abs(mixed).max())
            if (viol < best_viol
                    and float(np.min(vals)) >= 0.25 * margin_floor
                    and linalg.min_eig(mixed) >= -1e-9 * scale):
                best, best_viol = linalg.from_lower(mixed), viol
                if viol <= v_target + 0.1 * abs(v_target):
                    return best

        shifted_w = w + corr_cone_w
        shifted_y = ys + corr_cone_y
        stack = np.concatenate(
            [shifted_w[None], shifted_y - margin_floor * eye[None]], axis=0
        )
        proj = linalg.psd_project_batch(stack)
        new_w = proj[0]
        new_y = proj[1:] + margin_floor * eye[None]
        corr_cone_w = shifted_w - new_w
        corr_cone_y = shifted_y - new_y
        gap = float(np.linalg.norm(new_w - w)) + float(np.linalg.norm(new_y - ys))
        w, ys = new_w, new_y

        shifted_w = w + corr_half
        viol = float(np.real(np.sum(shifted_w * np.conj(sigma_hat))))
        if viol > v_target:
            new_w = shifted_w - ((viol - v_target) / sig_norm2) * sigma_hat
        else:
            new_w = shifted_w
        corr_half = shifted_w - new_w
        w = new_w

        if it % 100 == 0:
            if it >= 200 and gap > 1e-8 * n and gap > 0.8 * last_gap:
                break  # plateau: the requested violation is out of reach
            last_gap = gap
    return best


def _coarse_seed(grid: np.ndarray, limit: int) -> np.ndarray:
    """Thin a generator grid to at most ``limit`` points, keeping infinity.

    The working constraint set stays small because margins vary smoothly in
    the parameter; feasibility over the full family is restored afterwards
    by mixing with the identity and re-audited on the dense grid.
    """
    at_inf = np.isinf(grid)
    inf_pts = grid[at_inf][:1]
    finite = grid[~at_inf]
    room = max(limit - len(inf_pts), 1)
    stride = max(1, -(-len(finite) // room))
    return np.concatenate([inf_pts, finite[::stride]])


def _admm_min_violation(sigma_hat, conj_coefs, n):
    """Approximately minimize trace(W K) over the dual cone by ADMM.

    Splitting: W against slack copies S_0 = W and S_g = W - D_g* W D_g, all
    constrained PSD, with trace W = n.  The W-update is ``_project_affine``,
    the polish's entrywise least squares with its rank-one trace correction;
    the slack update is one batched PSD projection.  Over-
    relaxation and residual balancing are standard accelerants.  First-order
    accuracy is all that is needed here: the result seeds a feasibility
    polish and an identity-mixing step that restore exact constraints.

    Returns (W, L).  L is a weak-duality floor from the slack multipliers
    Z_g = -beta u_g, which are PSD by construction (each u_g is a point
    minus its PSD projection).  For every W in the working-set dual cone
    (W PSD with trace n, every W o conj(A_g) PSD):
    trace(W K) >= trace(W K) - sum_g <Z_g, W o conj(A_g)>
    = <W, K - sum_g A_g o Z_g> >= n lambda_min(K - sum_g A_g o Z_g) = L.
    L is exact up to the eigensolver's rounding of Z_g and of lambda_min,
    whatever the ADMM iterate has converged to.
    """
    beta = ADMM_BETA
    denom_s = 1.0 + np.sum(np.abs(conj_coefs) ** 2, axis=0)
    w = np.eye(n, dtype=complex)
    s = np.concatenate([w[None], w[None, :, :] * conj_coefs], axis=0)
    u = np.zeros_like(s)
    last_viol = math.inf
    for it in range(1, ADMM_ITERS + 1):
        sm = s - u
        w, ys = _project_affine(sm[0] - sigma_hat / beta, sm[1:], conj_coefs,
                                denom_s, n)
        ax = np.concatenate([w[None], ys], axis=0)
        ax_r = ADMM_RELAX * ax + (1.0 - ADMM_RELAX) * s
        s_old = s
        s = linalg.psd_project_batch(ax_r + u)
        u = u + ax_r - s
        if it % ADMM_CHECK == 0:
            viol = float(np.real(np.sum(w * np.conj(sigma_hat))))
            if abs(viol - last_viol) < ADMM_STALL * max(1.0, abs(viol)):
                break
            last_viol = viol
            primal_res = float(np.linalg.norm(ax - s))
            dual_res = beta * float(np.linalg.norm(s - s_old))
            if primal_res > 10.0 * dual_res:
                beta *= 2.0
                u /= 2.0
            elif dual_res > 10.0 * primal_res:
                beta /= 2.0
                u *= 2.0
    slack = np.einsum("gij,gij->ij", np.conj(conj_coefs), u[1:])
    return w, n * linalg.min_eig(sigma_hat + beta * slack)


def _mixed_with_identity(w, sigma_hat, audit_coefs, floor: float):
    """Blend W toward I until audit margins clear ``floor`` uniformly.

    margins are concave under mixing: margin((1-t)W + tI) >=
    (1-t) margin(W) + t margin(I), and margin(I), the least diagonal entry
    of ``audit_coefs`` (at least 1 - max|x|^4), is large, so a small t buys
    a uniform floor at a proportional violation cost.
    Returns (w_mixed, audit_margins, violation).
    """
    vals = margins(w, audit_coefs)
    worst = float(np.min(vals))
    if worst >= floor:
        viol = float(np.real(np.sum(w * np.conj(sigma_hat))))
        return w, vals, viol
    margin_identity = float(np.min(np.real(np.einsum("gii->gi", audit_coefs))))
    t = (floor - worst) / (margin_identity - worst)
    t = min(max(t, 0.0), 1.0)
    mixed = (1.0 - t) * w + t * np.eye(w.shape[0])
    vals = margins(mixed, audit_coefs)
    viol = float(np.real(np.sum(mixed * np.conj(sigma_hat))))
    return mixed, vals, viol


def dual_search(problem: ConeProblem, radii: int = 64,
                angles: int = 128) -> DualCertificate | None:
    """Look for a separating functional for the target.

    Stages: (1) ADMM approximately minimizes trace(W K) over the dual cone
    on a thinned working constraint set; (2) the iterate is made exactly
    PSD, renormalized, and mixed slightly toward the identity, whose margin
    is uniformly large, which converts approximate feasibility into a
    strict uniform margin over the dense audit grid; (3) one anytime
    Dykstra polish (see ``_dual_polish``), aimed at max(2 v0, L) for the
    mixed violation v0 and the ADMM floor L below, re-tightens the
    violation; (4) the polished W is re-audited and re-mixed.  Each of the
    at most two candidates, from stages (2) and (4), is offered to
    ``DualCertificate``, the one certificate gate, and the lower-violation
    one it accepts is returned.  Returns None when it accepts neither; that
    outcome never claims membership.
    ``radii`` x ``angles`` is the dense audit grid of an unrestricted
    problem (see ``validation_grid``).

    Polish gate: ADMM also returns a floor L with trace(W K) >= L for every
    W in the working-set dual cone, which contains every W a polish can
    return.  When even 1.05 v0 lies below L, with the slack
    GRID_EPS |L| for the rounding in L, no W in the working-set dual cone
    improves on v0 by 5%, so the polish is skipped.  The skip gives up at
    most the gap between v0 and L.
    """
    samples = problem.sample_set
    d = problem.block_dim
    n = problem.dim
    sigma_hat = problem.target.flat
    if float(np.linalg.norm(sigma_hat)) < 1e-14:
        return None

    audit_grid = problem.effective_grid
    if problem.generator_restriction is None:
        # The problem grid (which holds infinity) joins the audit so
        # certificate margins cover the parameters measures can actually
        # charge, not just the dense rings.
        dense = validation_grid(radii, angles)
        audit_grid = np.concatenate([audit_grid, dense[np.isfinite(dense)]])
    audit_coefs = _generator_data(audit_grid, samples, d)[1]

    work_grid = _coarse_seed(problem.effective_grid, WORKING_LIMIT)
    conj_coefs = np.conj(_generator_data(work_grid, samples, d)[1])

    w, floor = _admm_min_violation(sigma_hat, conj_coefs, n)
    w = linalg.psd_project(w)
    tr = float(np.real(np.trace(w)))
    if tr < 1e-9 * n:
        return None
    w *= n / tr

    w, audit_vals, viol = _mixed_with_identity(w, sigma_hat, audit_coefs,
                                               MARGIN_FLOOR)
    if not viol <= -MIN_VIOLATION:
        return None
    candidates = [(w, audit_vals, viol)]

    # One anytime polish, aimed at twice the mixed violation but never
    # below the floor; it runs only if a 5% gain is reachable at all.
    if 1.05 * viol >= floor - GRID_EPS * abs(floor):
        polished = _dual_polish(w, sigma_hat, conj_coefs, n,
                                max(2.0 * viol, floor), POLISH_MARGIN)
        if polished is not None:
            candidates.append(_mixed_with_identity(
                polished, sigma_hat, audit_coefs, MARGIN_FLOOR))

    # Lowest violation first; a stable sort keeps the stage (2) candidate
    # ahead on a tie.
    for w_c, vals, viol_c in sorted(candidates, key=lambda c: c[2]):
        try:
            return DualCertificate(w_c, float(np.min(vals)), viol_c,
                                   len(audit_grid))
        except ValueError:
            continue
    return None


def validate_certificate(cert: DualCertificate, problem: ConeProblem,
                         fine_grid=None, radii: int = 64,
                         angles: int = 128) -> ValidationReport:
    """Audit a certificate's margins on a dense grid it was not fitted to.

    Reports the worst margin, where it occurs, and an empirical modulus of
    continuity (largest margin change between neighboring grid parameters);
    a small modulus backs up reading grid nonnegativity as evidence for the
    whole family.  ``fine_grid`` overrides the default dense grid (or the
    restriction set for restricted problems).
    """
    structured = fine_grid is None and problem.generator_restriction is None
    if fine_grid is not None:
        pts = extended_points(fine_grid)
    elif problem.generator_restriction is not None:
        pts = problem.effective_grid
    else:
        pts = validation_grid(radii, angles)
    vals = margins(cert.w, _generator_data(pts, problem.sample_set,
                                           problem.block_dim)[1])
    worst = int(np.argmin(vals))
    if structured:
        rect = vals[1:].reshape(radii, angles)
        radial = np.abs(np.diff(rect, axis=0))
        angular = np.abs(rect - np.roll(rect, 1, axis=1))
        mod = float(max(radial.max(initial=0.0), angular.max(initial=0.0)))
    else:
        mod = float(np.max(np.abs(np.diff(vals)))) if len(vals) > 1 else 0.0
    return ValidationReport(float(vals[worst]), complex(pts[worst]), mod,
                            len(pts), vals)


def decide(problem: ConeProblem, tol: float = PRIMAL_TOL) -> Decision:
    """Three-way membership verdict: feasible, infeasible or undecided.

    Runs the primal search first and falls back to the dual; an affirmative
    from either side is decisive, anything else is undecided and carries
    the primal residual.
    """
    primal = primal_feasibility(problem, tol)
    if isinstance(primal, Feasible):
        return Decision("feasible", measure=primal.measure,
                        residual=primal.residual)
    cert = dual_search(problem)
    if cert is not None:
        return Decision("infeasible", certificate=cert)
    return Decision("undecided", residual=primal.residual)


def pick_problem(nodes, targets, restriction=None) -> ConeProblem:
    """Scalar interpolation as membership: is 1 - w w* in the cone?"""
    samples = SampleSet(tuple(nodes))
    w = np.asarray(targets, dtype=complex)
    if w.shape != (len(samples),):
        raise ValueError("need exactly one target value per node")
    flat = 1.0 - w[:, None] * np.conj(w)[None, :]
    return ConeProblem(
        sample_set=samples,
        block_dim=1,
        grid=default_grid(),
        target=MatrixKernel(samples, 1, flat),
        generator_restriction=restriction,
    )


def pick_check(nodes, targets, restriction=None,
               tol: float = PRIMAL_TOL) -> Decision:
    """``decide`` on the interpolation problem for the nodes and targets."""
    return decide(pick_problem(nodes, targets, restriction), tol)


def recover_structure(measure: DiscreteMeasure,
                      problem: ConeProblem) -> StructureReport:
    """Cluster a measure's support and summarize the aggregated weights.

    Grid points carrying mass merge greedily when within MERGE_DISTANCE in
    the disk (infinity only merges with itself, and its cluster's center is
    inf); clusters below DUST_TRACE total trace are dropped.  For each
    cluster the report aggregates the full weight matrix and, when 0 is a
    sample point, the block at (0, 0), whose eigenvalues expose rank-one
    projection structure.  When exactly two clusters survive,
    ``projection_deviation`` measures how far the two zero-blocks are from
    complementary projections: the largest of each block's distance from
    its own square (idempotency defect) and the deviation of their sum from
    the identity.
    """
    tr = np.real(np.einsum("gii->g", measure.blocks))
    order = np.argsort(-tr, kind="stable")
    centers: list[complex] = []
    members: list[list[int]] = []
    masses: list[float] = []
    for idx in order:
        if tr[idx] <= 0.0:
            continue
        key = complex(measure.grid[idx])
        at_inf = np.isinf(key)
        for c, (ctr, mass) in enumerate(zip(centers, masses)):
            if np.isinf(ctr) != at_inf:
                continue
            if at_inf or abs(key - ctr) <= MERGE_DISTANCE:
                members[c].append(idx)
                new_mass = mass + tr[idx]
                if not at_inf:
                    centers[c] = (ctr * mass + key * tr[idx]) / new_mass
                masses[c] = new_mass
                break
        else:
            centers.append(key)
            members.append([idx])
            masses.append(float(tr[idx]))

    d = problem.block_dim
    try:
        zero_idx = problem.sample_set.points.index(0.0)
    except ValueError:
        zero_idx = None

    clusters: list[Cluster] = []
    for ctr, mem, mass in zip(centers, members, masses):
        if mass < DUST_TRACE:
            continue
        weight = np.sum(measure.blocks[mem], axis=0)
        zb = None
        zb_eigs = None
        if zero_idx is not None:
            sl = slice(zero_idx * d, (zero_idx + 1) * d)
            zb = weight[sl, sl]
            zb_eigs = linalg.herm_eig(zb)[0]
        clusters.append(Cluster(ctr, mass, weight, zb, zb_eigs))
    clusters.sort(key=lambda c: -c.total_trace)

    deviation = None
    if len(clusters) == 2 and all(c.zero_block is not None for c in clusters):
        z1, z2 = clusters[0].zero_block, clusters[1].zero_block
        deviation = max(
            float(linalg.op_norm(z1 @ z1 - z1)),
            float(linalg.op_norm(z2 @ z2 - z2)),
            float(linalg.op_norm(z1 + z2 - np.eye(d))),
        )
    return StructureReport(clusters, deviation)
