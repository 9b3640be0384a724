"""Membership machinery for the discretized test-function cone.

A kernel K on a sample set belongs to the cone when it can be written as
sum_g (M_g - D_g M_g D_g*) with every M_g PSD, where g runs over a grid of
generator parameters and D_g is the diagonal of generator values.  Because
the D_g are diagonal, both the generator action and its adjoint are Hadamard
products, which keeps every projection in the solvers entrywise cheap; the
only nontrivial step is the eigendecomposition behind PSD projections and
margin checks, done batched across the grid.

Membership is decided from both sides:

* ``primal_feasibility`` searches for the measure itself by Dykstra
  alternating projections between the affine slab of exact representations
  and the product of PSD cones.  It can affirm membership (with the measure
  as witness) but never denies it.
* ``dual_search`` looks for a separating functional W with
  W - D_g* W D_g >= 0 across the grid but trace(W K) < 0.  Such a W is a
  checkable certificate of non-membership: squares make any cone element
  pair nonnegatively with W, so nothing in the cone can reach the target.

Both can come back empty-handed; ``Undecided``/``None`` is the honest third
outcome and the two positive outcomes exclude each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from neilcone import linalg
from neilcone.kernels import ExtendedPoint, MatrixKernel, SampleSet, generator_diag

GRID_EPS = 1e-8          # allowed margin slack on the problem grid
MIN_VIOLATION = 1e-4     # a certificate must beat the target by this much
PRIMAL_TOL = 1e-7        # residual at which a measure counts as exact
BLOCK_PSD_TOL = 1e-9     # PSD slack allowed on measure blocks
MERGE_DISTANCE = 0.05    # grid points this close aggregate into one cluster
DUST_TRACE = 1e-6        # clusters below this total trace are discarded


def default_grid(radii: int = 10, angles: int = 32) -> tuple[ExtendedPoint, ...]:
    """Infinity plus concentric rings of disk parameters.

    Radii sit at (j + 1/2)/radii, so the default ten rings run 0.05..0.95;
    boundary-adjacent parameters are redundant with infinity and excluded.
    """
    pts = [ExtendedPoint.infinity()]
    for j in range(radii):
        r = (j + 0.5) / radii
        for k in range(angles):
            pts.append(ExtendedPoint.disk(r * np.exp(2j * np.pi * k / angles)))
    return tuple(pts)


def validation_grid(radii: int = 64, angles: int = 128,
                    rmax: float = 0.999) -> tuple[ExtendedPoint, ...]:
    """Dense audit grid reaching almost to the boundary, plus infinity."""
    pts = [ExtendedPoint.infinity()]
    for j in range(radii):
        r = rmax * (j + 1.0) / radii
        for k in range(angles):
            pts.append(ExtendedPoint.disk(r * np.exp(2j * np.pi * k / angles)))
    return tuple(pts)


@dataclass
class ConeProblem:
    """A membership question: is ``target`` in the cone over ``grid``?"""

    sample_set: SampleSet
    block_dim: int
    grid: tuple[ExtendedPoint, ...]
    target: MatrixKernel
    generator_restriction: tuple[ExtendedPoint, ...] | None = None

    def __post_init__(self):
        if self.block_dim not in (1, 2):
            raise ValueError("block dimension must be 1 or 2")
        if self.target.block_dim != self.block_dim:
            raise ValueError("target block dimension does not match the problem")
        if self.target.sample_set.points != self.sample_set.points:
            raise ValueError("target lives on a different sample set")
        self.grid = tuple(self.grid)
        if self.generator_restriction is not None:
            self.generator_restriction = tuple(self.generator_restriction)
        if not self.effective_grid:
            raise ValueError("the generator grid is empty")
        if self.generator_restriction is None and not any(
            p.is_infinity for p in self.grid
        ):
            raise ValueError("an unrestricted grid must include infinity")

    @property
    def effective_grid(self) -> tuple[ExtendedPoint, ...]:
        if self.generator_restriction is not None:
            return self.generator_restriction
        return self.grid

    @property
    def dim(self) -> int:
        return len(self.sample_set) * self.block_dim


@dataclass
class DiscreteMeasure:
    """A matrix measure supported on finitely many generator parameters."""

    grid: tuple[ExtendedPoint, ...]
    blocks: np.ndarray  # (G, n, n), each PSD
    psd_tol: float = BLOCK_PSD_TOL

    def __post_init__(self):
        self.grid = tuple(self.grid)
        blocks = linalg.from_lower(np.asarray(self.blocks, dtype=complex))
        if blocks.ndim != 3 or blocks.shape[0] != len(self.grid):
            raise ValueError("need one square block per grid point")
        floor = np.min(linalg.min_eig_batch(blocks))
        scale = 1.0 + float(np.max(np.abs(blocks), initial=0.0))
        if floor < -self.psd_tol * scale:
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
    squares lie in the cone.
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
        if abs(float(np.real(np.trace(self.w))) - n) > 1e-6 * n:
            raise ValueError("certificate is not normalized to trace n")
        if self.grid_margin < -self.eps:
            raise ValueError(
                "certificate margin %.3e dips below -%.1e" % (self.grid_margin, self.eps)
            )
        if self.violation > -self.delta:
            raise ValueError(
                "certificate violation %.3e does not clear -%.1e"
                % (self.violation, self.delta)
            )
        if linalg.min_eig(self.w) < -self.eps * max(1.0, float(np.abs(self.w).max())):
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
class PrimalOptions:
    tol: float = PRIMAL_TOL
    max_iter: int = 20000
    psd_tol: float = BLOCK_PSD_TOL
    stall_window: int = 250
    stall_ratio: float = 0.98
    screen_iters: int = 400
    support_atoms: int = 8
    support_radius: float = 0.1
    support_iters: int = 4000
    support_threshold: int = 32
    scan_iters: int = 300
    scan_radius: float = 0.2
    scan_limit: int = 16


@dataclass
class DualOptions:
    eps: float = GRID_EPS
    delta: float = MIN_VIOLATION
    admm_iters: int = 3000
    admm_beta: float = 0.3
    admm_relax: float = 1.6
    admm_check: int = 50
    admm_stall: float = 1e-5
    polish_margin: float = 1e-5
    polish_iters: int = 2500
    deepen_factor: float = 1.6
    max_deepen: int = 6
    margin_floor: float = 1e-5
    working_limit: int = 48
    validation_radii: int = 64
    validation_angles: int = 128


@dataclass
class ValidationReport:
    worst_margin: float
    worst_point: ExtendedPoint
    modulus_estimate: float
    grid_size: int
    margins: np.ndarray


@dataclass
class Cluster:
    center: ExtendedPoint
    total_trace: float
    weight: np.ndarray
    zero_block: np.ndarray | None
    zero_block_eigs: np.ndarray | None


@dataclass
class StructureReport:
    clusters: list[Cluster]
    projection_deviation: float | None


@dataclass
class PickResult:
    status: str  # "feasible" | "infeasible" | "undecided"
    measure: DiscreteMeasure | None = None
    certificate: DualCertificate | None = None
    residual: float | None = None


def _generator_data(grid, samples: SampleSet, block_dim: int):
    """Generator diagonals and Hadamard coefficients A_g = 1 - d d*.

    (M_g - D_g M_g D_g*)_{ij} = A_g[i, j] * (M_g)_{ij}; the adjoint that
    shows up in dual margins uses conj(A_g).
    """
    diags = np.stack([generator_diag(p, samples, block_dim) for p in grid])
    return diags, 1.0 - diags[:, :, None] * np.conj(diags[:, None, :])


def _apply_coefs(grid, samples: SampleSet, block_dim: int) -> np.ndarray:
    return _generator_data(grid, samples, block_dim)[1]


def apply_generators(measure: DiscreteMeasure, problem: ConeProblem) -> MatrixKernel:
    """Assemble sum_g (M_g - D_g M_g D_g*) as a flat kernel."""
    coefs = _apply_coefs(measure.grid, problem.sample_set, problem.block_dim)
    flat = np.einsum("gij,gij->ij", coefs, measure.blocks)
    return MatrixKernel(problem.sample_set, problem.block_dim, flat)


def margins(w: np.ndarray, coefs: np.ndarray, sweep_tol: float = 1e-14) -> np.ndarray:
    """min_eig(W - D_g* W D_g) for every generator, as one batched solve."""
    stack = w[None, :, :] * np.conj(coefs)
    return linalg.herm_eigvals_batch(stack, sweep_tol=sweep_tol)[:, 0]


def primal_feasibility(problem: ConeProblem,
                       opts: PrimalOptions | None = None) -> Feasible | Undecided:
    """Search for a representing measure by alternating projections.

    Dykstra between the affine slab of exact representations and the product
    of PSD cones; the slab projection is entrywise closed-form because the
    generator action is a Hadamard product.  Returns Feasible only after
    re-checking, at full precision, that the blocks are PSD and reproduce
    the target; anything else is Undecided, never a claim of infeasibility.

    Every solve stops at the first checked measure: on a large grid that
    can be the screen, a one-candidate scan, a support solve or the
    full-grid fallback, and the measure lives on the grid of whichever
    solve found it.  A solve that finds none stops at its stall rule or its
    budget (see ``_dr_run``).
    """
    opts = opts or PrimalOptions()
    grid = problem.effective_grid
    coefs = _apply_coefs(grid, problem.sample_set, problem.block_dim)
    k_hat = problem.target.flat

    if len(grid) <= opts.support_threshold:
        blocks, best, _z, it = _dr_run(coefs, k_hat, None, opts.max_iter, opts)
        if blocks is not None:
            return Feasible(DiscreteMeasure(grid, blocks, psd_tol=opts.psd_tol),
                            best)
        return Undecided(best, it)

    # Large grids: the least-norm affine step spreads every correction over
    # all generators at once, so the splitting crawls and its mass profile
    # only locates atoms to within a grid cell or two.  Instead of trusting
    # the profile, grow a support greedily: around each screened peak, give
    # every neighboring grid point a brief restricted solve and keep the one
    # that actually drives the residual down (the right atom collapses it,
    # wrong ones stall high).  A measure on a subgrid is a measure for the
    # problem, so a scan that already returns checked blocks ends the search
    # on its own subgrid.  Fall back to the full grid with the leftover
    # budget.
    blocks, best, z, spent = _dr_run(coefs, k_hat, None, opts.screen_iters,
                                     opts)
    if blocks is not None:
        return Feasible(DiscreteMeasure(grid, blocks, psd_tol=opts.psd_tol),
                        best)
    screened = linalg.psd_project_batch(linalg.hermitian_part(z))
    mass = np.real(np.einsum("gii->g", screened))
    pts = np.array([complex(np.inf) if p.is_infinity else p.point
                    for p in grid])
    finite = np.isfinite(pts)
    inf_idx = [i for i, p in enumerate(grid) if p.is_infinity][:1]
    atoms: list[int] = []
    while len(atoms) < opts.support_atoms:
        open_mass = np.where(finite, mass, -math.inf)
        for i in atoms:
            open_mass[np.abs(pts - pts[i]) <= opts.support_radius] = -math.inf
        peak = int(np.argmax(open_mass))
        if not math.isfinite(open_mass[peak]) or open_mass[peak] <= 0.0:
            break
        # Scan the peak's neighborhood one candidate at a time, without the
        # flat generator: its overlap with everything slows the short runs
        # down uniformly and buries the signal, while a lone right atom
        # collapses the residual within the scan budget.
        candidates = [
            i for i in np.flatnonzero(
                np.abs(pts - pts[peak]) <= opts.scan_radius)
            if i not in atoms
        ]
        candidates.sort(key=lambda i: -mass[i])
        del candidates[opts.scan_limit:]
        if not candidates:
            break
        scans = []
        for i in candidates:
            blocks, res, _, it = _dr_run(coefs[atoms + [i]], k_hat, None,
                                         opts.scan_iters, opts)
            spent += it
            if blocks is not None:
                sub_grid = tuple(grid[j] for j in atoms + [i])
                return Feasible(
                    DiscreteMeasure(sub_grid, blocks, psd_tol=opts.psd_tol),
                    res)
            scans.append((res, i))
        atoms.append(min(scans)[1])
        sel = inf_idx + atoms
        sub_grid = tuple(grid[i] for i in sel)
        blocks, sub_best, _z, it = _dr_run(coefs[sel], k_hat, None,
                                           opts.support_iters, opts)
        spent += it
        if blocks is not None:
            return Feasible(
                DiscreteMeasure(sub_grid, blocks, psd_tol=opts.psd_tol),
                sub_best)
    remaining = opts.max_iter - spent
    if remaining > 0:
        blocks, full_best, _z, it = _dr_run(coefs, k_hat, z, remaining, opts)
        spent += it
        best = min(best, full_best)
        if blocks is not None:
            return Feasible(DiscreteMeasure(grid, blocks, psd_tol=opts.psd_tol),
                            full_best)
    return Undecided(best, spent)


def _dr_run(coefs, k_hat, z, max_iter, opts: PrimalOptions):
    """Douglas-Rachford on (affine slab, product PSD cone).

    The PSD-side iterate is always an honest measure candidate whose only
    defect is the affine residual, which the splitting drives to the
    distance between the sets (zero exactly when a measure exists).
    Stops at the first iterate whose residual is within ``opts.tol`` and
    whose blocks pass the PSD check, at the stall rule (checked from
    iteration 2 * stall_window on) or after ``max_iter`` iterations.
    Returns (feasible_blocks_or_None, best_residual, z_state, iterations).
    """
    conj_coefs = np.conj(coefs)
    denom = np.sum(np.abs(coefs) ** 2, axis=0)  # strictly positive entrywise
    if z is None:
        z = np.zeros_like(coefs)
    best = math.inf
    history: list[float] = []
    it = 0
    for it in range(1, max_iter + 1):
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
        if residual <= opts.tol:
            floor = float(np.min(linalg.min_eig_batch(y)))
            scale = 1.0 + float(np.max(np.abs(y), initial=0.0))
            if floor >= -opts.psd_tol * scale:
                return y, residual, z, it
        # Stall rule: give up only when a whole window brought less than a
        # (1 - stall_ratio) relative improvement; slow steady linear decay
        # at that rate cannot reach tol within the iteration cap anyway.
        # With the default 250-iteration window the first check falls at
        # iteration 500; infeasible runs are flat to three digits by then.
        if (
            it >= 2 * opts.stall_window
            and history[-1] > opts.stall_ratio * history[-opts.stall_window]
        ):
            break
    return None, best, z, it


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


def _dual_polish(w0, sigma_hat, conj_coefs, trace_target, v_target, margin_floor,
                 opts: DualOptions):
    """Dykstra refinement: margins >= margin_floor, trace(W Sigma) <= v_target.

    Cycles three sets in product space: the affine slab tying Y_g to W with
    trace W = n, the PSD product cone (W itself and every Y_g - margin I),
    and the violation halfspace.  Corrections are kept for the two non-affine
    sets.  Returns the polished W or None when the target violation is not
    reachable (distance plateau).

    The plateau test runs every 200 iterations from iteration 600 on and
    gives up when the cone step's gap is still above 0.8 of its value 400
    iterations earlier; a polish that will succeed shrinks it far faster.
    """
    g, n = conj_coefs.shape[0], conj_coefs.shape[1]
    denom_s = 1.0 + np.sum(np.abs(conj_coefs) ** 2, axis=0)
    sig_norm2 = float(np.sum(np.abs(sigma_hat) ** 2))
    if sig_norm2 == 0.0:
        return None
    w = w0.copy()
    ys = w[None, :, :] * conj_coefs
    corr_cone_w = np.zeros_like(w)
    corr_cone_y = np.zeros_like(ys)
    corr_half = np.zeros_like(w)
    eye = np.eye(n)
    gap_hist: list[float] = []
    for it in range(1, opts.polish_iters + 1):
        w, ys = _project_affine(w, ys, conj_coefs, denom_s, trace_target)
        if it % 25 == 0:
            # The affine-projected W satisfies the equality constraints
            # exactly; accept once its actual margins and violation clear
            # usable fractions of the requested floors.
            viol = float(np.real(np.sum(w * np.conj(sigma_hat))))
            if viol <= v_target + 0.1 * abs(v_target):
                mins = margins(w, np.conj(conj_coefs), sweep_tol=1e-11)
                scale = 1.0 + float(np.abs(w).max())
                if (
                    float(np.min(mins)) >= 0.25 * margin_floor
                    and linalg.min_eig(w) >= -1e-9 * scale
                ):
                    return linalg.from_lower(w)

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

        gap_hist.append(gap)
        if it >= 600 and it % 200 == 0:
            old = gap_hist[it - 400]
            if gap > 1e-8 * n and gap > 0.8 * old:
                return None  # plateau: the requested violation is unreachable
    w, ys = _project_affine(w, ys, conj_coefs, denom_s, trace_target)
    viol = float(np.real(np.sum(w * np.conj(sigma_hat))))
    mins = margins(w, np.conj(conj_coefs), sweep_tol=1e-11)
    if viol <= v_target + 0.1 * abs(v_target) and float(np.min(mins)) >= 0.0:
        return linalg.from_lower(w)
    return None


def _coarse_seed(grid, limit: int) -> list:
    """Thin a generator grid to at most ``limit`` points, keeping infinity.

    The working constraint set stays small because margins vary smoothly in
    the parameter; feasibility over the full family is restored afterwards
    by mixing with the identity and re-audited on the dense grid.
    """
    inf_pts = [p for p in grid if p.is_infinity]
    finite = [p for p in grid if not p.is_infinity]
    room = max(limit - len(inf_pts[:1]), 1)
    stride = max(1, -(-len(finite) // room))
    return inf_pts[:1] + finite[::stride]


def _admm_min_violation(sigma_hat, conj_coefs, n, opts: DualOptions):
    """Approximately minimize trace(W K) over the dual cone by ADMM.

    Splitting: W against slack copies S_0 = W and S_g = W - D_g* W D_g, all
    constrained PSD, with trace W = n.  The W-update is an entrywise least
    squares (the generator action is a Hadamard product) plus a rank-one
    trace correction; the slack update is one batched PSD projection.  Over-
    relaxation and residual balancing are standard accelerants.  First-order
    accuracy is all that is needed here: the result seeds a feasibility
    polish and an identity-mixing step that restore exact constraints.
    """
    beta = opts.admm_beta
    relax = opts.admm_relax
    denom_s = 1.0 + np.sum(np.abs(conj_coefs) ** 2, axis=0)
    inv_diag = 1.0 / np.real(np.diagonal(denom_s))
    inv_diag_sum = float(np.sum(inv_diag))
    w = np.eye(n, dtype=complex)
    s = np.concatenate([w[None], w[None, :, :] * conj_coefs], axis=0)
    u = np.zeros_like(s)
    last_viol = math.inf
    for it in range(1, opts.admm_iters + 1):
        sm = s - u
        rhs = sm[0] + np.einsum("gij,gij->ij", np.conj(conj_coefs), sm[1:])
        rhs -= sigma_hat / beta
        w = rhs / denom_s
        mu = (n - float(np.real(np.trace(w)))) / inv_diag_sum
        w = linalg.hermitian_part(w + np.diag(mu * inv_diag))
        ax = np.concatenate([w[None], w[None, :, :] * conj_coefs], axis=0)
        ax_r = relax * ax + (1.0 - relax) * s
        s_old = s
        s = linalg.psd_project_batch(ax_r + u)
        u = u + ax_r - s
        if it % opts.admm_check == 0:
            viol = float(np.real(np.sum(w * np.conj(sigma_hat))))
            if abs(viol - last_viol) < opts.admm_stall * max(1.0, abs(viol)):
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
    return w


def _mixed_with_identity(w, sigma_hat, audit_coefs, margin_identity,
                         floor: float):
    """Blend W toward I until audit margins clear ``floor`` uniformly.

    margins are concave under mixing: margin((1-t)W + tI) >=
    (1-t) margin(W) + t margin(I), and margin(I) >= 1 - max|x|^4 is large,
    so a small t buys a uniform floor at a proportional violation cost.
    Returns (w_mixed, audit_margins, violation).
    """
    n = w.shape[0]
    vals = margins(w, audit_coefs)
    worst = float(np.min(vals))
    if worst >= floor:
        viol = float(np.real(np.sum(w * np.conj(sigma_hat))))
        return w, vals, viol
    deficit = floor - worst
    t = deficit / (float(np.min(margin_identity)) - worst)
    t = min(max(t, 0.0), 1.0)
    mixed = (1.0 - t) * w + t * np.eye(n)
    vals = margins(mixed, audit_coefs)
    viol = float(np.real(np.sum(mixed * np.conj(sigma_hat))))
    return mixed, vals, viol


def dual_search(problem: ConeProblem,
                opts: DualOptions | None = None) -> DualCertificate | None:
    """Look for a separating functional for the target.

    Stages: (1) ADMM approximately minimizes trace(W K) over the dual cone
    on a thinned working constraint set; (2) the iterate is made exactly
    PSD, renormalized, and mixed slightly toward the identity, whose margin
    is uniformly large, which converts approximate feasibility into a
    strict uniform margin over the dense audit grid; (3) a Dykstra polish
    re-tightens the violation and a greedy deepening loop pushes it as far
    as repeated polishes allow; (4) the final candidate is re-audited and
    re-mixed, and only a candidate passing every certificate invariant is
    returned.  Returns None when no certificate emerges; that outcome never
    claims membership.
    """
    opts = opts or DualOptions()
    samples = problem.sample_set
    d = problem.block_dim
    n = problem.dim
    sigma_hat = problem.target.flat
    if float(np.linalg.norm(sigma_hat)) < 1e-14:
        return None

    if problem.generator_restriction is not None:
        audit_grid = list(problem.effective_grid)
    else:
        # The problem grid joins the audit so certificate margins cover the
        # parameters measures can actually charge, not just the dense rings.
        dense = validation_grid(opts.validation_radii, opts.validation_angles)
        audit_grid = list(problem.effective_grid) + [
            p for p in dense if not p.is_infinity
        ]
        if not any(p.is_infinity for p in audit_grid):
            audit_grid.insert(0, ExtendedPoint.infinity())
    audit_diags, audit_coefs = _generator_data(audit_grid, samples, d)
    margin_identity = 1.0 - np.max(np.abs(audit_diags) ** 2, axis=1)

    work_grid = _coarse_seed(problem.effective_grid, opts.working_limit)
    conj_coefs = np.conj(_apply_coefs(work_grid, samples, d))

    w = _admm_min_violation(sigma_hat, conj_coefs, n, opts)
    w = linalg.psd_project(w)
    tr = float(np.real(np.trace(w)))
    if tr < 1e-9 * n:
        return None
    w *= n / tr

    w, audit_vals, viol = _mixed_with_identity(
        w, sigma_hat, audit_coefs, margin_identity, opts.margin_floor
    )
    if viol > -opts.delta:
        return None
    best = (w, float(np.min(audit_vals)), viol)

    polished = _dual_polish(w, sigma_hat, conj_coefs, n, viol * 1.05,
                            opts.polish_margin, opts)
    if polished is not None:
        v_cur = float(np.real(np.sum(polished * np.conj(sigma_hat))))
        w_cur = polished
        for _ in range(opts.max_deepen):
            deeper = _dual_polish(w_cur, sigma_hat, conj_coefs, n,
                                  v_cur * opts.deepen_factor,
                                  opts.polish_margin, opts)
            if deeper is None:
                break
            w_cur = deeper
            v_cur = float(np.real(np.sum(w_cur * np.conj(sigma_hat))))
        w2, audit2, viol2 = _mixed_with_identity(
            w_cur, sigma_hat, audit_coefs, margin_identity, opts.margin_floor
        )
        if viol2 <= -opts.delta and float(np.min(audit2)) >= -opts.eps:
            if viol2 < best[2]:
                best = (w2, float(np.min(audit2)), viol2)

    w_fin, worst, violation = best
    scale = 1.0 + float(np.abs(w_fin).max())
    if (worst < -opts.eps or violation > -opts.delta
            or linalg.min_eig(w_fin) < -opts.eps * scale):
        return None
    return DualCertificate(
        w=w_fin,
        grid_margin=worst,
        violation=violation,
        validation_grid_size=len(audit_grid),
        eps=opts.eps,
        delta=opts.delta,
    )


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
    if fine_grid is None:
        if problem.generator_restriction is not None:
            pts = list(problem.effective_grid)
        else:
            pts = list(validation_grid(radii, angles))
    else:
        pts = list(fine_grid)
    vals = margins(cert.w, _apply_coefs(pts, problem.sample_set,
                                        problem.block_dim))
    worst = int(np.argmin(vals))
    if structured:
        rect = vals[1:].reshape(radii, angles)
        radial = np.abs(np.diff(rect, axis=0))
        angular = np.abs(rect - np.roll(rect, 1, axis=1))
        mod = float(max(radial.max(initial=0.0), angular.max(initial=0.0)))
    else:
        mod = float(np.max(np.abs(np.diff(vals)))) if len(vals) > 1 else 0.0
    return ValidationReport(float(vals[worst]), pts[worst], mod, len(pts), vals)


def pick_check(nodes, targets, restriction=None,
               primal_opts: PrimalOptions | None = None,
               dual_opts: DualOptions | None = None) -> PickResult:
    """Scalar interpolation check: is 1 - w w* representable on the nodes?

    Runs the primal search first and falls back to the dual; an affirmative
    from either side is decisive, anything else is undecided.
    """
    samples = SampleSet(tuple(nodes))
    w = np.asarray(targets, dtype=complex)
    if w.shape != (len(samples),):
        raise ValueError("need exactly one target value per node")
    flat = 1.0 - w[:, None] * np.conj(w)[None, :]
    problem = ConeProblem(
        sample_set=samples,
        block_dim=1,
        grid=default_grid(),
        target=MatrixKernel(samples, 1, flat),
        generator_restriction=restriction,
    )
    primal = primal_feasibility(problem, primal_opts)
    if isinstance(primal, Feasible):
        return PickResult("feasible", measure=primal.measure,
                          residual=primal.residual)
    cert = dual_search(problem, dual_opts)
    if cert is not None:
        return PickResult("infeasible", certificate=cert)
    return PickResult("undecided", residual=primal.residual)


def recover_structure(measure: DiscreteMeasure, problem: ConeProblem,
                      merge_distance: float = MERGE_DISTANCE,
                      dust: float = DUST_TRACE) -> StructureReport:
    """Cluster a measure's support and summarize the aggregated weights.

    Grid points carrying mass merge greedily when within ``merge_distance``
    in the disk (infinity only merges with itself); clusters below ``dust``
    total trace are dropped.  For each cluster the report aggregates the
    full weight matrix and, when 0 is a sample point, the block at (0, 0),
    whose eigenvalues expose rank-one projection structure.  When exactly
    two clusters survive, ``projection_deviation`` measures how far the two
    zero-blocks are from complementary projections: the largest of each
    block's distance from its own square (idempotency defect) and the
    deviation of their sum from the identity.
    """
    tr = np.real(np.einsum("gii->g", measure.blocks))
    order = np.argsort(-tr, kind="stable")
    centers: list[complex | None] = []
    members: list[list[int]] = []
    masses: list[float] = []
    for idx in order:
        if tr[idx] <= 0.0:
            continue
        p = measure.grid[idx]
        key = None if p.is_infinity else p.point
        placed = False
        for c, (ctr, mass) in enumerate(zip(centers, masses)):
            if key is None or ctr is None:
                if key is None and ctr is None:
                    members[c].append(idx)
                    masses[c] += tr[idx]
                    placed = True
                    break
                continue
            if abs(key - ctr) <= merge_distance:
                members[c].append(idx)
                new_mass = mass + tr[idx]
                centers[c] = (ctr * mass + key * tr[idx]) / new_mass
                masses[c] = new_mass
                placed = True
                break
        if not placed:
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
        if mass < dust:
            continue
        weight = np.sum(measure.blocks[mem], axis=0)
        zb = None
        zb_eigs = None
        if zero_idx is not None:
            sl = slice(zero_idx * d, (zero_idx + 1) * d)
            zb = weight[sl, sl]
            zb_eigs = linalg.herm_eig(zb)[0]
        point = ExtendedPoint.infinity() if ctr is None else ExtendedPoint.disk(ctr)
        clusters.append(Cluster(point, mass, weight, zb, zb_eigs))
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
