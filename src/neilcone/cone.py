"""Membership machinery for the discretized test-function cone.

A kernel K on a sample set belongs to the cone when it can be written as
sum_g (M_g - D_g M_g D_g*) with every M_g PSD, where g runs over a grid of
generator parameters and D_g is the diagonal of generator values.  Because
the D_g are diagonal, both the generator action and its adjoint are Hadamard
products, which keeps every projection in the solvers entrywise cheap; the
only nontrivial step is the eigendecomposition behind PSD projections and
margin checks, done batched over the grid in fixed blocks of
``linalg.GRID_BLOCK`` generators.

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
  An unrestricted problem makes one interior-point solve (``_sdp``) of a
  level-1 sum-of-squares program that keeps W's margins nonnegative on
  the whole closed disk; ADMM and a Dykstra polish serve restricted
  problems only.

Both can come back empty-handed; ``Undecided``/``None`` is the honest third
outcome and the two positive outcomes exclude each other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from neilcone import linalg
from neilcone.kernels import MatrixKernel, SampleSet, extended_points, test_fn

GRID_EPS = 1e-8          # allowed margin slack on the problem grid
MIN_VIOLATION = 1e-4     # a certificate must beat the target by this much
PRIMAL_TOL = 1e-7        # residual at which a measure counts as exact
BLOCK_PSD_TOL = 1e-9     # measure blocks: eigenvalues >= -tol (1 + max|entry|)
MERGE_DISTANCE = 0.05    # grid points this close aggregate into one cluster
DUST_TRACE = 1e-6        # clusters below this total trace are discarded
AUDIT_RADIUS = 0.999     # outermost ring of the dense audit grid

# Primal search (Douglas-Rachford); see ``primal_feasibility``.
PRIMAL_MAX_ITER = 20000  # iteration cap of the one splitting run
STALL_WINDOW = 250       # stall rule window (see ``_dr_run``)
STALL_RATIO = 0.98       # stall rule: less than 2% gain per window

# Dual search settings: ADMM and the Dykstra polish (restricted problems),
# the interior-point cap (unrestricted problems) and identity mixing.
ADMM_ITERS = 3000
ADMM_BETA = 0.3          # initial penalty, rebalanced every ADMM_CHECK
ADMM_RELAX = 1.6         # over-relaxation
ADMM_CHECK = 50          # iterations between the stop tests below
ADMM_STALL = 1e-5        # relative violation change that ends ADMM
# The gain a polish must be able to make (see ``_gain_unreachable``).  ADMM
# also ends at the first check where its weak-duality floor L shows that no
# W in the restriction's dual cone beats the violation of its feasible
# iterate by this factor: later iterations could then buy at most that gap.
POLISH_GAIN = 1.05
POLISH_MARGIN = 1e-5     # margin floor the polish enforces on the work grid
POLISH_ITERS = 2500
MARGIN_FLOOR = 1e-5      # audit margin that identity mixing restores
SDP_ITERS = 100          # iteration cap of the interior-point solver


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
    ``np.inf`` for the z^2 generator.  ``audit_grid`` is the one set of
    generators every certificate of the problem is checked on; its dense
    rings are ``validation_radii`` x ``validation_angles``.
    """

    sample_set: SampleSet
    block_dim: int
    grid: np.ndarray
    target: MatrixKernel
    generator_restriction: np.ndarray | None = None
    validation_radii: int = 64
    validation_angles: int = 128

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
        # The audit grid is first read after the search has run.
        if (self.generator_restriction is None
                and min(self.validation_radii, self.validation_angles) < 1):
            raise ValueError("the audit rings need at least one radius and "
                             "one angle")

    @property
    def effective_grid(self) -> np.ndarray:
        if self.generator_restriction is not None:
            return self.generator_restriction
        return self.grid

    @property
    def audit_grid(self) -> np.ndarray:
        """The restriction; otherwise the grid, which holds infinity, then
        the finite points of the dense rings (see ``validation_grid``)."""
        if self.generator_restriction is not None:
            return self.generator_restriction
        dense = validation_grid(self.validation_radii, self.validation_angles)
        return np.concatenate([self.grid, dense[1:]])

    @property
    def dim(self) -> int:
        return len(self.sample_set) * self.block_dim


def _blocks_psd(blocks) -> bool:
    """The PSD rule of measure blocks, which NaN fails."""
    floor = float(np.min(linalg.herm_eigvals_batch(blocks)[:, 0]))
    scale = 1.0 + float(np.max(np.abs(blocks), initial=0.0))
    return floor >= -BLOCK_PSD_TOL * scale


def _functional_psd(w, eps: float) -> bool:
    """The PSD rule of a functional W, which NaN fails:
    min_eig(W) >= -eps max(1, max|W|)."""
    floor = float(linalg.herm_eigvals_batch(w[None])[0, 0])
    return floor >= -eps * max(1.0, float(np.abs(w).max()))


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
        if not _blocks_psd(blocks):
            raise ValueError("measure block is not PSD within tolerance")
        self.blocks = blocks

    def total_trace(self) -> float:
        return float(np.real(np.trace(self.blocks, axis1=1, axis2=2)).sum())


@dataclass
class DualCertificate:
    """A separating functional, stored with its audit numbers.

    ``grid_margin`` is a proven lower bound, up to rounding, on every
    min-eigenvalue of W - D* W D over the problem's audit grid, of
    ``validation_grid_size`` generators (see ``_mixed_with_identity``);
    for an unrestricted problem it holds on the whole closed disk and at
    infinity (``_sos_margin_bound``).  ``violation`` is trace(W K).
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
        if not _functional_psd(self.w, self.eps):
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
    modulus_estimate: float | None
    grid_size: int


@dataclass
class Cluster:
    center: complex  # inf for the z^2 generator
    total_trace: float
    weight: np.ndarray
    zero_block: np.ndarray | None


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


def _identity_margin(coefs: np.ndarray) -> float:
    """The identity's margin over ``coefs``: the least diagonal entry of
    the A_g, that is 1 - max |d_gi|^2."""
    return float(np.min(np.real(np.einsum("gii->gi", coefs))))


def _stack_audit(coefs: np.ndarray):
    """The ``audit`` of ``_mixed_with_identity`` over coefficients already
    in memory (a restriction's generators)."""
    identity = _identity_margin(coefs)
    return lambda w: (margins(w, coefs), identity)


def _audit_margins(w: np.ndarray, problem: ConeProblem):
    """``margins`` of W over ``problem.audit_grid``, and the identity's.

    A_g is built and solved ``linalg.GRID_BLOCK`` generators at a time, so
    no array spans the audit grid.  ``margins`` acts matrix by matrix, so
    the values equal those of one full-stack call bit for bit.
    Returns (margins, identity margin).
    """
    grid = problem.audit_grid
    step = linalg.GRID_BLOCK
    vals, identity = [], math.inf
    for start in range(0, len(grid), step):
        coefs = _generator_data(grid[start:start + step], problem.sample_set,
                                problem.block_dim)[1]
        vals.append(margins(w, coefs))
        identity = min(identity, _identity_margin(coefs))
    return np.concatenate(vals), identity


def primal_feasibility(problem: ConeProblem,
                       tol: float = PRIMAL_TOL) -> Feasible | Undecided:
    """Search for a representing measure, one atom first, then by splitting.

    The exact first step: a measure with one atom g represents K only as
    M = K / A_g entrywise, so the floors of all those matrices, taken in
    one batched eigenvalue call, decide every one-atom case.  The first
    generator in grid order whose matrix passes ``_blocks_psd`` alone, and
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
    floors = linalg.herm_eigvals_batch(single)[:, 0]
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

    W = -from_lower(theta), which reads only theta's lower triangle,
    normalized to trace n and mixed toward I until its margins over
    ``coefs`` clear MARGIN_FLOOR (see ``_mixed_with_identity``).
    Returned only when every margin is >= 0 and
    trace(W K) < -tol ||W||_F - MIN_VIOLATION; ``_dr_run`` states what that
    proves.
    """
    w = -linalg.from_lower(theta)
    tr = float(np.real(np.trace(w)))
    if not tr > 0.0:
        return None
    w *= w.shape[0] / tr
    w, margin, viol = _mixed_with_identity(w, k_hat, _stack_audit(coefs),
                                           MARGIN_FLOOR)
    if (margin >= 0.0
            and viol < -tol * float(np.linalg.norm(w)) - MIN_VIOLATION):
        return w
    return None


def _dr_run(coefs, k_hat, tol):
    """Douglas-Rachford on (affine slab, product PSD cone) over ``coefs``.

    The PSD-side iterate is always an honest measure candidate whose only
    defect is the affine residual, which the splitting drives to the
    distance between the sets (zero exactly when a measure exists).
    The PSD step projects each block of 2x - z as ``psd_project_batch``
    does, reading only its lower triangle.
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
        y = linalg.psd_project_batch(2.0 * x - z)
        z = z + y - x
        residual = float(
            np.linalg.norm(np.einsum("gij,gij->ij", coefs, y) - k_hat)
        )
        best = min(best, residual)
        history.append(best)
        if residual <= tol and _blocks_psd(y):
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


def _dual_polish(w0, sigma_hat, conj_coefs, trace_target, v_target, margin):
    """Anytime Dykstra search for W with trace(W Sigma) near ``v_target``.

    Cycles three sets in product space: the affine slab tying Y_g to W with
    trace W = n, the PSD product cone (W itself and every Y_g - margin I),
    and the violation halfspace.  Corrections are kept for the two non-affine
    sets.  Every 25 iterations the affine-projected W is mixed toward I until
    its margins over the work grid clear 0.25 ``margin`` (see
    ``_mixed_with_identity``), and the mix is kept when it is PSD and pairs
    lower with Sigma than the best so far (``w0`` at the start).  PSD means
    ``DualCertificate``'s rule at its default eps, so every mix the polish
    keeps passes that gate's PSD test.

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
    audit = _stack_audit(np.conj(conj_coefs))
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
            mixed, mixed_margin, viol = _mixed_with_identity(
                w, sigma_hat, audit, 0.25 * margin)
            if (viol < best_viol
                    and mixed_margin >= 0.25 * margin
                    and _functional_psd(mixed, GRID_EPS)):
                best, best_viol = linalg.from_lower(mixed), viol
                if viol <= v_target + 0.1 * abs(v_target):
                    return best

        shifted_w = w + corr_cone_w
        shifted_y = ys + corr_cone_y
        stack = np.concatenate(
            [shifted_w[None], shifted_y - margin * eye[None]], axis=0
        )
        proj = linalg.psd_project_batch(stack)
        new_w = proj[0]
        new_y = proj[1:] + margin * eye[None]
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


def _gain_unreachable(viol: float, floor: float) -> bool:
    """True when no W pairing at or above ``floor`` beats ``viol`` by the
    factor POLISH_GAIN; the slack GRID_EPS |floor| absorbs the rounding in
    the floor.  Never true for viol >= 0 when floor <= viol, as weak
    duality gives for a feasible W."""
    return POLISH_GAIN * viol < floor - GRID_EPS * abs(floor)


def _trace_normalized_psd(w, n: int):
    """W made exactly PSD by projection and scaled to trace n, or None when
    the projection's trace is below 1e-9 n."""
    w = linalg.psd_project_batch(w[None])[0]
    tr = float(np.real(np.trace(w)))
    if tr < 1e-9 * n:
        return None
    return w * (n / tr)


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
    minus its PSD projection).  For every W in the dual cone over these
    generators (W PSD with trace n, every W o conj(A_g) PSD):
    trace(W K) >= trace(W K) - sum_g <Z_g, W o conj(A_g)>
    = <W, K - sum_g A_g o Z_g> >= n lambda_min(K - sum_g A_g o Z_g) = L.
    L is exact up to the eigensolver's rounding of Z_g and of lambda_min,
    whatever the ADMM iterate has converged to.

    Stop rules, tested every ADMM_CHECK iterations, first to fire wins:
    (1) the duality gap: the iterate is made feasible as ``dual_search``
    does it (``_trace_normalized_psd``, then ``_mixed_with_identity`` until
    every margin over these generators is >= 0), which puts its violation v
    in that dual cone, so L <= v; when ``_gain_unreachable(v, L)``, no
    W there beats v by POLISH_GAIN, so further iterations could buy at most
    that gap, the same gap ``dual_search``'s polish gate gives up;
    (2) the stall rule, a relative change of the violation below
    ADMM_STALL between checks; (3) the cap ADMM_ITERS.
    """
    beta = ADMM_BETA
    denom_s = 1.0 + np.sum(np.abs(conj_coefs) ** 2, axis=0)
    audit = _stack_audit(np.conj(conj_coefs))

    def floor():
        slack = np.einsum("gij,gij->ij", np.conj(conj_coefs), u[1:])
        return n * float(linalg.herm_eigvals_batch(
            (sigma_hat + beta * slack)[None])[0, 0])

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
            feasible = _trace_normalized_psd(w, n)
            if feasible is not None:
                lower = floor()
                if _gain_unreachable(_mixed_with_identity(
                        feasible, sigma_hat, audit, 0.0)[2], lower):
                    return w, lower
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
    return w, floor()


def _mixed_with_identity(w, sigma_hat, audit, floor: float):
    """Blend W toward I until audit margins clear ``floor`` uniformly.

    ``audit(W)`` returns lower bounds on W's margins over the audit set and
    on the identity's margin there; it runs once, on W.  Those are the
    exact margins over a restriction (``_stack_audit``, ``_audit_margins``),
    or, for an unrestricted search, the SOS residual bound and 1 - r^4,
    which hold on the whole closed disk and at infinity
    (``_sos_margin_bound``).  Margins are concave under mixing:
    margin((1-t)W + tI) >= (1-t) margin(W) + t margin(I), and margin(I),
    the least diagonal entry of the A_g (at least 1 - max|x|^4), is large,
    so a small t buys a uniform floor at a proportional violation cost.
    At the t chosen here that bound is ``floor`` on every audit generator,
    so the mix is not audited again.
    Returns (w_mixed, margin, violation), where margin is a proven lower
    bound on every audit margin of w_mixed: W's least margin (or its
    bound) when no mix is needed (or none raises the bound,
    margin(I) <= margin(W)), ``floor`` itself after a mix with t < 1 (not
    the rounded bound, which may land an ulp below it), and margin(I) at
    t = 1.
    """
    vals, margin_identity = audit(w)
    worst = float(np.min(vals))
    if worst >= floor or margin_identity <= worst:
        return w, worst, float(np.real(np.sum(w * np.conj(sigma_hat))))
    t = min((floor - worst) / (margin_identity - worst), 1.0)
    margin = floor if t < 1.0 else margin_identity
    mixed = (1.0 - t) * w + t * np.eye(w.shape[0])
    return mixed, margin, float(np.real(np.sum(mixed * np.conj(sigma_hat))))


def _herm(a):
    return 0.5 * (a + a.conj().T)


def _lower_inverse(low):
    """Invert a lower-triangular matrix in place, by halves: the inverse
    of [[A, 0], [B, C]] is [[A^-1, 0], [-C^-1 B A^-1, C^-1]].  Below 64
    rows LAPACK inverts directly; above, the work is matrix products."""
    h = len(low) // 2
    if h < 32:
        low[...] = np.linalg.inv(low)
    else:
        a = _lower_inverse(low[:h, :h])
        c = _lower_inverse(low[h:, h:])
        low[h:, :h] = -c @ (low[h:, :h] @ a)
    return low


class _Rows:
    """The rows of an ``_sdp`` problem, read from its Hadamard equations.

    ``rows`` is a list of equations (kind, size, terms) over a size x size
    grid of entries (a, c).  Each term (block, row offset, column offset,
    coefficient), the coefficient a scalar or a size x size array, adds
    coefficient[a, c] X_block[row offset + a, column offset + c] to entry
    (a, c), and the rows read the summed grid E: a "hermitian" equation
    (one whose E is Hermitian on Hermitian blocks) has a row for the real
    part of every entry on and below the diagonal, then one for the
    imaginary part of every entry below it, row-major; a "full" equation
    has the real part of every entry, then the imaginary part of every
    entry; a "sum" equation has the one row Re sum_ac E[a, c].
    ``sizes`` are the block sizes.
    """

    def __init__(self, rows, sizes):
        self.sizes = sizes
        # (first row, size, terms, selection): a selection indexes a grid's
        # real parts followed by its imaginary parts; a sum has none.
        self.eqs = []
        start = 0
        for kind, size, terms in rows:
            terms = [(k, ro, co, np.asarray(coef, dtype=complex))
                     for k, ro, co, coef in terms]
            sel = None
            if kind != "sum":
                r, c = np.divmod(np.arange(size * size), size)
                full = kind == "full"
                sel = np.concatenate([np.flatnonzero(full | (r >= c)),
                                      size * size
                                      + np.flatnonzero(full | (r > c))])
            self.eqs.append((start, size, terms, sel))
            start += 1 if sel is None else len(sel)
        self.m = start
        self.sums = [s for s, _, _, sel in self.eqs if sel is None]
        # Every pair of grid equations with its term pairs on a shared block.
        grids = [e for e in self.eqs if e[3] is not None]
        self.pairs = []
        for i, e in enumerate(grids):
            for f in grids[i:]:
                shared = [(k, ro1, co1, c1, ro2, co2, c2)
                          for k, ro1, co1, c1 in e[2]
                          for k2, ro2, co2, c2 in f[2] if k == k2]
                if shared:
                    self.pairs.append((e, f, shared))

    def grids(self, xs):
        """Each equation's summed grid E read on the blocks xs."""
        return [sum(coef * xs[k][ro:ro + size, co:co + size]
                    for k, ro, co, coef in terms)
                for _, size, terms, _ in self.eqs]

    def apply(self, xs):
        """The rows read on the blocks xs."""
        out = np.empty(self.m)
        for (start, _, _, sel), e in zip(self.eqs, self.grids(xs)):
            if sel is None:
                out[start] = np.real(np.sum(e))
            else:
                out[start:start + len(sel)] = np.concatenate(
                    [e.real.ravel(), e.imag.ravel()])[sel]
        return out

    def adjoint(self, y):
        """sum_i y_i A_i, block by block, with A_i Hermitian: the matrix
        with Re tr(A_i X) = row i of X for every Hermitian X."""
        gs = [np.zeros((s, s), dtype=complex) for s in self.sizes]
        for start, size, terms, sel in self.eqs:
            if sel is None:
                grid = y[start]
            else:
                g = np.bincount(sel, y[start:start + len(sel)],
                                minlength=2 * size * size)
                grid = (g[:size * size] - 1j * g[size * size:]).reshape(
                    size, size)
            for k, ro, co, coef in terms:
                gs[k][co:co + size, ro:ro + size] += (coef * grid).T
        return [_herm(g) for g in gs]

    def schur(self, xs, zis):
        """M_ij = sum_k Re tr(A_ik X_k A_jk Zi_k) for Hermitian X_k, Zi_k.

        Take grid rows i = (a, c) and j = (a', c') of two equations, a
        term (r, s, u) of the first and a term (r', s', v) of the second
        on one block (row offset, column offset, coefficient), and the
        phase p = 1 of a real-part row or -i of an imaginary-part row.
        Then M_ij sums 1/4 Re(p_i p_j T + p_i conj(p_j) B) over such term
        pairs, with
        T = u[a, c] v[a', c'] (X[r + a, s' + c'] Zi[r' + a', s + c]
        + Zi[r + a, s' + c'] X[r' + a', s + c]) and
        B = u[a, c] conj(v[a', c']) (X[r + a, r' + a'] Zi[s' + c', s + c]
        + Zi[r + a, r' + a'] X[s' + c', s + c]),
        each a broadcast of sub-blocks over the n^4 index pairs, so a term
        pair costs O(n^4) whatever its rows.  A sum row i is the rows read
        on herm(Zi_k A_ik X_k).
        """
        big = np.zeros((self.m, self.m))
        for (se, p, _, sel_e), (sf, q, _, sel_f), shared in self.pairs:
            tt = bb = 0.0
            for k, r1, s1, u, r2, s2, v in shared:
                x, zi = xs[k], zis[k]
                uv = u[..., None, None] if u.ndim else u
                tt = tt + uv * v * (
                    x[r1:r1 + p, None, None, s2:s2 + q]
                    * zi[r2:r2 + q, s1:s1 + p].T[:, :, None]
                    + zi[r1:r1 + p, None, None, s2:s2 + q]
                    * x[r2:r2 + q, s1:s1 + p].T[:, :, None])
                bb = bb + uv * np.conj(v) * (
                    x[r1:r1 + p, None, r2:r2 + q, None]
                    * zi[s2:s2 + q, s1:s1 + p].T[:, None, :]
                    + zi[r1:r1 + p, None, r2:r2 + q, None]
                    * x[s2:s2 + q, s1:s1 + p].T[:, None, :])
            pp = (tt + bb).reshape(p * p, q * q)
            qq = (tt - bb).reshape(p * p, q * q)
            full = np.concatenate([np.concatenate([pp.real, qq.imag], 1),
                                   np.concatenate([pp.imag, -qq.real], 1)])
            block = 0.25 * full[np.ix_(sel_e, sel_f)]
            big[se:se + len(sel_e), sf:sf + len(sel_f)] = block
            big[sf:sf + len(sel_f), se:se + len(sel_e)] = block.T
        for i in self.sums:
            unit = np.zeros(self.m)
            unit[i] = 1.0
            big[i] = big[:, i] = self.apply(
                [_herm(zi @ a @ x)
                 for a, x, zi in zip(self.adjoint(unit), xs, zis)])
        return big


def _sdp(costs, rows, b):
    """Minimize sum_k Re tr(C_k X_k) over Hermitian PSD blocks X_k subject
    to equality rows, by a primal-dual interior-point method.

    ``costs`` holds one Hermitian C_k per block.  ``rows`` holds the rows as
    Hadamard equations over entry grids (see ``_Rows``), and b one value per
    row.  Row i acts on Hermitian blocks as sum_k Re tr(A_ik X_k) with A_ik
    Hermitian, and the dual slack is Z_k = C_k - sum_i y_i A_ik.

    From X_k = Z_k = I and y = 0, each iteration takes the HKM direction:
    dZ = R_d - A^T dy and dX = herm(target - X dZ Z^-1), with dy from the
    Schur complement M_ij = sum_k Re tr(A_ik X_k A_jk Z_k^-1), which is
    built from the row structure, one broadcast of sub-blocks of X_k and
    Z_k^-1 per pair of equation terms (``_Rows.schur``), and solved with
    its inverted Cholesky factor (``_lower_inverse``), then one step of
    iterative refinement, dy += L^-T L^-1 (rhs - M dy): near the optimum M
    is ill-conditioned, and the refined dy keeps the iterate on the rows.
    Each iteration factors every X_k and Z_k once: the inverse Cholesky
    factor of Z_k gives Z_k^-1, and those of both sides give the step
    lengths.
    Mehrotra's predictor aims at target -X; with sigma = (mu_aff / mu)^3 the
    corrector aims at sigma mu Z^-1 - X - herm(dX_aff dZ_aff Z^-1).  Each
    side steps 0.95 of the way to its PSD boundary, capped at a full step.

    Stops "converged" when the relative gap sum tr(X Z) / (1 + |pobj| +
    |dobj|) and both relative infeasibilities are below 1e-8, "cholesky"
    when a Cholesky factorization fails (of the Schur complement, or of an
    iterate that rounding left on its boundary), or "cap" after SDP_ITERS
    iterations.  Returns (X blocks, y, stop) at the last iterate.
    """
    ops = _Rows(rows, [len(c) for c in costs])

    def step(lis, ds):
        # 0.95 of the way to the boundary along d, at most a full step.
        low = min(float(linalg.herm_eigvals_batch(
            (li @ d @ li.conj().T)[None])[0, 0]) for li, d in zip(lis, ds))
        return 1.0 if low >= 0.0 else min(1.0, -0.95 / low)

    def inner(xs, zs):
        return sum(float(np.real(np.sum(x * z.conj())))
                   for x, z in zip(xs, zs))

    xs = [np.eye(len(c), dtype=complex) for c in costs]
    zs = [x.copy() for x in xs]
    y = np.zeros(len(b))
    total = sum(len(c) for c in costs)
    scale_b = 1.0 + float(np.linalg.norm(b))
    scale_c = 1.0 + math.sqrt(inner(costs, costs))
    stop = "cap"
    for _ in range(SDP_ITERS):
        rp = b - ops.apply(xs)
        rd = [c - z - a for c, z, a in zip(costs, zs, ops.adjoint(y))]
        pobj, dobj, gap = inner(costs, xs), float(b @ y), inner(xs, zs)
        if max(gap / (1.0 + abs(pobj) + abs(dobj)),
               float(np.linalg.norm(rp)) / scale_b,
               math.sqrt(inner(rd, rd)) / scale_c) < 1e-8:
            stop = "converged"
            break
        try:
            lxs = [_lower_inverse(np.linalg.cholesky(x)) for x in xs]
            lzs = [_lower_inverse(np.linalg.cholesky(z)) for z in zs]
            zis = [_herm(lz.conj().T @ lz) for lz in lzs]
            m = ops.schur(xs, zis)
            li = _lower_inverse(np.linalg.cholesky(m))

            def direction(targets):
                rhs = rp - ops.apply([_herm(t - x @ d @ zi) for t, x, d, zi
                                      in zip(targets, xs, rd, zis)])
                dy = li.T @ (li @ rhs)
                dy += li.T @ (li @ (rhs - m @ dy))
                dz = [d - a for d, a in zip(rd, ops.adjoint(dy))]
                dx = [_herm(t - x @ d @ zi)
                      for t, x, d, zi in zip(targets, xs, dz, zis)]
                return dx, dy, dz

            dx, dy, dz = direction([-x for x in xs])
            ap, ad = step(lxs, dx), step(lzs, dz)
            mu = gap / total
            mu_aff = inner([x + ap * d for x, d in zip(xs, dx)],
                           [z + ad * d for z, d in zip(zs, dz)]) / total
            sigma = (mu_aff / mu) ** 3
            dx, dy, dz = direction([
                sigma * mu * zi - x - _herm(a @ d @ zi)
                for zi, x, a, d in zip(zis, xs, dx, dz)])
            ap, ad = step(lxs, dx), step(lzs, dz)
        except np.linalg.LinAlgError:
            stop = "cholesky"
            break
        xs = [x + ap * d for x, d in zip(xs, dx)]
        zs = [z + ad * d for z, d in zip(zs, dz)]
        y = y + ad * dy
    return xs, y, stop


def _sos_rows(x):
    """The rows of the level-1 SOS program for certificates on samples x.

    x is the diagonal of X: the sample points, each repeated block_dim
    times; n = len(x).  With C_lam = I - conj(lam) X and D_lam the diagonal
    of generator values,
    P_W(lam) = C_lam* (W - D_lam* W D_lam) C_lam = sum lam^p conj(lam)^q P_pq
    with P_00 = W - X*^3 W X^3, P_10 = -X* W + X*^3 W X^2, P_01 = P_10* and
    P_11 = X* W X - X*^2 W X^2.  C_lam is invertible on the closed disk,
    where |lam| = 1 gives z^2 up to phase, so W has no negative margin
    anywhere on the disk or at infinity when P_W >= 0 there.  A certificate
    of that is P_W(lam) = V* S V + (1 - |lam|^2) T with S, T PSD and
    V = (I, lam I, conj(lam) I) (Scherer & Hol, 2006).  No product of two
    entries of V is lam^2, so S's block between lam I and conj(lam) I is 0:
    S has a chordal pattern with the cliques (1, lam) and (1, conj(lam)),
    and a PSD matrix with that pattern is exactly a sum of PSD matrices on
    its cliques (Agler, Helton, McCullough & Rodman, 1988).  So the rows
    take V* S V = V_1* A V_1 + V_2* B V_2 with A, B PSD of size 2n,
    V_1 = (I, lam I) and V_2 = (I, conj(lam) I): the same W, and no row
    for the zero block.

    Blocks W (n), A (2n), B (2n) and T (n).  Each P_pq is a Hadamard
    product of W with a fixed n x n coefficient, so every row is an entry
    of one of four equations over n x n grids (``_Rows``): the sum
    trace W = n, the Hermitian A_00 + B_00 + T = P_00 and
    A_11 + B_11 - T = P_11, and the full A_01 + B_10 = P_10; the lam-bar
    coefficients are their adjoints.  That is 4 n^2 + 1 rows.  Returns
    (rows, b, block sizes) in ``_sdp``'s form.
    """
    n = len(x)
    cx, rx = np.conj(x)[:, None], x[None, :]
    p00 = 1.0 - cx ** 3 * rx ** 3
    p10 = -cx + cx ** 3 * rx ** 2
    p11 = cx * rx - cx ** 2 * rx ** 2
    rows = [
        ("sum", n, [(0, 0, 0, np.eye(n))]),
        ("hermitian", n, [(1, 0, 0, 1.0), (2, 0, 0, 1.0), (3, 0, 0, 1.0),
                          (0, 0, 0, -p00)]),
        ("hermitian", n, [(1, n, n, 1.0), (2, n, n, 1.0), (3, 0, 0, -1.0),
                          (0, 0, 0, -p11)]),
        ("full", n, [(1, 0, n, 1.0), (2, n, 0, 1.0), (0, 0, 0, -p10)]),
    ]
    b = np.zeros(4 * n * n + 1)
    b[0] = n
    return rows, b, [n, 2 * n, 2 * n, n]


def _sos_margin_bound(xs, rows, x):
    """A lower bound on every margin of ``_trace_normalized_psd(W)``, on
    the closed disk and at infinity, read off the level-1 SOS blocks
    xs = (W, A, B, T) of ``_sos_rows(x)``.

    Let E_00, E_11 and E_10 be the residual grids of the three Hadamard
    equations, so that P_W(lam) = V_1* A V_1 + V_2* B V_2
    + (1 - |lam|^2) T - E(lam) with
    E(lam) = E_00 + lam E_10 + conj(lam) E_10* + |lam|^2 E_11.  For
    |lam| <= 1, |V_1|^2, |V_2|^2 <= 2, so with neg(X) = max(0, -min_eig X),
    P_W(lam) >= -rho I for
    rho = |E_00| + |E_11| + 2 |E_10| + 2 neg(A) + 2 neg(B) + neg(T).
    The margin at lam is the least eigenvalue of C_lam^-* P_W(lam)
    C_lam^-1, and sigma_min(C_lam) >= 1 - r for r = max |x_i|, so every
    margin on the closed disk, and at infinity, which is |lam| = 1 up to
    phase, is at least -rho / (1 - r)^2.  The PSD projection adds W's
    negative part N >= 0, which moves a margin by N - D* N D >= -r^4 neg(W)
    since every generator value has modulus at most r^2; the scaling to
    trace n multiplies the bound by c = n / tr, tr the projection's trace.
    Rounding is not bounded.
    """
    r = float(np.max(np.abs(x)))
    eigs = [linalg.herm_eigvals_batch(blk[None])[0] for blk in xs]
    neg_w, neg_a, neg_b, neg_t = (max(0.0, -float(e[0])) for e in eigs)
    e00, e11, e10 = _Rows(rows, [len(blk) for blk in xs]).grids(xs)[1:]
    rho = (linalg.op_norm(e00) + linalg.op_norm(e11)
           + 2.0 * linalg.op_norm(e10) + 2.0 * (neg_a + neg_b) + neg_t)
    scale = len(x) / float(np.sum(np.maximum(eigs[0], 0.0)))
    return scale * (-rho / (1.0 - r) ** 2 - r ** 4 * neg_w)


def dual_search(problem: ConeProblem) -> DualCertificate | None:
    """Look for a separating functional for the target.

    An unrestricted problem makes one interior-point solve (``_sdp``) of
    the level-1 SOS program (``_sos_rows``): minimize Re trace(W K) over
    PSD W of trace n with
    P_W(lam) = V_1* A V_1 + V_2* B V_2 + (1 - |lam|^2) T for PSD A, B and
    T on the clique pair V_1 = (I, lam I), V_2 = (I, conj(lam) I), so that,
    up to the solve's accuracy, W has no negative margin on the closed
    disk.  The block sizes come from ``_sos_rows``.  That accuracy is
    bounded from the solve's own blocks (``_sos_margin_bound``), which
    bounds every margin on the closed disk and at infinity, so the search
    walks no audit grid.  A restricted
    problem runs ADMM over its whole restriction instead (see
    ``_admm_min_violation``), which approximately minimizes trace(W K) over
    the restriction's dual cone and stops once its floor L shows that the
    polish gate below would skip the polish for its own feasible iterate,
    or else at its stall rule.

    Either minimizer is made exactly PSD, renormalized and mixed slightly
    toward the identity, whose margin is uniformly large, until concavity
    proves every margin clears MARGIN_FLOOR (``_mixed_with_identity``):
    from the SOS bound on the closed disk and at infinity, or from one
    exact audit over the restriction; the mix is not audited again.  On a
    restricted problem one anytime Dykstra polish (see ``_dual_polish``),
    aimed at max(2 v0, L) for the mixed violation v0 and the ADMM floor L,
    then re-tightens the violation, and the polished W is audited and
    mixed the same way.  Each candidate is offered, with its
    proven margin, to ``DualCertificate``, the one certificate gate, and
    the lower-violation one it accepts is returned.
    Returns None when it accepts none; that outcome never claims
    membership.

    Polish gate: ADMM also returns a floor L with trace(W K) >= L for every
    W in the restriction's dual cone, which contains every W a polish can
    return, and every candidate here.  When even POLISH_GAIN v0 lies below
    L, with the slack GRID_EPS |L| for the rounding in L
    (``_gain_unreachable``), no W in that cone improves on v0 by 5%, so the
    polish is skipped.  The skip gives up at most the gap between v0 and L;
    ADMM's own stop on the same test gives up at most the gap between L and
    its violation.
    """
    samples = problem.sample_set
    d = problem.block_dim
    n = problem.dim
    sigma_hat = problem.target.flat
    if float(np.linalg.norm(sigma_hat)) < 1e-14:
        return None

    restriction = problem.generator_restriction
    if restriction is None:
        x = np.repeat(samples.array(), d)
        rows, b, sizes = _sos_rows(x)
        costs = [sigma_hat] + [np.zeros((s, s)) for s in sizes[1:]]
        xs = _sdp(costs, rows, b)[0]
        w = xs[0]
        # The identity's least margin, 1 - r^4, is its margin at infinity,
        # which every unrestricted audit grid holds.
        r4 = float(np.max(np.abs(x))) ** 4

        def audit(_):
            return _sos_margin_bound(xs, rows, x), 1.0 - r4
    else:
        conj_coefs = np.conj(_generator_data(restriction, samples, d)[1])
        w, floor = _admm_min_violation(sigma_hat, conj_coefs, n)
        audit = functools.partial(_audit_margins, problem=problem)
    w = _trace_normalized_psd(w, n)
    if w is None:
        return None

    w, margin, viol = _mixed_with_identity(w, sigma_hat, audit,
                                           MARGIN_FLOOR)
    if not viol <= -MIN_VIOLATION:
        return None
    candidates = [(w, margin, viol)]

    # One anytime polish, aimed at twice the mixed violation but never
    # below the floor; it runs only if a POLISH_GAIN gain is reachable.
    if restriction is not None and not _gain_unreachable(viol, floor):
        polished = _dual_polish(w, sigma_hat, conj_coefs, n,
                                max(2.0 * viol, floor), POLISH_MARGIN)
        if polished is not None:
            candidates.append(_mixed_with_identity(
                polished, sigma_hat, audit, MARGIN_FLOOR))

    # Lowest violation first; a stable sort keeps the mixed minimizer
    # ahead on a tie.
    for w_c, margin_c, viol_c in sorted(candidates, key=lambda c: c[2]):
        try:
            return DualCertificate(w_c, margin_c, viol_c,
                                   len(problem.audit_grid))
        except ValueError:
            continue
    return None


def validate_certificate(cert: DualCertificate,
                         problem: ConeProblem) -> ValidationReport:
    """Audit a certificate's margins over ``problem.audit_grid``.

    Reports the worst margin, where it occurs and an empirical modulus of
    continuity: the largest margin change between neighboring parameters of
    the dense rings, the last radii x angles audit points.  A small modulus
    backs up reading grid nonnegativity as evidence for the whole family.
    A restricted problem has no rings, and its modulus is None.
    """
    pts = problem.audit_grid
    vals = _audit_margins(cert.w, problem)[0]
    worst = int(np.argmin(vals))
    mod = None
    if problem.generator_restriction is None:
        radii, angles = problem.validation_radii, problem.validation_angles
        rect = vals[-radii * angles:].reshape(radii, angles)
        radial = np.abs(np.diff(rect, axis=0))
        angular = np.abs(rect - np.roll(rect, 1, axis=1))
        mod = float(max(radial.max(initial=0.0), angular.max(initial=0.0)))
    return ValidationReport(float(vals[worst]), complex(pts[worst]), mod,
                            len(pts))


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
    sample point, the block at (0, 0), which exposes rank-one projection
    structure.  When exactly two clusters survive,
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
        if zero_idx is not None:
            sl = slice(zero_idx * d, (zero_idx + 1) * d)
            zb = weight[sl, sl]
        clusters.append(Cluster(ctr, mass, weight, zb))
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
