"""Constructive dilation machinery.

Three independent capabilities live here.  A joint dilation of two rank-one
resolutions of the identity to commuting coordinate projections; a verifier
that checks whether a pair (X, Y) is compressed from the powers of a single
unitary; and the norm criterion for extending a commuting pair with equal
squares to commuting unitaries, via a sweep over the circle of mixing
coefficients |lambda - 1/2| = 1/2, proved on the whole circle arc by arc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg

SUM_TOL = 1e-10
RANK_ONE_TOL = 1e-9
PAIR_TOL = 1e-10
RADIUS_TOL = 1e-8
EXTEND_TOL = 1e-12
ANGLE_SAMPLES = 720
ARC_EVALS = 1 << 17  # arc centres the whole-circle proof may evaluate


def _as_square(a, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("%s must be a square matrix, got %r" % (name, m.shape))
    if not np.isfinite(m).all():
        raise ValueError("%s has non-finite entries" % name)
    return m


# ---------------------------------------------------------------------------
# joint dilation of two rank-one partitions of the identity


@dataclass(frozen=True)
class NaimarkInput:
    """Two families of rank-one PSD summands, each adding up to the identity.

    Zero summands are permitted; both families must have the same length and
    act on the same space.
    """

    a_list: tuple
    b_list: tuple

    def __post_init__(self):
        a = tuple(_as_square(m, "summand") for m in self.a_list)
        b = tuple(_as_square(m, "summand") for m in self.b_list)
        if not a or len(a) != len(b):
            raise ValueError("need two equally long nonempty summand families")
        n = a[0].shape[0]
        if any(m.shape[0] != n for m in a + b):
            raise ValueError("all summands must share one dimension")
        for name, fam in (("first", a), ("second", b)):
            dev = linalg.op_norm(sum(fam) - np.eye(n))
            if dev > SUM_TOL:
                raise ValueError(
                    "%s family deviates from the identity by %.3e" % (name, dev)
                )
        object.__setattr__(self, "a_list", a)
        object.__setattr__(self, "b_list", b)

    @property
    def dim(self) -> int:
        return self.a_list[0].shape[0]

    @property
    def count(self) -> int:
        return len(self.a_list)


def _rank_one_vector(a: np.ndarray) -> np.ndarray:
    """Vector v with a = v v*, phase-fixed; the zero matrix gives the zero vector."""
    (evals,), (vecs,) = linalg.herm_eig_batch(a[None])
    top = float(evals[-1])
    scale = max(top, float(np.abs(a).max()), 1.0)
    if float(evals[0]) < -RANK_ONE_TOL * scale:
        raise ValueError("summand is not PSD: eigenvalue %.3e" % float(evals[0]))
    if top <= RANK_ONE_TOL * scale:
        return np.zeros(a.shape[0], dtype=complex)
    if a.shape[0] > 1 and float(evals[-2]) > RANK_ONE_TOL * top:
        raise ValueError(
            "summand is not rank one: second eigenvalue %.3e of %.3e"
            % (float(evals[-2]), top)
        )
    v = vecs[:, -1] * np.sqrt(top)
    # fix the free phase: largest-modulus entry becomes real positive
    k = int(np.argmax(np.abs(v)))
    v = v * (np.conj(v[k]) / abs(v[k]))
    return v


@dataclass(frozen=True)
class NaimarkDilation:
    """Isometry and commuting coordinate projections dilating both families."""

    v: np.ndarray
    p_list: tuple
    q_list: tuple
    u: np.ndarray


def naimark(inp: NaimarkInput) -> NaimarkDilation:
    """Dilate both summand families to coordinate projections upstairs.

    The isometry's j-th row is the conjugated factor vector of the j-th
    summand of the first family; the second family is reached from the same
    coordinate projections by a unitary change of frame.
    """
    m, n = inp.count, inp.dim
    v = np.zeros((m, n), dtype=complex)
    w = np.zeros((m, n), dtype=complex)
    for j in range(m):
        v[j, :] = np.conj(_rank_one_vector(inp.a_list[j]))
        w[j, :] = np.conj(_rank_one_vector(inp.b_list[j]))
    u = linalg.align_isometries(v, w)
    p_list = []
    q_list = []
    uh = u.conj().T
    for j in range(m):
        p = np.zeros((m, m), dtype=complex)
        p[j, j] = 1.0
        p_list.append(p)
        q_list.append(uh @ p @ u)
    return NaimarkDilation(v, tuple(p_list), tuple(q_list), u)


# ---------------------------------------------------------------------------
# compression verifier for pairs modeled on (shift^2, shift^3)


def _word_exponents(n: int) -> tuple[int, int]:
    """Exponents (a, b) with 2a + 3b = n; any split works for a commuting pair."""
    if n == 0:
        return 0, 0
    if n % 2 == 0:
        return n // 2, 0
    if n < 3:
        raise ValueError("no word of x, y has combined degree %d" % n)
    return (n - 3) // 2, 1


@dataclass(frozen=True)
class CompressionReport:
    """Deviations between words in (x, y) and compressed unitary powers."""

    deviations: tuple
    commutator_norm: float
    relation_gap: float

    @property
    def max_deviation(self) -> float:
        return max(d for _, d in self.deviations)

    def ok(self, tol: float = 1e-10) -> bool:
        return (
            self.max_deviation <= tol
            and self.commutator_norm <= tol
            and self.relation_gap <= tol
        )


def cc_dilation_verify(x, y, u, embed, n_max: int) -> CompressionReport:
    """Check x^a y^b against compressions of u^n for 2a + 3b = n <= n_max.

    The degree-1 slot is skipped: no word in x, y has combined degree one.
    The commutator and the gap of x^3 = y^2 are reported alongside, since the
    deviations are only well defined up to those relations.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    x = _as_square(x, "x")
    y = _as_square(y, "y")
    u = _as_square(u, "u")
    e = np.asarray(embed, dtype=complex)
    if e.ndim != 2 or e.shape != (u.shape[0], x.shape[0]):
        raise ValueError("embedding must map the small space into the large one")
    if linalg.op_norm(u.conj().T @ u - np.eye(u.shape[0])) > PAIR_TOL:
        raise ValueError("u is not unitary")
    if linalg.op_norm(e.conj().T @ e - np.eye(x.shape[0])) > PAIR_TOL:
        raise ValueError("embedding is not an isometry")
    if y.shape != x.shape:
        raise ValueError("x and y must act on the same space")
    commutator = linalg.op_norm(x @ y - y @ x)
    relation = linalg.op_norm(
        np.linalg.matrix_power(x, 3) - np.linalg.matrix_power(y, 2)
    )
    devs = []
    for n in [0] + list(range(2, n_max + 1)):
        a, b = _word_exponents(n)
        word = np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(y, b)
        compressed = e.conj().T @ np.linalg.matrix_power(u, n) @ e
        devs.append((n, linalg.op_norm(word - compressed)))
    return CompressionReport(tuple(devs), commutator, relation)


@dataclass(frozen=True)
class ObstructionReport:
    """Orthogonality data showing a compressed pair admits no matching cube root."""

    window: int
    h_indices: tuple
    max_overlap: float
    cube_overlap: complex


def truncated_shift(window: int):
    """The cyclic shift on 2 * window + 1 coordinates and a small subspace.

    Coordinates run from -window to window, stored at offset ``window``.
    Returns (u, h_indices, embed): the shift u e_k = e_{k+1} (cyclically),
    the indices (0, 2, 3, ..., window) of the subspace, and the isometry
    embedding it as span{e_k : k in h_indices}.
    """
    dim = 2 * window + 1
    u = np.roll(np.eye(dim, dtype=complex), 1, axis=0)
    h_indices = (0,) + tuple(range(2, window + 1))
    embed = np.zeros((dim, len(h_indices)), dtype=complex)
    embed[window + np.array(h_indices), np.arange(len(h_indices))] = 1.0
    return u, h_indices, embed


def no_T_obstruction(window: int = 8) -> ObstructionReport:
    """Exhibit the obstruction on the cyclically truncated two-sided shift.

    The invariant subspace spanned by e_0 and e_k for 2 <= k <= window has
    the property that e_3 is orthogonal to the whole range of the compressed
    square of the shift, yet the cube of the shift carries e_0 exactly onto
    e_3.  Any single operator T with T^2 and T^3 equal to the compressions
    would need T e_0 in both ranges at once, which is impossible.
    """
    if window < 3:
        raise ValueError("window must be at least 3")
    u, h_indices, embed = truncated_shift(window)
    compressed_sq = embed.conj().T @ (u @ u) @ embed
    row_e3 = h_indices.index(3)
    max_overlap = float(np.max(np.abs(compressed_sq[row_e3, :])))
    cube = np.linalg.matrix_power(u, 3) @ embed[:, 0]
    cube_overlap = complex(cube[window + 3])
    return ObstructionReport(window, h_indices, max_overlap, cube_overlap)


# ---------------------------------------------------------------------------
# commuting pairs with equal squares


@dataclass(frozen=True)
class VarietyPair:
    """Commuting square matrices of equal dimension with equal squares."""

    s: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        s = _as_square(self.s, "s")
        t = _as_square(self.t, "t")
        if s.shape != t.shape:
            raise ValueError("the two matrices must share one dimension")
        comm = linalg.op_norm(s @ t - t @ s)
        if comm > PAIR_TOL:
            raise ValueError("matrices do not commute: ||st - ts|| = %.3e" % comm)
        sq = linalg.op_norm(s @ s - t @ t)
        if sq > PAIR_TOL:
            raise ValueError("squares differ: ||s^2 - t^2|| = %.3e" % sq)
        # s and t share their squared spectral radius, so one check covers both
        rad = linalg.spectral_radius(s)
        if rad > 1.0 + RADIUS_TOL:
            raise ValueError("spectral radius %.8f exceeds 1" % rad)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class VarietySweep:
    """Norm profile of lam*s + (1-lam)*t over the circle |lam - 1/2| = 1/2."""

    max_norm: float
    witness: complex
    profile: np.ndarray = field(repr=False)

    @property
    def max_adjacent_diff(self) -> float:
        """Cyclic step-to-step variation; the sampling-resolution indicator."""
        return float(np.max(np.abs(np.diff(self.profile, append=self.profile[0]))))


def _mix_norms(pair: VarietyPair, lam: np.ndarray) -> np.ndarray:
    """||lam s + (1 - lam) t|| for every mixing coefficient in ``lam``,
    normed ``linalg.GRID_BLOCK`` matrices at a time."""
    norms = []
    for start in range(0, len(lam), linalg.GRID_BLOCK):
        mix = lam[start:start + linalg.GRID_BLOCK, None, None]
        norms.append(linalg.op_norm_batch(mix * pair.s[None]
                                          + (1.0 - mix) * pair.t[None]))
    return np.concatenate(norms)


def variety_check(pair: VarietyPair, angle_samples: int = ANGLE_SAMPLES) -> VarietySweep:
    """Sweep the mixing circle and report the largest operator norm seen."""
    if angle_samples < 1:
        raise ValueError("need at least one angle sample")
    theta = 2.0 * np.pi * np.arange(angle_samples) / angle_samples
    lam = 0.5 * (1.0 + np.exp(1j * theta))
    profile = _mix_norms(pair, lam)
    k = int(np.argmax(profile))
    return VarietySweep(float(profile[k]), complex(lam[k]), profile)


def _arc_proof(pair: VarietyPair, sweep: VarietySweep, tol: float):
    """Carry a passing sweep's bound to the whole circle, arc by arc.

    With C = (s + t)/2 and D = (s - t)/2, the mix at
    lam = (1 + e^{i theta})/2 is P = C + D e^{i theta}, and ||P||^2 is the
    top eigenvalue of H(theta) = A + B e^{i theta} + B* e^{-i theta}, with
    A = C*C + D*D and B = C*D.  ||H'|| <= 2 ||B||, so by Weyl
    lambda_max H(theta) <= ||P(theta_c)||^2 + 2 ||B|| delta on an arc of
    half-width delta around theta_c.  The sweep's samples are the first
    arc centres, with delta = pi / samples.  An arc is proved when that
    bound plus 64 n^2 eps (||C||_F + ||D||_F)^2, a generous allowance for
    the rounding in the norms, in ||B|| and in the centres, is at most
    (1 + tol)^2.  The other arcs are halved and the centres of their halves
    evaluated, at most ARC_EVALS of them in all.

    Returns (max_norm, witness, reason): the sweep's own when every arc is
    proved; the largest centre norm above 1 + tol and its lam, from the
    first round that finds one; or the sweep's with a reason when the
    evaluations run out first.
    """
    c = 0.5 * (pair.s + pair.t)
    d = 0.5 * (pair.s - pair.t)
    n = c.shape[0]
    two_b = 2.0 * linalg.op_norm(c.conj().T @ d)
    slack = (64.0 * n * n * np.finfo(float).eps
             * (float(np.linalg.norm(c)) + float(np.linalg.norm(d))) ** 2)
    limit = (1.0 + tol) ** 2 - slack
    samples = len(sweep.profile)
    delta = np.pi / samples
    theta = 2.0 * np.pi * np.arange(samples) / samples
    norms, evals = sweep.profile, 0
    while True:
        k = int(np.argmax(norms))
        if norms[k] > 1.0 + tol:
            lam = 0.5 * (1.0 + np.exp(1j * theta[k]))
            return float(norms[k]), complex(lam), None
        centres = theta[norms ** 2 + two_b * delta > limit]
        if not len(centres):
            return sweep.max_norm, sweep.witness, None
        if evals + 2 * len(centres) > ARC_EVALS:
            return sweep.max_norm, sweep.witness, (
                "%d arcs of half-width %.3e still open after %d "
                "arc evaluations (cap %d)"
                % (len(centres), delta, evals, ARC_EVALS))
        delta /= 2.0
        theta = np.stack([centres - delta, centres + delta], axis=1).ravel()
        norms = _mix_norms(pair, 0.5 * (1.0 + np.exp(1j * theta)))
        evals += len(theta)


@dataclass(frozen=True)
class VarietyVerdict:
    passed: bool
    max_norm: float
    witness: complex
    message: str
    sweep: VarietySweep = field(repr=False)
    reason: str | None = None  # set when the whole-circle proof ran out


def variety_verdict(
    pair: VarietyPair,
    angle_samples: int = ANGLE_SAMPLES,
    tol: float = 1e-8,
) -> VarietyVerdict:
    """Decide whether the pair extends to commuting unitaries with equal squares.

    The norm bound is the whole criterion: staying within 1 + tol on the
    mixing circle is equivalent to the existence of the unitary extension,
    and a crossing hands back the witnessing mixing coefficient.  A sampled
    sweep finds most crossings; a sweep that stays within the bound passes
    only once ``_arc_proof`` has carried the bound to every arc between
    the samples, and is undecided, with a reason, if the proof runs out of
    evaluations.  The verdict carries the sweep it was read from.
    """
    sweep = variety_check(pair, angle_samples)
    max_norm, witness, reason = sweep.max_norm, sweep.witness, None
    if max_norm <= 1.0 + tol:
        max_norm, witness, reason = _arc_proof(pair, sweep, tol)
    passed = max_norm <= 1.0 + tol and reason is None
    if passed:
        message = "dilation exists"
    elif reason is not None:
        message = reason
    else:
        message = "norm %.9f exceeds 1 at lambda = %s" % (max_norm, witness)
    return VarietyVerdict(passed, max_norm, witness, message, sweep, reason)


def variety_extend(hplus, hminus, z: complex, w: complex):
    """Join two disk functions into one function on the equal-squares variety.

    hplus provides the values on the diagonal w = z, hminus on the
    antidiagonal w = -z; the two branches must agree at the origin.  The
    common value is split off, each reduced branch is recombined with the
    affine weights vanishing on the opposite branch, and the value is added
    back, so both restriction identities hold exactly.
    """
    cp = np.asarray(hplus(0.0 + 0.0j), dtype=complex)
    cm = np.asarray(hminus(0.0 + 0.0j), dtype=complex)
    if cp.shape != cm.shape:
        raise ValueError("branch values have mismatched shapes")
    gap = float(np.max(np.abs(cp - cm))) if cp.size else 0.0
    if gap > EXTEND_TOL:
        raise ValueError("branches disagree at the origin by %.3e" % gap)
    z = complex(z)
    w = complex(w)
    plus = np.asarray(hplus((z + w) / 2.0), dtype=complex) - cp
    minus = np.asarray(hminus((z - w) / 2.0), dtype=complex) - cp
    return (1.0 - (z - w)) * plus + (1.0 - (z + w)) * minus + cp
