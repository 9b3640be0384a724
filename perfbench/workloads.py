"""Seeded request generators whose verdicts are known by construction.

A workload is a list of requests, one pass; the benchmark repeats the pass
in a closed loop.  Each request is a CLI subcommand, the JSON config it
reads, and the exit code and status it must produce.  The seed changes the
inputs only through symmetries of the problems, so every seed poses the
same mathematics at the same cost:

* reordering sample points permutes the kernel and the generator values
  together;
* rotating every point by w = exp(2 pi i k / 32) multiplies each test
  function by w^3 (psi_lam(w z) = w^3 psi_{conj(w) lam}(z)), which leaves
  every Hadamard coefficient 1 - d d* unchanged and maps the default
  10x32 grid onto itself;
* conjugating every point conjugates the kernel and reflects the grid.

Fresh random problems would be a fairer sample, but their solve times
vary more than a run of one pass can average out (README.md has the
figures).
"""

from __future__ import annotations

import numpy as np

ANGLES = 32  # angles of the default generator grid; rotations keep it whole

# The flagship pipeline on three of its six default sample points.
FLAGSHIP_SAMPLES = (0.0, 0.5, -0.5)
FULL_SAMPLES = (0.0, 0.5, -0.5, 0.3j, -0.3j, 0.6)

# Pick: nodes including 0, feasible targets psi_lam(nodes) for grid points
# lam (ring index j has radius (j + 1/2)/10), and a Schwarz-violating target
# solved over a small generator restriction.
PICK_NODES = (0.0, 0.5, -0.5, 0.3j)
PICK_FEASIBLE = ((2, 3), (4, 9))  # (ring, angle index)
PICK_RESTRICTED = (2, 3)
PICK_RESTRICTED_COUNT = 8
PICK_WIDE_RINGS = range(10)
SCHWARZ_TARGETS = (0.0, 0.3, 0.1, 0.05j)  # w(0)=0, |w(0.5)|=0.3 > 0.25
SCHWARZ_RESTRICTION = (None, 0.05)  # None is the point at infinity

# small_mix: the mutual-exclusion construction of the acceptance suite.
MIX_GRID = (None, 0.25, -0.3 + 0.2j)
# Seeds of the acceptance suite's construction; last digit 5-9 means block
# dimension 2.
MIX_FEASIBLE_BASES = tuple(range(100, 110))
MIX_NEGATIVE_BASES = (201, 206)
MIX_REPEATS = 20
NOXY_WITNESS = 0.4


# ---------------------------------------------------------------------------
# JSON encodings of the CLI: complex as [re, im], Hermitian matrices as
# lower-triangle rows, general matrices as nested rows, points or "inf".


def enc_complex(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def enc_point(p):
    return "inf" if p is None else enc_complex(p)


def enc_hermitian(h) -> list:
    h = np.asarray(h, dtype=complex)
    return [[enc_complex(h[i, j]) for j in range(i + 1)]
            for i in range(h.shape[0])]


def psi(point, z):
    """Test function z^2 (z - lam)/(1 - conj(lam) z), or z^2 at infinity."""
    z = np.asarray(z, dtype=complex)
    if point is None:
        return z * z
    return z * z * (z - point) / (1.0 - np.conj(point) * z)


def hadamard_coefs(grid, samples, block_dim: int) -> np.ndarray:
    """A_g = 1 - d_g d_g* for every generator g, shape (G, n, n)."""
    d = np.stack([np.repeat(psi(p, samples), block_dim) for p in grid])
    return 1.0 - d[:, :, None] * np.conj(d[:, None, :])


# ---------------------------------------------------------------------------
# symmetries


class Symmetry:
    """Rotation by a grid angle, optional conjugation, and a sample order."""

    def __init__(self, rng: np.random.Generator, count: int):
        self.turn = np.exp(2j * np.pi * int(rng.integers(ANGLES)) / ANGLES)
        self.conj = bool(rng.integers(2))
        self.order = rng.permutation(count)

    def point(self, p):
        if p is None:
            return None
        q = complex(p) * self.turn
        return q.conjugate() if self.conj else q

    def points(self, pts) -> list:
        return [self.point(p) for p in pts]

    def value(self, v):
        """Image of a test-function value: times turn^3, then conjugated."""
        q = complex(v) * self.turn ** 3
        return q.conjugate() if self.conj else q

    def ordered(self, seq) -> list:
        return [seq[i] for i in self.order]


def request(command: str, config: dict | None, code: int, status) -> dict:
    """A CLI call and the exit code and status it must produce."""
    return {"command": command, "config": config, "code": code,
            "status": status}


# ---------------------------------------------------------------------------
# workloads


def flagship(rng, samples=FLAGSHIP_SAMPLES) -> list:
    order = rng.permutation(len(samples))
    pts = [samples[i] for i in order]
    cfg = {"samples": [enc_complex(z) for z in pts]}
    return [request("counterexample", cfg, 0, "certified")]


def flagship_full(rng) -> list:
    return flagship(rng, FULL_SAMPLES)


def _pick_request(sym: Symmetry, nodes, targets, code, status, restriction=None):
    cfg = {"nodes": [enc_complex(z) for z in sym.ordered(sym.points(nodes))],
           "targets": [enc_complex(v) for v in
                       sym.ordered([sym.value(w) for w in targets])]}
    if restriction is not None:
        cfg["restriction"] = [enc_point(p) for p in sym.points(restriction)]
    return request("pick", cfg, code, status)


def _grid_point(ring: int, angle: int) -> complex:
    return (ring + 0.5) / 10 * np.exp(2j * np.pi * angle / ANGLES)


def pick(rng) -> list:
    costly = []
    for ring, angle in PICK_FEASIBLE:
        sym = Symmetry(rng, len(PICK_NODES))
        lam = _grid_point(ring, angle)
        costly.append(_pick_request(sym, PICK_NODES, psi(lam, PICK_NODES),
                                    0, "feasible"))
    sym = Symmetry(rng, len(PICK_NODES))
    costly.append(_pick_request(sym, PICK_NODES, SCHWARZ_TARGETS, 2,
                                "infeasible", SCHWARZ_RESTRICTION))
    # One atom at lam represents 1 - psi_lam psi_lam* exactly, so these
    # decide by plain DR over {inf, lam}.
    lam = _grid_point(*PICK_RESTRICTED)
    cheap = [_pick_request(Symmetry(rng, len(PICK_NODES)), PICK_NODES,
                           psi(lam, PICK_NODES), 0, "feasible", (None, lam))
             for _ in range(PICK_RESTRICTED_COUNT)]
    return interleave(costly, cheap)


def pick_wide(rng) -> list:
    """One feasible pick per ring of the default grid, at a random angle."""
    sym = Symmetry(rng, len(PICK_NODES))
    return [_pick_request(sym, PICK_NODES,
                          psi(_grid_point(ring, int(rng.integers(ANGLES))),
                              PICK_NODES), 0, "feasible")
            for ring in PICK_WIDE_RINGS]


def _disk_points(rng, n: int, rmax: float = 0.7, min_sep: float = 0.15) -> list:
    pts: list = []
    while len(pts) < n:
        z = complex(rng.uniform(-rmax, rmax), rng.uniform(-rmax, rmax))
        if abs(z) < rmax and all(abs(z - p) >= min_sep for p in pts):
            pts.append(z)
    return pts


def _random_psd(rng, n: int) -> np.ndarray:
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return e @ e.conj().T


def inside_cone(rng, block_dim: int, grid=MIX_GRID):
    """Samples and a kernel sum_g A_g o M_g with random PSD blocks M_g."""
    samples = np.array(_disk_points(rng, 3))
    n = len(samples) * block_dim
    blocks = np.stack([_random_psd(rng, n) for _ in grid])
    coefs = hadamard_coefs(grid, samples, block_dim)
    return samples, np.einsum("gij,gij->ij", coefs, blocks)


def _cone_request(sym: Symmetry, samples, block_dim, target, code, status):
    # Reordering samples permutes whole blocks of the flattened kernel.
    idx = np.concatenate([np.arange(i * block_dim, (i + 1) * block_dim)
                          for i in sym.order])
    target = target[np.ix_(idx, idx)]
    if sym.conj:
        target = target.conj()
    cfg = {"samples": [enc_complex(z) for z in
                       sym.ordered(sym.points(samples))],
           "block_dim": block_dim,
           "target": enc_hermitian(target),
           "restriction": [enc_point(p) for p in sym.points(MIX_GRID)]}
    return request("cone", cfg, code, status)


def small_mix(rng) -> list:
    cheap, costly = [], []
    # The acceptance suite's problems: base seeds 100-109 are feasible by
    # construction, 200-209 the same kernels minus twice their mean
    # diagonal times I.
    for base in MIX_FEASIBLE_BASES + MIX_NEGATIVE_BASES:
        block_dim = 1 if base % 10 < 5 else 2
        samples, target = inside_cone(np.random.default_rng(base), block_dim)
        if base < 200:
            cheap.append(_cone_request(Symmetry(rng, 3), samples, block_dim,
                                       target, 0, "feasible"))
            continue
        n = target.shape[0]
        target = target - (2.0 * np.real(np.trace(target)) / n) * np.eye(n)
        costly.append(_cone_request(Symmetry(rng, 3), samples, block_dim,
                                    target, 2, "infeasible"))
    order = rng.permutation(len(FULL_SAMPLES))
    costly.append(request("noxy", {
        "samples": [enc_complex(FULL_SAMPLES[i]) for i in order],
        "witness_point": enc_complex(NOXY_WITNESS)},
        0, "violating pair constructed"))
    cheap += [request("naimark", None, 0, "exact"),
              request("variety", None, 2, None),
              request("ccverify", None, 0, "compressed")]
    # Repeating the cheap block puts the pass median inside the
    # block-dimension-1 cone requests rather than on the step between two
    # groups of requests.
    return interleave(costly, cheap * MIX_REPEATS)


def interleave(costly: list, cheap: list) -> list:
    """Spread the cheap requests evenly before, between and after the
    costly ones.

    A cheap request reads the host's speed at one instant; spread over the
    pass, many of them make the pass median read its typical speed.
    """
    k = len(costly) + 1
    cuts = [round(i * len(cheap) / k) for i in range(k + 1)]
    out = []
    for i in range(k):
        out += cheap[cuts[i]:cuts[i + 1]]
        out += costly[i:i + 1]
    return out


WORKLOADS = {
    "flagship": flagship,
    "pick": pick,
    "small_mix": small_mix,
}

# Runnable by name but not part of the timed set: a single request of each
# takes longer than a whole run may.
EXTRA_WORKLOADS = {
    "flagship_full": flagship_full,
    "pick_wide": pick_wide,
}


def build(name: str, seed: int) -> list:
    """The requests of one pass; KeyError for an unknown workload."""
    return {**WORKLOADS, **EXTRA_WORKLOADS}[name](np.random.default_rng(seed))
