"""Verdict oracle: re-checks every CLI result with numpy.linalg alone.

Nothing here calls the package; the generator values, kernels, grids and
eigenvalues are recomputed from the request's config.  ``check`` returns a
list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import hadamard_coefs, psi

RESIDUAL_TOL = 1e-7      # measure: |sum_g A_g o M_g - K|_F
BLOCK_PSD_TOL = 1e-9     # measure blocks, relative to 1 + max entry
VIOLATION_MAX = -1e-4    # certificate: trace(W K) at most this
MARGIN_MIN = -1e-8       # certificate: min-eig margins at least this
W_PSD_TOL = 1e-8         # certificate W, relative to max(1, max entry)
PAIR_TOL = 1e-8          # noxy: commutator, X^3 - Y^2, contractivity


def strict_json(text: str):
    """Parse JSON that must not contain NaN or Infinity."""
    def reject(token):
        raise ValueError("non-finite number %s in output" % token)
    return json.loads(text, parse_constant=reject)


def dec_complex(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(float(v[0]), float(v[1]))


def dec_point(v):
    return None if v == "inf" else dec_complex(v)


def dec_hermitian(rows) -> np.ndarray:
    n = len(rows)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[i, j] = dec_complex(v)
            out[j, i] = np.conj(out[i, j])
    return out


def dec_matrix(rows) -> np.ndarray:
    return np.array([[dec_complex(v) for v in row] for row in rows],
                    dtype=complex)


def default_grid(radii: int = 10, angles: int = 32) -> list:
    pts = [None]
    for j in range(radii):
        r = (j + 0.5) / radii
        pts += [r * np.exp(2j * np.pi * k / angles) for k in range(angles)]
    return pts


def validation_grid(radii: int = 64, angles: int = 128) -> list:
    pts = [None]
    for j in range(radii):
        r = 0.999 * (j + 1.0) / radii
        pts += [r * np.exp(2j * np.pi * k / angles) for k in range(angles)]
    return pts


def opnorm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex), 2))


def min_margin(w, grid, samples, block_dim: int) -> float:
    """min over g of min-eig(W - D_g* W D_g) = min-eig(W o conj(A_g))."""
    stack = w[None] * np.conj(hadamard_coefs(grid, samples, block_dim))
    return float(np.min(np.linalg.eigvalsh(stack)))


def check_measure(data, samples, block_dim, target, grid) -> list:
    meas = data.get("measure")
    if meas is None:
        return ["no measure in a feasible result"]
    pts = [dec_point(p) for p in meas["grid"]]
    for p in pts:
        if not any((p is None and q is None)
                   or (p is not None and q is not None and abs(p - q) <= 1e-12)
                   for q in grid):
            return ["measure charges %r, which is not a generator" % (p,)]
    blocks = np.array([dec_hermitian(b) for b in meas["blocks"]])
    problems = []
    coefs = hadamard_coefs(pts, samples, block_dim)
    residual = float(np.linalg.norm(np.einsum("gij,gij->ij", coefs, blocks)
                                    - target))
    if not residual <= RESIDUAL_TOL:
        problems.append("measure residual %.3e exceeds %.0e"
                        % (residual, RESIDUAL_TOL))
    floor = float(np.min(np.linalg.eigvalsh(blocks)))
    scale = 1.0 + float(np.max(np.abs(blocks)))
    if not floor >= -BLOCK_PSD_TOL * scale:
        problems.append("measure block has eigenvalue %.3e" % floor)
    return problems


def check_certificate(data, samples, block_dim, target, grid) -> list:
    cert = data.get("certificate")
    if cert is None:
        return ["no certificate in a negative result"]
    w = dec_hermitian(cert["w"])
    problems = []
    viol = float(np.real(np.sum(w * np.conj(target))))
    if not viol <= VIOLATION_MAX:
        problems.append("trace(W K) = %.3e is not below %.0e"
                        % (viol, VIOLATION_MAX))
    if not abs(viol - float(cert["violation"])) <= 1e-8 * max(1.0, abs(viol)):
        problems.append("reported violation %r differs from trace(W K) %r"
                        % (cert["violation"], viol))
    floor = float(np.min(np.linalg.eigvalsh(w)))
    if not floor >= -W_PSD_TOL * max(1.0, float(np.max(np.abs(w)))):
        problems.append("W has eigenvalue %.3e" % floor)
    margin = min_margin(w, grid, samples, block_dim)
    if not margin >= MARGIN_MIN:
        problems.append("margin %.3e on the audit grid" % margin)
    return problems


def _samples(cfg, default) -> np.ndarray:
    pts = cfg.get("samples") if cfg else None
    return np.array([dec_complex(p) for p in pts] if pts else default,
                    dtype=complex)


def _restriction(cfg):
    pts = cfg.get("restriction")
    return None if pts is None else [dec_point(p) for p in pts]


def flagship_kernel(samples) -> np.ndarray:
    """I - F(x) F(y)* for F = z^2 diag(b1, 1) U diag(1, b2) at the defaults."""
    u = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    b1 = (samples - 0.5) / (1.0 - 0.5 * samples)
    b2 = (samples + 0.5) / (1.0 + 0.5 * samples)
    f = np.empty((len(samples), 2, 2), dtype=complex)
    f[:, 0, 0] = b1 * u[0, 0]
    f[:, 0, 1] = b1 * u[0, 1] * b2
    f[:, 1, 0] = u[1, 0]
    f[:, 1, 1] = u[1, 1] * b2
    f *= (samples * samples)[:, None, None]
    n = len(samples)
    prod = np.einsum("iab,jcb->iajc", f, np.conj(f)).reshape(2 * n, 2 * n)
    return np.kron(np.ones((n, n)), np.eye(2)) - prod


def _check_counterexample(req, data) -> list:
    samples = _samples(req["config"], (0.0, 0.5, -0.5, 0.3j, -0.3j, 0.6))
    grid = default_grid() + validation_grid()[1:]
    problems = check_certificate(data, samples, 2, flagship_kernel(samples), grid)
    rep = data.get("representation", {})
    if not rep.get("deficiency", 0.0) <= VIOLATION_MAX:
        problems.append("deficiency %r is not negative" % rep.get("deficiency"))
    if not rep.get("max_test_norm", 2.0) <= 1.0 + 1e-6:
        problems.append("test norm %r exceeds 1" % rep.get("max_test_norm"))
    if not all(data.get("checks", {}).values()):
        problems.append("a gate failed: %r" % data.get("checks"))
    return problems


def _check_pick(req, data) -> list:
    cfg = req["config"]
    nodes = np.array([dec_complex(v) for v in cfg["nodes"]])
    w = np.array([dec_complex(v) for v in cfg["targets"]])
    target = 1.0 - w[:, None] * np.conj(w)[None, :]
    grid = _restriction(cfg) or default_grid()
    if data["status"] == "feasible":
        return check_measure(data, nodes, 1, target, grid)
    if _restriction(cfg) is None:
        grid = grid + validation_grid()[1:]
    return check_certificate(data, nodes, 1, target, grid)


def _check_cone(req, data) -> list:
    cfg = req["config"]
    samples = _samples(cfg, None)
    d = int(cfg["block_dim"])
    target = dec_hermitian(cfg["target"])
    grid = _restriction(cfg)
    if data["status"] == "feasible":
        return check_measure(data, samples, d, target, grid)
    return check_certificate(data, samples, d, target, grid)


def _check_noxy(req, data) -> list:
    cfg = req["config"]
    samples = _samples(cfg, (0.0, 0.5, -0.5, 0.3j, -0.3j, 0.6))
    mu = dec_complex(cfg["witness_point"])
    wv = psi(mu, samples)
    target = 1.0 - wv[:, None] * np.conj(wv)[None, :]
    problems = check_certificate(data, samples, 1, target, [None, 0.0])
    x, y = dec_matrix(data["x"]), dec_matrix(data["y"])
    if not opnorm(x @ y - y @ x) <= PAIR_TOL:
        problems.append("X and Y do not commute")
    if not opnorm(x @ x @ x - y @ y) <= PAIR_TOL:
        problems.append("X^3 - Y^2 = %.3e" % opnorm(x @ x @ x - y @ y))
    if not max(opnorm(x), opnorm(y)) <= 1.0 + PAIR_TOL:
        problems.append("X or Y is not contractive")
    if not data.get("report", {}).get("witness_norm", 0.0) >= 1.0 + 1e-3:
        problems.append("witness norm does not exceed 1")
    return problems


def _check_naimark(req, data) -> list:
    v = dec_matrix(data["v"])
    problems = []
    if not np.allclose(np.abs(v), 1.0 / math.sqrt(2.0), atol=1e-12):
        problems.append("isometry entries are not 1/sqrt(2) in modulus")
    if not opnorm(v.conj().T @ v - np.eye(v.shape[1])) <= 1e-10:
        problems.append("V is not an isometry")
    half = np.array([[0.5]])
    for p in [dec_hermitian(m) for m in data["p_list"] + data["q_list"]]:
        if not opnorm(v.conj().T @ p @ v - half) <= 1e-10:
            problems.append("a projection does not compress to 1/2")
            break
    if not data.get("reconstruction_error", 1.0) <= 1e-10:
        problems.append("reconstruction error %r" % data.get("reconstruction_error"))
    return problems


def _check_variety(req, data) -> list:
    problems = []
    if data.get("passed") is not False:
        problems.append("the default pair must fail the norm criterion")
    if not abs(data.get("max_norm", 0.0) - math.sqrt(2.0)) <= 1e-8:
        problems.append("max_norm %r is not sqrt(2)" % data.get("max_norm"))
    if not abs(dec_complex(data["witness"]) - (0.5 + 0.5j)) <= 1e-6:
        problems.append("witness %r is not 1/2 + i/2" % data["witness"])
    if len(data.get("profile", ())) != 720:
        problems.append("profile does not have 720 samples")
    return problems


def _check_ccverify(req, data) -> list:
    problems = []
    if not data.get("max_deviation", 1.0) <= 1e-10:
        problems.append("max deviation %r" % data.get("max_deviation"))
    if not data.get("commutator_norm", 1.0) <= 1e-12:
        problems.append("commutator norm %r" % data.get("commutator_norm"))
    if [n for n, _ in data.get("deviations", ())] != [0, 2, 3, 4, 5]:
        problems.append("degrees %r" % data.get("deviations"))
    return problems


CHECKS = {
    "counterexample": _check_counterexample,
    "pick": _check_pick,
    "cone": _check_cone,
    "noxy": _check_noxy,
    "naimark": _check_naimark,
    "variety": _check_variety,
    "ccverify": _check_ccverify,
}


def check(req: dict, code, text) -> list:
    """Problems with one request's exit code and output text."""
    if code != req["code"]:
        return ["exit code %r, expected %r" % (code, req["code"])]
    if text is None:
        return ["no output written"]
    try:
        data = strict_json(text)
    except ValueError as exc:
        return ["output is not strict JSON: %s" % exc]
    if req["status"] is not None and data.get("status") != req["status"]:
        return ["status %r, expected %r" % (data.get("status"), req["status"])]
    try:
        return CHECKS[req["command"]](req, data)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return ["malformed output: %r" % (exc,)]
