"""Command-line surface.

Seven subcommands drive the library end to end: the flagship two-zero
pipeline, Pick-style interpolation checks, raw cone membership, the joint
dilation of rank-one partitions, the equal-squares variety verdict, the
commuting-pair model with its norm-violating witness, and the compression
verifier.  Structured inputs travel in a JSON config file; a handful of
scalar flags override config fields.  All results are emitted as JSON with
a fixed schema, deterministically: the same effective config produces the
same bytes.

Exit codes: 0 affirmative, 2 negative with certificate, 3 inconclusive,
1 usage or input error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

import numpy as np

from . import cone, dilation, gns, kernels, linalg
from .cone import (
    ConeProblem,
    DiscreteMeasure,
    DualCertificate,
    DualOptions,
    Feasible,
    PrimalOptions,
    default_grid,
    dual_search,
    margins,
    pick_check,
    primal_feasibility,
    validate_certificate,
    validation_grid,
)
from .kernels import (
    DEFAULT_SAMPLES,
    ExtendedPoint,
    MatrixBlaschke,
    MatrixKernel,
    SampleSet,
    f_eval,
    sigma_kernel,
    test_fn,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# JSON encoding: complex scalars as [re, im], Hermitian matrices as
# lower-triangle row lists, general matrices as full nested lists.


def encode_complex(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(v) -> complex:
    if isinstance(v, (int, float)):
        z = complex(v)
    else:
        re, im = v
        z = complex(float(re), float(im))
    if not cmath.isfinite(z):
        raise ValueError("non-finite number %r" % (v,))
    return z


def encode_hermitian(w) -> list:
    w = np.asarray(w, dtype=complex)
    return [[encode_complex(w[i, j]) for j in range(i + 1)]
            for i in range(w.shape[0])]


def decode_hermitian(rows) -> np.ndarray:
    n = len(rows)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if len(row) != i + 1:
            raise ValueError("row %d of a lower triangle must have %d entries"
                             % (i, i + 1))
        for j, v in enumerate(row):
            out[i, j] = decode_complex(v)
            out[j, i] = np.conj(out[i, j])
    for i in range(n):
        if abs(out[i, i].imag) > 1e-12 * (1.0 + abs(out[i, i])):
            raise ValueError("diagonal entry %d is not real" % i)
        out[i, i] = out[i, i].real
    return out


def encode_matrix(a) -> list:
    a = np.asarray(a, dtype=complex)
    return [[encode_complex(v) for v in row] for row in a]


def decode_matrix(rows) -> np.ndarray:
    return np.array([[decode_complex(v) for v in row] for row in rows],
                    dtype=complex)


def encode_point(p: ExtendedPoint):
    return "inf" if p.is_infinity else encode_complex(p.point)


def decode_point(v) -> ExtendedPoint:
    if v == "inf":
        return ExtendedPoint.infinity()
    return ExtendedPoint.disk(decode_complex(v))


def encode_measure(m: DiscreteMeasure) -> dict:
    return {
        "grid": [encode_point(p) for p in m.grid],
        "blocks": [encode_hermitian(b) for b in m.blocks],
    }


def decode_measure(obj) -> DiscreteMeasure:
    grid = tuple(decode_point(v) for v in obj["grid"])
    blocks = np.array([decode_hermitian(b) for b in obj["blocks"]])
    return DiscreteMeasure(grid, blocks)


def encode_certificate(c: DualCertificate) -> dict:
    return {
        "w": encode_hermitian(c.w),
        "grid_margin": c.grid_margin,
        "violation": c.violation,
        "validation_grid_size": c.validation_grid_size,
        "eps": c.eps,
        "delta": c.delta,
    }


def decode_certificate(obj) -> DualCertificate:
    return DualCertificate(
        decode_hermitian(obj["w"]),
        float(obj["grid_margin"]),
        float(obj["violation"]),
        int(obj["validation_grid_size"]),
        eps=float(obj["eps"]),
        delta=float(obj["delta"]),
    )


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    raise TypeError("cannot serialize %s" % type(o).__name__)


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                      default=_json_default) + "\n"


def _emit(payload: dict, out_path, summary: str) -> None:
    text = _dump(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(summary)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# config plumbing


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # NaN, Infinity, or an overflow like 1e400
        raise ValueError("non-finite number %s in config" % text)
    return value


def _load_config(args, defaults: dict) -> dict:
    cfg = dict(defaults)
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh, parse_float=_finite_number,
                               parse_constant=_finite_number)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ValueError("unknown config key(s) for %s: %s"
                             % (args.command, ", ".join(unknown)))
        cfg.update(loaded)
    for flag in _FLAGS[args.command]:
        value = getattr(args, flag)
        if value is not None:
            cfg[flag] = list(value) if flag == "grid" else value
    if args.seed is not None:
        cfg["seed"] = args.seed
    tol = cfg.get("tol")
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")
    return cfg


def _sample_set(cfg) -> SampleSet:
    pts = cfg.get("samples")
    if pts is None:
        return DEFAULT_SAMPLES
    return SampleSet(tuple(decode_complex(p) for p in pts))


def _generator_grid(cfg) -> tuple:
    radii, angles = cfg.get("grid", [10, 32])
    return default_grid(int(radii), int(angles))


def _restriction(cfg):
    pts = cfg.get("restriction")
    if pts is None:
        return None
    return tuple(decode_point(p) for p in pts)


# ---------------------------------------------------------------------------
# subcommands


def cmd_counterexample(args) -> int:
    cfg = _load_config(args, {
        "lambda1": [0.5, 0.0],
        "lambda2": [-0.5, 0.0],
        "unitary": None,
        "samples": None,
        "grid": [10, 32],
        "validation_radii": 64,
        "validation_angles": 128,
        "margin_floor": -1e-6,
        "deficiency_max": -1e-4,
        "norm_cap": 1e-6,
        "seed": 0,
    })
    samples = _sample_set(cfg)
    u = decode_matrix(cfg["unitary"]) if cfg["unitary"] else kernels.DEFAULT_UNITARY
    mb = MatrixBlaschke(decode_complex(cfg["lambda1"]),
                        decode_complex(cfg["lambda2"]), u)
    f_values = f_eval(mb, samples.array())
    target = sigma_kernel(f_values, samples)
    problem = ConeProblem(samples, 2, _generator_grid(cfg), target)
    opts = DualOptions(validation_radii=int(cfg["validation_radii"]),
                       validation_angles=int(cfg["validation_angles"]))
    cert = dual_search(problem, opts)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "counterexample",
        "config": cfg,
        "diagonal_mixing": kernels.diagonality_test(mb),
    }
    if cert is None:
        payload["status"] = "inconclusive"
        payload["reason"] = "no separating functional found"
        _emit(payload, args.out, "inconclusive: no separating functional found")
        return 3

    report = validate_certificate(cert, problem,
                                  radii=int(cfg["validation_radii"]),
                                  angles=int(cfg["validation_angles"]))
    space = gns.build_gns(cert.w, samples, block_dim=2)
    lam_grid = list(validation_grid(int(cfg["validation_radii"]),
                                    int(cfg["validation_angles"])))
    values = np.array([test_fn(p, samples.array()) for p in lam_grid])
    norms = gns.rep_norm_sweep(space, values)
    t = gns.amplified_deficiency(space, f_values)

    checks = {
        "margin_ok": bool(report.worst_margin >= cfg["margin_floor"]),
        "deficiency_ok": bool(t <= cfg["deficiency_max"]),
        "norms_ok": bool(float(np.max(norms)) <= 1.0 + cfg["norm_cap"]),
    }
    payload.update({
        "status": "certified" if all(checks.values()) else "inconclusive",
        "certificate": encode_certificate(cert),
        "validation": {
            "worst_margin": report.worst_margin,
            "worst_point": encode_point(report.worst_point),
            "modulus_estimate": report.modulus_estimate,
            "grid_size": report.grid_size,
        },
        "representation": {
            "dim": problem.dim,
            "rank": space.rank,
            "max_test_norm": float(np.max(norms)),
            "norm_grid_size": len(lam_grid),
            "deficiency": t,
        },
        "checks": checks,
    })
    if not all(checks.values()):
        _emit(payload, args.out, "inconclusive: certificate gates failed %r" % checks)
        return 3

    # re-validate the emitted bytes before claiming success
    reloaded = json.loads(_dump(payload))
    cert2 = decode_certificate(reloaded["certificate"])
    report2 = validate_certificate(cert2, problem,
                                   radii=int(cfg["validation_radii"]),
                                   angles=int(cfg["validation_angles"]))
    if report2.worst_margin < cfg["margin_floor"]:
        payload["status"] = "inconclusive"
        payload["reason"] = "serialized certificate failed re-validation"
        _emit(payload, args.out, "inconclusive: re-validation failed")
        return 3
    _emit(payload, args.out,
          "certified: violation=%.6e margin=%.3e deficiency=%.6e max_norm=%.9f"
          % (cert.violation, report.worst_margin, t, float(np.max(norms))))
    return 0


def cmd_pick(args) -> int:
    cfg = _load_config(args, {"nodes": None, "targets": None,
                              "restriction": None, "tol": None, "seed": 0})
    if not cfg["nodes"] or cfg["targets"] is None:
        raise ValueError("pick needs config fields 'nodes' and 'targets'")
    nodes = [decode_complex(v) for v in cfg["nodes"]]
    targets = [decode_complex(v) for v in cfg["targets"]]
    popts = PrimalOptions(tol=cfg["tol"]) if cfg["tol"] else None
    result = pick_check(nodes, targets, restriction=_restriction(cfg),
                        primal_opts=popts)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "pick",
        "config": cfg,
        "status": result.status,
    }
    if result.status == "feasible":
        payload["measure"] = encode_measure(result.measure)
        payload["residual"] = result.residual
        _emit(payload, args.out, "feasible: residual=%.3e" % result.residual)
        return 0
    if result.status == "infeasible":
        payload["certificate"] = encode_certificate(result.certificate)
        _emit(payload, args.out,
              "infeasible: violation=%.6e" % result.certificate.violation)
        return 2
    payload["residual"] = result.residual
    _emit(payload, args.out, "undecided: residual=%.3e" % result.residual)
    return 3


def cmd_cone(args) -> int:
    cfg = _load_config(args, {"samples": None, "block_dim": 1, "target": None,
                              "grid": [10, 32], "restriction": None,
                              "tol": None, "seed": 0})
    if cfg["target"] is None:
        raise ValueError("cone needs a config field 'target' (Hermitian lower "
                         "triangle of the flattened kernel)")
    samples = _sample_set(cfg)
    d = int(cfg["block_dim"])
    flat = decode_hermitian(cfg["target"])
    target = MatrixKernel(samples, d, flat)
    problem = ConeProblem(samples, d, _generator_grid(cfg), target,
                          generator_restriction=_restriction(cfg))
    popts = PrimalOptions(tol=cfg["tol"]) if cfg["tol"] else PrimalOptions()
    primal = primal_feasibility(problem, popts)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "cone",
        "config": cfg,
    }
    if isinstance(primal, Feasible):
        payload["status"] = "feasible"
        payload["measure"] = encode_measure(primal.measure)
        payload["residual"] = primal.residual
        _emit(payload, args.out, "feasible: residual=%.3e" % primal.residual)
        return 0
    cert = dual_search(problem)
    if cert is not None:
        payload["status"] = "infeasible"
        payload["certificate"] = encode_certificate(cert)
        reloaded = decode_certificate(json.loads(_dump(payload))["certificate"])
        validate_certificate(reloaded, problem)
        _emit(payload, args.out, "infeasible: violation=%.6e" % cert.violation)
        return 2
    payload["status"] = "undecided"
    payload["residual"] = primal.residual
    _emit(payload, args.out, "undecided: residual=%.3e" % primal.residual)
    return 3


def cmd_naimark(args) -> int:
    cfg = _load_config(args, {"a_list": None, "b_list": None, "seed": 0})
    if cfg["a_list"] is None:
        half = [[[0.5, 0.0]]]
        cfg["a_list"] = [half, half]
        cfg["b_list"] = [half, half]
    a = tuple(decode_hermitian(m) for m in cfg["a_list"])
    b = tuple(decode_hermitian(m) for m in cfg["b_list"])
    inp = dilation.NaimarkInput(a, b)
    dil = dilation.naimark(inp)
    worst = linalg.op_norm(dil.v.conj().T @ dil.v - np.eye(inp.dim))
    for mat, proj in zip(inp.a_list + inp.b_list, dil.p_list + dil.q_list):
        worst = max(worst, linalg.op_norm(
            dil.v.conj().T @ proj @ dil.v - mat))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "naimark",
        "config": cfg,
        "v": encode_matrix(dil.v),
        "p_list": [encode_hermitian(p) for p in dil.p_list],
        "q_list": [encode_hermitian(q) for q in dil.q_list],
        "u": encode_matrix(dil.u),
        "reconstruction_error": worst,
        "status": "exact" if worst <= 1e-10 else "inexact",
    }
    _emit(payload, args.out, "%s: reconstruction_error=%.3e"
          % (payload["status"], worst))
    return 0 if worst <= 1e-10 else 2


def cmd_variety(args) -> int:
    cfg = _load_config(args, {"s": None, "t": None, "angles": 720,
                              "tol": 1e-8, "seed": 0})
    if cfg["s"] is None:
        cfg["s"] = encode_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        cfg["t"] = encode_matrix(np.array([[0.0, 1.0j], [0.0, 0.0]]))
    pair = dilation.VarietyPair(decode_matrix(cfg["s"]), decode_matrix(cfg["t"]))
    sweep = dilation.variety_check(pair, int(cfg["angles"]))
    verdict = dilation.variety_verdict(pair, int(cfg["angles"]), cfg["tol"])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "variety",
        "config": cfg,
        "passed": verdict.passed,
        "max_norm": verdict.max_norm,
        "witness": encode_complex(verdict.witness),
        "message": verdict.message,
        "max_adjacent_diff": sweep.max_adjacent_diff,
        "profile": [float(v) for v in sweep.profile],
    }
    _emit(payload, args.out, "%s: max_norm=%.9f at lambda=%s"
          % ("PASS" if verdict.passed else "FAIL", verdict.max_norm,
             verdict.witness))
    return 0 if verdict.passed else 2


def cmd_noxy(args) -> int:
    cfg = _load_config(args, {"witness_point": [0.4, 0.0], "samples": None,
                              "grid": [10, 32], "seed": 0})
    samples = _sample_set(cfg)
    mu = ExtendedPoint.disk(decode_complex(cfg["witness_point"]))
    witness = test_fn(mu, samples.array())
    target = sigma_kernel(witness[:, None, None], samples)
    problem = ConeProblem(
        samples, 1, _generator_grid(cfg), target,
        generator_restriction=(ExtendedPoint.infinity(),
                               ExtendedPoint.disk(0.0)),
    )
    cert = dual_search(problem)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "noxy",
        "config": cfg,
    }
    if cert is None:
        payload["status"] = "inconclusive"
        payload["criteria_met"] = False
        payload["reason"] = "no separating functional for the witness kernel"
        _emit(payload, args.out, "inconclusive: no separating functional")
        return 3
    x, y, report = gns.build_noxy(samples, cert.w, witness)
    met = bool(report.contractive() and report.relations_hold()
               and report.norm_violated())
    payload.update({
        "status": "violating pair constructed" if met else "inconclusive",
        "criteria_met": met,
        "certificate": encode_certificate(cert),
        "x": encode_matrix(x),
        "y": encode_matrix(y),
        "report": {
            "x_norm": report.x_norm,
            "y_norm": report.y_norm,
            "commutator_norm": report.commutator_norm,
            "relation_gap": report.relation_gap,
            "witness_norm": report.witness_norm,
            "rank": report.rank,
        },
    })
    if not met:
        _emit(payload, args.out, "inconclusive: pair fails a gate")
        return 3
    reloaded = decode_certificate(json.loads(_dump(payload))["certificate"])
    validate_certificate(reloaded, problem)
    _emit(payload, args.out,
          "constructed: witness_norm=%.6f x_norm=%.6f y_norm=%.6f"
          % (report.witness_norm, report.x_norm, report.y_norm))
    return 0


def _ccverify_default():
    window = 8
    dim = 2 * window + 1
    u = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        u[(i + 1) % dim, i] = 1.0
    h = (0,) + tuple(range(2, window + 1))
    embed = np.zeros((dim, len(h)), dtype=complex)
    for col, k in enumerate(h):
        embed[window + k, col] = 1.0
    x = embed.conj().T @ np.linalg.matrix_power(u, 2) @ embed
    y = embed.conj().T @ np.linalg.matrix_power(u, 3) @ embed
    return x, y, u, embed, 5


def cmd_ccverify(args) -> int:
    cfg = _load_config(args, {"x": None, "y": None, "u": None, "embed": None,
                              "n_max": 5, "tol": 1e-10, "seed": 0})
    if cfg["x"] is None:
        x, y, u, embed, n_max = _ccverify_default()
        cfg["x"], cfg["y"] = encode_matrix(x), encode_matrix(y)
        cfg["u"], cfg["embed"] = encode_matrix(u), encode_matrix(embed)
        cfg["n_max"] = n_max
    report = dilation.cc_dilation_verify(
        decode_matrix(cfg["x"]), decode_matrix(cfg["y"]),
        decode_matrix(cfg["u"]), decode_matrix(cfg["embed"]),
        int(cfg["n_max"]))
    ok = report.ok(cfg["tol"])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "ccverify",
        "config": cfg,
        "deviations": [[n, d] for n, d in report.deviations],
        "commutator_norm": report.commutator_norm,
        "relation_gap": report.relation_gap,
        "max_deviation": report.max_deviation,
        "status": "compressed" if ok else "mismatch",
    }
    _emit(payload, args.out, "%s: max_deviation=%.3e"
          % (payload["status"], report.max_deviation))
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not 2
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _grid_spec(text: str):
    try:
        radii, angles = text.lower().split("x")
        return int(radii), int(angles)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "grid spec must look like RADIIxANGLES, e.g. 10x32") from None


_COMMANDS = {
    "counterexample": cmd_counterexample,
    "pick": cmd_pick,
    "cone": cmd_cone,
    "naimark": cmd_naimark,
    "variety": cmd_variety,
    "noxy": cmd_noxy,
    "ccverify": cmd_ccverify,
}

# Scalar flags that override config fields.  Each subcommand registers only
# the ones it reads, so passing any other is a usage error.
_FLAG_SPECS = {
    "tol": {"type": float, "help": "override the main tolerance"},
    "grid": {"type": _grid_spec, "help": "generator grid as RADIIxANGLES"},
    "angles": {"type": int, "help": "angle samples for circle sweeps"},
}
_FLAGS = {
    "counterexample": ("grid",),
    "pick": ("tol",),
    "cone": ("tol", "grid"),
    "naimark": (),
    "variety": ("tol", "angles"),
    "noxy": ("grid",),
    "ccverify": ("tol",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="neilcone",
                     description="cone membership, certificates, and dilations "
                                 "for the constrained disk algebra")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help="run the %s pipeline" % name)
        p.add_argument("--config", help="JSON file with structured inputs")
        p.add_argument("--out", help="write the JSON result here")
        for flag in _FLAGS[name]:
            p.add_argument("--" + flag, **_FLAG_SPECS[flag])
        p.add_argument("--seed", type=int, help="seed recorded in the output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OverflowError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
