"""Command-line surface.

Seven subcommands drive the library end to end: the flagship two-zero
pipeline, Pick-style interpolation checks, raw cone membership, the joint
dilation of rank-one partitions, the equal-squares variety verdict, the
commuting-pair model with its norm-violating witness, and the compression
verifier.  Structured inputs travel in a JSON config file; a handful of
scalar flags override config fields.  Each subcommand returns its exit
code, effective config, result fields and summary line, and ``main`` alone
emits them as JSON with a fixed schema, deterministically: the same
effective config produces the same bytes.  Every emitted certificate is
decoded from its own bytes and audited once (``_audited``).

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

from . import dilation, gns, kernels, linalg
from .cone import (
    PRIMAL_TOL,
    ConeProblem,
    DiscreteMeasure,
    DualCertificate,
    decide,
    default_grid,
    dual_search,
    pick_problem,
    validate_certificate,
    validation_grid,
)
from .kernels import (
    DEFAULT_SAMPLES,
    MatrixBlaschke,
    MatrixKernel,
    SampleSet,
    extended_points,
    f_eval,
    sigma_kernel,
    test_fn,
)

SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# JSON encoding: complex scalars as [re, im], Hermitian matrices as
# lower-triangle row lists, general matrices as full nested lists, and the
# generator parameter np.inf as "inf".


def encode_complex(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def decode_complex(v) -> complex:
    if _is_number(v):
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


def encode_point(p):
    return "inf" if cmath.isinf(p) else encode_complex(p)


def decode_point(v) -> complex:
    z = complex(np.inf) if v == "inf" else decode_complex(v)
    extended_points([z])
    return z


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


def _audited(cert: DualCertificate, problem: ConeProblem, **grid):
    """Encode ``cert``, decode a copy from those bytes and audit it once."""
    encoded = encode_certificate(cert)
    decoded = decode_certificate(json.loads(_dump(encoded)))
    return encoded, decoded, validate_certificate(decoded, problem, **grid)


def _reaudit_failure(cfg: dict, fields: dict):
    """Exit 3: the certificate decoded from the emitted bytes failed its audit."""
    fields.update(status="inconclusive",
                  reason="serialized certificate failed re-validation")
    return 3, cfg, fields, "inconclusive: re-validation failed"


def _decision(cfg: dict, problem: ConeProblem):
    """``decide`` at the config's tol: exit 0 feasible, 2 infeasible, else 3."""
    result = decide(problem, cfg["tol"] or PRIMAL_TOL)
    fields = {"status": result.status}
    if result.status == "feasible":
        fields["measure"] = encode_measure(result.measure)
        fields["residual"] = result.residual
        return 0, cfg, fields, "feasible: residual=%.3e" % result.residual
    if result.status == "infeasible":
        encoded, cert, report = _audited(result.certificate, problem)
        fields["certificate"] = encoded
        if not report.worst_margin >= -cert.eps:
            return _reaudit_failure(cfg, fields)
        return 2, cfg, fields, "infeasible: violation=%.6e" % cert.violation
    fields["residual"] = result.residual
    return 3, cfg, fields, "undecided: residual=%.3e" % result.residual


# ---------------------------------------------------------------------------
# config plumbing


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # NaN, Infinity, or an overflow like 1e400
        raise ValueError("non-finite number %s in config" % text)
    return value


# Config fields read as counts.  JSON floats and booleans are rejected, not
# truncated: 2.5 angles or ``true`` as a block dimension is an input error.
_COUNT_FIELDS = ("angles", "n_max", "block_dim", "validation_radii",
                 "validation_angles")


def _is_number(value, kinds=(int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


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
    for key in _COUNT_FIELDS:
        if key in cfg and not _is_number(cfg[key], int):
            raise ValueError("config field '%s' must be an integer" % key)
    grid = cfg.get("grid")
    if grid is not None and not (isinstance(grid, list)
                                 and all(_is_number(v, int) for v in grid)):
        raise ValueError("config field 'grid' must be a list of integers")
    tol = cfg.get("tol")
    if tol is not None and not (_is_number(tol) and 0 < tol < math.inf):
        raise ValueError("tolerance must be a positive finite number")
    for key in ("margin_floor", "deficiency_max", "norm_cap"):
        if key in cfg and not _is_number(cfg[key]):
            raise ValueError("config field '%s' must be a number" % key)
    return cfg


def _all_or_none(cfg, command: str, keys, defaults) -> None:
    """Defaults for all of the inputs ``keys`` or none; some is an error."""
    given = [cfg[key] is not None for key in keys]
    if not any(given):
        cfg.update(zip(keys, defaults()))
    elif not all(given):
        raise ValueError("%s needs all of %s and %s, or none"
                         % (command, ", ".join(keys[:-1]), keys[-1]))


def _sample_set(cfg) -> SampleSet:
    pts = cfg.get("samples")
    if pts is None:
        return DEFAULT_SAMPLES
    return SampleSet(tuple(decode_complex(p) for p in pts))


def _generator_grid(cfg) -> np.ndarray:
    radii, angles = cfg["grid"]
    return default_grid(radii, angles)


def _restriction(cfg):
    pts = cfg.get("restriction")
    if pts is None:
        return None
    return tuple(decode_point(p) for p in pts)


# ---------------------------------------------------------------------------
# subcommands


def cmd_counterexample(args) -> tuple:
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
    })
    samples = _sample_set(cfg)
    u = (kernels.DEFAULT_UNITARY if cfg["unitary"] is None
         else decode_matrix(cfg["unitary"]))
    mb = MatrixBlaschke(decode_complex(cfg["lambda1"]),
                        decode_complex(cfg["lambda2"]), u)
    f_values = f_eval(mb, samples.array())
    target = sigma_kernel(f_values, samples)
    problem = ConeProblem(samples, 2, _generator_grid(cfg), target)
    radii, angles = cfg["validation_radii"], cfg["validation_angles"]
    cert = dual_search(problem, radii, angles)
    fields = {"diagonal_mixing": kernels.diagonality_test(mb)}
    if cert is None:
        fields.update(status="inconclusive",
                      reason="no separating functional found")
        return 3, cfg, fields, "inconclusive: no separating functional found"

    # The audit of the emitted certificate gates margin_ok.
    encoded, cert, report = _audited(cert, problem, radii=radii, angles=angles)
    space = gns.build_gns(cert.w, samples, block_dim=2)
    lam_grid = validation_grid(radii, angles)
    values = test_fn(lam_grid[:, None], samples.array())
    norms = gns.rep_norm_sweep(space, values)
    t = gns.amplified_deficiency(space, f_values)

    checks = {
        "margin_ok": bool(report.worst_margin >= cfg["margin_floor"]),
        "deficiency_ok": bool(t <= cfg["deficiency_max"]),
        "norms_ok": bool(float(np.max(norms)) <= 1.0 + cfg["norm_cap"]),
    }
    fields.update({
        "status": "certified" if all(checks.values()) else "inconclusive",
        "certificate": encoded,
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
        return 3, cfg, fields, "inconclusive: certificate gates failed %r" % checks
    return 0, cfg, fields, (
        "certified: violation=%.6e margin=%.3e deficiency=%.6e max_norm=%.9f"
        % (cert.violation, report.worst_margin, t, float(np.max(norms))))


def cmd_pick(args) -> tuple:
    cfg = _load_config(args, {"nodes": None, "targets": None,
                              "restriction": None, "tol": None})
    if not cfg["nodes"] or cfg["targets"] is None:
        raise ValueError("pick needs config fields 'nodes' and 'targets'")
    nodes = [decode_complex(v) for v in cfg["nodes"]]
    targets = [decode_complex(v) for v in cfg["targets"]]
    problem = pick_problem(nodes, targets, _restriction(cfg))
    return _decision(cfg, problem)


def cmd_cone(args) -> tuple:
    cfg = _load_config(args, {"samples": None, "block_dim": 1, "target": None,
                              "grid": None, "restriction": None,
                              "tol": None})
    if cfg["target"] is None:
        raise ValueError("cone needs a config field 'target' (Hermitian lower "
                         "triangle of the flattened kernel)")
    if cfg["grid"] is None:
        cfg["grid"] = [10, 32]
    elif cfg["restriction"] is not None:
        raise ValueError("cone: a grid has no effect when a restriction is "
                         "given")
    samples = _sample_set(cfg)
    d = cfg["block_dim"]
    flat = decode_hermitian(cfg["target"])
    target = MatrixKernel(samples, d, flat)
    problem = ConeProblem(samples, d, _generator_grid(cfg), target,
                          generator_restriction=_restriction(cfg))
    return _decision(cfg, problem)


def cmd_naimark(args) -> tuple:
    cfg = _load_config(args, {"a_list": None, "b_list": None})
    half = [[[0.5, 0.0]]]
    _all_or_none(cfg, "naimark", ("a_list", "b_list"),
                 lambda: ([half, half], [half, half]))
    a = tuple(decode_hermitian(m) for m in cfg["a_list"])
    b = tuple(decode_hermitian(m) for m in cfg["b_list"])
    inp = dilation.NaimarkInput(a, b)
    dil = dilation.naimark(inp)
    worst = linalg.op_norm(dil.v.conj().T @ dil.v - np.eye(inp.dim))
    for mat, proj in zip(inp.a_list + inp.b_list, dil.p_list + dil.q_list):
        worst = max(worst, linalg.op_norm(
            dil.v.conj().T @ proj @ dil.v - mat))
    fields = {
        "v": encode_matrix(dil.v),
        "p_list": [encode_hermitian(p) for p in dil.p_list],
        "q_list": [encode_hermitian(q) for q in dil.q_list],
        "u": encode_matrix(dil.u),
        "reconstruction_error": worst,
        "status": "exact" if worst <= 1e-10 else "inexact",
    }
    return (0 if worst <= 1e-10 else 2, cfg, fields,
            "%s: reconstruction_error=%.3e" % (fields["status"], worst))


def cmd_variety(args) -> tuple:
    cfg = _load_config(args, {"s": None, "t": None, "angles": 720,
                              "tol": 1e-8})
    _all_or_none(cfg, "variety", ("s", "t"), lambda: (
        encode_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])),
        encode_matrix(np.array([[0.0, 1.0j], [0.0, 0.0]]))))
    pair = dilation.VarietyPair(decode_matrix(cfg["s"]), decode_matrix(cfg["t"]))
    verdict = dilation.variety_verdict(pair, cfg["angles"], cfg["tol"])
    fields = {
        "passed": verdict.passed,
        "max_norm": verdict.max_norm,
        "witness": encode_complex(verdict.witness),
        "message": verdict.message,
        "max_adjacent_diff": verdict.sweep.max_adjacent_diff,
        "profile": [float(v) for v in verdict.sweep.profile],
    }
    return (0 if verdict.passed else 2, cfg, fields,
            "%s: max_norm=%.9f at lambda=%s"
            % ("PASS" if verdict.passed else "FAIL", verdict.max_norm,
               verdict.witness))


def cmd_noxy(args) -> tuple:
    cfg = _load_config(args, {"witness_point": [0.4, 0.0], "samples": None})
    samples = _sample_set(cfg)
    mu = decode_complex(cfg["witness_point"])
    extended_points([mu])
    witness = test_fn(mu, samples.array())
    target = sigma_kernel(witness[:, None, None], samples)
    # The squaring generators z^2 and z^3 alone, in place of a grid.
    squaring = (np.inf, 0.0)
    problem = ConeProblem(samples, 1, squaring, target,
                          generator_restriction=squaring)
    cert = dual_search(problem)
    if cert is None:
        return 3, cfg, {
            "status": "inconclusive", "criteria_met": False,
            "reason": "no separating functional for the witness kernel",
        }, "inconclusive: no separating functional"
    encoded, cert, audit = _audited(cert, problem)
    x, y, report = gns.build_noxy(samples, cert.w, witness)
    met = bool(report.contractive() and report.relations_hold()
               and report.norm_violated())
    fields = {
        "status": "violating pair constructed" if met else "inconclusive",
        "criteria_met": met,
        "certificate": encoded,
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
    }
    if not met:
        return 3, cfg, fields, "inconclusive: pair fails a gate"
    if not audit.worst_margin >= -cert.eps:
        return _reaudit_failure(cfg, fields)
    return 0, cfg, fields, (
        "constructed: witness_norm=%.6f x_norm=%.6f y_norm=%.6f"
        % (report.witness_norm, report.x_norm, report.y_norm))


def _ccverify_default():
    u, _, embed = dilation.truncated_shift(8)
    x = embed.conj().T @ np.linalg.matrix_power(u, 2) @ embed
    y = embed.conj().T @ np.linalg.matrix_power(u, 3) @ embed
    return map(encode_matrix, (x, y, u, embed))


def cmd_ccverify(args) -> tuple:
    cfg = _load_config(args, {"x": None, "y": None, "u": None, "embed": None,
                              "n_max": 5, "tol": 1e-10})
    _all_or_none(cfg, "ccverify", ("x", "y", "u", "embed"), _ccverify_default)
    report = dilation.cc_dilation_verify(
        decode_matrix(cfg["x"]), decode_matrix(cfg["y"]),
        decode_matrix(cfg["u"]), decode_matrix(cfg["embed"]), cfg["n_max"])
    ok = report.ok(cfg["tol"])
    fields = {
        "deviations": [[n, d] for n, d in report.deviations],
        "commutator_norm": report.commutator_norm,
        "relation_gap": report.relation_gap,
        "max_deviation": report.max_deviation,
        "status": "compressed" if ok else "mismatch",
    }
    return (0 if ok else 2, cfg, fields, "%s: max_deviation=%.3e"
            % (fields["status"], report.max_deviation))


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
    "noxy": (),
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # An overflow inside a solve ends at a finiteness gate as an input
        # error; numpy's floating-point warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            code, cfg, fields, summary = _COMMANDS[args.command](args)
        _emit({"schema_version": SCHEMA_VERSION, "kind": args.command,
               "config": cfg, **fields}, args.out, summary)
        return code
    except (ValueError, TypeError, OverflowError, OSError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
