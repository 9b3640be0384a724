"""Command-line surface.

Seven subcommands drive the library end to end: the flagship two-zero
pipeline, Pick-style interpolation checks, raw cone membership, the joint
dilation of rank-one partitions, the equal-squares variety verdict, the
commuting-pair model with its norm-violating witness, and the compression
verifier.  Structured inputs travel in a JSON config file; a handful of
scalar flags override config fields, and every field is checked and
decoded by its kind (``_CONFIG``) before a subcommand runs.  ``main``
alone emits each subcommand's exit code, result fields and summary with
the effective config, as JSON with a fixed schema, deterministically: the
same effective config produces the same bytes.  Every emitted certificate
is decoded from its own bytes and audited once (``_audited``).

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
    elif isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)):
        z = complex(float(v[0]), float(v[1]))
    else:
        raise ValueError("a complex number must be a number or a list "
                         "[re, im], got %r" % (v,))
    if not cmath.isfinite(z):
        raise ValueError("non-finite number %r" % (v,))
    return z


def encode_hermitian(w) -> list:
    w = np.asarray(w, dtype=complex)
    return [[encode_complex(w[i, j]) for j in range(i + 1)]
            for i in range(w.shape[0])]


def decode_hermitian(rows, field: str) -> np.ndarray:
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and len(row) == i + 1
            for i, row in enumerate(rows))):
        raise ValueError("field '%s' must be a lower triangle: a list of "
                         "rows, row i a list of i + 1 complex numbers" % field)
    n = len(rows)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
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


def decode_matrix(rows, field: str) -> np.ndarray:
    if not (isinstance(rows, list)
            and all(isinstance(row, list) for row in rows)
            and len({len(row) for row in rows}) <= 1):
        raise ValueError("field '%s' must be a matrix: a list of rows, each a "
                         "list of the same number of complex numbers" % field)
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
    blocks = np.array([decode_hermitian(b, "blocks[%d]" % i)
                       for i, b in enumerate(obj["blocks"])])
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
        decode_hermitian(obj["w"], "w"),
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
    """Compact JSON with sorted keys, one line and a newline; compact output
    keeps CPython's C encoder (``indent`` falls back to the pure-Python one)."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True,
                      allow_nan=False, default=_json_default) + "\n"


def _emit(payload: dict, out_path, summary: str) -> None:
    text = _dump(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
        print(summary)
    else:
        sys.stdout.write(text)


def _audited(cert: DualCertificate, problem: ConeProblem):
    """Encode ``cert``, decode a copy from those bytes and audit it once:
    (encoded, copy, report, ok), ok when the worst margin clears -copy.eps."""
    encoded = encode_certificate(cert)
    decoded = decode_certificate(json.loads(_dump(encoded)))
    report = validate_certificate(decoded, problem)
    return encoded, decoded, report, bool(report.worst_margin >= -decoded.eps)


def _reaudit_failure(fields: dict):
    """Exit 3: the certificate decoded from the emitted bytes failed its audit."""
    fields.update(status="inconclusive",
                  reason="serialized certificate failed re-validation")
    return 3, fields, "inconclusive: re-validation failed"


def _decision(tol, problem: ConeProblem):
    """``decide`` at the config's tol: exit 0 feasible, 2 infeasible, else 3."""
    result = decide(problem, tol or PRIMAL_TOL)
    fields = {"status": result.status}
    if result.status == "feasible":
        fields["measure"] = encode_measure(result.measure)
        fields["residual"] = result.residual
        return 0, fields, "feasible: residual=%.3e" % result.residual
    if result.status == "infeasible":
        encoded, cert, _, ok = _audited(result.certificate, problem)
        fields["certificate"] = encoded
        if not ok:
            return _reaudit_failure(fields)
        return 2, fields, "infeasible: violation=%.6e" % cert.violation
    fields["residual"] = result.residual
    return 3, fields, "undecided: residual=%.3e" % result.residual


# ---------------------------------------------------------------------------
# config: one table holds every subcommand's fields


def _ccverify_default():
    u, _, embed = dilation.truncated_shift(8)
    x = embed.conj().T @ np.linalg.matrix_power(u, 2) @ embed
    y = embed.conj().T @ np.linalg.matrix_power(u, 3) @ embed
    return map(encode_matrix, (x, y, u, embed))


# subcommand -> config field -> (default, kind).  A field with a null default
# is optional, and null there means "not given".  --tol, --grid and --angles
# override the field of that name, on exactly the subcommands that have it.
_CONFIG = {
    "counterexample": {
        "lambda1": ([0.5, 0.0], "complex"), "lambda2": ([-0.5, 0.0], "complex"),
        "unitary": (None, "matrix"), "samples": (None, "samples"),
        "grid": ([10, 32], "grid"), "validation_radii": (64, "count"),
        "validation_angles": (128, "count")},
    "pick": {"nodes": (None, "complexes"), "targets": (None, "complexes"),
             "restriction": (None, "points"), "tol": (None, "tol")},
    "cone": {"samples": (None, "samples"), "block_dim": (1, "count"),
             "target": (None, "lower triangle"), "grid": ([10, 32], "grid"),
             "restriction": (None, "points"), "tol": (None, "tol")},
    "naimark": {"a_list": (None, "lower triangles"),
                "b_list": (None, "lower triangles")},
    "variety": {"s": (None, "matrix"), "t": (None, "matrix"),
                "angles": (720, "count"), "tol": (1e-8, "tol")},
    "noxy": {"witness_point": ([0.4, 0.0], "complex"),
             "samples": (None, "samples")},
    "ccverify": {"x": (None, "matrix"), "y": (None, "matrix"),
                 "u": (None, "matrix"), "embed": (None, "matrix"),
                 "n_max": (5, "count"), "tol": (1e-10, "tol")},
}

# Inputs that go together: given all or none, and with none, the default set.
_HALF = [[[0.5, 0.0]]]
_DEFAULT_SETS = {
    "naimark": (("a_list", "b_list"), lambda: ([_HALF] * 2, [_HALF] * 2)),
    "variety": (("s", "t"), lambda: (
        encode_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])),
        encode_matrix(np.array([[0.0, 1.0j], [0.0, 0.0]])))),
    "ccverify": (("x", "y", "u", "embed"), _ccverify_default),
}


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # NaN, Infinity, or an overflow like 1e400
        raise ValueError("non-finite number %s in config" % text)
    return value


def _is_number(value, kinds=(int, float)) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def _decoded(kind: str, value, field: str):
    """Check the config ``value`` of ``field`` against its kind; decode it.

    Counts are exact: a JSON float or boolean is rejected, not truncated.
    """
    if kind == "complex":
        return decode_complex(value)
    if kind == "tol":
        if not (_is_number(value) and 0 < value < math.inf):
            raise ValueError("tolerance must be a positive finite number")
        if value >= 1:
            raise ValueError("tolerance must be below 1")
        return value
    if kind == "count":
        if not _is_number(value, int):
            raise ValueError("config field '%s' must be an integer" % field)
        return value
    if kind == "grid":
        if not (isinstance(value, list) and len(value) == 2
                and all(_is_number(v, int) for v in value)):
            raise ValueError("config field 'grid' must be a list of integers "
                             "[radii, angles]")
        return default_grid(*value)
    if not isinstance(value, list):
        raise ValueError("config field '%s' must be a list" % field)
    if kind == "matrix":
        return decode_matrix(value, field)
    if kind == "lower triangle":
        return decode_hermitian(value, field)
    if kind == "lower triangles":
        return tuple(decode_hermitian(m, "%s[%d]" % (field, i))
                     for i, m in enumerate(value))
    points = tuple(map(decode_point if kind == "points" else decode_complex,
                       value))
    return SampleSet(points) if kind == "samples" else points


def _all_or_none(cfg, command: str, keys, defaults) -> None:
    """Defaults for all of the inputs ``keys`` or none; some is an error."""
    given = [cfg[key] is not None for key in keys]
    if not any(given):
        cfg.update(zip(keys, defaults()))
    elif not all(given):
        raise ValueError("%s needs all of %s and %s, or none"
                         % (command, ", ".join(keys[:-1]), keys[-1]))


def _load_config(args):
    """The echoed config and its decoded values, every field checked."""
    table = _CONFIG[args.command]
    given = {}
    if args.config:
        with open(args.config) as fh:
            given = json.load(fh, parse_float=_finite_number,
                              parse_constant=_finite_number)
        if not isinstance(given, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(given) - set(table))
        if unknown:
            raise ValueError("unknown config key(s) for %s: %s"
                             % (args.command, ", ".join(unknown)))
    for flag in _FLAG_SPECS.keys() & table.keys():
        value = getattr(args, flag)
        if value is not None:
            given[flag] = list(value) if flag == "grid" else value
    cfg = {**{field: default for field, (default, _) in table.items()}, **given}
    if args.command in _DEFAULT_SETS:
        _all_or_none(cfg, args.command, *_DEFAULT_SETS[args.command])
    if given.get("grid") is not None and cfg.get("restriction") is not None:
        raise ValueError("%s: a grid has no effect when a restriction is "
                         "given" % args.command)
    return cfg, {field: None if cfg[field] is None and default is None
                 else _decoded(kind, cfg[field], field)
                 for field, (default, kind) in table.items()}


# ---------------------------------------------------------------------------
# subcommands: each takes the decoded config values


def cmd_counterexample(v) -> tuple:
    samples = v["samples"] or DEFAULT_SAMPLES
    u = kernels.DEFAULT_UNITARY if v["unitary"] is None else v["unitary"]
    mb = MatrixBlaschke(v["lambda1"], v["lambda2"], u)
    f_values = f_eval(mb, samples.array())
    target = sigma_kernel(f_values, samples)
    problem = ConeProblem(samples, 2, v["grid"], target,
                          validation_radii=v["validation_radii"],
                          validation_angles=v["validation_angles"])
    cert = dual_search(problem)
    fields = {"diagonal_mixing": kernels.diagonality_test(mb)}
    if cert is None:
        fields.update(status="inconclusive",
                      reason="no separating functional found")
        return 3, fields, "inconclusive: no separating functional found"

    # The gates read the emitted certificate's eps and delta, and PAIR_TOL.
    encoded, cert, report, margin_ok = _audited(cert, problem)
    space = gns.build_gns(cert.w, samples, block_dim=2)
    values = test_fn(problem.audit_grid[:, None], samples.array())
    max_norm = float(np.max(gns.rep_norm_sweep(space, values)))
    t = gns.amplified_deficiency(space, f_values)

    checks = {
        "margin_ok": margin_ok,
        "deficiency_ok": t <= -cert.delta,
        "norms_ok": max_norm <= 1.0 + gns.PAIR_TOL,
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
            "max_test_norm": max_norm,
            "norm_grid_size": len(values),
            "deficiency": t,
        },
        "checks": checks,
    })
    if not all(checks.values()):
        return 3, fields, "inconclusive: certificate gates failed %r" % checks
    return 0, fields, (
        "certified: violation=%.6e margin=%.3e deficiency=%.6e max_norm=%.9f"
        % (cert.violation, report.worst_margin, t, max_norm))


def cmd_pick(v) -> tuple:
    if not v["nodes"] or v["targets"] is None:
        raise ValueError("pick needs config fields 'nodes' and 'targets'")
    problem = pick_problem(v["nodes"], v["targets"], v["restriction"])
    return _decision(v["tol"], problem)


def cmd_cone(v) -> tuple:
    if v["target"] is None:
        raise ValueError("cone needs a config field 'target' (Hermitian lower "
                         "triangle of the flattened kernel)")
    samples = v["samples"] or DEFAULT_SAMPLES
    target = MatrixKernel(samples, v["block_dim"], v["target"])
    problem = ConeProblem(samples, v["block_dim"], v["grid"], target,
                          generator_restriction=v["restriction"])
    return _decision(v["tol"], problem)


def cmd_naimark(v) -> tuple:
    inp = dilation.NaimarkInput(v["a_list"], v["b_list"])
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
    return (0 if worst <= 1e-10 else 2, fields,
            "%s: reconstruction_error=%.3e" % (fields["status"], worst))


def cmd_variety(v) -> tuple:
    pair = dilation.VarietyPair(v["s"], v["t"])
    verdict = dilation.variety_verdict(pair, v["angles"], v["tol"])
    fields = {
        "passed": verdict.passed,
        "max_norm": verdict.max_norm,
        "witness": encode_complex(verdict.witness),
        "message": verdict.message,
        "max_adjacent_diff": verdict.sweep.max_adjacent_diff,
        "profile": [float(x) for x in verdict.sweep.profile],
    }
    if verdict.reason is not None:
        fields["reason"] = verdict.reason
        return 3, fields, "inconclusive: %s" % verdict.reason
    return (0 if verdict.passed else 2, fields,
            "%s: max_norm=%.9f at lambda=%s"
            % ("PASS" if verdict.passed else "FAIL", verdict.max_norm,
               verdict.witness))


def cmd_noxy(v) -> tuple:
    samples = v["samples"] or DEFAULT_SAMPLES
    extended_points([v["witness_point"]])
    witness = test_fn(v["witness_point"], samples.array())
    target = sigma_kernel(witness[:, None, None], samples)
    # The squaring generators z^2 and z^3 alone, in place of a grid.
    squaring = (np.inf, 0.0)
    problem = ConeProblem(samples, 1, squaring, target,
                          generator_restriction=squaring)
    cert = dual_search(problem)
    if cert is None:
        return 3, {
            "status": "inconclusive", "criteria_met": False,
            "reason": "no separating functional for the witness kernel",
        }, "inconclusive: no separating functional"
    encoded, cert, _, audit_ok = _audited(cert, problem)
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
        return 3, fields, "inconclusive: pair fails a gate"
    if not audit_ok:
        return _reaudit_failure(fields)
    return 0, fields, (
        "constructed: witness_norm=%.6f x_norm=%.6f y_norm=%.6f"
        % (report.witness_norm, report.x_norm, report.y_norm))


def cmd_ccverify(v) -> tuple:
    report = dilation.cc_dilation_verify(v["x"], v["y"], v["u"], v["embed"],
                                         v["n_max"])
    ok = report.ok(v["tol"])
    fields = {
        "deviations": [[n, d] for n, d in report.deviations],
        "commutator_norm": report.commutator_norm,
        "relation_gap": report.relation_gap,
        "max_deviation": report.max_deviation,
        "status": "compressed" if ok else "mismatch",
    }
    return (0 if ok else 2, fields, "%s: max_deviation=%.3e"
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

# Scalar flags that override config fields.  Each subcommand registers those
# whose field is in its _CONFIG table, so passing any other is a usage error.
_FLAG_SPECS = {
    "tol": {"type": float, "help": "override the main tolerance"},
    "grid": {"type": _grid_spec, "help": "generator grid as RADIIxANGLES"},
    "angles": {"type": int, "help": "angle samples for circle sweeps"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="neilcone",
                     description="cone membership, certificates, and dilations "
                                 "for the constrained disk algebra")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, table in _CONFIG.items():
        rows = ["config fields: kind, default (null: not given)"] + [
            "  %-18s %-16s %s" % (field, kind, json.dumps(default))
            for field, (default, kind) in table.items()]
        if name in _DEFAULT_SETS:
            rows.append("  %s: all or none; none means a default set"
                        % ", ".join(_DEFAULT_SETS[name][0]))
        p = sub.add_parser(name, help="run the %s pipeline" % name,
                           epilog="\n".join(rows),
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="JSON file with structured inputs")
        p.add_argument("--out", help="write the JSON result here")
        for flag in [flag for flag in _FLAG_SPECS if flag in table]:
            p.add_argument("--" + flag, **_FLAG_SPECS[flag])
    return parser


# Built once at import: argparse keeps no state between parse_args calls,
# so every call of ``main`` in a process parses with this one parser.
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        # An overflow inside a solve ends at a finiteness gate as an input
        # error; numpy's floating-point warnings would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            cfg, values = _load_config(args)
            code, fields, summary = _COMMANDS[args.command](values)
        _emit({"schema_version": SCHEMA_VERSION, "kind": args.command,
               "config": cfg, **fields}, args.out, summary)
        return code
    except (ValueError, TypeError, OverflowError, OSError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
