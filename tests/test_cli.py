from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from neilcone import cli, cone, gns, kernels
from conftest import random_hermitian


# ---------------------------------------------------------------------------
# codecs


def test_complex_round_trip():
    for z in (0.0, 1.5, -2.0 + 0.25j, 1e-12j):
        assert cli.decode_complex(cli.encode_complex(z)) == complex(z)
    assert cli.decode_complex(3) == 3.0 + 0.0j


def test_hermitian_round_trip():
    rng = np.random.default_rng(30)
    w = random_hermitian(rng, 5)
    back = cli.decode_hermitian(cli.encode_hermitian(w), "w")
    assert np.allclose(back, w, atol=1e-15)


def test_hermitian_decode_rejects_bad_shapes():
    with pytest.raises(ValueError, match="lower triangle"):
        cli.decode_hermitian([[[1.0, 0.0], [0.0, 0.0]]], "w")
    with pytest.raises(ValueError, match="not real"):
        cli.decode_hermitian([[[1.0, 0.5]]], "w")


def test_matrix_and_point_round_trip():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert np.array_equal(cli.decode_matrix(cli.encode_matrix(a), "a"), a)
    for p in (np.inf, 0.3 - 0.1j):
        assert cli.decode_point(cli.encode_point(p)) == p
    assert cli.encode_point(np.inf) == "inf"
    with pytest.raises(ValueError, match="boundary"):
        cli.decode_point([1.0, 0.0])


def test_decode_complex_rejects_non_finite():
    for bad in (float("nan"), float("inf"), [0.0, float("-inf")],
                [float("nan"), 0.0]):
        with pytest.raises(ValueError, match="non-finite"):
            cli.decode_complex(bad)


def test_dump_rejects_non_finite():
    with pytest.raises(ValueError):
        cli._dump({"max_norm": float("nan")})


def test_grid_spec_parsing():
    assert cli._grid_spec("10x32") == (10, 32)
    assert cli._grid_spec("64X128") == (64, 128)
    with pytest.raises(Exception):
        cli._grid_spec("banana")


# ---------------------------------------------------------------------------
# fast subcommands


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = cli.main(list(argv) + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def test_naimark_default(tmp_path):
    code, data = run_cli(tmp_path, "naimark")
    assert code == 0
    assert data["status"] == "exact"
    assert data["reconstruction_error"] <= 1e-10
    v = np.array([[cli.decode_complex(e) for e in row] for row in data["v"]])
    assert np.allclose(np.abs(v), 1.0 / np.sqrt(2.0))


def test_variety_default_fails_with_witness(tmp_path):
    code, data = run_cli(tmp_path, "variety")
    assert code == 2
    assert not data["passed"]
    assert data["max_norm"] == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert cli.decode_complex(data["witness"]) == pytest.approx(0.5 + 0.5j)
    assert len(data["profile"]) == 720


def test_variety_negated_unitary_passes(tmp_path):
    cfg = tmp_path / "cfg.json"
    s = np.eye(2)
    cfg.write_text(json.dumps({
        "s": cli.encode_matrix(s), "t": cli.encode_matrix(-s)}))
    code, data = run_cli(tmp_path, "variety", "--config", str(cfg))
    assert code == 0
    assert data["passed"]
    assert data["max_norm"] == pytest.approx(1.0, abs=1e-12)


def peaked_config(tmp_path, p, q):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "s": cli.encode_matrix(np.array([[0.0, p + q], [0.0, 0.0]])),
        "t": cli.encode_matrix(np.array([[0.0, p - q], [0.0, 0.0]]))}))
    return str(cfg)


def test_variety_fails_between_the_samples(tmp_path):
    r = 0.5 * (1.0 + 1e-6)
    cfg = peaked_config(tmp_path, r * np.exp(1j * np.pi / 720), r)
    code, data = run_cli(tmp_path, "variety", "--config", cfg)
    assert code == 2
    assert not data["passed"]
    assert data["max_norm"] > 1.0 + 1e-8
    witness = cli.decode_complex(data["witness"])
    assert abs(np.angle(2.0 * witness - 1.0) - np.pi / 720) < 3e-3
    assert max(data["profile"]) < 1.0
    assert "reason" not in data


def test_variety_out_of_evaluations_exits_three(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.dilation, "ARC_EVALS", 1000)
    cfg = peaked_config(tmp_path, 0.5 * np.exp(0.3j), 0.5)
    code, data = run_cli(tmp_path, "variety", "--config", cfg)
    assert code == 3
    assert not data["passed"]
    assert "still open" in data["reason"]


def test_variety_rejects_noncommuting(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "s": cli.encode_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])),
        "t": cli.encode_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))}))
    code, _ = run_cli(tmp_path, "variety", "--config", str(cfg))
    assert code == 1


def test_ccverify_default_compresses(tmp_path):
    code, data = run_cli(tmp_path, "ccverify")
    assert code == 0
    assert data["status"] == "compressed"
    assert data["max_deviation"] <= 1e-10
    assert data["commutator_norm"] <= 1e-12
    degrees = [n for n, _ in data["deviations"]]
    assert degrees == [0, 2, 3, 4, 5]


def test_ccverify_mismatch_reports(tmp_path):
    rng = np.random.default_rng(32)
    cfg = tmp_path / "cfg.json"
    x = rng.standard_normal((3, 3))
    cfg.write_text(json.dumps({
        "x": cli.encode_matrix(x),
        "y": cli.encode_matrix(x @ x),
        "u": cli.encode_matrix(np.eye(3)),
        "embed": cli.encode_matrix(np.eye(3)),
        "n_max": 4}))
    code, data = run_cli(tmp_path, "ccverify", "--config", str(cfg))
    assert code == 2
    assert data["status"] == "mismatch"
    assert data["max_deviation"] > 1e-3


def test_ccverify_reads_n_max_and_rejects_partial_matrices(tmp_path, capsys):
    code, data = run_raw_config(tmp_path, "ccverify", '{"n_max": 3}')
    assert code == 0
    assert [n for n, _ in data["deviations"]] == [0, 2, 3]
    partial = tmp_path / "partial"
    partial.mkdir()
    code, data = run_raw_config(partial, "ccverify",
                                json.dumps({"u": cli.encode_matrix(np.eye(2))}))
    assert (code, data) == (1, None)
    assert "all of x, y, u and embed, or none" in capsys.readouterr().err


def test_oversized_count_exits_one(capsys):
    # The first allocation, 8 EB, exceeds any 64-bit address space, so it
    # fails at once without touching memory.
    assert cli.main(["variety", "--angles", "1000000000000000000"]) == 1
    assert_one_error_line(capsys, "allocate")


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["variety", "--out", str(out1)]) == 2
    assert cli.main(["variety", "--out", str(out2)]) == 2
    assert out1.read_bytes() == out2.read_bytes()


# ---------------------------------------------------------------------------
# one parser per process: main parses with cli.PARSER, built at import


def outputs(capsys, argv, out):
    """Exit code, captured streams and ``--out`` bytes of one main call."""
    code = cli.main(argv + ["--out", str(out)])
    return code, capsys.readouterr(), out.read_bytes()


def test_usage_error_leaves_no_state(tmp_path, capsys, monkeypatch):
    argv = ["variety", "--angles", "8"]
    with monkeypatch.context() as m:
        m.setattr(cli, "PARSER", cli.build_parser())
        alone = outputs(capsys, argv, tmp_path / "alone.json")
    with pytest.raises(SystemExit) as exc:
        cli.main(["cone", "--angles", "3"])
    assert exc.value.code == 1
    capsys.readouterr()
    assert outputs(capsys, argv, tmp_path / "after.json") == alone
    assert alone[0] == 2


def test_main_does_not_build_a_parser(tmp_path, monkeypatch):
    def build_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", build_parser)
    assert run_cli(tmp_path, "variety", "--angles", "8")[0] == 2


def test_help_lists_subcommands_and_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert all(name in text for name in cli._COMMANDS)
    with pytest.raises(SystemExit) as exc:
        cli.main(["cone", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith("usage: neilcone cone ")
    for flag in ("--config", "--out", "--tol", "--grid"):
        assert flag in text
    assert "--angles" not in text
    # The config fields come from cli._CONFIG, with kind and default.
    for field in ("target", "block_dim", "restriction"):
        assert field in text
    assert re.search(r"\n +block_dim +count +1\n", text)


def test_module_runs_as_a_program(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "neilcone.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)

    done = run("--help")
    assert (done.returncode, done.stderr) == (0, "")
    assert all(name in done.stdout for name in cli._COMMANDS)
    out = tmp_path / "child.json"
    done = run("variety", "--out", str(out))
    assert done.returncode == 2
    assert done.stdout.startswith("FAIL: max_norm=")
    here = tmp_path / "here.json"
    assert cli.main(["variety", "--out", str(here)]) == 2
    assert out.read_bytes() == here.read_bytes()

    def reject(token):
        raise ValueError("non-finite %s in output" % token)

    data = json.loads(out.read_text(), parse_constant=reject)
    assert data["kind"] == "variety"


def test_usage_errors_exit_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["cone", "--grid", "banana"])
    assert exc.value.code == 1
    assert cli.main(["pick"]) == 1  # missing required config fields
    assert cli.main(["variety", "--config", str(tmp_path / "missing.json")]) == 1
    assert cli.main(["variety", "--tol", "-1"]) == 1


def run_raw_config(tmp_path, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    return run_cli(tmp_path, command, "--config", str(cfg))


def test_pick_nan_node_exits_one(tmp_path, capsys):
    code, data = run_raw_config(
        tmp_path, "pick",
        '{"nodes": [[NaN, 0.0], [0.5, 0.0]], "targets": [0.0, 0.1]}')
    assert (code, data) == (1, None)
    assert "non-finite number NaN" in capsys.readouterr().err


def test_variety_infinity_exits_one(tmp_path, capsys):
    code, data = run_raw_config(
        tmp_path, "variety",
        '{"s": [[Infinity, 0.0], [0.0, 0.0]], "t": [[1.0, 0.0], [0.0, 1.0]]}')
    assert (code, data) == (1, None)
    assert "non-finite number Infinity" in capsys.readouterr().err


def test_overflowing_number_exits_one(tmp_path, capsys):
    code, data = run_raw_config(
        tmp_path, "pick", '{"nodes": [[1e400, 0.0]], "targets": [0.0]}')
    assert (code, data) == (1, None)
    assert "non-finite number 1e400" in capsys.readouterr().err
    # JSON integers are exact, so a huge one overflows only on conversion.
    code, data = run_raw_config(
        tmp_path, "pick", '{"nodes": [1%s], "targets": [0.0]}' % ("0" * 400))
    assert (code, data) == (1, None)
    capsys.readouterr()
    # Finite entries whose products overflow reach the eigensolver as
    # non-finite matrices, which it rejects with one line and no warning.
    huge = [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    config = restricted_infeasible_config()
    config["target"] = cli.encode_hermitian(1e308 * np.eye(3))
    for command, text in (("variety", json.dumps({"s": huge, "t": huge})),
                          ("cone", json.dumps(config))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, data = run_raw_config(tmp_path, command, text)
        assert (code, data) == (1, None)
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite" in err


@pytest.mark.parametrize("argv", [
    ["pick", "--grid", "2x3"],
    ["pick", "--angles", "7"],
    ["counterexample", "--tol", "1e-3"],
    ["variety", "--grid", "10x32"],
    ["naimark", "--tol", "1e-3"],
    ["noxy", "--grid", "2x3"],
    ["variety", "--seed", "0"],
])
def test_flags_nothing_reads_exit_one(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1


def test_unknown_config_keys_exit_one(tmp_path, capsys):
    code, data = run_raw_config(
        tmp_path, "pick",
        '{"nodes": [0.0], "targets": [0.5], "grid": [2, 3], "angles": 7}')
    assert (code, data) == (1, None)
    assert "unknown config key(s) for pick: angles, grid" in capsys.readouterr().err
    code, _ = run_raw_config(tmp_path, "variety", '{"angle": 90}')
    assert code == 1
    for command, text in (("noxy", '{"grid": [2, 3]}'),
                          ("variety", '{"seed": 0}')):
        assert run_raw_config(tmp_path, command, text) == (1, None)


@pytest.mark.parametrize("command, text, message", [
    ("pick", '{"nodes": 5, "targets": [0.0]}',
     "config field 'nodes' must be a list"),
    ("variety", '{"tol": "abc"}', "tolerance must be a positive finite"),
    ("variety", '{"angles": 2.5}', "field 'angles' must be an integer"),
    ("cone", '{"block_dim": 1.7}', "field 'block_dim' must be an integer"),
    ("cone", '{"block_dim": true}', "field 'block_dim' must be an integer"),
    ("cone", '{"block_dim": -1, "target": []}',
     "block dimension must be at least 1, got -1"),
    ("counterexample", '{"grid": [2.9, 4]}',
     "field 'grid' must be a list of integers"),
    ("counterexample", '{"validation_radii": 8.0}',
     "field 'validation_radii' must be an integer"),
    ("counterexample", '{"validation_angles": false}',
     "field 'validation_angles' must be an integer"),
    ("ccverify", '{"n_max": 4.0}', "field 'n_max' must be an integer"),
    # Degree 0 alone compares I with I: a "compressed" would check nothing.
    ("ccverify", '{"n_max": 0}', "n_max must be at least 1"),
    ("ccverify", '{"n_max": -2}', "n_max must be at least 1"),
    # A boolean is not a number: true would be read as a tolerance of 1.
    ("pick", '{"tol": true}', "tolerance must be a positive finite"),
    ("cone", '{"tol": true}', "tolerance must be a positive finite"),
    ("variety", '{"tol": true}', "tolerance must be a positive finite"),
    ("ccverify", '{"tol": true}', "tolerance must be a positive finite"),
    # One tol rule, 0 < tol < 1, on every subcommand that has a tol: the
    # default variety pair peaks at sqrt(2), which a tol of 5 would pass.
    ("variety", '{"tol": 5}', "tolerance must be below 1"),
    ("variety", '{"tol": 1e300}', "tolerance must be below 1"),
    ("ccverify", '{"tol": 2}', "tolerance must be below 1"),
    # An empty or non-list unitary reaches MatrixBlaschke, not the default.
    ("counterexample", '{"unitary": []}', "mixing matrix must be 2x2"),
    ("counterexample", '{"unitary": 0}',
     "config field 'unitary' must be a list"),
    # Shape errors name the field or the form that was expected, instead
    # of a tuple-unpacking, Python type or numpy shape error.
    ("cone", '{"target": [5]}',
     "field 'target' must be a lower triangle: a list of rows, row i a list "
     "of i + 1 complex numbers"),
    ("counterexample", '{"unitary": [5, 6]}',
     "field 'unitary' must be a matrix: a list of rows, each a list of the "
     "same number of complex numbers"),
    ("counterexample",
     '{"unitary": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]}',
     "field 'unitary' must be a matrix"),
    ("naimark", '{"a_list": [[[[0.5, 0.0]]], 5], "b_list": [[[[0.5, 0.0]]]]}',
     "field 'a_list[1]' must be a lower triangle"),
    ("counterexample", '{"grid": [10]}',
     "field 'grid' must be a list of integers [radii, angles]"),
    ("counterexample", '{"grid": [10, 32, 5]}',
     "field 'grid' must be a list of integers [radii, angles]"),
    ("cone", '{"restriction": "inf", "target": [[[-1.0, 0.0]]]}',
     "config field 'restriction' must be a list"),
    ("counterexample", '{"lambda1": [0.5]}',
     "a complex number must be a number or a list [re, im], got [0.5]"),
    # The certificate's own eps and delta and the pair slack gate a
    # counterexample; no config field moves them.
    ("counterexample", '{"margin_floor": -1e-6}',
     "unknown config key(s) for counterexample: margin_floor"),
    # Defaults come as a set: one of them beside a given input would pose a
    # question nobody asked.
    ("naimark", '{"a_list": [[[[0.5, 0.0]]], [[[0.5, 0.0]]]]}',
     "naimark needs all of a_list and b_list, or none"),
    ("naimark", '{"b_list": [[[[0.5, 0.0]]], [[[0.5, 0.0]]]]}',
     "naimark needs all of a_list and b_list, or none"),
    ("variety", '{"t": [[1.0, 0.0], [0.0, 1.0]]}',
     "variety needs all of s and t, or none"),
])
def test_wrong_config_types_exit_one(tmp_path, capsys, command, text, message):
    assert run_raw_config(tmp_path, command, text) == (1, None)
    assert message in capsys.readouterr().err


def test_cone_grid_with_restriction_exits_one(tmp_path, capsys):
    config = restricted_infeasible_config()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["cone", "--config", str(cfg), "--grid", "2x3"]) == 1
    assert "no effect" in capsys.readouterr().err
    config["grid"] = [2, 3]
    assert run_raw_config(tmp_path, "cone", json.dumps(config)) == (1, None)


def assert_one_error_line(capsys, message):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("spec", ["0x32", "-2x5", "3x0", "3x-4"])
def test_cone_non_positive_grid_exits_one(tmp_path, capsys, spec):
    # Such a grid would hold infinity alone.
    config = restricted_infeasible_config()
    del config["restriction"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["cone", "--config", str(cfg), "--grid=" + spec]) == 1
    assert_one_error_line(capsys, "at least one radius and one angle")


def test_counterexample_without_validation_radii_exits_one(tmp_path, capsys):
    # An audit over infinity alone must not back a "certified".
    code, data = run_raw_config(tmp_path, "counterexample",
                                '{"validation_radii": 0}')
    assert (code, data) == (1, None)
    assert_one_error_line(capsys, "at least one radius and one angle")


def test_tolerance_must_be_finite(tmp_path):
    assert cli.main(["variety", "--tol", "nan"]) == 1
    assert cli.main(["variety", "--tol", "inf"]) == 1


# ---------------------------------------------------------------------------
# solver-backed subcommands


def test_pick_feasible_emits_measure(tmp_path):
    lam = 0.25 * np.exp(2j * np.pi * 3 / 32)  # on the default grid
    nodes = (0.0, 0.5, -0.5, 0.3j)
    w = kernels.test_fn(lam, np.array(nodes, dtype=complex))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "nodes": [cli.encode_complex(z) for z in nodes],
        "targets": [cli.encode_complex(v) for v in w]}))
    code, data = run_cli(tmp_path, "pick", "--config", str(cfg),
                         "--tol", "1e-5")
    assert (code, data["config"]["tol"]) == (0, 1e-5)
    # The next call in the process gets the config default, not that flag.
    code, data = run_cli(tmp_path, "pick", "--config", str(cfg))
    assert (code, data["config"]["tol"]) == (0, None)
    assert data["status"] == "feasible"
    assert data["residual"] <= 1e-7
    measure = cli.decode_measure(data["measure"])
    assert np.min(np.abs(measure.grid - lam)) <= 1e-9


def restricted_infeasible_config() -> dict:
    """-I on three samples over {inf, 0}: certified infeasible."""
    samples = (0.0, 0.4, -0.3 + 0.2j)
    return {"samples": [cli.encode_complex(z) for z in samples],
            "block_dim": 1,
            "target": cli.encode_hermitian(-np.eye(len(samples))),
            "restriction": ["inf", cli.encode_complex(0.0)]}


def test_cone_restricted_infeasible_certificate(tmp_path):
    code, data = run_raw_config(tmp_path, "cone",
                                json.dumps(restricted_infeasible_config()))
    assert code == 2
    assert data["status"] == "infeasible"
    cert = cli.decode_certificate(data["certificate"])
    assert cert.violation <= -1e-4


def test_cone_separated_primal_reports_finite_residual(tmp_path,
                                                      monkeypatch):
    # The primal stops on its separation check; with no dual certificate the
    # undecided payload carries that run's residual as strict JSON.
    monkeypatch.setattr(cone, "dual_search", lambda problem: None)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(restricted_infeasible_config()))
    out = tmp_path / "out.json"
    assert cli.main(["cone", "--config", str(cfg), "--out", str(out)]) == 3

    def reject(token):
        raise ValueError("non-finite %s in output" % token)

    data = json.loads(out.read_text(), parse_constant=reject)
    assert data["status"] == "undecided"
    assert np.isfinite(data["residual"]) and data["residual"] > 0.0


def test_cone_failed_reaudit_is_inconclusive(tmp_path, monkeypatch):
    audit = cli.validate_certificate

    def failing(cert, problem):
        report = audit(cert, problem)
        report.worst_margin = -1.0
        return report

    monkeypatch.setattr(cli, "validate_certificate", failing)
    code, data = run_raw_config(tmp_path, "cone",
                                json.dumps(restricted_infeasible_config()))
    assert code == 3
    assert data["status"] == "inconclusive"
    assert data["reason"] == "serialized certificate failed re-validation"


@pytest.mark.parametrize("restricted", [True, False])
def test_cone_tiny_negative_kernel_is_not_feasible(tmp_path, restricted):
    # The zero measure is within 1e-7 of -1e-8 I, but a negative diagonal
    # is never in the cone: the acceptance bound scales with ||K||_F.
    config = restricted_infeasible_config()
    config["target"] = cli.encode_hermitian(-1e-8 * np.eye(3))
    if not restricted:
        del config["restriction"]
    code, data = run_raw_config(tmp_path, "cone", json.dumps(config))
    assert (code, data["status"]) == (3, "undecided")


def test_cone_tolerance_of_one_or_more_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(restricted_infeasible_config()))
    out = tmp_path / "out.json"
    argv = ["cone", "--config", str(cfg), "--out", str(out), "--tol", "10"]
    assert cli.main(argv) == 1
    assert not out.exists()
    assert_one_error_line(capsys, "tolerance must be below 1")


@pytest.mark.parametrize("command", ["pick", "cone"])
def test_tol_reaches_the_primal_search(tmp_path, monkeypatch, command):
    seen = []

    def primal(problem, tol=cone.PRIMAL_TOL):
        seen.append(tol)
        return cone.Undecided(1.0, 0)

    monkeypatch.setattr(cone, "primal_feasibility", primal)
    monkeypatch.setattr(cone, "dual_search", lambda problem: None)
    config = {"nodes": [0.0, 0.5], "targets": [0.0, 0.1]}
    if command == "cone":
        config = restricted_infeasible_config()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(tmp_path, command, "--config", str(cfg))[0] == 3
    assert run_cli(tmp_path, command, "--config", str(cfg),
                   "--tol", "1e-5")[0] == 3
    assert seen == [cone.PRIMAL_TOL, 1e-5]


def test_counterexample_rejects_equal_zeros(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda1": [0.5, 0.0], "lambda2": [0.5, 0.0]}))
    assert cli.main(["counterexample", "--config", str(cfg)]) == 1


def test_counterexample_diagonal_mixing_inconclusive(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"unitary": cli.encode_matrix(np.eye(2))}))
    code, data = run_cli(tmp_path, "counterexample", "--config", str(cfg))
    assert code == 3
    assert data["status"] == "inconclusive"
    assert data["diagonal_mixing"] is True


# A small counterexample problem whose certificate passes every gate.
SMALL_COUNTEREXAMPLE = {
    "samples": [[0.0, 0.0], [0.5, 0.0], [-0.5, 0.0]], "grid": [2, 8],
    "validation_radii": 4, "validation_angles": 8}


def test_counterexample_audits_the_emitted_certificate_once(tmp_path,
                                                           monkeypatch):
    audited = []
    audit = cli.validate_certificate

    def counting(cert, problem):
        audited.append(cert.w)
        return audit(cert, problem)

    monkeypatch.setattr(cli, "validate_certificate", counting)
    # The dual search makes at most one polish.
    calls = []
    polish, search = cone._dual_polish, cli.dual_search

    def counting_polish(*args):
        calls.append("polish")
        return polish(*args)

    def counting_search(*args):
        calls.append("search")
        return search(*args)

    monkeypatch.setattr(cone, "_dual_polish", counting_polish)
    monkeypatch.setattr(cli, "dual_search", counting_search)
    code, data = run_raw_config(tmp_path, "counterexample",
                                json.dumps(SMALL_COUNTEREXAMPLE))
    assert (code, data["status"]) == (0, "certified")
    # Each gate holds at the emitted certificate's own numbers.
    cert = data["certificate"]
    assert data["validation"]["worst_margin"] >= -cert["eps"]
    assert data["representation"]["deficiency"] <= -cert["delta"]
    assert data["representation"]["max_test_norm"] <= 1.0 + gns.PAIR_TOL
    assert calls in (["search"], ["search", "polish"])
    assert len(audited) == 1
    emitted = cli.decode_certificate(data["certificate"])
    assert np.array_equal(audited[0], emitted.w)
    # The search, the re-audit of the emitted bytes and the norm sweep all
    # check the problem grid followed by the dense rings.
    assert (data["validation"]["grid_size"]
            == data["certificate"]["validation_grid_size"]
            == data["representation"]["norm_grid_size"]
            == 2 * 8 + 4 * 8 + 1)


def test_counterexample_does_not_depend_on_admm_beta(tmp_path, monkeypatch):
    # The three-point flagship is unrestricted, so its search makes one SOS
    # solve and no ADMM: the initial penalty 0.07, at which ADMM found no
    # separating functional for it, moves no byte of the result.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": SMALL_COUNTEREXAMPLE["samples"]}))
    texts = []
    for beta in (cone.ADMM_BETA, 0.07):
        monkeypatch.setattr(cone, "ADMM_BETA", beta)
        out = tmp_path / ("out-%s.json" % beta)
        assert cli.main(["counterexample", "--config", str(cfg),
                         "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert json.loads(texts[0])["status"] == "certified"
    assert texts[0] == texts[1]


@pytest.mark.parametrize("cap, certified", [(1, False), (3, False),
                                             (6, False), (9, True),
                                             (12, True)])
def test_truncated_sos_solve_stays_honest(tmp_path, monkeypatch, cap,
                                          certified):
    # A solve cut off after a few iterations leaves residuals that its own
    # margin bound charges, so the mix toward I costs more than the
    # violation it bought: no separating functional.  From nine iterations
    # the bound is small, and the emitted bytes pass their re-audit.
    monkeypatch.setattr(cone, "SDP_ITERS", cap)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": SMALL_COUNTEREXAMPLE["samples"]}))
    code, data = run_cli(tmp_path, "counterexample", "--config", str(cfg))
    if not certified:
        assert (code, data["status"], data["reason"]) == (
            3, "inconclusive", "no separating functional found")
        return
    assert (code, data["status"]) == (0, "certified")
    assert data["checks"]["margin_ok"] is True
    assert data["validation"]["worst_margin"] >= -data["certificate"]["eps"]


def test_counterexample_gates_read_the_certificate(tmp_path, monkeypatch):
    # A re-audited margin of -5e-7 misses the certificate's eps (1e-8), and
    # a test norm of 1 + 5e-7 misses the pair slack gns.PAIR_TOL (1e-8);
    # either is within 1e-6 of its bound, so only gates at those slacks
    # catch them.
    audit = cli.validate_certificate

    def shallow_audit(cert, problem):
        return dataclasses.replace(audit(cert, problem), worst_margin=-5e-7)

    def long_norms(space, values):
        return np.full(len(values), 1.0 + 5e-7)

    monkeypatch.setattr(cli, "validate_certificate", shallow_audit)
    monkeypatch.setattr(cli.gns, "rep_norm_sweep", long_norms)
    code, data = run_raw_config(tmp_path, "counterexample",
                                json.dumps(SMALL_COUNTEREXAMPLE))
    assert (code, data["status"]) == (3, "inconclusive")
    assert data["checks"] == {"margin_ok": False, "deficiency_ok": True,
                              "norms_ok": False}


@pytest.mark.parametrize("command, want", [("cone", 2), ("noxy", 0)])
def test_cone_and_noxy_audit_the_emitted_certificate_once(tmp_path,
                                                          monkeypatch,
                                                          command, want):
    found, audited, paired = [], [], []
    search, audit = cli.dual_search, cli.validate_certificate
    build = gns.build_noxy

    def recording_search(problem):
        found.append(search(problem))
        return found[-1]

    def counting(cert, problem):
        audited.append(cert)
        return audit(cert, problem)

    def recording_build(samples, w, witness):
        paired.append(w)
        return build(samples, w, witness)

    monkeypatch.setattr(cli, "dual_search", recording_search)
    monkeypatch.setattr(cone, "dual_search", recording_search)
    monkeypatch.setattr(cli, "validate_certificate", counting)
    monkeypatch.setattr(gns, "build_noxy", recording_build)
    config = restricted_infeasible_config() if command == "cone" else {}
    code, data = run_raw_config(tmp_path, command, json.dumps(config))
    assert code == want
    assert len(found) == len(audited) == 1
    # The audited copy is decoded from the emitted bytes, not the search's.
    assert audited[0] is not found[0]
    emitted = cli.decode_certificate(data["certificate"])
    assert np.array_equal(audited[0].w, emitted.w)
    # noxy builds X and Y from that same decoded W.
    assert len(paired) == (command == "noxy")
    assert all(w is audited[0].w for w in paired)


def test_noxy_constructs_violating_pair(tmp_path):
    code, data = run_cli(tmp_path, "noxy")
    assert code == 0
    assert data["criteria_met"] is True
    rep = data["report"]
    assert rep["x_norm"] <= 1.0 + 1e-8
    assert rep["y_norm"] <= 1.0 + 1e-8
    assert rep["commutator_norm"] <= 1e-8
    assert rep["relation_gap"] <= 1e-8
    assert rep["witness_norm"] >= 1.0 + 1e-3
    x = cli.decode_matrix(data["x"], "x")
    y = cli.decode_matrix(data["y"], "y")
    assert np.max(np.abs(x @ y - y @ x)) <= 1e-10
    cli.decode_certificate(data["certificate"])  # parses and re-validates
