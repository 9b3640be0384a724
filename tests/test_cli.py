from __future__ import annotations

import json

import numpy as np
import pytest

from neilcone import cli, kernels
from neilcone.kernels import ExtendedPoint
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
    back = cli.decode_hermitian(cli.encode_hermitian(w))
    assert np.allclose(back, w, atol=1e-15)


def test_hermitian_decode_rejects_bad_shapes():
    with pytest.raises(ValueError, match="lower triangle"):
        cli.decode_hermitian([[[1.0, 0.0], [0.0, 0.0]]])
    with pytest.raises(ValueError, match="not real"):
        cli.decode_hermitian([[[1.0, 0.5]]])


def test_matrix_and_point_round_trip():
    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert np.array_equal(cli.decode_matrix(cli.encode_matrix(a)), a)
    for p in (ExtendedPoint.infinity(), ExtendedPoint.disk(0.3 - 0.1j)):
        assert cli.decode_point(cli.encode_point(p)) == p


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


def test_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["variety", "--out", str(out1)]) == 2
    assert cli.main(["variety", "--out", str(out2)]) == 2
    assert out1.read_bytes() == out2.read_bytes()


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


@pytest.mark.parametrize("argv", [
    ["pick", "--grid", "2x3"],
    ["pick", "--angles", "7"],
    ["counterexample", "--tol", "1e-3"],
    ["variety", "--grid", "10x32"],
    ["naimark", "--tol", "1e-3"],
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


def test_tolerance_must_be_finite(tmp_path):
    assert cli.main(["variety", "--tol", "nan"]) == 1
    assert cli.main(["variety", "--tol", "inf"]) == 1


# ---------------------------------------------------------------------------
# solver-backed subcommands


def test_pick_feasible_emits_measure(tmp_path):
    lam = 0.25 * np.exp(2j * np.pi * 3 / 32)  # on the default grid
    nodes = (0.0, 0.5, -0.5, 0.3j)
    w = kernels.test_fn(ExtendedPoint.disk(lam), np.array(nodes, dtype=complex))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "nodes": [cli.encode_complex(z) for z in nodes],
        "targets": [cli.encode_complex(v) for v in w]}))
    code, data = run_cli(tmp_path, "pick", "--config", str(cfg))
    assert code == 0
    assert data["status"] == "feasible"
    assert data["residual"] <= 1e-7
    measure = cli.decode_measure(data["measure"])
    finite = [p.point for p in measure.grid if not p.is_infinity]
    assert min(abs(p - lam) for p in finite) <= 1e-9


def test_cone_restricted_infeasible_certificate(tmp_path):
    samples = (0.0, 0.4, -0.3 + 0.2j)
    n = len(samples)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "samples": [cli.encode_complex(z) for z in samples],
        "block_dim": 1,
        "target": cli.encode_hermitian(-np.eye(n)),
        "restriction": ["inf", cli.encode_complex(0.0)]}))
    code, data = run_cli(tmp_path, "cone", "--config", str(cfg))
    assert code == 2
    assert data["status"] == "infeasible"
    cert = cli.decode_certificate(data["certificate"])
    assert cert.violation <= -1e-4


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
    x = cli.decode_matrix(data["x"])
    y = cli.decode_matrix(data["y"])
    assert np.max(np.abs(x @ y - y @ x)) <= 1e-10
    cli.decode_certificate(data["certificate"])  # parses and re-validates
