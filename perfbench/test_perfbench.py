"""Tests of the benchmark's own code: oracle, span arithmetic, wrapping.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import enc_complex, enc_hermitian, enc_point  # noqa: E402

SAMPLES = np.array([0.0, 0.4, -0.3 + 0.2j])
GRID = workloads.MIX_GRID


def cone_request(target, status, code):
    cfg = {"samples": [enc_complex(z) for z in SAMPLES], "block_dim": 1,
           "target": enc_hermitian(target),
           "restriction": [enc_point(p) for p in GRID]}
    return {"command": "cone", "config": cfg, "code": code, "status": status}


def certificate_output(w, violation):
    return json.dumps({"status": "infeasible", "certificate": {
        "w": enc_hermitian(w), "violation": violation, "grid_margin": 0.0,
        "validation_grid_size": len(GRID), "eps": 1e-8, "delta": 1e-4}})


def measure_output(blocks):
    return json.dumps({"status": "feasible", "measure": {
        "grid": [enc_point(p) for p in GRID],
        "blocks": [enc_hermitian(b) for b in blocks]}})


# ---------------------------------------------------------------------------
# oracle


def test_oracle_accepts_then_rejects_shifted_certificate():
    # K = -I is separated by W = I: trace(W K) = -3, margins 1 - |d_i|^2 > 0.
    req = cone_request(-np.eye(3), "infeasible", 2)
    w = np.eye(3)
    assert oracle.check(req, 2, certificate_output(w, -3.0)) == []
    shifted = w - 2.0 * np.eye(3)
    problems = oracle.check(req, 2, certificate_output(shifted, -3.0))
    assert any("trace(W K)" in p for p in problems)
    assert any("W has eigenvalue" in p for p in problems)


def test_oracle_rejects_measure_with_negative_block():
    rng = np.random.default_rng(5)
    blocks = [workloads._random_psd(rng, 3) for _ in GRID]
    coefs = workloads.hadamard_coefs(GRID, SAMPLES, 1)
    target = np.einsum("gij,gij->ij", coefs, np.array(blocks))
    req = cone_request(target, "feasible", 0)
    assert oracle.check(req, 0, measure_output(blocks)) == []
    # Push block 0 indefinite and compensate in block 1 on the diagonal, so
    # the representation stays exact and only positivity fails.
    shift = -(np.linalg.eigvalsh(blocks[0])[-1] + 1.0) * np.eye(3)
    bad = [b.copy() for b in blocks]
    bad[0] = bad[0] + shift
    bad[1] = bad[1] - (coefs[0] * shift) / coefs[1] * np.eye(3)
    problems = oracle.check(req, 0, measure_output(bad))
    assert problems and all("eigenvalue" in p for p in problems)


def test_oracle_rejects_nan_json_and_wrong_codes():
    req = cone_request(-np.eye(3), "infeasible", 2)
    text = certificate_output(np.eye(3), -3.0).replace("-3.0", "NaN")
    assert any("strict JSON" in p for p in oracle.check(req, 2, text))
    assert oracle.check(req, 3, certificate_output(np.eye(3), -3.0))
    assert oracle.check(req, 2, None)


# ---------------------------------------------------------------------------
# span arithmetic


def span(name, parent, start, end, info=None):
    return [name, parent, start, end, info]


def test_self_time_of_nested_spans():
    s = [span("cli.main", -1, 0.0, 10.0),
         span("cone.dual_search", 0, 1.0, 4.0),
         span("linalg.herm_eig_batch", 1, 2.0, 3.0, (4, 3)),
         span("kernels.test_fn", 0, 5.0, 6.0)]
    assert spans.self_times(s) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    layers = spans.summarize(s)["layers"]
    assert layers["cli"] == pytest.approx(6.0)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    s = [span("a", -1, 0.0, 10.0), span("b", 0, 1.0, 4.0),
         span("c", 0, 3.0, 5.0), span("d", 0, 9.0, 12.0)]
    assert spans.self_times(s)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_iterations_attributed_by_caller():
    s = [span("cone.primal_feasibility", -1, 0.0, 5.0, "Undecided"),
         span("cone._dr_run", 0, 0.0, 5.0),
         span("linalg.psd_project_batch", 1, 1.0, 2.0, "_dr_run"),
         span("linalg.psd_project_batch", 1, 2.0, 3.0, "_dr_run"),
         span("cone.dual_search", -1, 5.0, 9.0, True),
         span("linalg.psd_project_batch", 4, 6.0, 7.0, "_admm_min_violation"),
         span("linalg.psd_project_batch", 4, 7.0, 8.0, "dual_search")]
    m = spans.summarize(s)["metrics"]
    assert (m["cone.dr_iters"], m["cone.admm_iters"]) == (2, 1)
    assert m["cone.primal_wasted_iters"] == 2
    assert m["linalg.psd_project_calls"] == 4
    assert m["cone.dual_found_ratio"] == 1.0


# ---------------------------------------------------------------------------
# wrapping


def test_every_importing_module_sees_the_wrapper_and_is_restored(tmp_path):
    from neilcone import cli, cone, dilation, gns, kernels, linalg

    modules = {"linalg": linalg, "kernels": kernels, "cone": cone,
               "gns": gns, "dilation": dilation, "cli": cli}
    originals = {(m.__name__, a): f for m in modules.values()
                 for a, f in vars(m).items()
                 if isinstance(f, types.FunctionType)}
    table = dict(cli._COMMANDS)
    tracer = spans.Tracer()
    with spans.installed(tracer, modules) as wrappers:
        assert cli.dual_search is cone.dual_search
        assert cli.dual_search.__wrapped__ is originals[("neilcone.cone",
                                                         "dual_search")]
        assert cone._dr_run.__wrapped__ is originals[("neilcone.cone", "_dr_run")]
        for (modname, attr), f in originals.items():
            if f in wrappers:
                assert getattr(sys.modules[modname], attr) is wrappers[f]
        assert all(cli._COMMANDS[k] is wrappers[v] for k, v in table.items())
        assert cli.main(["ccverify", "--out", str(tmp_path / "o.json")]) == 0
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"cli.main", "cli.cmd_ccverify",
            "dilation.cc_dilation_verify"} <= names
    for (modname, attr), f in originals.items():
        assert getattr(sys.modules[modname], attr) is f
    assert cli._COMMANDS == table


# ---------------------------------------------------------------------------
# workloads


def test_symmetries_preserve_the_problem():
    rng = np.random.default_rng(9)
    nodes = np.array(workloads.PICK_NODES)
    lam = 0.35 * np.exp(0.7j)
    for _ in range(8):
        sym = workloads.Symmetry(rng, len(nodes))
        moved = np.array(sym.points(nodes))
        # psi at the image parameter on the image nodes is the image value
        want = np.array([sym.value(v) for v in workloads.psi(lam, nodes)])
        assert np.allclose(workloads.psi(sym.point(lam), moved), want)
        # Hadamard coefficients are unchanged, or conjugated
        a = workloads.hadamard_coefs(GRID, nodes, 1)
        b = workloads.hadamard_coefs(sym.points(GRID), moved, 1)
        assert np.allclose(b, a.conj() if sym.conj else a)


def test_workloads_are_seeded():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
        assert workloads.build(name, 3) != workloads.build(name, 4)
    with pytest.raises(KeyError):
        workloads.build("nope", 0)
