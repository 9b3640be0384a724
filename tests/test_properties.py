"""Property tests: certificate decoding, the variety subcommand, invalid
configs for every subcommand, one-atom cone members and the primal
separation exit on random input.

Examples are derandomized and no example database is written, so the suite
runs the same cases every time.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neilcone import cli, cone
from neilcone.kernels import MatrixKernel, SampleSet
from conftest import random_psd

FIXED = settings(derandomize=True, database=None, max_examples=50,
                 deadline=None)

GATED_FIELDS = ("grid_margin", "violation", "eps", "delta")


def valid_certificate() -> dict:
    """Identity functional on three samples: every gate passes."""
    return {"w": cli.encode_hermitian(np.eye(3)), "grid_margin": 1.0,
            "violation": -3.0, "validation_grid_size": 1, "eps": 1e-8,
            "delta": 1e-4}


def test_valid_certificate_decodes():
    cli.decode_certificate(valid_certificate())


@FIXED
@given(field=st.sampled_from(GATED_FIELDS),
       bad=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
       eps=st.floats(1e-12, 1e-2), delta=st.floats(1e-8, 1.0))
def test_decode_certificate_rejects_non_finite_gates(field, bad, eps, delta):
    obj = valid_certificate()
    obj["eps"], obj["delta"] = eps, delta
    obj[field] = bad
    with pytest.raises(ValueError):
        cli.decode_certificate(obj)


finite_entries = st.complex_numbers(max_magnitude=1e308, allow_nan=False,
                                    allow_infinity=False)


@st.composite
def square_matrices(draw):
    n = draw(st.sampled_from([1, 2]))
    return [[draw(finite_entries) for _ in range(n)] for _ in range(n)]


@FIXED
@given(m=square_matrices())
def test_variety_on_equal_pairs_exits_cleanly(m):
    mat = [[cli.encode_complex(z) for z in row] for row in m]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps({"s": mat, "t": mat}))
        argv = ["variety", "--config", str(cfg), "--out", str(Path(tmp) / "o")]
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
    assert code in (0, 1, 2)
    assert caught == []
    text = err.getvalue()
    if code == 1:
        assert text.startswith("error: ") and text.count("\n") == 1
    else:
        assert text == ""


# A valid config per subcommand, and per field the values that are invalid
# there: wrong JSON type, wrong shape, empty list, boolean, out-of-range
# count or point, and an overflowing number.  OVERFLOW stands for the
# literal 1e400, which json.dumps cannot write.
OVERFLOW = "__overflow__"
HALF = [[[0.5, 0.0]]]
BAD_COMPLEX = ["abc", {}, [], True, [1, 2, 3], [OVERFLOW, 0.0]]
BAD_POINT = BAD_COMPLEX + [[1.0, 0.0]]
BAD_POINTS = ["abc", {}, [], True, [[1.0, 0.0]], [[OVERFLOW, 0.0]], [True]]
BAD_MATRIX = ["abc", {}, [], True, [1, 2, 3], [[[OVERFLOW, 0.0]]], [[True]]]
BAD_LOWER = ["abc", {}, [], True, [[[1.0, 0.0], [2.0, 0.0]]],
             [[[OVERFLOW, 0.0]]]]
BAD_COUNT = ["abc", [], True, 2.5, 0, -1, OVERFLOW]
BAD_NUMBER = ["abc", {}, [], True, [1.0, 0.0], OVERFLOW]
BAD_TOL = BAD_NUMBER + [0, -1.0]
BAD_FIELDS = {
    "counterexample": ({}, {
        "lambda1": BAD_POINT, "lambda2": BAD_POINT, "unitary": BAD_MATRIX,
        "samples": BAD_POINTS, "grid": ["abc", [], True, [1, 2, 3], [0, 8],
                                        [2.5, 8], [OVERFLOW, 8]],
        "validation_radii": BAD_COUNT, "validation_angles": BAD_COUNT,
        "margin_floor": BAD_NUMBER, "deficiency_max": BAD_NUMBER,
        "norm_cap": BAD_NUMBER}),
    "pick": ({"nodes": [[0.0, 0.0], [0.5, 0.0]], "targets": [0.0, 0.1]}, {
        "nodes": BAD_POINTS, "targets": BAD_POINTS[:-1] + [[1, 2, 3]],
        "restriction": BAD_POINTS, "tol": BAD_TOL}),
    "cone": ({"target": cli.encode_hermitian(-np.eye(3))}, {
        "samples": BAD_POINTS, "block_dim": BAD_COUNT, "target": BAD_LOWER,
        "grid": ["abc", [], True, [0, 8], [OVERFLOW, 8]],
        "restriction": BAD_POINTS, "tol": BAD_TOL}),
    "naimark": ({"a_list": [HALF, HALF], "b_list": [HALF, HALF]}, {
        "a_list": [[bad] for bad in BAD_LOWER] + ["abc", True, [HALF]],
        "b_list": [[bad] for bad in BAD_LOWER] + ["abc", True, [HALF]]}),
    "variety": ({"s": [[0.0, 1.0], [0.0, 0.0]], "t": [[0.0, 1.0], [0.0, 0.0]]},
                {"s": BAD_MATRIX, "t": BAD_MATRIX, "angles": BAD_COUNT,
                 "tol": BAD_TOL}),
    "noxy": ({}, {"witness_point": BAD_POINT, "samples": BAD_POINTS}),
    "ccverify": (dict(zip(("x", "y", "u", "embed"), cli._ccverify_default())),
                 {"x": BAD_MATRIX, "y": BAD_MATRIX, "u": BAD_MATRIX,
                  "embed": BAD_MATRIX, "n_max": BAD_COUNT, "tol": BAD_TOL}),
}


@st.composite
def invalid_configs(draw):
    command = draw(st.sampled_from(sorted(BAD_FIELDS)))
    config, fields = BAD_FIELDS[command]
    field = draw(st.sampled_from(sorted(fields)))
    bad = draw(st.sampled_from(fields[field]))
    text = json.dumps({**config, field: bad})
    return command, text.replace('"%s"' % OVERFLOW, "1e400")


def solve_reached(*args, **kwargs):
    raise AssertionError("an invalid config reached a solve")


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=invalid_configs())
def test_invalid_config_field_exits_one(case):
    command, text = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for name in ("_dr_run", "_admm_min_violation", "_dual_polish"):
            mp.setattr(cone, name, solve_reached)
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(text)
        out = Path(tmp) / "out.json"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(argv)
        wrote = out.exists()
    assert (code, wrote, caught) == (1, False, [])
    text = err.getvalue()
    assert text.startswith("error: ") and text.count("\n") == 1


ATOM_SAMPLES = (0.0, 0.4, -0.3 + 0.2j)
ATOM_RESTRICTION = (np.inf, 0.25, -0.3 + 0.2j)


def hadamard_coefs(g: complex, block_dim: int) -> np.ndarray:
    """A_g = 1 - d d* from the test function, numpy only."""
    z = np.array(ATOM_SAMPLES, dtype=complex)
    psi = z**2 if np.isinf(g) else z**2 * (z - g) / (1.0 - np.conj(g) * z)
    d = np.repeat(psi, block_dim)
    return 1.0 - d[:, None] * np.conj(d)[None, :]


@FIXED
@given(g=st.sampled_from(ATOM_RESTRICTION), block_dim=st.sampled_from([1, 2]),
       rank=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
def test_one_atom_member_is_feasible(g, block_dim, rank, seed):
    n = len(ATOM_SAMPLES) * block_dim
    m = random_psd(np.random.default_rng(seed), n, rank=min(rank, n))
    k = hadamard_coefs(g, block_dim) * m
    samples = SampleSet(ATOM_SAMPLES)
    problem = cone.ConeProblem(samples, block_dim, cone.default_grid(),
                               MatrixKernel(samples, block_dim, k),
                               generator_restriction=ATOM_RESTRICTION)
    got = cone.primal_feasibility(problem)
    assert isinstance(got, cone.Feasible)
    blocks = got.measure.blocks
    again = sum(hadamard_coefs(p, block_dim) * b
                for p, b in zip(got.measure.grid, blocks))
    assert np.linalg.norm(again - k) <= cone.PRIMAL_TOL
    for b in blocks:
        floor = np.linalg.eigvalsh(b)[0]
        assert floor >= -cone.BLOCK_PSD_TOL * (1.0 + np.abs(b).max())


def atom_problem(k: np.ndarray, block_dim: int) -> cone.ConeProblem:
    samples = SampleSet(ATOM_SAMPLES)
    return cone.ConeProblem(samples, block_dim, cone.default_grid(),
                            MatrixKernel(samples, block_dim, k),
                            generator_restriction=ATOM_RESTRICTION)


@contextlib.contextmanager
def recorded_separations():
    """Record the result of every separation check the primal makes."""
    results = []
    separating = cone._separating

    def recording(*args):
        results.append(separating(*args))
        return results[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cone, "_separating", recording)
        yield results


def member(rng, atoms, block_dim: int, rank: int) -> np.ndarray:
    """sum_g A_g o M_g over some restriction points, M_g PSD of the rank."""
    n = len(ATOM_SAMPLES) * block_dim
    return sum(hadamard_coefs(ATOM_RESTRICTION[a], block_dim)
               * random_psd(rng, n, rank=min(rank, n)) for a in atoms)


MEMBER_ATOMS = st.sampled_from([(0, 1), (0, 2), (1, 2), (0, 1, 2)])


@FIXED
@given(atoms=MEMBER_ATOMS, block_dim=st.sampled_from([1, 2]),
       rank=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_member_is_never_separated(atoms, block_dim, rank, seed):
    # Low ranks keep the one-atom step from deciding most of these, so the
    # splitting runs here directly: up to seven checks, at iterations
    # 1, 2, ..., 64, over the whole restriction.
    k = member(np.random.default_rng(seed), atoms, block_dim, rank)
    problem = atom_problem(k, block_dim)
    coefs = cone._generator_data(problem.effective_grid, problem.sample_set,
                                 block_dim)[1]
    with pytest.MonkeyPatch.context() as mp, recorded_separations() as results:
        mp.setattr(cone, "PRIMAL_MAX_ITER", 64)
        cone._dr_run(coefs, k, cone.PRIMAL_TOL)
    assert results and all(w is None for w in results)


@FIXED
@given(atoms=MEMBER_ATOMS, block_dim=st.sampled_from([1, 2]),
       seed=st.integers(0, 2**32 - 1))
def test_multi_atom_member_is_feasible(atoms, block_dim, seed):
    k = member(np.random.default_rng(seed), atoms, block_dim, 6)
    with recorded_separations() as results:
        got = cone.primal_feasibility(atom_problem(k, block_dim))
    assert all(w is None for w in results)
    assert isinstance(got, cone.Feasible)
    again = sum(hadamard_coefs(p, block_dim) * b
                for p, b in zip(got.measure.grid, got.measure.blocks))
    assert np.linalg.norm(again - k) <= cone.PRIMAL_TOL


@FIXED
@given(block_dim=st.sampled_from([1, 2]), rank=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_separating_functional_rechecks(block_dim, rank, seed):
    n = len(ATOM_SAMPLES) * block_dim
    k = -random_psd(np.random.default_rng(seed), n, rank=min(rank, n))
    with recorded_separations() as results:
        got = cone.primal_feasibility(atom_problem(k, block_dim))
    assert isinstance(got, cone.Undecided) and np.isfinite(got.residual)
    w = results[-1]
    assert w is not None and got.iterations & (got.iterations - 1) == 0
    assert np.real(np.trace(w @ k)) < 0.0
    for g in ATOM_RESTRICTION:
        pairing = w * np.conj(hadamard_coefs(g, block_dim))
        assert np.linalg.eigvalsh(pairing)[0] >= 0.0
