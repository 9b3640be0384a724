"""Property tests: certificate decoding, the variety subcommand and its
whole-circle verdict, invalid and type-valid configs for every subcommand,
one-atom cone members and the primal separation exit on random input.

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

from neilcone import cli, cone, dilation
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


@FIXED
@given(phase=st.floats(0.0, 2.0 * np.pi),
       excess=st.one_of(st.floats(-1e-2, 5e-9), st.floats(2e-8, 1e-2)))
def test_variety_passes_exactly_within_the_bound(phase, excess):
    # ||lam s + (1 - lam) t|| = |p + q e^{i theta}| peaks at |p| + |q|
    # = 1 + excess, at theta = phase: anywhere, mostly between samples.
    # Excesses in (5e-9, 2e-8), around the default tol of 1e-8, are left
    # out: there the proof may run out of evaluations, an undecided verdict.
    p = 0.5 * (1.0 + 2.0 * excess) * np.exp(1j * phase)
    pair = dilation.VarietyPair(np.array([[0.0, p + 0.5], [0.0, 0.0]]),
                                np.array([[0.0, p - 0.5], [0.0, 0.0]]))
    verdict = dilation.variety_verdict(pair)
    assert verdict.reason is None
    assert verdict.passed == (excess <= 1e-8)


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
        "validation_radii": BAD_COUNT, "validation_angles": BAD_COUNT}),
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
        for name in ("_dr_run", "_admm_min_violation", "_dual_polish",
                     "_sdp"):
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


# Values of each config kind, kept small: 2-3 samples, grids and audit rings
# of at most 3x8, restrictions of 2-3 points and matrices of at most 3x3.
# Point lists draw from well separated points, and one config shares one
# list length and one matrix size, so that many configs reach a solve.
DISK_POINTS = (0.5, -0.3 + 0.2j, 0.3j, 0.0, -0.5, -0.3j, 0.6, 0.25 - 0.4j)
disk_point = st.sampled_from(DISK_POINTS).map(cli.encode_complex)
any_complex = disk_point | st.complex_numbers(
    max_magnitude=2.0, allow_nan=False).map(cli.encode_complex)


@st.composite
def lower_triangle(draw, n):
    return [[draw(any_complex) for _ in range(i)]
            + [[draw(st.floats(-2.0, 2.0)), 0.0]] for i in range(n)]


def kind_values(kind: str, size: int, n: int):
    points = st.lists(disk_point, min_size=size, max_size=size, unique_by=str)
    matrix = st.lists(st.lists(any_complex, min_size=n, max_size=n),
                      min_size=n, max_size=n)
    return {
        "complex": st.complex_numbers(min_magnitude=0.05, max_magnitude=0.9,
                                      allow_nan=False).map(cli.encode_complex),
        "count": st.integers(1, 3),
        "tol": st.floats(1e-10, 0.5),
        "grid": st.tuples(st.integers(1, 3), st.integers(1, 8)).map(list),
        "samples": points,
        "complexes": points,
        "points": st.lists(st.just("inf") | disk_point, min_size=size,
                           max_size=size, unique_by=str),
        "matrix": matrix,
        "lower triangle": lower_triangle(n),
        "lower triangles": st.lists(lower_triangle(n), min_size=size,
                                    max_size=size),
    }[kind]


@st.composite
def valid_configs(draw):
    command = draw(st.sampled_from(sorted(cli._CONFIG)))
    size, n = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    default_set = cli._DEFAULT_SETS.get(command, ((),))[0]
    config, use_default_set = {}, draw(st.booleans())
    for field, (default, kind) in cli._CONFIG[command].items():
        if field in default_set:
            config[field] = None if use_default_set else draw(
                kind_values(kind, size, n))
            continue
        value = kind_values(kind, size, n)
        if field == "validation_angles":  # audit rings of at most 3x8
            value = st.integers(1, 8)
        if default is None and field != "samples":
            value = st.none() | value
        config[field] = draw(value)
    if command == "cone":
        if config["restriction"] is not None:
            del config["grid"]
        if draw(st.booleans()):  # a target of the problem's size
            dim = len(config["samples"]) * config["block_dim"]
            config["target"] = draw(lower_triangle(dim))
    return command, config


def reject_constant(token):
    raise ValueError("non-finite %s in output" % token)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=valid_configs())
def test_type_valid_config_exits_cleanly(case):
    command, config = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for name, cap in (("PRIMAL_MAX_ITER", 64), ("ADMM_ITERS", 100),
                          ("POLISH_ITERS", 100)):
            mp.setattr(cone, name, cap)
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = Path(tmp) / "out.json"
        argv = [command, "--config", str(cfg), "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = cli.main(argv)
        text = out.read_text() if out.exists() else None
    assert code in (0, 1, 2, 3) and caught == []
    if code == 1:
        assert text is None
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        data = json.loads(text, parse_constant=reject_constant)
        assert data["kind"] == command


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
