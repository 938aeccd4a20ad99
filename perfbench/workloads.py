"""The four benchmark workloads: input generators, operations and oracles.

Each workload turns a seed into a fixed cycle of operations. The library
only ever sees the generated inputs. Every operation has a check built on
numpy alone (einsum reconstructions, reshape(order="F") index math, planted
ranks) or, for the CLI, on the exit code and the "::" lines, so a wrong
answer is counted as a failed operation. The generators live here, not in
the test suite, so editing a test cannot change a workload.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import tenkit as tk
import tenkit.cli  # noqa: F401  (loads tk.cli for the in-process CLI runs)


class CheckError(Exception):
    """An operation returned a result its oracle rejects."""


@dataclass
class Op:
    """One closed-loop operation.

    run() returns the result and check(result) returns a dict of facts
    (recovery, kept sweeps, cost ratios) or raises CheckError. inproc, when
    set, is the in-process variant the traced run uses instead of run.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    inproc: Callable[[], object] | None = None


@dataclass
class Workload:
    name: str
    setup: Callable[[int, str], list]
    # Fixed per workload so both sides of a comparison report the same
    # statistic. It leaves at least ten samples above it at this workload's
    # operation count per run. On a cycle of 11 operations of distinct costs,
    # p50 and the tail fall inside one operation's band of samples, not on
    # the gap between two.
    tail_pct: float
    # Operations that must complete before a run may stop (None: the whole
    # cycle, so a heterogeneous cycle keeps the same mix in every run).
    stop_unit: int | None = None
    # Operations a traced run carries through (None: the whole cycle).
    trace_ops: int | None = None


def arr(t: tk.DenseTensor) -> np.ndarray:
    """numpy view of a tensor by the documented first-index-fastest order."""
    return np.asarray(t.data).reshape(t.shape, order="F")


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = float(np.linalg.norm(want.ravel()))
    return float(np.linalg.norm((got - want).ravel())) / (scale if scale > 0.0 else 1.0)


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def tensor(x: np.ndarray) -> tk.DenseTensor:
    return tk.DenseTensor(x.shape, x.ravel(order="F"))


# --- einsum oracles ---------------------------------------------------------


def cp_full(weights: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    n = len(factors)
    operands = [weights, [n]]
    for k, f in enumerate(factors):
        operands += [f, [k, n]]
    return np.einsum(*operands, list(range(n)))


def tucker_full(core: np.ndarray, factors: list[np.ndarray]) -> np.ndarray:
    n = core.ndim
    operands = [core, list(range(n))]
    for k, f in enumerate(factors):
        operands += [f, [n + k, k]]
    return np.einsum(*operands, list(range(n, 2 * n)), optimize="greedy")


def tt_full(cores: list[np.ndarray]) -> np.ndarray:
    n = len(cores)
    # bond k is label k, physical mode k is label n + 1 + k
    operands = []
    for k, c in enumerate(cores):
        operands += [c, [k, n + 1 + k, k + 1]]
    out = np.einsum(*operands, [0] + list(range(n + 1, 2 * n + 1)) + [n], optimize="greedy")
    return out.reshape(out.shape[1:-1])


def orthonormal_cols(q: np.ndarray, tol: float = 1e-10) -> bool:
    return float(np.abs(q.T @ q - np.eye(q.shape[1])).max()) <= tol


def planted_cp_factors(rng, shape, rank, max_cond=5.0) -> list[np.ndarray]:
    """Standard-normal factors with condition number below max_cond (by rejection)."""
    while True:
        factors = [rng.standard_normal((extent, rank)) for extent in shape]
        if max(np.linalg.cond(f) for f in factors) < max_cond:
            return factors


def check_trace(trace, what: str) -> None:
    diffs = np.diff(np.asarray(trace, dtype=float))
    require(bool((diffs <= 1e-10).all()), f"{what}: objective trace increases by {diffs.max():.3e}")


# --- cp-recovery ------------------------------------------------------------

CP_POOL = 400


def cp_setup(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i in range(CP_POOL):
        factors = planted_cp_factors(rng, (4, 4, 4), 3)
        full = cp_full(np.ones(3), factors)
        ops.append(_cp_op(i, tensor(full), full))
    return ops


def _cp_op(i: int, x: tk.DenseTensor, full: np.ndarray) -> Op:
    norm = float(np.linalg.norm(full))

    def run():
        # Criterion 8's fit with the early stop off: every fit runs all
        # 3 x 200 sweeps. With tol=1e-8 the sweep count depends on the planted
        # instance, and the p50 of ~100 fits a run moved by up to 28% between
        # seeds; with a fixed sweep count a fit's time is the per-sweep cost.
        return tk.cp_als(x, 3, seed=i, tol=0.0)

    def check(fit):
        check_trace(fit.trace, "cp_als")
        model = fit.model
        approx = cp_full(np.asarray(model.weights.data), [arr(f) for f in model.factors])
        resid = float(np.linalg.norm((full - approx).ravel()))
        require(
            abs(resid - fit.trace[-1]) <= 1e-9 * norm,
            f"cp_als final residual {fit.trace[-1]:.6e} != oracle residual {resid:.6e}",
        )
        return {"recovered": resid / norm <= 1e-5, "kept_sweeps": len(fit.trace)}

    return Op("cp_als", run, check)


# --- tucker-tt --------------------------------------------------------------

HOSVD_SHAPES = [(12, 12, 12), (16, 16, 16), (20, 20, 20), (8, 8, 8, 8), (16, 16, 16, 4)]
TT_SHAPES = [(12, 12, 12), (16, 16, 16), (20, 20, 20), (6, 6, 6, 6, 6)]
TUCKER_PLANT = ((24, 24, 24), (4, 4, 4))
TT_PLANT = ((8, 8, 8, 8), (1, 3, 4, 3, 1))
TT_PIVOT = 2


def full_tt_ranks(shape) -> tuple[int, ...]:
    return (1,) + tuple(
        min(math.prod(shape[: k + 1]), math.prod(shape[k + 1 :])) for k in range(len(shape) - 1)
    ) + (1,)


def tucker_setup(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 2])
    # One model directory per operation: rewriting a directory with a
    # lower-order model leaves stale part files behind (a known defect that
    # the robustness tests, not this benchmark, are for).
    model_dir = lambda: os.path.join(workdir, f"model_{len(ops)}")  # noqa: E731
    ops = []
    for shape in HOSVD_SHAPES:
        full = rng.standard_normal(shape)
        ops.append(_hosvd_op(tensor(full), full, model_dir()))
    for shape in TT_SHAPES:
        full = rng.standard_normal(shape)
        ops.append(_tt_op(tensor(full), full, None, full_tt_ranks(shape), model_dir()))
    shape, ranks = TUCKER_PLANT
    core = rng.standard_normal(ranks)
    factors = [rng.standard_normal((e, r)) for e, r in zip(shape, ranks)]
    full = tucker_full(core, factors)
    ops.append(_thosvd_op(tensor(full), full, ranks, model_dir()))
    shape, bonds = TT_PLANT
    while True:
        cores = [rng.standard_normal((bonds[k], e, bonds[k + 1])) for k, e in enumerate(shape)]
        full = tt_full(cores)
        unfold_ranks = [
            np.linalg.matrix_rank(full.reshape(math.prod(shape[:k]), -1, order="F"))
            for k in range(1, len(shape))
        ]
        if tuple(unfold_ranks) == bonds[1:-1]:
            break
    ops.append(_tt_op(tensor(full), full, bonds[1:-1], bonds, model_dir()))
    return ops


def _round_trip(model_dir: str, model):
    tk.write_model(model_dir, model)
    return tk.read_model(model_dir)


def _same_parts(a, b) -> bool:
    return all(np.array_equal(p.data, q.data) and p.shape == q.shape for p, q in zip(a, b))


def _check_tucker(x_full, model, back, tol):
    require(_same_parts((model.core,) + model.factors, (back.core,) + back.factors),
            "tucker model changed in the write_model/read_model round trip")
    factors = [arr(f) for f in model.factors]
    require(all(orthonormal_cols(f) for f in factors), "tucker factors are not orthonormal")
    err = rel_err(tucker_full(arr(model.core), factors), x_full)
    require(err <= tol, f"tucker reconstruction error {err:.3e} > {tol:g}")
    return {}


def _hosvd_op(x, full, model_dir) -> Op:
    def run():
        model = tk.hosvd(x)
        return model, _round_trip(model_dir, model)

    return Op("hosvd:" + "x".join(map(str, x.shape)), run,
              lambda res: _check_tucker(full, *res, tol=1e-10))


def _thosvd_op(x, full, ranks, model_dir) -> Op:
    def run():
        model = tk.truncated_hosvd(x, ranks)
        return model, _round_trip(model_dir, model)

    def check(res):
        require(res[0].ranks == tuple(ranks), f"truncated_hosvd ranks {res[0].ranks} != {ranks}")
        return _check_tucker(full, *res, tol=1e-9)

    return Op("truncated_hosvd:" + "x".join(map(str, x.shape)), run, check)


def _tt_op(x, full, caps, want_bonds, model_dir) -> Op:
    def run():
        train = tk.tt_svd(x, max_ranks=caps) if caps else tk.tt_svd(x)
        ortho = tk.tt_orthogonalize(train, TT_PIVOT) if caps else train
        return train, ortho, _round_trip(model_dir, ortho)

    def check(res):
        train, ortho, back = res
        require(train.bond_ranks == tuple(want_bonds),
                f"tt_svd bond ranks {train.bond_ranks} != planted {tuple(want_bonds)}")
        require(_same_parts(ortho.cores, back.cores),
                "tt train changed in the write_model/read_model round trip")
        cores = [arr(c) for c in ortho.cores]
        err = rel_err(tt_full(cores), full)
        require(err <= 1e-10, f"tt reconstruction error {err:.3e} > 1e-10")
        if caps:
            for k, c in enumerate(cores):
                r0, i, r1 = c.shape
                if k < TT_PIVOT - 1:
                    require(orthonormal_cols(c.reshape(r0 * i, r1, order="F")),
                            f"tt core {k + 1} is not left-orthogonal")
                elif k > TT_PIVOT - 1:
                    require(orthonormal_cols(c.reshape(r0, i * r1, order="F").T),
                            f"tt core {k + 1} is not right-orthogonal")
        return {}

    kind = "tt_svd_capped" if caps else "tt_svd"
    return Op(kind + ":" + "x".join(map(str, x.shape)), run, check)


# --- contract ---------------------------------------------------------------


def ring(n, bonds, free):
    nodes = [(f"n{k}", (f"b{k}", f"b{(k + 1) % n}", f"f{k}")) for k in range(n)]
    ext = {f"b{k}": bonds[k % len(bonds)] for k in range(n)}
    ext.update({f"f{k}": free for k in range(n)})
    return nodes, ext, [f"f{k}" for k in range(n)]


def chain(n, bond, free):
    nodes = []
    for k in range(n):
        labels = ([f"b{k - 1}"] if k > 0 else []) + ([f"b{k}"] if k < n - 1 else []) + [f"f{k}"]
        nodes.append((f"n{k}", tuple(labels)))
    ext = {f"b{k}": bond for k in range(n - 1)}
    ext.update({f"f{k}": free for k in range(n)})
    return nodes, ext, [f"f{k}" for k in range(n)]


def ladder(length, bonds, free):
    """2 x length grid: two rails joined by a rung at every column."""
    nodes, ext = [], {}
    for k in range(length):
        ext[f"r{k}"] = bonds[(k + 1) % len(bonds)]
        for rail in "ac":
            labels = [f"r{k}"]
            if k > 0:
                labels.append(f"{rail}{k - 1}")
            if k < length - 1:
                labels.append(f"{rail}{k}")
                ext[f"{rail}{k}"] = bonds[k % len(bonds)]
            labels.append(f"f{rail}{k}")
            ext[f"f{rail}{k}"] = free
            nodes.append((f"{rail}{k}", tuple(labels)))
    return nodes, ext, [f"f{rail}{k}" for k in range(length) for rail in "ac"]


def star(leaves, bond, free):
    nodes = [("c", tuple(f"x{k}" for k in range(leaves)))]
    nodes += [(f"l{k}", (f"x{k}", f"f{k}")) for k in range(leaves)]
    ext = {f"x{k}": bond for k in range(leaves)}
    ext.update({f"f{k}": free for k in range(leaves)})
    return nodes, ext, [f"f{k}" for k in range(leaves)]


# 10-12-node rings and ladders with extents 2-3, where the 3^n subset DP of
# the exhaustive planner dominates; then 6-8-node networks with small inputs
# and planned total_cost near 1e7-1e8, where tensor_product dominates.
NETWORKS = [
    ("ring10", ring(10, (2, 3), 2)),
    ("ring11", ring(11, (3, 2), 2)),
    ("ring12", ring(12, (2, 3), 2)),
    ("ladder2x5", ladder(5, (2, 3), 2)),
    ("ladder2x6", ladder(6, (3, 2), 2)),
    ("ring6-dense", ring(6, (12,), 8)),
    ("ring7-dense", ring(7, (10,), 6)),
    ("ring8-dense", ring(8, (8,), 6)),
    ("chain8-dense", chain(8, 10, 6)),
    ("ladder2x4-dense", ladder(4, (6,), 6)),
    ("star6-dense", star(6, 4, 12)),
]


def contract_setup(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for name, (nodes, ext, output) in NETWORKS:
        arrays = [rng.standard_normal(tuple(ext[l] for l in labels)) for _, labels in nodes]
        net = tk.TensorNetwork(
            [(node, labels, tensor(a)) for (node, labels), a in zip(nodes, arrays)], output
        )
        ops.append(_contract_op(name, net, nodes, ext, output, arrays))
    return ops


def einsum_network(nodes, ext, output, arrays) -> np.ndarray:
    ids = {label: k for k, label in enumerate(ext)}
    operands = []
    for (_, labels), a in zip(nodes, arrays):
        operands += [a, [ids[l] for l in labels]]
    return np.einsum(*operands, [ids[l] for l in output], optimize="greedy")


def _contract_op(name, net, nodes, ext, output, arrays) -> Op:
    want = []  # the einsum oracle, computed at the first check

    def run():
        parsed = tk.parse_network(tk.format_network(net))
        exhaustive = tk.plan(parsed, "exhaustive")
        greedy = tk.plan(parsed, "greedy")
        return parsed, exhaustive, greedy, tk.evaluate(parsed, exhaustive), tk.evaluate(parsed, greedy)

    def check(res):
        parsed, exhaustive, greedy, r_ex, r_gr = res
        require(parsed == net, "parse_network(format_network(net)) changed the network")
        require(exhaustive.total_cost <= greedy.total_cost,
                f"exhaustive cost {exhaustive.total_cost} > greedy cost {greedy.total_cost}")
        if not want:
            want.append(einsum_network(nodes, ext, output, arrays))
        for label, got in (("exhaustive", r_ex), ("greedy", r_gr)):
            require(got.shape == want[0].shape, f"{label} result shape {got.shape} != {want[0].shape}")
            err = rel_err(arr(got), want[0])
            require(err <= 1e-12, f"{label} evaluation error {err:.3e} > 1e-12")
        return {"greedy_ratio": greedy.total_cost / exhaustive.total_cost}

    return Op(name, run, check)


# --- cli --------------------------------------------------------------------


def write_ten(path: str, x: np.ndarray) -> None:
    """Write a .ten file directly, 17 significant digits, first index fastest."""
    values = x.ravel(order="F")
    lines = [f"order {x.ndim}", "shape" + "".join(f" {e}" for e in x.shape), "data"]
    lines += [" ".join(format(v, ".17g") for v in values[k : k + 8]) for k in range(0, values.size, 8)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_ten(path: str) -> np.ndarray:
    """Parse a .ten file without the library."""
    with open(path, encoding="utf-8") as fh:
        tokens = [t for line in fh for t in line.split("#", 1)[0].split()]
    order = int(tokens[1])
    shape = tuple(int(t) for t in tokens[3 : 3 + order])
    return np.array(tokens[4 + order :], dtype=float).reshape(shape, order="F")


def mlines(stdout: str) -> dict[str, list[list[str]]]:
    out: dict[str, list[list[str]]] = {}
    for line in stdout.splitlines():
        if line.startswith("::"):
            key, *values = line[2:].split()
            out.setdefault(key, []).append(values)
    return out


def read_model_dir(path: str) -> dict[str, np.ndarray]:
    return {name[:-4]: read_ten(os.path.join(path, name)) for name in os.listdir(path) if name.endswith(".ten")}


def series(parts: dict, prefix: str) -> list[np.ndarray]:
    return [parts[f"{prefix}_{k}"] for k in range(1, len(parts) + 1) if f"{prefix}_{k}" in parts]


BIG_SHAPE = (40, 40, 40)  # 64k entries
SMALL_SHAPE = (10, 10, 10)


def cli_env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(tk.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_setup(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 4])
    f = lambda name: os.path.join(workdir, name)  # noqa: E731
    big = rng.standard_normal(BIG_SHAPE)
    write_ten(f("big.ten"), big)
    flat = rng.standard_normal(math.prod(BIG_SHAPE))
    write_ten(f("flat.ten"), flat)
    small = rng.standard_normal(SMALL_SHAPE)
    write_ten(f("small.ten"), small)
    planted = cp_full(np.ones(3), planted_cp_factors(rng, SMALL_SHAPE, 3))
    write_ten(f("planted.ten"), planted)
    # a 5-node ring of .ten files, free label on every node
    nodes, ext, output = ring(5, (6, 5), 4)
    arrays = []
    lines = []
    for name, labels in nodes:
        a = rng.standard_normal(tuple(ext[l] for l in labels))
        write_ten(f(f"{name}.ten"), a)
        arrays.append(a)
        lines.append(f"node {name} [{','.join(labels)}] @{name}.ten")
    lines.append(f"output [{','.join(output)}]")
    with open(f("ring.tn"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    ring_out = einsum_network(nodes, ext, output, arrays)

    env = cli_env()
    ops = [
        _cli_op("info", ["info", f("big.ten")], env, lambda r: _check_info(r, big)),
        _cli_op("reshape permute", ["reshape", f("big.ten"), "permute", "3", "1", "2", "--out", f("perm.ten")], env,
                lambda r: _check_file(r, f("perm.ten"), np.transpose(big, (2, 0, 1)))),
        _cli_op("reshape unfold", ["reshape", f("big.ten"), "unfold", "2", "--out", f("unfold.ten")], env,
                lambda r: _check_file(r, f("unfold.ten"), np.moveaxis(big, 1, 0).reshape(40, -1, order="F"))),
        _cli_op("reshape fold", ["reshape", f("flat.ten"), "fold", *map(str, BIG_SHAPE), "--out", f("fold.ten")], env,
                lambda r: _check_file(r, f("fold.ten"), flat.reshape(BIG_SHAPE, order="F"))),
    ]
    for method, extra, source, x in (
        ("hosvd", [], "small.ten", small),
        ("tt", [], "small.ten", small),
        ("cp", ["3", "--seed", "0"], "planted.ten", planted),
    ):
        outdir = f(f"model_{method}")
        ops.append(_cli_op(f"decompose {method}", ["decompose", f(source), method, *extra, "--outdir", outdir], env,
                           lambda r, m=method, d=outdir, x=x: _check_decompose(r, m, d, x)))
        tol = 1e-5 if method == "cp" else 1e-10
        ops.append(_cli_op(f"verify {method}", ["verify", f(source), outdir, "--tol", str(tol)], env,
                           lambda r, m=method, d=outdir, x=x, t=tol: _check_verify(r, m, d, x, t)))
    ops.append(_cli_op("contract", ["contract", f("ring.tn"), "--out", f("ring_out.ten")], env,
                       lambda r: _check_contract(r, f("ring_out.ten"), ring_out)))
    return ops


def _cli_op(kind, argv, env, check) -> Op:
    def run():
        proc = subprocess.run([sys.executable, "-m", "tenkit", *argv], capture_output=True,
                              text=True, env=env, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def inproc():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tk.cli.main(list(argv))
        return code, out.getvalue(), ""

    def checked(result):
        code, stdout, stderr = result
        facts = check((code, mlines(stdout)))
        require(code == facts.pop("exit", 0), f"exit code {code}: {stderr.strip()[-200:]}")
        return facts

    return Op(kind, run, checked, inproc)


def _close(text: str, want: float, tol: float) -> bool:
    return abs(float(text) - want) <= tol * max(1.0, abs(want))


def _check_info(result, big):
    _, m = result
    require(m.get("order") == [["3"]] and m.get("shape") == [list(map(str, big.shape))], "info shape lines")
    require(m.get("elements") == [[str(big.size)]], "info ::elements")
    require(_close(m["fro_norm"][0][0], float(np.linalg.norm(big)), 1e-12), "info ::fro_norm")
    require(float(m["min"][0][0]) == big.min() and float(m["max"][0][0]) == big.max(), "info ::min/::max")
    return {}


def _check_file(result, path, want):
    _, m = result
    require(m.get("shape") == [list(map(str, want.shape))], f"reshape ::shape {m.get('shape')}")
    require(np.array_equal(read_ten(path), want), f"reshape output {os.path.basename(path)} is wrong")
    return {}


def _oracle_rel_error(method, outdir, x):
    parts = read_model_dir(outdir)
    if method == "cp":
        approx = cp_full(parts["weights"], series(parts, "factor"))
    elif method == "hosvd":
        approx = tucker_full(parts["core"], series(parts, "factor"))
    else:
        approx = tt_full(series(parts, "core"))
    return rel_err(approx, x)


def _check_decompose(result, method, outdir, x):
    _, m = result
    err = _oracle_rel_error(method, outdir, x)
    require(_close(m["rel_error"][0][0], err, 1e-9), f"decompose {method} ::rel_error != oracle {err:.3e}")
    facts = {}
    if method == "cp":
        check_trace([float(v[1]) for v in m.get("fit_trace", [])], "decompose cp")
        facts["kept_sweeps"] = len(m.get("fit_trace", []))
    else:
        require(err <= 1e-10, f"decompose {method} reconstruction error {err:.3e} > 1e-10")
        want = ["10", "10", "10"] if method == "hosvd" else ["1", "10", "10", "1"]
        require(m.get("ranks") == [want], f"decompose {method} ::ranks {m.get('ranks')}")
    return facts


def _check_verify(result, method, outdir, x, tol):
    _, m = result
    err = _oracle_rel_error(method, outdir, x)
    require(_close(m["rel_error"][0][0], err, 1e-9), f"verify {method} ::rel_error != oracle {err:.3e}")
    return {"exit": 0 if err <= tol else 1}


def _check_contract(result, path, want):
    _, m = result
    require(m.get("shape") == [list(map(str, want.shape))], f"contract ::shape {m.get('shape')}")
    require(int(m["total_cost"][0][0]) > 0, "contract ::total_cost")
    err = rel_err(read_ten(path), want)
    require(err <= 1e-12, f"contract output error {err:.3e} > 1e-12")
    return {}


# --- registry ---------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload("cp-recovery", cp_setup, tail_pct=70.0, stop_unit=1, trace_ops=8),
        Workload("tucker-tt", tucker_setup, tail_pct=95.0),
        Workload("contract", contract_setup, tail_pct=87.0),
        Workload("cli", cli_setup, tail_pct=84.0),
    )
}
