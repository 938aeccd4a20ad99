"""The CLI's regression scenarios as one table.

A row builds its input files in a fresh directory, runs one or more tenkit
calls there in order (decompose, then verify), checks each call's exit code
and a piece of its stderr, and then runs its post-check, if it has one, on
the directory and the calls' stdout. The row's id says what it reaches, so
`pytest -k <id>` runs one scenario.

Each call runs in this process through test_cli.run_cli. With the
environment variable TENKIT_CLI_INSTALLED set to any non-empty value, it
runs the `tenkit` console script found on PATH instead, in a subprocess,
so the same rows check the installed entry point:

    TENKIT_CLI_INSTALLED=1 python -m pytest tests/test_cli_scenarios.py
"""

import math
import os
import re
import subprocess
from pathlib import Path

import numpy as np
import pytest

import tenkit as tk

from test_cli import machine_lines, run_cli

INSTALLED = bool(os.environ.get("TENKIT_CLI_INSTALLED"))
WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def run(argv, cwd):
    if INSTALLED:
        return subprocess.run(["tenkit", *argv], cwd=cwd, capture_output=True, text=True)
    return run_cli(*argv, cwd=cwd)


# --- input builders ----------------------------------------------------------


def ten(name, shape, values):
    return lambda d: tk.write_tensor(d / name, tk.DenseTensor(shape, values))


def tn(name, nodes, output):
    return lambda d: (d / name).write_text(tk.format_network(tk.TensorNetwork(nodes, output)))


def t101(*shape):
    return tk.DenseTensor(shape, [(v * 7919 % 101) / 101 - 0.5 for v in range(math.prod(shape))])


def ladder(n, free):
    """The nodes and output of a 2xn ladder of inline tensors: nodes a{k} and
    c{k}, joined by the rung bond r{k} and along each rail by a{k} or c{k} to
    column k + 1, bonds of extent 3 and free labels f{r}{k} of extent free."""

    def lab(r, k):
        return (f"r{k}",) + ((f"{r}{k - 1}",) if k else ()) + ((f"{r}{k}",) if k < n - 1 else ()) + (f"f{r}{k}",)

    def shape(ls):
        return tuple(free if l[0] == "f" else 3 for l in ls)

    nodes = [
        (f"{r}{k}", lab(r, k), tk.DenseTensor(shape(lab(r, k)), [(v * 7919 + 11 * k) % 101 / 101 - 0.5 for v in range(math.prod(shape(lab(r, k))))]))
        for k in range(n)
        for r in "ac"
    ]
    return nodes, [f"f{r}{k}" for k in range(n) for r in "ac"]


def tucker_e200(d):
    # A 2x2x2 core of 1e200 and diag(1e200) factors: entries of 1e600.
    diag = tk.DenseTensor((2, 2), [1e200, 0, 0, 1e200])
    tk.write_model(d / "e200m", tk.TuckerModel(tk.DenseTensor((2, 2, 2), [1e200] * 8), (diag,) * 3))
    tk.write_tensor(d / "x222.ten", tk.DenseTensor((2, 2, 2), range(8)))


def r1(d):
    tk.write_tensor(d / "r1.ten", tk.outer([tk.DenseTensor((3,), v) for v in ([1, 2, 3], [1, 1, 1], [1, 0, 1])]))


def tt4(d):
    # Core k's entry v is ((7919v + 37k) mod 101)/101 - 0.5.
    b, e = (1, 2, 3, 2, 1), (5, 6, 6, 5)
    cores = [tk.DenseTensor((b[k], e[k], b[k + 1]), [((7919 * v + 37 * k) % 101) / 101 - 0.5 for v in range(b[k] * e[k] * b[k + 1])]) for k in range(4)]
    tk.write_tensor(d / "tt4.ten", tk.tt_reconstruct(tk.TTTrain(tuple(cores))))


# A 3x3x3 tensor with one nan entry.
NAN = [float("nan") if v == 13 else v % 5 - 2 for v in range(27)]


# --- post-checks -------------------------------------------------------------


def cost(stdout):
    return int(machine_lines(stdout)["total_cost"][0])


def gone(name):
    return lambda d, outs: not (d / name).exists()


def matches_einsum(d, netfile, *tenfiles):
    """Whether every .ten file has the shape of numpy's einsum of the network
    and lies within 1e-12 of it, relative to its largest entry; a file of
    another shape reads as an infinite error."""
    net = tk.parse_network((d / netfile).read_text())
    ids = {}
    ops = [x for m in net.node_names for x in (net.tensor(m).to_array(), [ids.setdefault(l, len(ids)) for l in net.labels(m)])]
    want = np.einsum(*ops, [ids[l] for l in net.output], optimize="greedy")
    gots = [tk.read_tensor(d / f).to_array() for f in tenfiles]
    errs = [np.abs(g - want).max() / np.abs(want).max() if g.shape == want.shape else math.inf for g in gots]
    print(netfile, "rel errors", errs)
    return max(errs) <= 1e-12


# --- the table ---------------------------------------------------------------


def row(id, build, calls, check=None):
    """A scenario: build(d) writes the inputs into the directory d; each call
    is its argv as one string, expected to exit 0, or a tuple (argv, exit
    code, text that stderr must contain); check(d, stdouts), if given, must
    return true after the last call."""
    return pytest.param(build, calls, check, id=id)


SCENARIOS = [
    row(
        "info-reshape-permute",
        ten("ramp.ten", (2, 3, 4), range(1, 25)),
        ["info ramp.ten", "reshape ramp.ten permute 3 1 2 --out permuted.ten", "info permuted.ten"],
    ),
    # x(i,j,k) = i*j*k, 0-based: the three unfoldings share one shape and each
    # has a zero row, so hosvd runs the stacked Jacobi SVD and its dead-column
    # fill.
    row(
        "hosvd-stacked-dead-column",
        ten("cube.ten", (4, 4, 4), [(v % 4) * (v // 4 % 4) * (v // 16) for v in range(64)]),
        ["decompose cube.ten hosvd --outdir m/", "verify cube.ten m/ --tol 1e-10"],
    ),
    # A 16x16x16 tensor of scattered values whose first frontal slice is zero:
    # each unfolding, transposed to 256x16, takes the tall path (Householder
    # reflectors, Jacobi on R, U from the reflectors), and the mode-3 one has a
    # dead column, which _orthonormal_fill fills through the compact-WY Q
    # (numpy's solve on every leg).
    row(
        "hosvd-tall-dead-column",
        ten("zslice.ten", (16, 16, 16), [0 if v < 256 else (v * 7919 % 113) / 113 - 0.5 for v in range(4096)]),
        ["decompose zslice.ten hosvd --outdir zm/", "verify zslice.ten zm/ --tol 1e-10"],
    ),
    # 17^3 scattered values: the three unfoldings, each transposed to 289x17,
    # take the tall path as one stack, with an odd column count, so every
    # Jacobi round leaves one column of each R idle.
    row(
        "hosvd-tall-odd-columns",
        ten("odd17.ten", (17, 17, 17), [(v * 7919 % 113) / 113 - 0.5 for v in range(17**3)]),
        ["decompose odd17.ten hosvd --outdir o17/", "verify odd17.ten o17/ --tol 1e-10"],
    ),
    # 6^5 scattered values: tt_svd's 36x216 unfoldings take the tall path as
    # 216x36, with a 36x36 R.
    row(
        "tt-tall-36-columns",
        ten("six5.ten", (6,) * 5, [(v * 7919 % 113) / 113 - 0.5 for v in range(6**5)]),
        ["decompose six5.ten tt --outdir t5/", "verify six5.ten t5/ --tol 1e-10"],
    ),
    # x(i,j,k) = 1e-170 (i+1)(j+1)(k+1), 0-based: rank 1, and every squared
    # entry underflows, so cp_als must fit it at a power-of-two scale.
    row(
        "cp-underflow-power-of-two-scale",
        ten("tiny.ten", (4, 4, 4), [1e-170 * (v % 4 + 1) * (v // 4 % 4 + 1) * (v // 16 + 1) for v in range(64)]),
        ["decompose tiny.ten cp 1 --outdir cpm/ --seed 0", "verify tiny.ten cpm/ --tol 1e-10"],
    ),
    # x = outer((1,2,3), (1,1,1), (1,0,1)): rank 1 with a zero fiber, so the
    # normal matrices of a rank-2 or rank-3 fit are singular. In the first
    # block of sweeps an LU solve, the block's stacked Cholesky rank test or
    # the residual fails (which one depends on the BLAS), so the fit goes back
    # to the block's first sweep and runs on as plain ALS through the
    # pseudo-inverse.
    row(
        "cp-rank3-singular-normal-replay",
        r1,
        ["decompose r1.ten cp 3 --seed 0 --outdir r1cp/", "verify r1.ten r1cp/ --tol 1e-12"],
    ),
    row(
        "cp-rank2-singular-normal-replay",
        r1,
        ["decompose r1.ten cp 2 --outdir r1m2/ --seed 0", "verify r1.ten r1m2/ --tol 1e-10"],
    ),
    # 6^3 scattered values at rank 40: each 40x40 normal matrix is the
    # Hadamard product of two Grams of rank <= 6, so of rank <= 36, and the
    # fit runs as plain ALS through numpy's pseudo-inverse (numpy 1.24's on
    # one CI leg, 2.x's on the others).
    row(
        "cp-rank40-pinv",
        ten("r40.ten", (6, 6, 6), [(v * 7919 % 113) / 113 - 0.5 for v in range(216)]),
        ["decompose r40.ten cp 40 --seed 0 --outdir r40m/", "verify r40.ten r40m/ --tol 1e-10"],
    ),
    # One nan entry: the LU sweep's residual is NaN, so the fit is replayed
    # through the pseudo-inverse, whose residual is NaN too: a numeric failure
    # with exit code 2.
    row(
        "cp-nan-objective",
        ten("nan.ten", (3, 3, 3), NAN),
        [("decompose nan.ten cp 2 --outdir nanm/", 2, "cp_als objective became non-finite")],
    ),
    # x = sum of three rank-1 terms on 5x5x5, entry v of vector k of term r
    # being ((7919v + 11k + 37r) mod 101)/101 - 0.5. Its restarts run 44, 44
    # and 37 sweeps, so the fit tests its rank over several blocks of sweeps,
    # and the last blocks end where restarts stop.
    row(
        "cp-rank3-block-rank-tests",
        ten("p5.ten", (5, 5, 5), sum(tk.outer([tk.DenseTensor((5,), [((7919 * v + 11 * k + 37 * r) % 101) / 101 - 0.5 for v in range(5)]) for k in range(3)]).data for r in range(3))),
        ["decompose p5.ten cp 3 --seed 0 --outdir p5cp/", "verify p5.ten p5cp/ --tol 1e-6"],
    ),
    # An outer product of four short vectors: rank 1 of order 4, so the sweep's
    # Gram product runs over three other modes.
    row(
        "cp-order4-gram",
        lambda d: tk.write_tensor(d / "x4.ten", tk.outer([tk.DenseTensor((k,), range(1, k + 1)) for k in (2, 3, 2, 3)])),
        ["decompose x4.ten cp 1 --outdir c4/ --seed 0", "verify x4.ten c4/ --tol 1e-10"],
    ),
    # Two rank-one terms on 8x8x8, entry v of vector m of term r being
    # ((7919v + 11(3r + m)) mod 101)/101 - 0.5: multilinear rank (2, 2, 2), so
    # thosvd 2 2 2 keeps 2 of each unfolding's 8 columns, and once the other 6
    # are dominated the sweeps test only pairs touching the 2.
    row(
        "thosvd-narrow-sweeps",
        ten("lr.ten", (8, 8, 8), sum(tk.outer([tk.DenseTensor((8,), [((7919 * v + 11 * (3 * r + m)) % 101) / 101 - 0.5 for v in range(8)]) for m in range(3)]).data for r in range(2))),
        ["decompose lr.ten thosvd 2 2 2 --outdir lrm/", "verify lr.ten lrm/ --tol 1e-10"],
    ),
    # A 5x6x6x5 train of bond ranks (1, 2, 3, 2, 1), core k's entry v being
    # ((7919v + 37k) mod 101)/101 - 0.5: tt with bond caps 2 3 2 and no tol
    # runs every split's SVD on the same truncated path.
    row(
        "tt-bond-caps-truncated",
        tt4,
        ["decompose tt4.ten tt 2 3 2 --outdir tt4m/", "verify tt4.ten tt4m/ --tol 1e-10"],
    ),
    # Twelve vectors, eleven of extent 37 and one of 51: the planner's cost
    # sums pass 2**63 - 1, so it plans in Python ints. Its best total is just
    # under 2**63 - 1; sums wrapped to 64 bits would pick a plan above it. No
    # --out, so the outer product is never built.
    row(
        "plan-python-int-costs",
        tn("vec12.tn", [(f"v{k}", (f"i{k}",), tk.DenseTensor((e,), [1] * e)) for k, e in enumerate([37] * 11 + [51])], [f"i{k}" for k in range(12)]),
        ["contract vec12.tn"],
        lambda d, outs: 37**11 * 51 < cost(outs[0]) <= 2**63 - 1,
    ),
    # A 6-leaf star of inline tensors: its plan contracts the center c with
    # l5, then l4, ..., l0. Each step is a mode product: the leaf's free label
    # takes its bond's place and the center is read in place, so the result is
    # already in output order.
    row(
        "evaluate-star-mode-products",
        tn(
            "star.tn",
            [("c", tuple(f"x{k}" for k in range(6)), tk.DenseTensor((2,) * 6, [v % 7 - 3 for v in range(2**6)]))]
            + [(f"l{k}", (f"x{k}", f"f{k}"), tk.DenseTensor((2, 3), [k + v for v in range(6)])) for k in range(6)],
            [f"f{k}" for k in range(6)],
        ),
        ["contract star.tn --out s.ten"],
        lambda d, outs: matches_einsum(d, "star.tn", "s.ten"),
    ),
    # A 2x4 ladder, bond and free extents 3 (432 values): the greedy plan, the
    # cheaper of the two greedy orders, must cost at most 1.05 times the
    # exhaustive one (the growth order gives 77031 against 75087; the cost
    # order alone gave 243243), and both plans' results must match einsum.
    row(
        "plan-greedy-within-5-percent",
        tn("ladder.tn", *ladder(4, 3)),
        ["contract ladder.tn --strategy greedy --out lg.ten", "contract ladder.tn --out le.ten"],
        lambda d, outs: cost(outs[0]) <= 1.05 * cost(outs[1]) and matches_einsum(d, "ladder.tn", "lg.ten", "le.ten"),
    ),
    # A 2x6 ladder, bond extent 3 and free extent 2 (504 values): 12 nodes and
    # 16 bonds, the exhaustive planner's largest node count, on int64 cost
    # tables. The exhaustive plan must cost at most the greedy one, and both
    # plans' results must match einsum.
    row(
        "plan-exhaustive-12-nodes",
        tn("ladder6.tn", *ladder(6, 2)),
        ["contract ladder6.tn --strategy exhaustive --out l6e.ten", "contract ladder6.tn --strategy greedy --out l6g.ten"],
        lambda d, outs: cost(outs[0]) <= cost(outs[1]) and matches_einsum(d, "ladder6.tn", "l6e.ten", "l6g.ten"),
    ),
    # A 3-node chain whose output [i, l, j] interleaves the last two operands'
    # free labels under the exhaustive plan (B with C, then A with that: i, j
    # against l). The last step is a mode product: l takes k's place in A, so
    # the GEMM writes the output order.
    row(
        "evaluate-interleaved-output",
        tn("inter.tn", [("A", ("i", "k", "j"), t101(3, 4, 5)), ("B", ("k", "m"), t101(4, 6)), ("C", ("m", "l"), t101(6, 2))], ["i", "l", "j"]),
        ["contract inter.tn --out inter.ten"],
        lambda d, outs: matches_einsum(d, "inter.tn", "inter.ten"),
    ),
    # A 3-leaf star whose output [i, j, k] puts the free label of q, the leaf
    # both plans contract last, between the others: every step is a mode
    # product, and the last one reads the center as a batch of matrices
    # (np.matmul's batched path, numpy 1.24's on one CI leg).
    row(
        "evaluate-batched-mode-product",
        tn("star3.tn", [("c", ("x", "y", "z"), t101(5, 4, 5)), ("p", ("x", "i"), t101(5, 3)), ("q", ("y", "j"), t101(4, 6)), ("r", ("z", "k"), t101(5, 4))], ["i", "j", "k"]),
        ["contract star3.tn --strategy exhaustive --out star3-exhaustive.ten", "contract star3.tn --strategy greedy --out star3-greedy.ten"],
        lambda d, outs: matches_einsum(d, "star3.tn", "star3-exhaustive.ten", "star3-greedy.ten"),
    ),
    # A 3-node chain whose output [i, k, l, j] puts C's free labels inside A's:
    # both plans contract the matrix M into C first, and the last step, A with
    # that order-3 node over the bond x, is a general step. The second
    # operand's labels k, l form one block of the output, so the last GEMM
    # writes the output order at the block's place.
    row(
        "evaluate-output-block-in-place",
        tn("nest.tn", [("A", ("i", "x", "j"), t101(3, 4, 5)), ("M", ("x", "y"), t101(4, 6)), ("C", ("y", "k", "l"), t101(6, 2, 3))], ["i", "k", "l", "j"]),
        ["contract nest.tn --strategy exhaustive --out nest-exhaustive.ten", "contract nest.tn --strategy greedy --out nest-greedy.ten"],
        lambda d, outs: matches_einsum(d, "nest.tn", "nest-exhaustive.ten", "nest-greedy.ten"),
    ),
    # Two nodes of 1e200 entries: finite inputs whose product is beyond float
    # range, a numeric failure with exit code 2.
    row(
        "evaluate-overflow",
        tn("e200.tn", [("A", ("i", "j"), tk.DenseTensor((2, 2), [1e200] * 4)), ("B", ("j", "k"), tk.DenseTensor((2, 2), [1e200] * 4))], ["i", "k"]),
        [("contract e200.tn --out e200.ten", 2, "beyond float range")],
    ),
    # A 12-ring with bond 2 and free extent 20: splitting the even nodes from
    # the odd ones costs 20**12 * 2**12 > 2**63 - 1, but no plan needs that
    # split. A plan raises only at its own steps, so both strategies plan, on
    # Python-int costs, and the exhaustive plan costs at most the greedy one.
    # No --out, so nothing is built.
    row(
        "plan-overflow-only-at-own-steps",
        tn("ring20.tn", [(f"n{k}", (f"b{k}", f"b{(k + 1) % 12}", f"f{k}"), tk.DenseTensor((2, 2, 20), [1] * 80)) for k in range(12)], [f"f{k}" for k in range(12)]),
        ["contract ring20.tn --strategy exhaustive", "contract ring20.tn --strategy greedy"],
        lambda d, outs: cost(outs[0]) <= cost(outs[1]),
    ),
    # Twelve vectors of extent 64: every plan's last step is their outer
    # product, 2**72 > 2**63 - 1, a numeric failure with exit code 2 under
    # both strategies.
    row(
        "plan-cost-overflow",
        tn("vec64.tn", [(f"v{k}", (f"i{k}",), tk.DenseTensor((64,), [1] * 64)) for k in range(12)], [f"i{k}" for k in range(12)]),
        [("contract vec64.tn --strategy exhaustive", 2, "overflows"), ("contract vec64.tn --strategy greedy", 2, "overflows")],
    ),
    # An order-1 tensor has no HOSVD: a user error, exit code 1, and no model
    # directory left behind.
    row(
        "hosvd-order1-user-error",
        ten("v.ten", (3,), [1, 2, 3]),
        [("decompose v.ten hosvd --outdir h/", 1, "hosvd needs an order >= 2 tensor, got order 1")],
        gone("h"),
    ),
    # A Tucker model that reconstructs entries of 1e600 from finite parts: a
    # numeric failure with exit code 2, not a rel_error of nan.
    row(
        "verify-reconstruct-overflow",
        tucker_e200,
        [("verify x222.ten e200m/ --tol 1", 2, "tucker_reconstruct result is beyond float range")],
    ),
    # A 2x3x2 tensor of 1e308: finite, but the singular values of its first
    # unfolding lie beyond float range. A numeric failure with exit code 2
    # that names tt_svd, and no model directory left behind.
    row(
        "tt-singular-values-overflow",
        ten("e308.ten", (2, 3, 2), [1e308] * 12),
        [("decompose e308.ten tt --outdir e308m/", 2, "tt_svd singular values are beyond float range")],
        gone("e308m"),
    ),
    # One nan entry: every factorization rejects it on entry, under its own
    # name, with exit code 2 and no model directory, before it reads its other
    # arguments (ranks of 9 are out of range).
    row(
        "tt-nan-input",
        ten("nan3.ten", (3, 3, 3), NAN),
        [("decompose nan3.ten tt --outdir nt/", 2, "tt_svd input has non-finite entries (nan or inf)")],
        gone("nt"),
    ),
    row(
        "thosvd-nan-before-ranks",
        ten("nan3.ten", (3, 3, 3), NAN),
        [("decompose nan3.ten thosvd 9 9 9 --outdir nh/", 2, "truncated_hosvd input has non-finite entries (nan or inf)")],
        gone("nh"),
    ),
    # A nan tolerance is a user error, exit code 1.
    row(
        "verify-tol-nan",
        tucker_e200,
        [("verify x222.ten e200m/ --tol nan", 1, "tol must be a finite number >= 0, got nan")],
    ),
    # Two nodes named A: a parse error, exit code 1.
    row(
        "parse-duplicate-node",
        lambda d: (d / "dup.tn").write_text("node A [i,j] = 1 2 3 4 5 6\nnode A [i=2] = 1 2\noutput [j]\n"),
        [("contract dup.tn", 1, "duplicate node name 'A'")],
    ),
]


@pytest.mark.parametrize("build, calls, check", SCENARIOS)
def test_cli_scenario(tmp_path, build, calls, check):
    build(tmp_path)
    outs = []
    for call in calls:
        argv, code, err = (call, 0, "") if isinstance(call, str) else call
        res = run(argv.split(), tmp_path)
        assert res.returncode == code, (argv, res.stderr)
        assert err in res.stderr, (argv, res.stderr)
        outs.append(res.stdout)
    assert check is None or check(tmp_path, outs), outs


def test_workflow_runs_no_cli_scenario():
    # A new CLI scenario is a row above, which every tier-1 run sees. The
    # workflow's one tenkit call is the non-editable install's smoke check.
    calls = re.findall(r".*\btenkit\"?\s+(?:info|reshape|decompose|contract|verify)\b.*", WORKFLOW.read_text())
    assert [c.strip() for c in calls] == ['"$RUNNER_TEMP/venv/bin/tenkit" info small.ten']
