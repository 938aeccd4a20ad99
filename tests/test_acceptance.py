"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete. Every tolerance and runtime budget is asserted.
"""

import os
import subprocess
import sys
import time

import numpy as np

import tenkit as tk

from helpers import (
    enumerate_indices,
    network_loop_oracle,
    planted_cp_factors,
    planted_tt_train,
    rand_shape,
    rand_tensor,
    random_network,
    random_plan_steps,
    reconstruct_err,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


class criterion:
    """Times a criterion body, prints its PASS/FAIL line, enforces the budget."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.budget
        status = "PASS" if ok else "FAIL"
        # Visible with `pytest -s`; attached to the failure report otherwise.
        print(f"{status} criterion {self.number} ({self.label}): {elapsed:.2f}s of {self.budget:.0f}s budget")
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(
                f"criterion {self.number} exceeded its runtime budget: {elapsed:.2f}s >= {self.budget}s"
            )
        return False


def test_criterion_1_reshaping_oracle_suite():
    rng = np.random.default_rng(101)
    with criterion(1, "reshaping oracle suite", 10.0):
        for _ in range(500):
            shape = rand_shape(rng, max_order=6, max_extent=4)
            x = rand_tensor(rng, shape)
            order = len(shape)
            indices = enumerate_indices(shape)

            assert tk.fold(tk.vec(x), shape) == x

            p = list(rng.permutation(order) + 1)
            inverse = [0] * order
            for k, v in enumerate(p, start=1):
                inverse[v - 1] = k
            assert tk.permute(tk.permute(x, p), inverse) == x

            n = int(rng.integers(1, order + 1))
            rest_shape = shape[: n - 1] + shape[n:]
            rest_pos = {idx: pos for pos, idx in enumerate(enumerate_indices(rest_shape), 1)}
            rows = shape[n - 1]
            expected = np.empty(x.size)
            for pos, idx in enumerate(indices):
                rest = idx[: n - 1] + idx[n:]
                flat = (idx[n - 1] - 1) + (rest_pos[rest] - 1) * rows
                expected[flat] = x.data[pos]
            assert np.array_equal(tk.matricize(x, n).data, expected)

            if order >= 2:
                k = int(rng.integers(1, order))
                left_pos = {idx: pos for pos, idx in enumerate(enumerate_indices(shape[:k]), 1)}
                right_pos = {idx: pos for pos, idx in enumerate(enumerate_indices(shape[k:]), 1)}
                rows = tk.element_count(shape[:k])
                expected = np.empty(x.size)
                for pos, idx in enumerate(indices):
                    flat = (left_pos[idx[:k]] - 1) + (right_pos[idx[k:]] - 1) * rows
                    expected[flat] = x.data[pos]
                assert np.array_equal(tk.k_unfold(x, k).data, expected)


def test_criterion_2_identity_suite():
    rng = np.random.default_rng(102)

    def dims():
        return int(rng.integers(1, 5))

    with criterion(2, "product identity suite", 20.0):
        for _ in range(200):
            # (A (x) B)(C (x) D) = AC (x) BD
            i, j, p, q, r, s = (dims() for _ in range(6))
            a = rand_tensor(rng, (i, j))
            b = rand_tensor(rng, (p, q))
            c = rand_tensor(rng, (j, r))
            d = rand_tensor(rng, (q, s))
            left = tk.matmul(tk.kronecker(a, b), tk.kronecker(c, d))
            right = tk.kronecker(tk.matmul(a, c), tk.matmul(b, d))
            assert np.abs(left.data - right.data).max() <= 1e-12 * max(1.0, np.abs(right.data).max())

            # vec(A G B^T) = (B (x) A) vec(G)
            a = rand_tensor(rng, (i, j))
            g = rand_tensor(rng, (j, q))
            bt = rand_tensor(rng, (p, q))
            left = tk.vec(tk.matmul(tk.matmul(a, g), tk.permute(bt, [2, 1]))).data
            right = tk.matmul(
                tk.kronecker(bt, a), tk.fold(tk.vec(g), (g.size, 1))
            ).data
            assert np.abs(left - right).max() <= 1e-12 * max(1.0, np.abs(left).max())

            # (A (.) B)^T (A (.) B) = A^T A * B^T B
            cols = dims()
            a = rand_tensor(rng, (i, cols))
            b = rand_tensor(rng, (p, cols))
            kr = tk.khatri_rao(a, b)
            left = tk.matmul(tk.permute(kr, [2, 1]), kr)
            right = tk.multiply(
                tk.matmul(tk.permute(a, [2, 1]), a), tk.matmul(tk.permute(b, [2, 1]), b)
            )
            assert np.abs(left.data - right.data).max() <= 1e-12 * max(1.0, np.abs(right.data).max())

            # vec(X x1 A x2 B x3 C) = (C (x) B (x) A) vec(X)
            x = rand_tensor(rng, (dims(), dims(), dims()))
            a = rand_tensor(rng, (dims(), x.shape[0]))
            b = rand_tensor(rng, (dims(), x.shape[1]))
            c = rand_tensor(rng, (dims(), x.shape[2]))
            y = tk.multi_mode_product(x, [a, b, c])
            kron = tk.kronecker(tk.kronecker(c, b), a)
            right = tk.matmul(kron, tk.fold(tk.vec(x), (x.size, 1))).data
            assert np.abs(tk.vec(y).data - right).max() <= 1e-12 * max(1.0, np.abs(right).max())

            # [X xn A](n) = A X(n)
            n = int(rng.integers(1, 4))
            a = rand_tensor(rng, (dims(), x.shape[n - 1]))
            left = tk.matricize(tk.mode_product(x, a, n), n)
            right = tk.matmul(a, tk.matricize(x, n))
            assert np.abs(left.data - right.data).max() <= 1e-12 * max(1.0, np.abs(right.data).max())

            # a * b through a super-diagonal contraction
            length = dims()
            va = rand_tensor(rng, (length,))
            vb = rand_tensor(rng, (length,))
            sd = tk.super_diagonal(3, length)
            contracted = tk.multi_mode_product(
                sd, [None, tk.fold(va, (1, length)), tk.fold(vb, (1, length))]
            )
            hadamard = tk.subtensor(contracted, [":", 1, 1])
            assert np.abs(hadamard.data - tk.multiply(va, vb).data).max() <= 1e-12 * max(
                1.0, np.abs(va.data).max() * np.abs(vb.data).max()
            )


def test_criterion_3_factorization_suite():
    rng = np.random.default_rng(103)
    with criterion(3, "factorization suite", 30.0):
        for _ in range(1000):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            m = rand_tensor(rng, (rows, cols))
            dim = max(rows, cols)
            norm = tk.frobenius_norm(m)

            res = tk.svd(m)
            u, s, v = res.u.to_array(), res.sigma.data, res.v.to_array()
            k = min(rows, cols)
            assert (s >= 0).all() and (np.diff(s) <= 0).all()
            assert np.abs(u.T @ u - np.eye(k)).max() <= 1e-12 * dim
            assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-12 * dim
            assert np.abs(u @ (s[:, None] * v.T) - m.to_array()).max() <= 1e-12 * max(norm, 1e-300)

            tall = m if rows >= cols else tk.permute(m, [2, 1])
            qres = tk.qr(tall)
            qn, rn = qres.q.to_array(), qres.r.to_array()
            jj = tall.shape[1]
            assert np.abs(qn.T @ qn - np.eye(jj)).max() <= 1e-12 * tall.shape[0]
            assert np.abs(qn @ rn - tall.to_array()).max() <= 1e-12 * max(norm, 1e-300)
            assert (np.diag(rn) >= 0).all()

        for _ in range(50):
            m = rand_tensor(rng, (6, 4))
            sigma = tk.svd(m).sigma.data
            for k in range(1, 5):
                res = tk.truncated_svd(m, k)
                rec = res.u.to_array() @ (res.sigma.data[:, None] * res.v.to_array().T)
                err2 = float(((m.to_array() - rec) ** 2).sum())
                tail2 = float((sigma[k:] ** 2).sum())
                assert abs(err2 - tail2) <= 1e-10 * max(1.0, tail2)


def test_criterion_4_cost_model_reproduces_stated_comparisons():
    rng = np.random.default_rng(104)
    with criterion(4, "contraction cost model", 1.0):
        extent = 8
        net = tk.TensorNetwork(
            [
                ("A", ("i", "j"), rand_tensor(rng, (extent, extent))),
                ("B", ("j", "k"), rand_tensor(rng, (extent, extent))),
                ("v", ("k",), rand_tensor(rng, (extent,))),
            ],
            output=("i",),
        )
        best = tk.plan(net, "exhaustive")
        assert best.steps[0] in (("B", "v"), ("v", "B"))
        assert best.total_cost == 2 * extent**2 == 128
        left = tk.plan(net, [("A", "B"), ("A", "v")])
        assert left.total_cost == extent**3 + extent**2 == 576

        e1, e2, e3, e4, e5, e6 = 2, 3, 4, 5, 2, 3
        chain = tk.TensorNetwork(
            [
                ("A", ("i1", "i2", "i3", "i4"), rand_tensor(rng, (e1, e2, e3, e4))),
                ("B", ("i4", "i5", "i6"), rand_tensor(rng, (e4, e5, e6))),
                ("v", ("i6",), rand_tensor(rng, (e6,))),
            ],
            output=("i1", "i2", "i3", "i5"),
        )
        right_first = tk.plan(chain, [("B", "v"), ("A", "B")])
        left_first = tk.plan(chain, [("A", "B"), ("A", "v")])
        assert right_first.peak_step_cost == e1 * e2 * e3 * e4 * e5
        assert left_first.peak_step_cost == e1 * e2 * e3 * e4 * e5 * e6


def test_criterion_5_contraction_order_invariance():
    rng = np.random.default_rng(105)
    with criterion(5, "contraction order invariance", 30.0):
        for _ in range(100):
            net = random_network(rng, max_nodes=6, max_extent=4, max_terms=20000)
            reference = tk.evaluate(net, tk.plan(net, "exhaustive"))
            scale = max(tk.frobenius_norm(reference), 1e-30)
            others = [tk.plan(net, "greedy")] + [
                tk.plan(net, random_plan_steps(net, rng)) for _ in range(3)
            ]
            for p in others:
                got = tk.evaluate(net, p)
                assert np.abs(got.data - reference.data).max() <= 1e-12 * scale
            oracle = network_loop_oracle(net)
            assert np.abs(reference.to_array() - oracle).max() <= 1e-12 * max(
                np.abs(oracle).max(), 1e-30
            )


def test_criterion_6_hosvd_suite():
    rng = np.random.default_rng(106)
    with criterion(6, "hosvd suite", 30.0):
        for trial in range(100):
            order = 3 if trial % 2 == 0 else 4
            shape = tuple(int(rng.integers(2, 6)) for _ in range(order))
            x = rand_tensor(rng, shape)
            model = tk.hosvd(x)
            assert reconstruct_err(x, tk.tucker_reconstruct(model)) <= 1e-10
            norm2 = tk.inner(x, x)
            for n in range(1, order + 1):
                m = tk.matricize(model.core, n).to_array()
                gram = m @ m.T
                off = np.abs(gram - np.diag(np.diag(gram))).max()
                assert off <= 1e-10 * norm2
            for u in model.factors:
                un = u.to_array()
                assert np.abs(un.T @ un - np.eye(un.shape[1])).max() <= 1e-12 * un.shape[0]

        for _ in range(20):
            core = rand_tensor(rng, (2, 2, 2))
            factors = tuple(tk.qr(rand_tensor(rng, (4, 2))).q for _ in range(3))
            x = tk.tucker_reconstruct(tk.TuckerModel(core, factors))
            model = tk.truncated_hosvd(x, (2, 2, 2))
            assert reconstruct_err(x, tk.tucker_reconstruct(model)) <= 1e-10


def test_criterion_7_tt_suite():
    rng = np.random.default_rng(107)
    with criterion(7, "tensor-train suite", 20.0):
        for _ in range(20):
            train, x = planted_tt_train(rng, (3, 4, 4, 3), (1, 2, 3, 2, 1))
            fitted = tk.tt_svd(x)
            assert fitted.bond_ranks == (1, 2, 3, 2, 1)
            assert reconstruct_err(x, tk.tt_reconstruct(fitted)) <= 1e-10

            ortho = tk.tt_orthogonalize(fitted, len(fitted.cores))
            assert abs(tk.frobenius_norm(x) - tk.frobenius_norm(ortho.cores[-1])) <= 1e-10
            assert reconstruct_err(x, tk.tt_reconstruct(ortho)) <= 1e-10

            k = int(rng.integers(2, len(fitted.cores) + 1))
            left, right = tk.tt_split(fitted, k)
            joined = tk.tt_pair_product(tk.tt_chain(left), tk.tt_chain(right))
            rejoined = tk.fold(tk.vec(joined), joined.shape[1:-1])
            assert reconstruct_err(x, rejoined) <= 1e-12


def test_criterion_8_cp_als_suite():
    rng = np.random.default_rng(108)
    with criterion(8, "cp-als recovery", 60.0):
        successes = 0
        for instance in range(100):
            factors = planted_cp_factors(rng, (4, 4, 4), 3)
            truth = tk.CPModel(
                tk.DenseTensor((3,), np.ones(3)),
                tuple(tk.DenseTensor.from_array(f) for f in factors),
            )
            x = tk.cp_reconstruct(truth)
            fit = tk.cp_als(x, 3, seed=instance)
            diffs = np.diff(fit.trace)
            assert (diffs <= 1e-10).all(), "objective must be nonincreasing"
            if reconstruct_err(x, tk.cp_reconstruct(fit.model)) <= 1e-5:
                successes += 1
        assert successes >= 90, f"only {successes}/100 instances recovered"


def test_criterion_9_tr_suite():
    rng = np.random.default_rng(109)
    with criterion(9, "tensor-ring suite", 5.0):
        for _ in range(20):
            cores = (
                rand_tensor(rng, (1, 3, 2)),
                rand_tensor(rng, (2, 2, 3)),
                rand_tensor(rng, (3, 4, 1)),
            )
            ring = tk.TRRing(cores)
            train = tk.TTTrain(cores)
            diff = np.abs(tk.tr_reconstruct(ring).data - tk.tt_reconstruct(train).data)
            assert diff.max() <= 1e-13 * max(1.0, np.abs(tk.tt_reconstruct(train).data).max())

            cores = tuple(
                rand_tensor(rng, (2, int(rng.integers(2, 5)), 2)) for _ in range(4)
            )
            ring = tk.TRRing(cores)
            shifted = tk.TRRing(cores[1:] + cores[:1])
            got = tk.tr_reconstruct(shifted)
            want = tk.permute(tk.tr_reconstruct(ring), [2, 3, 4, 1])
            assert np.abs(got.data - want.data).max() <= 1e-13 * max(
                1.0, np.abs(want.data).max()
            )


def _run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "tenkit", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def test_criterion_10_cli_end_to_end(tmp_path):
    rng = np.random.default_rng(110)
    with criterion(10, "cli end-to-end", 10.0):
        ramp = tmp_path / "ramp.ten"
        tk.write_tensor(ramp, tk.DenseTensor((2, 3, 4), range(1, 25)))

        info = _run_cli("info", ramp)
        assert info.returncode == 0
        assert "::order 3" in info.stdout and "::fro_norm 70" in info.stdout

        out = tmp_path / "unf.ten"
        reshape = _run_cli("reshape", ramp, "unfold", "2", "--out", out)
        assert reshape.returncode == 0 and "::shape 3 8" in reshape.stdout

        x = rand_tensor(rng, (3, 4, 5))
        src = tmp_path / "x.ten"
        tk.write_tensor(src, x)
        dec = _run_cli("decompose", src, "hosvd", "--outdir", tmp_path / "hosvd_model")
        assert dec.returncode == 0
        rel = float([l for l in dec.stdout.splitlines() if l.startswith("::rel_error")][0].split()[1])
        assert rel <= 1e-10

        verify = _run_cli("verify", src, tmp_path / "hosvd_model", "--tol", "1e-8")
        assert verify.returncode == 0

        tk.write_tensor(tmp_path / "a.ten", rand_tensor(rng, (8, 8)))
        tk.write_tensor(tmp_path / "b.ten", rand_tensor(rng, (8, 8)))
        (tmp_path / "abv.tn").write_text(
            "node A [i,j] @a.ten; node B [j,k] @b.ten\n"
            "node v [k] = 1 2 3 4 5 6 7 8\n"
            "output [i]\n"
        )
        con = _run_cli("contract", tmp_path / "abv.tn", "--out", tmp_path / "r.ten")
        assert con.returncode == 0
        assert "::total_cost 128" in con.stdout

        def blocks(res):
            return [l for l in res.stdout.splitlines() if l.startswith("::")]

        small = tmp_path / "small.ten"
        tk.write_tensor(small, rand_tensor(rng, (3, 3, 3)))
        run1 = _run_cli("decompose", small, "cp", "2", "--outdir", tmp_path / "cp1", "--seed", "9")
        run2 = _run_cli("decompose", small, "cp", "2", "--outdir", tmp_path / "cp2", "--seed", "9")
        assert run1.returncode == 0 and run2.returncode == 0
        assert blocks(run1) == blocks(run2)

        con2 = _run_cli("contract", tmp_path / "abv.tn", "--out", tmp_path / "r2.ten")
        assert blocks(con2) == blocks(con)
        assert (tmp_path / "r2.ten").read_text() == (tmp_path / "r.ten").read_text()
