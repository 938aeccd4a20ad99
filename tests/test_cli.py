import contextlib
import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tenkit as tk
from tenkit import cli

from helpers import planted_cp_factors, planted_tt_train, rand_tensor

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run_cli(*args, cwd=None):
    """tenkit.cli.main(args) run in this process, in the directory cwd if
    given, with stdout and stderr captured: a CompletedProcess like that of
    run_module, without an interpreter start per call."""
    argv = [str(a) for a in args]
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    try:
        os.chdir(cwd or home)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(home)
    return subprocess.CompletedProcess(["tenkit", *argv], code, out.getvalue(), err.getvalue())


def run_module(*args, cwd=None):
    """`python -m tenkit args` in a fresh interpreter: the exit status and
    stderr as a user sees them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "tenkit", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def machine_lines(output: str) -> dict[str, list[str]]:
    got: dict[str, list[str]] = {}
    for line in output.splitlines():
        if line.startswith("::"):
            key, *vals = line[2:].split()
            got.setdefault(key, []).extend(vals if vals else [""])
    return got


def machine_block(output: str) -> list[str]:
    return [line for line in output.splitlines() if line.startswith("::")]


@pytest.fixture
def ramp_file(tmp_path):
    path = tmp_path / "ramp.ten"
    tk.write_tensor(path, tk.DenseTensor((2, 3, 4), range(1, 25)))
    return path


def test_info_ramp(ramp_file):
    res = run_cli("info", ramp_file)
    assert res.returncode == 0
    got = machine_lines(res.stdout)
    assert got["order"] == ["3"]
    assert got["shape"] == ["2", "3", "4"]
    assert got["elements"] == ["24"]
    assert float(got["fro_norm"][0]) == math.sqrt(4900.0) == 70.0
    assert float(got["min"][0]) == 1.0 and float(got["max"][0]) == 24.0


def test_info_scalar(tmp_path):
    path = tmp_path / "s.ten"
    tk.write_tensor(path, tk.DenseTensor((), [2.5]))
    res = run_cli("info", path)
    assert res.returncode == 0
    assert machine_lines(res.stdout)["order"] == ["0"]


def test_info_malformed_reports_line(tmp_path):
    path = tmp_path / "bad.ten"
    path.write_text("order 2\nshape 2 x\ndata\n1 2 3 4\n")
    res = run_cli("info", path)
    assert res.returncode == 1
    assert "line 2" in res.stderr


def test_info_missing_file(tmp_path):
    res = run_cli("info", tmp_path / "nope.ten")
    assert res.returncode == 1


def test_undecodable_input_is_a_user_error(tmp_path):
    ten = tmp_path / "bad.ten"
    ten.write_bytes(b"order 1\nshape 2\ndata\n1 \xff\n")
    tn = tmp_path / "bad.tn"
    tn.write_bytes(b"node A [i=2] = 1 2 \xff\noutput [i]\n")
    for res in (run_module("info", ten), run_module("contract", tn)):
        assert res.returncode == 1
        assert res.stderr.startswith("tenkit: error: cannot read") and "Traceback" not in res.stderr


def test_reshape_unfold(tmp_path, ramp_file):
    out = tmp_path / "unf.ten"
    res = run_cli("reshape", ramp_file, "unfold", "2", "--out", out)
    assert res.returncode == 0
    assert machine_lines(res.stdout)["shape"] == ["3", "8"]
    assert tk.read_tensor(out) == tk.matricize(tk.DenseTensor((2, 3, 4), range(1, 25)), 2)


def test_reshape_fold_vector(tmp_path):
    src = tmp_path / "v.ten"
    tk.write_tensor(src, tk.DenseTensor((4,), [1, 2, 3, 4]))
    out = tmp_path / "m.ten"
    res = run_cli("reshape", src, "fold", "2", "2", "--out", out)
    assert res.returncode == 0
    m = tk.read_tensor(out)
    assert m.at(1, 1) == 1 and m.at(2, 1) == 2 and m.at(1, 2) == 3 and m.at(2, 2) == 4


def test_reshape_permute_round_trip_is_byte_identical(tmp_path, ramp_file):
    mid = tmp_path / "mid.ten"
    back = tmp_path / "back.ten"
    assert run_cli("reshape", ramp_file, "permute", "2", "3", "1", "--out", mid).returncode == 0
    assert run_cli("reshape", mid, "permute", "3", "1", "2", "--out", back).returncode == 0

    def data_section(path):
        text = path.read_text()
        return text.split("data", 1)[1]

    assert data_section(back) == data_section(ramp_file)


def test_reshape_kunfold_then_fold_round_trip(tmp_path, ramp_file):
    unf = tmp_path / "unf.ten"
    flat = tmp_path / "flat.ten"
    again = tmp_path / "again.ten"
    assert run_cli("reshape", ramp_file, "kunfold", "2", "--out", unf).returncode == 0
    assert run_cli("reshape", unf, "unfold", "1", "--out", unf).returncode == 0
    tk.write_tensor(flat, tk.vec(tk.read_tensor(ramp_file)))
    assert run_cli("reshape", flat, "fold", "2", "3", "4", "--out", again).returncode == 0
    assert tk.read_tensor(again) == tk.read_tensor(ramp_file)


def test_reshape_bad_mode_exits_one(tmp_path, ramp_file):
    res = run_cli("reshape", ramp_file, "unfold", "9", "--out", tmp_path / "x.ten")
    assert res.returncode == 1


def test_decompose_hosvd(tmp_path):
    rng = np.random.default_rng(0)
    src = tmp_path / "x.ten"
    tk.write_tensor(src, rand_tensor(rng, (3, 4, 5)))
    res = run_cli("decompose", src, "hosvd", "--outdir", tmp_path / "model")
    assert res.returncode == 0
    got = machine_lines(res.stdout)
    assert float(got["rel_error"][0]) <= 1e-10
    model = tk.read_model(tmp_path / "model")
    assert isinstance(model, tk.TuckerModel)


def test_decompose_tt_reports_planted_ranks(tmp_path):
    rng = np.random.default_rng(1)
    _, x = planted_tt_train(rng, (3, 4, 4, 3), (1, 2, 3, 2, 1))
    src = tmp_path / "x.ten"
    tk.write_tensor(src, x)
    res = run_cli("decompose", src, "tt", "--outdir", tmp_path / "model")
    assert res.returncode == 0
    got = machine_lines(res.stdout)
    assert got["ranks"] == ["1", "2", "3", "2", "1"]
    assert float(got["rel_error"][0]) <= 1e-10


def test_decompose_cp_seeded(tmp_path):
    rng = np.random.default_rng(2)
    factors = planted_cp_factors(rng, (4, 4, 4), 3)
    truth = tk.CPModel(
        tk.DenseTensor((3,), np.ones(3)),
        tuple(tk.DenseTensor.from_array(f) for f in factors),
    )
    src = tmp_path / "x.ten"
    tk.write_tensor(src, tk.cp_reconstruct(truth))
    res = run_cli("decompose", src, "cp", "3", "--outdir", tmp_path / "model", "--seed", "7")
    assert res.returncode == 0
    got = machine_lines(res.stdout)
    assert float(got["rel_error"][0]) <= 1e-5
    assert "fit_trace" in got
    # one ::converged line, after the last ::fit_trace line
    block = machine_block(res.stdout)
    assert block[-1] == "::converged 1"
    assert block[-2].startswith("::fit_trace ")
    assert got["converged"] == ["1"]


def test_decompose_cp_far_below_unit_scale(tmp_path):
    # rank-1 x(i,j,k) = 1e-170 (i+1)(j+1)(k+1): unscaled, its squared
    # residuals underflow and the fit returns an all-zero model.
    v = np.arange(1.0, 5.0)
    src = tmp_path / "tiny.ten"
    tk.write_tensor(src, tk.DenseTensor.from_array(1e-170 * np.einsum("i,j,k->ijk", v, v, v)))
    res = run_cli("decompose", src, "cp", "1", "--outdir", tmp_path / "cpm", "--seed", "0")
    assert res.returncode == 0
    assert float(machine_lines(res.stdout)["rel_error"][0]) <= 1e-14
    check = run_cli("verify", src, tmp_path / "cpm", "--tol", "1e-10")
    assert check.returncode == 0
    assert float(machine_lines(check.stdout)["rel_error"][0]) <= 1e-14


@pytest.mark.parametrize("rank", [2, 3])
def test_decompose_cp_rank_deficient_tensor(tmp_path, rank):
    # rank-1 x(i,j,k) = a_i b_j c_k with c = (1, 0, 1), fitted at a higher
    # rank: the normal matrices are singular, and the solve falls back to pinv.
    src = tmp_path / "r1.ten"
    tk.write_tensor(src, tk.outer([tk.DenseTensor((3,), v) for v in ([1, 2, 3], [1, 1, 1], [1, 0, 1])]))
    res = run_cli("decompose", src, "cp", rank, "--outdir", tmp_path / "r1m", "--seed", "0")
    assert res.returncode == 0, res.stderr
    assert float(machine_lines(res.stdout)["rel_error"][0]) <= 1e-14
    check = run_cli("verify", src, tmp_path / "r1m", "--tol", "1e-10")
    assert check.returncode == 0, check.stderr


def test_decompose_rank_out_of_range_exits_one(tmp_path, ramp_file):
    res = run_cli("decompose", ramp_file, "thosvd", "9", "1", "1", "--outdir", tmp_path / "m")
    assert res.returncode == 1


def test_decompose_deterministic_across_runs(tmp_path):
    rng = np.random.default_rng(3)
    src = tmp_path / "x.ten"
    tk.write_tensor(src, rand_tensor(rng, (3, 3, 3)))
    a = run_cli("decompose", src, "cp", "2", "--outdir", tmp_path / "m1", "--seed", "5")
    b = run_cli("decompose", src, "cp", "2", "--outdir", tmp_path / "m2", "--seed", "5")
    assert machine_block(a.stdout) == machine_block(b.stdout)


def write_abv(tmp_path, extent=8):
    rng = np.random.default_rng(4)
    tk.write_tensor(tmp_path / "a.ten", rand_tensor(rng, (extent, extent)))
    tk.write_tensor(tmp_path / "b.ten", rand_tensor(rng, (extent, extent)))
    tk.write_tensor(tmp_path / "v.ten", rand_tensor(rng, (extent,)))
    net = tmp_path / "abv.tn"
    net.write_text(
        "# A(i,j) B(j,k) v(k) -> x(i)\n"
        "node A [i,j] @a.ten; node B [j,k] @b.ten\n"
        "node v [k] @v.ten\n"
        "output [i]\n"
    )
    return net


def test_contract_exhaustive_costs(tmp_path):
    net = write_abv(tmp_path)
    res = run_cli("contract", net, "--report-cost")
    assert res.returncode == 0
    got = machine_lines(res.stdout)
    assert got["steps"] == ["B,v", "A,B"]
    assert got["step_cost"] == ["64", "64"]
    assert got["total_cost"] == ["128"]
    assert got["peak_cost"] == ["64"]


def test_contract_given_order_costs(tmp_path):
    net = write_abv(tmp_path)
    res = run_cli("contract", net, "--strategy", "given:A,B;A,v")
    assert res.returncode == 0
    got = machine_lines(res.stdout)
    assert got["step_cost"] == ["512", "64"]
    assert got["total_cost"] == ["576"]


def test_contract_strategies_agree_on_result(tmp_path):
    net = write_abv(tmp_path)
    out1 = tmp_path / "r1.ten"
    out2 = tmp_path / "r2.ten"
    assert run_cli("contract", net, "--out", out1).returncode == 0
    assert (
        run_cli("contract", net, "--strategy", "given:A,B;A,v", "--out", out2).returncode == 0
    )
    t1 = tk.read_tensor(out1)
    t2 = tk.read_tensor(out2)
    assert np.abs(t1.data - t2.data).max() <= 1e-12 * tk.frobenius_norm(t1)


def test_contract_parse_failure_exits_one(tmp_path):
    bad = tmp_path / "bad.tn"
    bad.write_text("node A [i=2] = 1 2\nnode B [i=2] = 1 2\nnode C [i=2] = 1 2\noutput []\n")
    res = run_cli("contract", bad)
    assert res.returncode == 1


def test_verify_pass_and_fail(tmp_path):
    rng = np.random.default_rng(5)
    x = rand_tensor(rng, (3, 4, 5))
    src = tmp_path / "x.ten"
    tk.write_tensor(src, x)
    model_dir = tmp_path / "model"
    tk.write_model(model_dir, tk.hosvd(x))

    ok = run_cli("verify", src, model_dir, "--tol", "1e-8")
    assert ok.returncode == 0
    assert float(machine_lines(ok.stdout)["rel_error"][0]) <= 1e-10

    trunc_dir = tmp_path / "trunc"
    tk.write_model(trunc_dir, tk.truncated_hosvd(x, (2, 2, 2)))
    fail = run_cli("verify", src, trunc_dir, "--tol", "1e-8")
    assert fail.returncode == 1
    assert "rel_error" in machine_lines(fail.stdout)


def test_verify_far_below_unit_scale(tmp_path):
    # Near 1e-170 every squared entry underflows, so norms that square the
    # entries directly read 0 for the residual and for the tensor alike.
    rng = np.random.default_rng(8)
    for name in ("x", "other"):
        tk.write_tensor(tmp_path / f"{name}.ten", tk.DenseTensor.from_array(1e-170 * rng.standard_normal((3, 4, 5))))
        res = run_cli("decompose", tmp_path / f"{name}.ten", "hosvd", "--outdir", tmp_path / name)
        assert res.returncode == 0
        assert float(machine_lines(res.stdout)["rel_error"][0]) <= 1e-14

    right = run_cli("verify", tmp_path / "x.ten", tmp_path / "x", "--tol", "1e-10")
    assert right.returncode == 0
    assert float(machine_lines(right.stdout)["rel_error"][0]) <= 1e-14

    wrong = run_cli("verify", tmp_path / "x.ten", tmp_path / "other", "--tol", "1e-10")
    assert wrong.returncode == 1
    assert float(machine_lines(wrong.stdout)["rel_error"][0]) > 0.5


def test_verify_corrupt_manifest_exits_one(tmp_path):
    rng = np.random.default_rng(6)
    x = rand_tensor(rng, (3, 3, 3))
    src = tmp_path / "x.ten"
    tk.write_tensor(src, x)
    model_dir = tmp_path / "model"
    tk.write_model(model_dir, tk.hosvd(x))
    (model_dir / "model.json").write_text("garbage\n")
    res = run_cli("verify", src, model_dir, "--tol", "1e-8")
    assert res.returncode == 1


def test_verify_undecodable_manifest_exits_one(tmp_path):
    x = tk.DenseTensor((2, 2), [1, 2, 3, 4])
    tk.write_tensor(tmp_path / "x.ten", x)
    tk.write_model(tmp_path / "model", tk.hosvd(x))
    manifest = tmp_path / "model" / "model.json"
    manifest.write_bytes(manifest.read_bytes() + b"\xff\n")
    res = run_cli("verify", tmp_path / "x.ten", tmp_path / "model", "--tol", "1e-8")
    assert res.returncode == 1
    assert res.stderr.startswith(f"tenkit: error: cannot read manifest '{manifest}': 'utf-8' codec")
    assert "Traceback" not in res.stderr


def test_verify_shape_mismatch_exits_one(tmp_path):
    rng = np.random.default_rng(7)
    tk.write_tensor(tmp_path / "x.ten", rand_tensor(rng, (3, 3, 3)))
    tk.write_model(tmp_path / "model", tk.hosvd(rand_tensor(rng, (2, 2, 2))))
    res = run_cli("verify", tmp_path / "x.ten", tmp_path / "model", "--tol", "1e-8")
    assert res.returncode == 1


def test_decompose_thosvd_and_tt_tol(tmp_path):
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, (4, 4, 4))
    src = tmp_path / "x.ten"
    tk.write_tensor(src, x)

    res = run_cli("decompose", src, "thosvd", "2", "3", "4", "--outdir", tmp_path / "m1")
    assert res.returncode == 0
    assert machine_lines(res.stdout)["ranks"] == ["2", "3", "4"]

    res = run_cli("decompose", src, "tt", "1e-14", "--outdir", tmp_path / "m2")
    assert res.returncode == 0
    got = machine_lines(res.stdout)
    assert float(got["rel_error"][0]) <= 1e-10
    assert "discarded_energy" in got


def test_verify_tt_and_cp_models(tmp_path):
    rng = np.random.default_rng(9)
    _, x = planted_tt_train(rng, (3, 3, 3), (1, 2, 2, 1))
    src = tmp_path / "x.ten"
    tk.write_tensor(src, x)
    tk.write_model(tmp_path / "ttm", tk.tt_svd(x))
    assert run_cli("verify", src, tmp_path / "ttm", "--tol", "1e-8").returncode == 0

    factors = planted_cp_factors(rng, (3, 3, 3), 2)
    cp = tk.CPModel(
        tk.DenseTensor((2,), np.ones(2)),
        tuple(tk.DenseTensor.from_array(f) for f in factors),
    )
    y = tk.cp_reconstruct(cp)
    src2 = tmp_path / "y.ten"
    tk.write_tensor(src2, y)
    tk.write_model(tmp_path / "cpm", cp)
    assert run_cli("verify", src2, tmp_path / "cpm", "--tol", "1e-10").returncode == 0


def test_contract_absolute_file_reference(tmp_path):
    rng = np.random.default_rng(10)
    a = rand_tensor(rng, (2, 2))
    apath = tmp_path / "deep" / "a.ten"
    apath.parent.mkdir()
    tk.write_tensor(apath, a)
    net = tmp_path / "net.tn"
    net.write_text(f"node A [i,j] @{apath}\noutput [i,j]\n")
    out = tmp_path / "out.ten"
    res = run_cli("contract", net, "--out", out)
    assert res.returncode == 0
    assert tk.read_tensor(out) == a


def test_contract_greedy_strategy(tmp_path):
    net = write_abv(tmp_path)
    res = run_cli("contract", net, "--strategy", "greedy")
    assert res.returncode == 0
    assert machine_lines(res.stdout)["total_cost"] == ["128"]


def test_machine_lines_use_17_significant_digits(ramp_file):
    res = run_cli("info", ramp_file)
    # fro_norm of the ramp is exactly 70; printed via %.17g as "70"
    assert "::fro_norm 70" in res.stdout.splitlines()


def test_cli_bad_usage_exits_one():
    res = run_cli("unknown-command")
    assert res.returncode == 1


def test_cli_numeric_failure_exits_two(tmp_path):
    src = tmp_path / "huge.ten"
    tk.write_tensor(src, tk.DenseTensor((2, 2, 2), [1e308] * 8))
    res = run_module("decompose", src, "cp", "2", "--outdir", tmp_path / "m")
    assert res.returncode == 2
    assert "numeric failure" in res.stderr


# The CLI's arguments ({ramp}, {net}, {huge}, {e200} and {tmp} stand for
# files the test writes), the exit code and a piece of stderr. Each row reaches one
# rejection in the CLI's own argument handling, or its OSError or
# NumericError exit, in this process.
CLI_FAILURES = {
    "permute_not_int": (["reshape", "{ramp}", "permute", "1", "x", "3", "--out", "{tmp}/p.ten"], 1, "permutation entries must be integers, got 'x'"),
    "unfold_two_modes": (["reshape", "{ramp}", "unfold", "1", "2", "--out", "{tmp}/u.ten"], 1, "unfold takes exactly one mode number"),
    "kunfold_no_split": (["reshape", "{ramp}", "kunfold", "--out", "{tmp}/k.ten"], 1, "kunfold takes exactly one split point"),
    "hosvd_extra": (["decompose", "{ramp}", "hosvd", "3", "--outdir", "{tmp}/h"], 1, "hosvd takes no extra arguments"),
    "cp_no_rank": (["decompose", "{ramp}", "cp", "--outdir", "{tmp}/c"], 1, "cp takes exactly one rank argument"),
    "tt_bad_tol": (["decompose", "{ramp}", "tt", "1e-3x", "--outdir", "{tmp}/t"], 1, "tt tolerance must be a float, got '1e-3x'"),
    "given_one_name": (["contract", "{net}", "--strategy", "given:A"], 1, "given step 'A' must be two node names separated by ','"),
    "unknown_strategy": (["contract", "{net}", "--strategy", "best"], 1, "unknown strategy 'best' (need exhaustive, greedy, or given:A,B;...)"),
    "out_dir_missing": (["reshape", "{ramp}", "permute", "1", "2", "3", "--out", "{tmp}/no/p.ten"], 1, "tenkit: error: [Errno 2] No such file or directory: '{tmp}/no/p.ten'\n"),
    "out_is_a_dir": (["reshape", "{ramp}", "permute", "1", "2", "3", "--out", "{tmp}/adir"], 1, "tenkit: error: [Errno 21] Is a directory: '{tmp}/adir'\n"),
    "outdir_is_a_file": (["decompose", "{ramp}", "hosvd", "--outdir", "{ramp}"], 1, "tenkit: error: [Errno 17] File exists: '{ramp}'\n"),
    "cp_overflow": (["decompose", "{huge}", "cp", "2", "--outdir", "{tmp}/m"], 2, "tenkit: numeric failure: "),
    "verify_overflow": (["verify", "{huge}", "{e200}", "--tol", "1"], 2, "tucker_reconstruct result is beyond float range"),
    # A bad tolerance is rejected before any file is read.
    "verify_tol_nan": (["verify", "{tmp}/no.ten", "{tmp}/no", "--tol", "nan"], 1, "tol must be a finite number >= 0, got nan"),
    "verify_tol_negative": (["verify", "{tmp}/no.ten", "{tmp}/no", "--tol", "-1"], 1, "tol must be a finite number >= 0, got -1.0"),
    "verify_tol_inf": (["verify", "{tmp}/no.ten", "{tmp}/no", "--tol", "inf"], 1, "tol must be a finite number >= 0, got inf"),
}


@pytest.mark.parametrize("argv, code, message", CLI_FAILURES.values(), ids=CLI_FAILURES.keys())
def test_cli_failures_exit_with_their_code(tmp_path, ramp_file, argv, code, message):
    huge = tmp_path / "huge.ten"
    tk.write_tensor(huge, tk.DenseTensor((2, 2, 2), [1e308] * 8))
    (tmp_path / "adir").mkdir()
    # A 2x2x2 core of 1e200 times diag(1e200) factors: entries of 1e600.
    diag = tk.DenseTensor((2, 2), [1e200, 0.0, 0.0, 1e200])
    tk.write_model(tmp_path / "e200", tk.TuckerModel(tk.DenseTensor((2, 2, 2), [1e200] * 8), (diag,) * 3))
    files = {"ramp": ramp_file, "net": write_abv(tmp_path), "huge": huge, "e200": tmp_path / "e200", "tmp": tmp_path}
    res = run_cli(*[arg.format(**files) for arg in argv])
    assert res.returncode == code
    assert message.format(**files) in res.stderr and res.stdout == ""
    assert not (tmp_path / "h").exists() and not (tmp_path / "m").exists()
    # A failed write leaves no temporary file behind, under any name.
    assert not list(tmp_path.rglob(".*.tmp")) and not list((tmp_path / "adir").iterdir())


def test_contract_whose_result_overflows_exits_two(tmp_path):
    e200 = tk.DenseTensor((2, 2), [1e200] * 4)
    net = tk.TensorNetwork([("A", ("i", "j"), e200), ("B", ("j", "k"), e200)], ("i", "k"))
    (tmp_path / "big.tn").write_text(tk.format_network(net))
    res = run_cli("contract", tmp_path / "big.tn", "--out", tmp_path / "o.ten")
    assert res.returncode == 2
    assert "tenkit: numeric failure: evaluate result is beyond float range" in res.stderr
    assert not (tmp_path / "o.ten").exists()


def test_decompose_tt_with_bond_caps(tmp_path, ramp_file):
    # The ramp's unfoldings have rank 2; caps (1, 2) keep bonds 1 and 2.
    res = run_cli("decompose", ramp_file, "tt", "1", "2", "--outdir", tmp_path / "ttm")
    assert res.returncode == 0
    assert machine_lines(res.stdout)["ranks"] == ["1", "1", "2", "1"]
