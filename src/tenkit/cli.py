"""tenkit command-line front end.

Subcommands: info | reshape | decompose | contract | verify. Prose goes
to stdout for humans; every machine-readable value is on a "::"-prefixed
line with 17-significant-digit floats. Exit codes: 0 success, 1 user
error (bad arguments, parse failures, failed verification), 2 numeric
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import decomp
from .core import DenseTensor, _as_tol, _fmt_shape, fold, k_unfold, matricize, permute
from .elementwise import frobenius_norm, subtract
from .errors import ArgumentError, NumericError, TenkitError
from .io import _read_text, format_float, read_tensor, write_tensor
from .network import evaluate, parse_network, plan

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through our exit codes.
    def error(self, message):
        raise ArgumentError(message)


def _mline(key: str, *values) -> None:
    parts = [f"::{key}"]
    for v in values:
        parts.append(format_float(v) if isinstance(v, float) else str(v))
    print(" ".join(parts))


def _rel_error(x: DenseTensor, approx: DenseTensor) -> float:
    resid = frobenius_norm(subtract(x, approx))
    norm = frobenius_norm(x)
    return resid / norm if norm > 0.0 else resid


def _cmd_info(args) -> int:
    t = read_tensor(args.file)
    print(f"{args.file}: order-{t.order} tensor, shape {_fmt_shape(t.shape)}, {t.size} entries")
    _mline("order", t.order)
    _mline("shape", *t.shape)
    _mline("elements", t.size)
    _mline("fro_norm", frobenius_norm(t))
    _mline("min", float(t.data.min()))
    _mline("max", float(t.data.max()))
    return 0


def _int_args(values, what: str) -> list[int]:
    out = []
    for v in values:
        try:
            out.append(int(v))
        except ValueError:
            raise ArgumentError(f"{what} must be integers, got {v!r}") from None
    return out


def _cmd_reshape(args) -> int:
    t = read_tensor(args.file)
    action = args.action
    if action == "permute":
        out = permute(t, _int_args(args.args, "permutation entries"))
    elif action == "unfold":
        if len(args.args) != 1:
            raise ArgumentError("unfold takes exactly one mode number")
        out = matricize(t, _int_args(args.args, "the mode")[0])
    elif action == "kunfold":
        if len(args.args) != 1:
            raise ArgumentError("kunfold takes exactly one split point")
        out = k_unfold(t, _int_args(args.args, "the split point")[0])
    else:  # fold
        out = fold(t, _int_args(args.args, "the target shape"))
    write_tensor(args.out, out)
    print(f"wrote {args.out}")
    _mline("shape", *out.shape)
    return 0


def _cmd_decompose(args) -> int:
    t = read_tensor(args.file)
    method = args.method
    if method == "hosvd":
        if args.args:
            raise ArgumentError("hosvd takes no extra arguments")
        model = decomp.hosvd(t)
    elif method == "thosvd":
        model = decomp.truncated_hosvd(t, _int_args(args.args, "ranks"))
    elif method == "cp":
        if len(args.args) != 1:
            raise ArgumentError("cp takes exactly one rank argument")
        rank = _int_args(args.args, "the cp rank")[0]
        fit = decomp.cp_als(t, rank, seed=args.seed)
        model = fit.model
    else:  # tt
        if len(args.args) == 1 and not args.args[0].lstrip("+-").isdigit():
            try:
                tol = float(args.args[0])
            except ValueError:
                raise ArgumentError(f"tt tolerance must be a float, got {args.args[0]!r}") from None
            model = decomp.tt_svd(t, tol=tol)
        elif args.args:
            model = decomp.tt_svd(t, max_ranks=_int_args(args.args, "bond caps"))
        else:
            model = decomp.tt_svd(t)

    decomp.write_model(args.outdir, model)
    rel = _rel_error(t, decomp.reconstruct(model))
    print(f"wrote {method} model to {args.outdir}")
    _mline("ranks", *decomp._as_model(model, "decompose").ranks(model))
    _mline("rel_error", rel)
    if method == "cp":
        norm = frobenius_norm(t)
        for sweep, resid in enumerate(fit.trace, start=1):
            _mline("fit_trace", sweep, resid / norm if norm > 0.0 else resid)
        _mline("converged", int(fit.converged[fit.restart]))
    if method == "tt":
        _mline("discarded_energy", model.discarded_energy)
    return 0


def _parse_strategy(text: str):
    if text in ("exhaustive", "greedy"):
        return text
    if text.startswith("given:"):
        steps = []
        for part in text[len("given:") :].split(";"):
            names = part.split(",")
            if len(names) != 2 or not all(names):
                raise ArgumentError(f"given step {part!r} must be two node names separated by ','")
            steps.append((names[0].strip(), names[1].strip()))
        return steps
    raise ArgumentError(f"unknown strategy {text!r} (need exhaustive, greedy, or given:A,B;...)")


def _cmd_contract(args) -> int:
    text = _read_text(args.netfile, "network file")
    net = parse_network(text, base_dir=os.path.dirname(os.path.abspath(args.netfile)))
    p = plan(net, _parse_strategy(args.strategy))
    print(f"{args.netfile}: {len(net.node_names)} nodes, {len(p.steps)} contraction steps")
    if args.report_cost:
        for (a, b), cost in zip(p.steps, p.step_costs):
            print(f"  contract ({a},{b}) cost {cost}")
    _mline("steps", *[f"{a},{b}" for a, b in p.steps])
    _mline("step_cost", *p.step_costs)
    _mline("total_cost", p.total_cost)
    _mline("peak_cost", p.peak_step_cost)
    if args.out:
        result = evaluate(net, p)
        write_tensor(args.out, result)
        print(f"wrote {args.out}")
        _mline("shape", *result.shape)
    return 0


def _cmd_verify(args) -> int:
    tol = _as_tol(args.tol)
    t = read_tensor(args.tensor)
    approx = decomp.reconstruct(decomp.read_model(args.modeldir))
    if approx.shape != t.shape:
        raise ArgumentError(f"model reconstructs shape {_fmt_shape(approx.shape)}, tensor has {_fmt_shape(t.shape)}")
    rel = _rel_error(t, approx)
    _mline("rel_error", rel)
    if rel <= tol:
        print(f"ok: relative error {format_float(rel)} <= {format_float(tol)}")
        return 0
    print(f"verification failed: relative error {format_float(rel)} > {format_float(tol)}")
    return 1


def _build_parser() -> _Parser:
    parser = _Parser(prog="tenkit", description="Dense tensor toolkit: inspect, reshape, decompose, contract, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print shape and summary statistics of a .ten file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("reshape", help="permute | unfold N | kunfold K | fold I1 I2 ...")
    p.add_argument("file")
    p.add_argument("action", choices=["permute", "unfold", "kunfold", "fold"])
    p.add_argument("args", nargs="*")
    p.add_argument("--out", required=True, help="output .ten file")
    p.set_defaults(handler=_cmd_reshape)

    p = sub.add_parser("decompose", help="hosvd | thosvd R1 R2 ... | cp R | tt [caps...|tol]")
    p.add_argument("file")
    p.add_argument("method", choices=["hosvd", "thosvd", "cp", "tt"])
    p.add_argument("args", nargs="*")
    p.add_argument("--outdir", required=True, help="model directory to write")
    p.add_argument("--seed", type=int, default=0, help="cp restart seed (default 0)")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("contract", help="plan and optionally evaluate a .tn network")
    p.add_argument("netfile")
    p.add_argument("--strategy", default="exhaustive", help="exhaustive | greedy | given:A,B;A,C")
    p.add_argument("--out", help="write the contracted tensor to this .ten file")
    p.add_argument("--report-cost", action="store_true", help="print a per-step cost table")
    p.set_defaults(handler=_cmd_contract)

    p = sub.add_parser("verify", help="reconstruct a model and compare against a tensor")
    p.add_argument("tensor")
    p.add_argument("modeldir")
    p.add_argument("--tol", type=float, required=True, help="verification passes iff rel_error <= tol")
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except NumericError as exc:
        print(f"tenkit: numeric failure: {exc}", file=sys.stderr)
        return 2
    except TenkitError as exc:
        print(f"tenkit: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"tenkit: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
