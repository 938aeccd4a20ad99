"""Tensor networks: text format, contraction-cost model, planning, evaluation.

A network is a set of named nodes, each carrying subscript labels for its
modes. A label shared by two nodes is a bond (contracted edge); a label
appearing on exactly one node is free and must be listed in the output.
Contracting a pair of nodes costs the product of the extents of all modes
involved (shared labels counted once); a plan is an ordered list of
pairwise contractions reducing the network to a single node.

The ".tn" text format ('#' comments; statements separated by newlines
or ';'):

    node NAME [l1,l2,...] @FILE.ten
    node NAME [l1=E1,l2=E2,...] = v1 v2 ...
    output [lf1,lf2,...]

Labels are ASCII identifiers; inline data is in vectorization order. The
optional `=E` extent annotations pin mode extents where they cannot be
inferred from files or shared labels (an inline node of order >= 2 needs
them unless its labels are resolvable from elsewhere).
"""

from __future__ import annotations

import itertools
import os
import re
from dataclasses import dataclass
from typing import Sequence

from .core import DenseTensor, _as_seq, permute
from .errors import ArgumentError, NumericError, ParseError, PlanError
from .io import format_float, read_tensor
from .products import tensor_product

__all__ = [
    "TensorNetwork",
    "ContractionPlan",
    "parse_network",
    "format_network",
    "pair_cost",
    "plan",
    "evaluate",
]

_I64_MAX = 2**63 - 1
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _checked_product(extents) -> int:
    out = 1
    for e in extents:
        out *= int(e)
        if out > _I64_MAX:
            raise NumericError("contraction cost overflows 64-bit integers")
    return out


class TensorNetwork:
    """Validated network of named tensor nodes with subscript labels."""

    def __init__(self, nodes: Sequence[tuple[str, Sequence[str], DenseTensor]], output: Sequence[str]):
        self._nodes: dict[str, tuple[tuple[str, ...], DenseTensor]] = {}
        extents: dict[str, int] = {}
        arity: dict[str, int] = {}
        for name, labels, tensor in nodes:
            if not _IDENT_RE.match(name):
                raise ArgumentError(f"node name {name!r} is not an identifier")
            if name in self._nodes:
                raise ArgumentError(f"duplicate node name '{name}'")
            labels = tuple(labels)
            if len(set(labels)) != len(labels):
                raise ArgumentError(f"node '{name}' repeats a label; self-traces are not supported")
            if tensor.order != len(labels):
                raise ArgumentError(
                    f"node '{name}' has {len(labels)} labels but an order-{tensor.order} tensor"
                )
            for label, extent in zip(labels, tensor.shape):
                if not _IDENT_RE.match(label):
                    raise ArgumentError(f"label {label!r} is not an identifier")
                if label in extents and extents[label] != extent:
                    raise ArgumentError(
                        f"label '{label}' has extent {extents[label]} elsewhere but {extent} in node '{name}'"
                    )
                extents[label] = extent
                arity[label] = arity.get(label, 0) + 1
            self._nodes[name] = (labels, tensor)
        for label, count in arity.items():
            if count > 2:
                raise ArgumentError(f"label '{label}' appears in {count} nodes; each label may appear in at most two")
        output = tuple(output)
        if len(set(output)) != len(output):
            raise ArgumentError("output repeats a label")
        once = {label for label, count in arity.items() if count == 1}
        for label in output:
            if label not in arity:
                raise ArgumentError(f"output label '{label}' does not appear in any node")
            if label not in once:
                raise ArgumentError(f"output label '{label}' is a bond (it appears in two nodes)")
        missing = once - set(output)
        if missing:
            raise ArgumentError(
                "free labels missing from the output: " + ", ".join(sorted(missing))
            )
        self._output = output
        self._extents = extents

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    @property
    def output(self) -> tuple[str, ...]:
        return self._output

    def labels(self, name: str) -> tuple[str, ...]:
        self._need(name)
        return self._nodes[name][0]

    def tensor(self, name: str) -> DenseTensor:
        self._need(name)
        return self._nodes[name][1]

    def extent(self, label: str) -> int:
        if label not in self._extents:
            raise ArgumentError(f"unknown label '{label}'")
        return self._extents[label]

    def _need(self, name: str) -> None:
        if name not in self._nodes:
            raise ArgumentError(f"unknown node '{name}'")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorNetwork):
            return NotImplemented
        return self._nodes == other._nodes and self._output == other._output

    def __repr__(self) -> str:
        return f"TensorNetwork({len(self._nodes)} nodes, output {list(self._output)})"


@dataclass(frozen=True)
class ContractionPlan:
    """Ordered pairwise contraction steps with their cost bookkeeping.

    Contracting step (a, b) leaves the merged node under name a. Costs are
    exact integer products of mode extents; peak_step_cost is the largest
    single step, peak_intermediate the largest element count produced.
    """

    steps: tuple[tuple[str, str], ...]
    step_costs: tuple[int, ...]
    total_cost: int
    peak_step_cost: int
    peak_intermediate: int


def pair_cost(net: TensorNetwork, a: str, b: str) -> int:
    """Cost of contracting nodes a and b: product of extents of all their modes."""
    net._need(a)
    net._need(b)
    if a == b:
        raise ArgumentError(f"cannot contract node '{a}' with itself")
    union = dict.fromkeys(net.labels(a) + net.labels(b))
    return _checked_product(net.extent(label) for label in union)


def _replay(net: TensorNetwork, steps: Sequence[tuple[str, str]], tensors: bool = False):
    """Validate and replay steps; return (step_costs, peak_intermediate, (labels, tensor))
    of the node left. Tensors are contracted only if `tensors` is set, else they are None."""
    state = {name: (net.labels(name), net.tensor(name) if tensors else None) for name in net.node_names}
    costs = []
    peak_inter = 0
    for k, (a, b) in enumerate(steps, start=1):
        if a == b:
            raise PlanError(f"step {k} ({a},{b}): a node cannot be contracted with itself")
        for name in (a, b):
            if name not in state:
                raise PlanError(f"step {k} ({a},{b}): node '{name}' is not available")
        (la, ta), (lb, tb) = state[a], state[b]
        shared = [l for l in la if l in lb]
        rest_b = tuple(l for l in lb if l not in shared)
        merged = tuple(l for l in la if l not in shared) + rest_b
        costs.append(_checked_product(net.extent(l) for l in la + rest_b))
        peak_inter = max(peak_inter, _checked_product(net.extent(l) for l in merged))
        if tensors:
            ta = tensor_product(ta, tb, [(la.index(l) + 1, lb.index(l) + 1) for l in shared])
        state[a] = (merged, ta)
        del state[b]
    if len(state) != 1:
        raise PlanError(f"plan leaves {len(state)} nodes; a complete plan leaves exactly one")
    (last,) = state.values()
    return costs, peak_inter, last


def _make_plan(net: TensorNetwork, steps: Sequence[tuple[str, str]]) -> ContractionPlan:
    costs, peak_inter, _ = _replay(net, steps)
    return ContractionPlan(
        steps=tuple((a, b) for a, b in steps),
        step_costs=tuple(costs),
        total_cost=sum(costs),
        peak_step_cost=max(costs, default=0),
        peak_intermediate=peak_inter,
    )


def _plan_exhaustive(net: TensorNetwork) -> list[tuple[str, str]]:
    names = net.node_names
    n = len(names)
    if n > 12:
        raise ArgumentError(f"exhaustive planning supports at most 12 nodes, got {n}")
    if n == 1:
        return []
    labels = sorted({l for name in names for l in net.labels(name)})
    bit = {label: 1 << i for i, label in enumerate(labels)}
    ext = {bit[label]: net.extent(label) for label in labels}

    def mask_product(mask: int) -> int:
        out = 1
        while mask:
            low = mask & -mask
            out *= ext[low]
            if out > _I64_MAX:
                raise NumericError("contraction cost overflows 64-bit integers")
            mask ^= low
        return out

    node_mask = [0] * n
    for i, name in enumerate(names):
        for label in net.labels(name):
            node_mask[i] |= bit[label]

    size = 1 << n
    free = [0] * size
    for mask in range(1, size):
        low_index = (mask & -mask).bit_length() - 1
        free[mask] = free[mask & (mask - 1)] ^ node_mask[low_index]

    best_cost = [0] * size
    best_split = [0] * size
    for mask in range(1, size):
        if mask & (mask - 1) == 0:
            continue
        best = None
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            if sub > rest:  # each unordered split once
                cost = best_cost[sub] + best_cost[rest] + mask_product(free[sub] | free[rest])
                if best is None or cost < best:
                    best = cost
                    best_split[mask] = sub
            sub = (sub - 1) & mask
        best_cost[mask] = best

    def build(mask: int) -> tuple[list[tuple[str, str]], str]:
        if mask & (mask - 1) == 0:
            return [], names[mask.bit_length() - 1]
        sub = best_split[mask]
        rest = mask ^ sub
        first, second = (sub, rest) if sub & (mask & -mask) else (rest, sub)
        steps1, rep1 = build(first)
        steps2, rep2 = build(second)
        return steps1 + steps2 + [(rep1, rep2)], rep1

    steps, _ = build(size - 1)
    return steps


def _plan_greedy(net: TensorNetwork) -> list[tuple[str, str]]:
    state = {name: set(net.labels(name)) for name in net.node_names}
    steps = []
    while len(state) > 1:
        best = None
        for a, b in itertools.combinations(sorted(state), 2):
            cost = _checked_product(net.extent(l) for l in state[a] | state[b])
            if best is None or (cost, a, b) < best:
                best = (cost, a, b)
        _, a, b = best
        steps.append((a, b))
        state[a] = state[a] ^ state[b]
        del state[b]
    return steps


def plan(net: TensorNetwork, strategy="exhaustive") -> ContractionPlan:
    """Build a contraction plan.

    strategy is "exhaustive" (minimum total cost via dynamic programming
    over node subsets, <= 12 nodes), "greedy" (repeatedly contract the
    cheapest pair, ties broken by lexicographically smallest name pair),
    or an explicit sequence of (a, b) node-name pairs to validate.
    """
    if strategy == "exhaustive":
        return _make_plan(net, _plan_exhaustive(net))
    if strategy == "greedy":
        return _make_plan(net, _plan_greedy(net))
    if isinstance(strategy, str):
        raise ArgumentError(f"unknown strategy {strategy!r} (need exhaustive, greedy, or a step list)")
    steps = [
        _as_seq(step, f"strategy step {k}", 2) for k, step in enumerate(_as_seq(strategy, "strategy"), start=1)
    ]
    return _make_plan(net, [(str(a), str(b)) for a, b in steps])


def evaluate(net: TensorNetwork, contraction: ContractionPlan) -> DenseTensor:
    """Execute a plan with pairwise tensor products; modes follow the output order."""
    _, _, (labels, result) = _replay(net, contraction.steps, tensors=True)
    if set(labels) != set(net.output):
        raise PlanError("plan result labels do not match the network output")
    return permute(result, [labels.index(l) + 1 for l in net.output])


# --- .tn text format -------------------------------------------------------

_TN_TOKEN_RE = re.compile(
    r"""[ \t]+
      | (?P<punct>[\[\],=;])
      | (?P<at>@[^\s;,\]]+)
      | (?P<word>[^\s\[\],=;@#]+)
    """,
    re.X,
)


def _tn_tokens(text: str):
    """Token stream of (kind, text, line, col) split into statements."""
    statements = []
    current = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            m = _TN_TOKEN_RE.match(line, pos)
            if m is None:
                raise ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
            pos = m.end()
            if m.lastgroup is None:
                continue
            tok = (m.lastgroup, m.group(), lineno, m.start() + 1)
            if m.lastgroup == "punct" and m.group() == ";":
                if current:
                    statements.append(current)
                    current = []
            else:
                current.append(tok)
        if current:
            statements.append(current)
            current = []
    return statements


def _expect(stmt, pos, want_text=None, what=None):
    if pos >= len(stmt):
        _, _, line, col = stmt[-1]
        raise ParseError(f"unexpected end of statement, expected {what or want_text!r}", line, col)
    kind, text, line, col = stmt[pos]
    if want_text is not None and text != want_text:
        raise ParseError(f"expected {want_text!r}, got {text!r}", line, col)
    return stmt[pos]


def _parse_label_list(stmt, pos, allow_extents):
    """Parse '[' label (=extent)? (',' ...)* ']'; returns (labels, extents, next_pos)."""
    _expect(stmt, pos, "[")
    pos += 1
    labels: list[str] = []
    extents: dict[str, int] = {}
    kind, text, line, col = _expect(stmt, pos, what="a label or ']'")
    if text == "]":
        return labels, extents, pos + 1
    while True:
        kind, text, line, col = _expect(stmt, pos, what="a label")
        if kind != "word" or not _IDENT_RE.match(text):
            raise ParseError(f"label {text!r} is not an identifier", line, col)
        label = text
        labels.append(label)
        pos += 1
        kind, text, line, col = _expect(stmt, pos, what="',', '=' or ']'")
        if text == "=" and allow_extents:
            kind, text, line, col = _expect(stmt, pos + 1, what="an extent")
            try:
                extent = int(text)
            except ValueError:
                raise ParseError(f"extent must be an integer, got {text!r}", line, col) from None
            if extent < 1:
                raise ParseError(f"extent must be positive, got {extent}", line, col)
            extents[label] = extent
            pos += 2
            kind, text, line, col = _expect(stmt, pos, what="',' or ']'")
        if text == "]":
            return labels, extents, pos + 1
        if text != ",":
            raise ParseError(f"expected ',' or ']', got {text!r}", line, col)
        pos += 1


def parse_network(text: str, base_dir: str | os.PathLike = ".") -> TensorNetwork:
    """Parse .tn text; @FILE references are resolved relative to base_dir."""
    statements = _tn_tokens(text)
    raw_nodes = []  # (name, labels, source, line, col); source: ("file", path) | ("inline", values)
    extents: dict[str, int] = {}
    output = None
    output_seen = False

    def learn(label, extent, line, col):
        if label in extents and extents[label] != extent:
            raise ParseError(
                f"label '{label}' has extent {extents[label]} elsewhere but {extent} here", line, col
            )
        extents[label] = extent

    for stmt in statements:
        kind, text, line, col = stmt[0]
        if text == "node":
            _, name, nline, ncol = _expect(stmt, 1, what="a node name")
            if not _IDENT_RE.match(name):
                raise ParseError(f"node name {name!r} is not an identifier", nline, ncol)
            labels, annotated, pos = _parse_label_list(stmt, 2, allow_extents=True)
            for label, extent in annotated.items():
                learn(label, extent, line, col)
            kind, text, tline, tcol = _expect(stmt, pos, what="'@file' or '= values'")
            if kind == "at":
                if pos + 1 != len(stmt):
                    _, extra, eline, ecol = stmt[pos + 1]
                    raise ParseError(f"trailing content {extra!r} after file reference", eline, ecol)
                raw_nodes.append((name, labels, ("file", text[1:]), line, col))
            elif text == "=":
                values = []
                for vkind, vtext, vline, vcol in stmt[pos + 1 :]:
                    try:
                        values.append(float(vtext))
                    except ValueError:
                        raise ParseError(f"inline value {vtext!r} is not a number", vline, vcol) from None
                raw_nodes.append((name, labels, ("inline", values), line, col))
            else:
                raise ParseError(f"expected '@file' or '=', got {text!r}", tline, tcol)
        elif text == "output":
            if output_seen:
                raise ParseError("more than one output statement", line, col)
            output_seen = True
            output, _, pos = _parse_label_list(stmt, 1, allow_extents=False)
            if pos != len(stmt):
                _, extra, eline, ecol = stmt[pos]
                raise ParseError(f"trailing content {extra!r} after output", eline, ecol)
        else:
            raise ParseError(f"expected 'node' or 'output', got {text!r}", line, col)

    if not output_seen:
        raise ParseError("missing output statement")
    if not raw_nodes:
        raise ParseError("network has no nodes")

    # Load file-backed tensors; their shapes pin label extents.
    tensors: dict[str, DenseTensor] = {}
    for name, labels, source, line, col in raw_nodes:
        if source[0] == "file":
            path = os.path.join(os.fspath(base_dir), source[1])
            try:
                t = read_tensor(path)
            except ParseError as exc:
                raise ParseError(f"node '{name}': {exc}", line, col) from None
            if t.order != len(labels):
                raise ParseError(
                    f"node '{name}': file has order {t.order} but {len(labels)} labels", line, col
                )
            for label, extent in zip(labels, t.shape):
                learn(label, extent, line, col)
            tensors[name] = t

    # Infer remaining extents of inline nodes from data lengths.
    pending = [rn for rn in raw_nodes if rn[2][0] == "inline"]
    changed = True
    while pending and changed:
        changed = False
        still = []
        for rn in pending:
            name, labels, (_, values), line, col = rn
            unknown = [l for l in labels if l not in extents]
            known = 1
            for l in labels:
                known *= extents.get(l, 1)
            if not unknown:
                if known != len(values):
                    raise ParseError(
                        f"node '{name}': {len(values)} values do not fill extents with {known} entries",
                        line,
                        col,
                    )
                tensors[name] = DenseTensor([extents[l] for l in labels], values)
                changed = True
            elif len(unknown) == 1:
                if known == 0 or len(values) % known != 0 or len(values) // known < 1:
                    raise ParseError(
                        f"node '{name}': cannot infer extent of label '{unknown[0]}' "
                        f"from {len(values)} values",
                        line,
                        col,
                    )
                learn(unknown[0], len(values) // known, line, col)
                still.append(rn)
                changed = True
            else:
                still.append(rn)
        pending = [rn for rn in still if rn[0] not in tensors]
    if pending:
        name, labels, _, line, col = pending[0]
        unknown = [l for l in labels if l not in extents]
        raise ParseError(
            f"node '{name}': cannot infer extents of labels {', '.join(repr(l) for l in unknown)}; "
            f"annotate them as label=extent",
            line,
            col,
        )

    return TensorNetwork(
        [(name, labels, tensors[name]) for name, labels, _, _, _ in raw_nodes],
        output or (),
    )


def format_network(net: TensorNetwork) -> str:
    """Render a network as .tn text (inline data, annotated extents)."""
    lines = []
    for name in net.node_names:
        labels = net.labels(name)
        t = net.tensor(name)
        labels_text = ",".join(f"{l}={e}" for l, e in zip(labels, t.shape))
        values = " ".join(format_float(v) for v in t.data)
        lines.append(f"node {name} [{labels_text}] = {values}".rstrip())
    lines.append("output [" + ",".join(net.output) + "]")
    return "\n".join(lines) + "\n"
