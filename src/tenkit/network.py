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
import math
import os
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DenseTensor, _as_instance, _as_seq, permute
from .errors import ArgumentError, NumericError, ParseError, PlanError
from .io import _PATH, _format_rows, _parse_floats, read_tensor
from .products import _pair_gemm

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
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_ident(value) -> bool:
    return isinstance(value, str) and _IDENT_RE.fullmatch(value) is not None


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
        nodes = _as_seq(nodes, "nodes")
        if not nodes:
            raise ArgumentError("a network needs at least one node")
        for k, node in enumerate(nodes, start=1):
            name, labels, tensor = _as_seq(node, f"node {k} (name, labels, tensor)", 3)
            if not _is_ident(name):
                raise ArgumentError(f"node name {name!r} is not an identifier")
            if name in self._nodes:
                raise ArgumentError(f"duplicate node name '{name}'")
            labels = _as_seq(labels, f"labels of node '{name}'")
            for label in labels:
                if not _is_ident(label):
                    raise ArgumentError(f"label {label!r} is not an identifier")
            if len(set(labels)) != len(labels):
                raise ArgumentError(f"node '{name}' repeats a label; self-traces are not supported")
            if not isinstance(tensor, DenseTensor):
                raise ArgumentError(f"node '{name}' needs a DenseTensor, got {type(tensor).__name__}")
            if tensor.order != len(labels):
                raise ArgumentError(
                    f"node '{name}' has {len(labels)} labels but an order-{tensor.order} tensor"
                )
            for label, extent in zip(labels, tensor.shape):
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
        output = _as_seq(output, "output")
        for label in output:
            if not _is_ident(label):
                raise ArgumentError(f"output label {label!r} is not an identifier")
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
        if not (isinstance(label, str) and label in self._extents):
            raise ArgumentError(f"unknown label '{label}'")
        return self._extents[label]

    def _need(self, name: str) -> None:
        if not (isinstance(name, str) and name in self._nodes):
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
    _as_instance(net, TensorNetwork, "pair_cost")
    net._need(a)
    net._need(b)
    if a == b:
        raise ArgumentError(f"cannot contract node '{a}' with itself")
    union = dict.fromkeys(net.labels(a) + net.labels(b))
    return _checked_product(net.extent(label) for label in union)


def _replay(net: TensorNetwork, steps: Sequence[tuple[str, str]], tensors: bool = False):
    """Validate and replay steps. Without `tensors`, return the step costs
    and the peak intermediate's element count, which plan reports; with it,
    contract the tensors and return (labels, tensor) of the node left.

    Free labels are placed by three rules. A matrix or vector sharing one
    label with the other operand is a mode product: its free label takes
    the bond's place, so the other operand is read in place. Any other step
    appends the second operand's free labels to the first's. On the last
    step, if the output order is not met yet but one operand's free labels
    form a contiguous block of it, that operand goes second at the block's
    place, each operand's labels in output order in its GEMM matrix copy."""
    state = {name: (net.labels(name), net.tensor(name) if tensors else None) for name in net.node_names}
    out = net.output

    def block_at(labels):  # where `labels` start as one contiguous block of out; -1 if they do not
        at = min(map(out.index, labels), default=0)
        return at if set(out[at : at + len(labels)]) == set(labels) else -1

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
        if len(shared) == 1 and len(la) < len(lb) <= 2:  # the matrix or vector goes second
            (la, ta), (lb, tb) = (lb, tb), (la, ta)
        rest_a = tuple(l for l in la if l not in shared)
        rest_b = tuple(l for l in lb if l not in shared)
        at = la.index(shared[0]) if len(shared) == 1 and len(lb) <= 2 else len(rest_a)
        if len(state) == 2 and rest_a[:at] + rest_b + rest_a[at:] != out:  # the last step
            if block_at(rest_b) < 0 <= block_at(rest_a):
                (la, ta, rest_a), (lb, tb, rest_b) = (lb, tb, rest_b), (la, ta, rest_a)
            if block_at(rest_b) >= 0:
                at = block_at(rest_b)
                rest_a, rest_b = out[:at] + out[at + len(rest_b) :], out[at : at + len(rest_b)]
        merged = rest_a[:at] + rest_b + rest_a[at:]
        if tensors:
            ns = [la.index(l) + 1 for l in shared]
            ms = [lb.index(l) + 1 for l in shared]
            fa = [la.index(l) + 1 for l in rest_a]
            fb = [lb.index(l) + 1 for l in rest_b]
            ta = _pair_gemm("evaluate", ta, tb, ns, ms, fa, fb, at)
        else:
            costs.append(_checked_product(net.extent(l) for l in la + rest_b))
            peak_inter = max(peak_inter, _checked_product(net.extent(l) for l in merged))
        state[a] = (merged, ta)
        del state[b]
    if len(state) != 1:
        raise PlanError(f"plan leaves {len(state)} nodes; a complete plan leaves exactly one")
    if tensors:
        (last,) = state.values()
        return last
    return costs, peak_inter


def _product_table(extents: Sequence[int], dtype) -> np.ndarray:
    """Product of every subset of the extents, indexed by the subset's bit mask."""
    table = np.ones(1, dtype=dtype)
    for e in extents:
        table = np.concatenate([table, table * e])
    return table


def _census(net: TensorNetwork, names: Sequence[str]) -> tuple[list[int], dict[tuple[int, int], int]]:
    """(size, bond) of the nodes `names`, node i being names[i]: size[i] is
    node i's element count and bond[i, j] (i < j) the product of the
    extents that nodes i and j share, for each pair that shares a label."""
    size, holder, bond = [], {}, {}
    for i, name in enumerate(names):
        size.append(math.prod(net.extent(label) for label in net.labels(name)))
        for label in net.labels(name):
            if label in holder:
                pair = (holder[label], i)
                bond[pair] = bond.get(pair, 1) * net.extent(label)
            holder[label] = i
    return size, bond


def _split_tables(size, bond):
    """The subset DP's cost tables from a census (see _census): (merged,
    inner), with node i as bit i of a mask.

    merged[mask] is the element count of the node that mask merges into,
    the product of the labels held by exactly one node of mask, and
    inner[mask] the product of the bonds with both ends in mask. Splitting
    mask into (sub, rest) costs merged[mask] times the bonds between sub and
    rest, which multiply to inner[mask] // (inner[sub] * inner[rest]). Both
    tables grow one node at a time: to_i holds node i's bonds to each lower
    subset, which leave the merged node and join its inner bonds.

    The open labels and the inner bonds of a mask are distinct labels, so
    no product the DP forms exceeds P, the product of every label's extent,
    and a plan's cost sums at most n - 1 of them. Each bond is counted in
    both of its nodes' sizes, so P = prod(size) // prod(bonds). The tables
    hold int64 when (n - 1) * P <= 2**63 - 1, and Python ints otherwise, so
    the DP's arithmetic is exact either way."""
    n = len(size)
    dtype = np.int64 if (n - 1) * (math.prod(size) // math.prod(bond.values())) <= _I64_MAX else object
    merged = inner = np.ones(1, dtype=dtype)
    for i in range(n):
        to_i = _product_table([bond.get((j, i), 1) for j in range(i)], dtype)
        merged = np.concatenate([merged, merged // to_i * (size[i] // to_i)])
        inner = np.concatenate([inner, inner * to_i])
    return merged, inner


def _plan_level(masks, k, best, best_split, merged, inner) -> None:
    """Write the best split of every mask in `masks`, all of popcount k, and
    its cost into best_split and best. A split's product is
    merged[mask] * inner[mask] // (inner[sub] * inner[rest]).

    The splits of a mask keep its top bit in `sub`: they are the
    bit-deposits of t = 2**k - 2 down to 2**(k-1) onto the mask's bits.
    Column j of `sub` holds mask j's splits in descending order, so argmin's
    first minimum is the largest `sub`, as in a loop over submasks from the
    top."""
    half = 1 << (k - 1)
    lower = np.zeros((half, len(masks)), dtype=np.int64)  # subsets of the k-1 low bits
    top = masks.copy()
    for j in range(k - 1):
        bit = top & -top
        top ^= bit
        lower[1 << j : 2 << j] = lower[: 1 << j] + bit
    sub = top + lower[-2::-1]
    rest = masks ^ sub
    product = merged[masks] * inner[masks] // (inner.take(sub) * inner.take(rest))
    # Only Python-int tables can hold a product above 2**63 - 1.
    if best.dtype == object and product.max() > _I64_MAX:
        raise NumericError("contraction cost overflows 64-bit integers")
    cost = best.take(sub) + best.take(rest) + product
    pick = np.argmin(cost, axis=0)
    cols = np.arange(len(masks))
    best[masks] = cost[pick, cols]
    best_split[masks] = sub[pick, cols]


def _plan_exhaustive(net: TensorNetwork) -> list[tuple[str, str]]:
    """Steps of the subset DP's plan; on int64 tables the cost C of the
    least-cost greedy order caps which masks it splits.

    A split's product covers the open labels of both parts, so it is at
    least merged[part] for each part. A mask whose merged[mask] exceeds C
    (never the full one, which the last step of any plan covers) is not
    split: its best reads 0, but every split it is part of costs over C.
    So by induction over the levels, a kept mask whose optimum is at most C
    gets it exactly, every other split of a kept mask costs over C, and the
    argmin with its largest-`sub` tie rule picks the same splits as the full
    DP. No computed best exceeds the mask's true optimum, so every sum
    stays within the (n - 1) * P bound that chose int64. Python-int tables
    run the full DP, so each of its splits is checked for overflow."""
    names = net.node_names
    n = len(names)
    if n > 12:
        raise ArgumentError(f"exhaustive planning supports at most 12 nodes, got {n}")
    merged, inner = _split_tables(*_census(net, names))
    popcount = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        popcount[1 << i : 2 << i] = popcount[: 1 << i] + 1
    best = np.zeros(1 << n, dtype=merged.dtype)
    splits = np.zeros(1 << n, dtype=np.int64)
    cap = _greedy_scan(*_census(net, sorted(names)), _by_cost)[0] if merged.dtype == np.int64 else None
    for k in range(2, n + 1):
        masks = np.flatnonzero(popcount == k)
        if cap is not None:
            masks = masks[merged[masks] <= cap]
        _plan_level(masks, k, best, splits, merged, inner)
    best_split = splits.tolist()

    def build(mask: int) -> tuple[list[tuple[str, str]], str]:
        if mask & (mask - 1) == 0:
            return [], names[mask.bit_length() - 1]
        sub = best_split[mask]
        rest = mask ^ sub
        first, second = (sub, rest) if sub & (mask & -mask) else (rest, sub)
        steps1, rep1 = build(first)
        steps2, rep2 = build(second)
        return steps1 + steps2 + [(rep1, rep2)], rep1

    steps, _ = build((1 << n) - 1)
    return steps


def _by_cost(cost, growth, unshared):
    return (cost,)


def _by_growth(cost, growth, unshared):
    return (unshared, growth, cost)


def _greedy_scan(size, bond, rule):
    """(total cost, steps) of one greedy order on a census (see _census),
    with nodes as its indices.

    A pair costs size[i] * size[j] // bond, the product of the union of
    its labels, and leaves a node of cost // bond elements. Each round
    contracts the pair with the least key rule(cost, growth, unshared) + (i,
    j), where growth is the result's size less the two operands' sizes;
    node j merges into node i, so only the pairs that touch i or j are keyed
    again. Raises NumericError when it keys a pair that costs more than
    2**63 - 1."""
    size = list(size)
    bond = dict(bond)
    keys = {}

    def key(i, j):
        b = bond.get((i, j), 1)
        cost = size[i] * size[j] // b
        if cost > _I64_MAX:
            raise NumericError("contraction cost overflows 64-bit integers")
        keys[i, j] = (*rule(cost, cost // b - size[i] - size[j], (i, j) not in bond), i, j)

    for i, j in itertools.combinations(range(len(size)), 2):
        key(i, j)
    alive = set(range(len(size)))
    total, steps = 0, []
    while keys:
        i, j = min(keys.values())[-2:]
        b = bond.pop((i, j), 1)
        cost = size[i] * size[j] // b
        total += cost
        steps.append((i, j))
        size[i] = cost // b
        alive.remove(j)
        del keys[i, j]
        for k in alive - {i}:
            jk, ik = (min(j, k), max(j, k)), (min(i, k), max(i, k))
            del keys[jk]
            if jk in bond:
                bond[ik] = bond.get(ik, 1) * bond.pop(jk)
            key(*ik)
    return total, steps


def _plan_greedy(net: TensorNetwork) -> tuple[int, list[tuple[str, str]]]:
    """(total cost, steps) of the cheaper of the two greedy orders, _by_cost's on a tie.

    _by_cost's scan keys every pair that any of its rounds holds, so it
    raises NumericError on the same networks as a scan of every pair per
    round; a _by_growth scan that meets such a pair is dropped."""
    names = sorted(net.node_names)
    size, bond = _census(net, names)
    best = _greedy_scan(size, bond, _by_cost)
    try:
        other = _greedy_scan(size, bond, _by_growth)
    except NumericError:
        other = best
    total, steps = other if other[0] < best[0] else best
    return total, [(names[i], names[j]) for i, j in steps]


def plan(net: TensorNetwork, strategy="exhaustive") -> ContractionPlan:
    """Build a contraction plan.

    strategy is "exhaustive", "greedy", or an explicit sequence of (a, b)
    node-name pairs to validate.

    "exhaustive" finds a plan of minimum total cost by dynamic programming
    over node subsets (Pfeifer, Haegeman & Verstraete, PRE 90, 033315,
    2014), with node k of net.node_names as bit k of a subset's mask. Costs
    are int64 when (n - 1) times the product of every label's extent fits
    in 2**63 - 1, and Python ints otherwise, so they are exact either way.
    Of two splits of equal cost, the one whose part holding the highest bit
    has the larger mask wins. It takes at most 12 nodes and does 3**n work
    in numpy, one subset size at a time, so memory holds the splits of one
    size only. It raises NumericError if any split costs more than
    2**63 - 1. On int64 costs the cost C of the least-cost greedy order
    (the first order of "greedy" below) caps the search: a subset whose
    node has more than C elements is in no plan costing C or less, so it is
    not split, and the plan is the same as without the cap.
    "greedy" builds two orders and keeps the cheaper, the first on a tie.
    Each round of the first contracts the pair of least cost; each round of
    the second contracts, among pairs that share a label if any do, the
    pair of least size(result) - size(a) - size(b) in elements (Smith &
    Gray, opt_einsum, JOSS 3(26) 753, 2018), then of least cost.
    Both break ties by the lexicographically smallest name pair, and the
    merged node keeps the first name. It raises NumericError if the first
    order meets a pair costing more than 2**63 - 1; the second is dropped
    if it meets one.
    """
    _as_instance(net, TensorNetwork, "plan")
    if not isinstance(strategy, str):
        steps = []
        for k, step in enumerate(_as_seq(strategy, "strategy"), start=1):
            a, b = _as_seq(step, f"strategy step {k}", 2)
            steps.append((str(a), str(b)))
    elif strategy == "exhaustive":
        steps = _plan_exhaustive(net)
    elif strategy == "greedy":
        steps = _plan_greedy(net)[1]
    else:
        raise ArgumentError(f"unknown strategy {strategy!r} (need exhaustive, greedy, or a step list)")
    costs, peak_inter = _replay(net, steps)
    return ContractionPlan(
        steps=tuple(steps),
        step_costs=tuple(costs),
        total_cost=sum(costs),
        peak_step_cost=max(costs, default=0),
        peak_intermediate=peak_inter,
    )


def evaluate(net: TensorNetwork, contraction: ContractionPlan) -> DenseTensor:
    """Execute a plan with pairwise tensor products; modes follow the output order.

    The last GEMM writes the output order when its placement gives it or
    when one last operand's free labels form a contiguous block of the
    output (see _replay). When the two operands' labels interleave, and for
    a one-node network whose labels are not in output order, a closing
    permute copies the result into output order. Finite inputs whose
    result is beyond float range raise NumericError.
    """
    _as_instance(net, TensorNetwork, "evaluate")
    _as_instance(contraction, ContractionPlan, "evaluate")
    labels, result = _replay(net, contraction.steps, tensors=True)
    if labels == net.output:
        return result
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


_TN_CUTS = ";[],=@"
_TN_VALUE_RE = re.compile(r"[^ \t]+")


def _tn_tokens(text: str):
    """Token stream of (kind, text, line, col) split into statements.

    The values after a "] =" are split in bulk: the line up to the next
    character of _TN_CUTS becomes one ("run", (values, segment), line, col)
    item when it is ASCII with space and tab its only whitespace, and
    _expand_runs gives back the word tokens it stands for; any other
    segment is read token by token, which gives the same tokens."""
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
                continue
            current.append(tok)
            if tok[1] == "=" and len(current) > 1 and current[-2][1] == "]":
                # Each find stops at the earliest cut so far, and ";" comes
                # first, so a line of many statements is scanned once.
                end = len(line)
                for cut in _TN_CUTS:
                    at = line.find(cut, pos, end)
                    if at >= 0:
                        end = at
                segment = line[pos:end]
                # Inside an ASCII line from splitlines, "\x1f" is the only
                # whitespace of str.split besides space and tab.
                if segment.isascii() and "\x1f" not in segment:
                    values = segment.split()
                    if values:
                        current.append(("run", (values, segment), lineno, pos + 1))
                        pos = end
        if current:
            statements.append(current)
            current = []
    return statements


def _expand_runs(tokens):
    """tokens with every run replaced by the (word, text, line, col) tokens it stands for."""
    out = []
    for tok in tokens:
        kind, text, line, col = tok
        if kind == "run":
            out += [("word", m.group(), line, col + m.start()) for m in _TN_VALUE_RE.finditer(text[1])]
        else:
            out.append(tok)
    return out


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
        if not _is_ident(text):
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
    _as_instance(text, str, "parse_network")
    _as_instance(base_dir, _PATH, "parse_network")
    statements = _tn_tokens(text)
    raw_nodes = []  # (name, labels, source, line, col); source: ("file", path) | ("inline", values)
    names = set()
    extents: dict[str, int] = {}
    output = None

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
            if not _is_ident(name):
                raise ParseError(f"node name {name!r} is not an identifier", nline, ncol)
            if name in names:
                raise ParseError(f"duplicate node name '{name}'", nline, ncol)
            names.add(name)
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
                vals = stmt[pos + 1 :]
                texts = []
                for vkind, vtext, _, _ in vals:
                    if vkind == "run":
                        texts += vtext[0]
                    else:
                        texts.append(vtext)

                def bad_value(i, message):
                    _, _, vline, vcol = _expand_runs(vals)[i]
                    raise ParseError(message, vline, vcol) from None

                values = _parse_floats(texts, "inline value {!r} is not a number", bad_value)
                raw_nodes.append((name, labels, ("inline", values), line, col))
            else:
                raise ParseError(f"expected '@file' or '=', got {text!r}", tline, tcol)
        elif text == "output":
            if output is not None:
                raise ParseError("more than one output statement", line, col)
            output, _, pos = _parse_label_list(stmt, 1, allow_extents=False)
            if pos != len(stmt):
                _, extra, eline, ecol = stmt[pos]
                raise ParseError(f"trailing content {extra!r} after output", eline, ecol)
        else:
            raise ParseError(f"expected 'node' or 'output', got {text!r}", line, col)

    if output is None:
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

    # Infer remaining extents of inline nodes from data lengths; a node is
    # built in the pass that knows all its extents.
    pending = [rn for rn in raw_nodes if rn[2][0] == "inline"]
    while pending:
        still = []
        for rn in pending:
            name, labels, (_, values), line, col = rn
            unknown = [l for l in labels if l not in extents]
            known = math.prod(extents.get(l, 1) for l in labels)
            if len(unknown) == 1:
                if len(values) % known != 0 or len(values) // known < 1:
                    raise ParseError(
                        f"node '{name}': cannot infer extent of label '{unknown[0]}' "
                        f"from {len(values)} values",
                        line,
                        col,
                    )
                learn(unknown[0], len(values) // known, line, col)
            elif unknown:
                still.append(rn)
                continue
            elif known != len(values):
                raise ParseError(
                    f"node '{name}': {len(values)} values do not fill extents with {known} entries",
                    line,
                    col,
                )
            tensors[name] = DenseTensor([extents[l] for l in labels], values)
        if len(still) == len(pending):
            break
        pending = still
    if pending:
        name, labels, _, line, col = pending[0]
        unknown = [l for l in labels if l not in extents]
        raise ParseError(
            f"node '{name}': cannot infer extents of labels {', '.join(repr(l) for l in unknown)}; "
            f"annotate them as label=extent",
            line,
            col,
        )

    return TensorNetwork([(name, labels, tensors[name]) for name, labels, _, _, _ in raw_nodes], output)


def format_network(net: TensorNetwork) -> str:
    """Render a network as .tn text (inline data, annotated extents)."""
    _as_instance(net, TensorNetwork, "format_network")
    lines = []
    for name in net.node_names:
        labels = net.labels(name)
        t = net.tensor(name)
        labels_text = ",".join(f"{l}={e}" for l, e in zip(labels, t.shape))
        values = _format_rows(t.data.tolist(), t.size)
        lines.append(f"node {name} [{labels_text}] = {values}".rstrip())
    lines.append("output [" + ",".join(net.output) + "]")
    return "\n".join(lines) + "\n"
