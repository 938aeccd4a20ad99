import itertools
import math

import numpy as np
import pytest

import tenkit as tk
from tenkit import ArgumentError, NumericError, ParseError, PlanError
from tenkit import network as tn

from helpers import (
    exhaustive_plan_oracle,
    network_loop_oracle,
    rand_tensor,
    random_network,
    random_plan_steps,
    tn_tokens_oracle,
)


def abv_network(rng, extent=8):
    a = rand_tensor(rng, (extent, extent))
    b = rand_tensor(rng, (extent, extent))
    v = rand_tensor(rng, (extent,))
    return tk.TensorNetwork(
        [("A", ("i", "j"), a), ("B", ("j", "k"), b), ("v", ("k",), v)], output=("i",)
    )


def test_parse_matmul_network(tmp_path):
    rng = np.random.default_rng(0)
    a = rand_tensor(rng, (2, 3))
    b = rand_tensor(rng, (3, 4))
    tk.write_tensor(tmp_path / "a.ten", a)
    tk.write_tensor(tmp_path / "b.ten", b)
    net = tk.parse_network(
        "node A [i,j] @a.ten; node B [j,k] @b.ten; output [i,k]", base_dir=tmp_path
    )
    assert net.node_names == ("A", "B")
    assert net.labels("A") == ("i", "j") and net.tensor("A") == a
    assert net.output == ("i", "k")
    result = tk.evaluate(net, tk.plan(net))
    assert result == tk.matmul(a, b)


def test_parse_rejects_label_arity_three():
    text = """
    node A [i=2] = 1 2
    node B [i=2] = 3 4
    node C [i=2] = 5 6
    output []
    """
    with pytest.raises(ArgumentError, match="3 nodes"):
        tk.parse_network(text)


def test_parse_rejects_extent_mismatch():
    text = "node A [i=2] = 1 2\nnode B [i=3] = 1 2 3\noutput []"
    with pytest.raises(ParseError, match="label 'i'"):
        tk.parse_network(text)


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as err:
        tk.parse_network("node A [i,] = 1 2\noutput [i]")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        tk.parse_network("node A [i=2] = 1 2\nwat [i]")
    assert err.value.line == 2


def test_parse_unknown_file(tmp_path):
    with pytest.raises(ParseError, match="missing.ten"):
        tk.parse_network("node A [i] @missing.ten\noutput [i]", base_dir=tmp_path)


def test_parse_requires_single_output():
    with pytest.raises(ParseError, match="missing output"):
        tk.parse_network("node A [i=2] = 1 2")
    with pytest.raises(ParseError, match="more than one"):
        tk.parse_network("node A [i=2] = 1 2\noutput [i]\noutput [i]")


def test_parse_infers_inline_extents_from_partner():
    text = "node A [i=2,j=3] = 1 2 3 4 5 6\nnode v [j] = 7 8 9\noutput [i]"
    net = tk.parse_network(text)
    assert net.tensor("v").shape == (3,)


def test_parse_rejects_uninferrable_extents():
    with pytest.raises(ParseError, match="annotate"):
        tk.parse_network("node A [i,j] = 1 2 3 4 5 6\noutput [i,j]")


def test_parse_three_node_chain():
    text = """
    # chain with a fat middle bond
    node L [a=2,b=3] = 1 0 0 1 1 0
    node M [b,c=2] = 1 2 3 4 5 6
    node R [c,d=2] = 1 0 0 1
    output [a,d]
    """
    net = tk.parse_network(text)
    assert len(net.node_names) == 3
    bonds = [l for l in ("b", "c")]
    for bond in bonds:
        holders = [n for n in net.node_names if bond in net.labels(n)]
        assert len(holders) == 2


def test_format_parse_round_trip():
    rng = np.random.default_rng(1)
    for _ in range(10):
        net = random_network(rng, max_nodes=4)
        assert tk.parse_network(tk.format_network(net)) == net


def test_format_network_matches_value_by_value_oracle():
    rng = np.random.default_rng(3)
    special = tk.DenseTensor((7,), [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1.7976931348623157e308, 0.1])
    nets = [random_network(rng, max_nodes=4) for _ in range(10)]
    nets.append(tk.TensorNetwork([("S", ["i"], special), ("T", [], tk.DenseTensor((), [1 / 3]))], ["i"]))
    for net in nets:
        lines = []
        for name in net.node_names:
            t = net.tensor(name)
            labels = ",".join(f"{l}={e}" for l, e in zip(net.labels(name), t.shape))
            values = " ".join(format(float(v), ".17g") for v in t.data)
            lines.append(f"node {name} [{labels}] = {values}")
        lines.append("output [" + ",".join(net.output) + "]")
        assert tk.format_network(net) == "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("node A [i=3] = 1 2 3\n  node B [i=3] = 4\t5 six # c\noutput []", "inline value 'six' is not a number", 2, 22),
        ("node A [i=2] = 1 2; node B [i=2] = 0x1 2; output []", "inline value '0x1' is not a number", 1, 36),
        ("node A [i=2] = 1\n  node B [i=2] = 2 -1e400; output []", "value '-1e400' overflows float64", 2, 20),
        (
            "output [i]\n  node A [i,j=2] = 1 2 3",
            "node 'A': cannot infer extent of label 'i' from 3 values", 2, 3,
        ),
        ("node A [i=2] = 1 2\nnod B [i=2] = 1 2\noutput []", "expected 'node' or 'output', got 'nod'", 2, 1),
        ("node A [i=1] x; output [i]", "expected '@file' or '=', got 'x'", 1, 14),
        ("output [i]; node A [i] @a.ten extra", "trailing content 'extra' after file reference", 1, 31),
        ("node A [i=2,j=x] = 1 2; output [i,j]", "extent must be an integer, got 'x'", 1, 15),
        ("node A [i=2] = 1 2\noutput [i]\n  node B [j=-3] = 1", "extent must be positive, got -3", 3, 13),
        ("node A i = 1 2; output [i]", "expected '[', got 'i'", 1, 8),
        ("node A [i j] = 1 2; output [i,j]", "expected ',' or ']', got 'j'", 1, 11),
        ("output [i]\nnode A [i] @m.ten", "node 'A': file has order 2 but 1 labels", 2, 1),
        # A repeated node name is found before any file is read.
        ("node A [i,j] = 1 2 3 4 5 6\nnode A [i=2] = 1 2\noutput [j]", "duplicate node name 'A'", 2, 6),
        ("node A [i=2] = 1 2; node B [j=1] = 3\n  node A [k] @missing.ten; output []", "duplicate node name 'A'", 2, 8),
    ],
)
def test_inline_value_errors_carry_line_and_col(text, message, line, col, tmp_path):
    tk.write_tensor(tmp_path / "m.ten", tk.DenseTensor((2, 2), range(4)))
    with pytest.raises(ParseError) as err:
        tk.parse_network(text, base_dir=tmp_path)
    assert (str(err.value), err.value.line, err.value.col) == (f"{message} (line {line}, col {col})", line, col)


TN_CORPUS = [
    "node A [i=3] = 1 2 3\noutput [i]",
    "node A [i=3]=1\t2\t\t3 # tail\noutput [i]",
    "node A [i=2] = 1 2; node B [i=2] = 3 4; output []",
    "node A [i=2] = 1 2\r\nnode B [i=2] = 3 4\r\noutput []\r\n",
    "node A [i=2] = 1 2\routput [i]",
    "node A [] = 5\noutput []",
    "node A [i=2,j=1] = 1 2 ; output [i,j]",
    "node A [i,j] = 1 2\nnode B [j=1] = 3\noutput [i]",
    # a bad value first, in the middle, last
    "node A [i=3] = x 2 3\noutput [i]",
    "node A [i=3] = 1 x 3\noutput [i]",
    "node A [i=3] = 1 2 x\noutput [i]",
    "node A [i=3] = 1\t 2 \t1e999\noutput [i]",
    "node A [i=3]\t=\t1\t\t2\tx\t\noutput [i]",
    # a value run that continues over lines
    "node A [i=4] = 1 2\n  3 4\noutput [i]",
    "node A [i=4] = 1 2 \\\n 3 4\noutput [i]",
    # ';' and comments inside a run
    "node A [i=4] = 1 2; 3 4\noutput [i]",
    "node A [i=4] = 1 2 # 3 4\noutput [i]",
    "node A [i=2] = 1#2\n2\noutput [i]",
    "node A [i=2] = 1 2 #\r\noutput [i] # x",
    # '@', '[' and other punctuation right after a value
    "node A [i=2] = 1 2@f.ten\noutput [i]",
    "node A [i=2] = 1 @f.ten\noutput [i]",
    "node A [i=2] = 1 2[\noutput [i]",
    "node A [i=2] = 1 2 [i]\noutput [i]",
    "node A [i=2] = 1, 2\noutput [i]",
    "node A [i=2] = 1 2 = 3\noutput [i]",
    "node A [i=2] = 1 ] = 2\noutput [i]",
    "node A [i=2] = ] = 1 2\noutput [i]",
    # whitespace other than space and tab inside a run
    "node A [i=2] = 1\xa02\noutput [i]",
    "node A [i=2] = 1 2\x0c3\noutput [i]",
    "node A [i=2] = 1 2\u2003\noutput [i]",
    "foo\nnode A [i=2] = 1\xa02\noutput [i]",
    # "\x1f", the one other str.split whitespace an ASCII line can hold, and
    # a non-ASCII run without whitespace, which is read token by token
    "node A [i=2] = 1\x1f2\noutput [i]",
    "node A [i=2] = 1 2\x1f\noutput [i]",
    "node A [i=2] = 1 2\u00e9\noutput [i]",
    "node A [i=2] = \u00e9 2; output [i]",
    # empty runs and statements that fail before their values
    "node A [i=2] =\noutput [i]",
    "node A [i=2] = \t \noutput [i]",
    "node A [i=2]] = 1 2\noutput [i]",
    "node A [i=] = 1 2\noutput [i]",
    "node [i=2] = 1 2\noutput [i]",
    "output [] = 1 2\nnode A [] = 1",
    "] = 1 2",
]


def _outcome(fn, text):
    try:
        return ("ok", fn(text))
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


def _expanded_tokens(text):
    return [tn._expand_runs(stmt) for stmt in tn._tn_tokens(text)]


def _tn_fuzz_texts(count):
    rng = np.random.default_rng(11)
    pieces = ["node", "output", " ", " ", "\t", "A", "i", "[", "]", "=", "=", ",", ";", "\n", "\r\n",
              "1", "-2.5", "3e2", "x", "#", "@f", "\xa0", "] = ", "node A [i=2] = ", "1 2 3 "]
    return ["".join(rng.choice(pieces, size=int(rng.integers(1, 30)))) for _ in range(count)]


@pytest.mark.parametrize("text", TN_CORPUS)
def test_tn_tokens_match_token_by_token_oracle(text):
    assert _outcome(_expanded_tokens, text) == _outcome(tn_tokens_oracle, text)


def test_tn_tokens_match_oracle_on_random_texts():
    for text in _tn_fuzz_texts(300):
        assert _outcome(_expanded_tokens, text) == _outcome(tn_tokens_oracle, text), text


@pytest.mark.parametrize("text", TN_CORPUS)
def test_parse_network_errors_match_oracle_tokenizer(text, monkeypatch):
    got = _outcome(tk.parse_network, text)
    monkeypatch.setattr(tn, "_tn_tokens", tn_tokens_oracle)
    assert got == _outcome(tk.parse_network, text)


def test_tn_tokens_split_each_formatted_node_in_one_run():
    rng = np.random.default_rng(4)
    net = random_network(rng, max_nodes=5)
    statements = tn._tn_tokens(tk.format_network(net))
    for name, stmt in zip(net.node_names, statements):
        kinds = [tok[0] for tok in stmt]
        assert kinds.count("run") == 1 and kinds[-1] == "run"
        assert len(stmt[-1][1][0]) == net.tensor(name).size


def test_inline_spelled_out_non_finite_values_parse():
    net = tk.parse_network("node A [i=3] = -Infinity inf nan; output [i]")
    assert np.isneginf(net.tensor("A").data[0]) and np.isposinf(net.tensor("A").data[1])
    assert np.isnan(net.tensor("A").data[2])


_T = tk.DenseTensor((2, 2), range(4))
_V2 = tk.DenseTensor((2,), (1, 2))
_V3 = tk.DenseTensor((3,), (1, 2, 3))
_VECTORS13 = tk.TensorNetwork([(f"v{k}", (f"i{k}",), _V2) for k in range(13)], tuple(f"i{k}" for k in range(13)))

# Each call builds, parses or plans an invalid network, or asks a network
# for a label it does not have: the error class and the whole message are
# part of the contract.
NETWORK_ERRORS = {
    "self_trace": (
        lambda: tk.TensorNetwork([("A", ("i", "i"), _T)], output=()), ArgumentError,
        "node 'A' repeats a label; self-traces are not supported",
    ),
    "free_missing": (
        lambda: tk.TensorNetwork([("A", ("i", "j"), _T)], output=("i",)), ArgumentError,
        "free labels missing from the output: j",
    ),
    "output_bond": (
        lambda: tk.TensorNetwork([("A", ("i", "j"), _T), ("B", ("j", "k"), _T)], output=("i", "j", "k")),
        ArgumentError, "output label 'j' is a bond (it appears in two nodes)",
    ),
    "duplicate_name": (
        lambda: tk.TensorNetwork([("A", ("i",), _V2), ("A", ("j",), _V2)], output=("i", "j")), ArgumentError,
        "duplicate node name 'A'",
    ),
    "name_not_identifier": (
        lambda: tk.TensorNetwork([("1A", ("i",), _V2)], output=("i",)), ArgumentError,
        "node name '1A' is not an identifier",
    ),
    "not_a_tensor": (
        lambda: tk.TensorNetwork([("A", ("i",), [1.0, 2.0])], output=("i",)), ArgumentError,
        "node 'A' needs a DenseTensor, got list",
    ),
    "order_mismatch": (
        lambda: tk.TensorNetwork([("A", ("i",), _T)], output=("i",)), ArgumentError,
        "node 'A' has 1 labels but an order-2 tensor",
    ),
    "extent_mismatch": (
        lambda: tk.TensorNetwork([("A", ("i", "j"), _T), ("B", ("j",), _V3)], output=("i",)), ArgumentError,
        "label 'j' has extent 2 elsewhere but 3 in node 'B'",
    ),
    "output_repeats": (
        lambda: tk.TensorNetwork([("A", ("i",), _V2)], output=("i", "i")), ArgumentError, "output repeats a label",
    ),
    "label_not_identifier": (
        lambda: tk.TensorNetwork([("A", ("1i",), _V2)], output=("1i",)), ArgumentError,
        "label '1i' is not an identifier",
    ),
    "output_label_not_identifier": (
        lambda: tk.TensorNetwork([("A", ("i",), _V2)], output=("i", "2x")), ArgumentError,
        "output label '2x' is not an identifier",
    ),
    # re's $ matches before a trailing newline; an identifier is the whole string.
    "label_trailing_newline": (
        lambda: tk.TensorNetwork([("A", ("i\n",), _V2)], output=("i\n",)), ArgumentError,
        "label 'i\\n' is not an identifier",
    ),
    "name_trailing_newline": (
        lambda: tk.TensorNetwork([("A\n", ("i",), _V2)], output=("i",)), ArgumentError,
        "node name 'A\\n' is not an identifier",
    ),
    "unknown_extent_label": (lambda: _VECTORS13.extent("zz"), ArgumentError, "unknown label 'zz'"),
    "parse_no_nodes": (lambda: tk.parse_network("output []"), ParseError, "network has no nodes"),
    "output_unknown": (
        lambda: tk.TensorNetwork([("A", ("i",), _V2)], output=("i", "z")), ArgumentError,
        "output label 'z' does not appear in any node",
    ),
    # Thirteen vectors: refused before any table of 2**13 subsets is built.
    "exhaustive_cap": (
        lambda: tk.plan(_VECTORS13, "exhaustive"), ArgumentError, "exhaustive planning supports at most 12 nodes, got 13",
    ),
    "unknown_strategy": (
        lambda: tk.plan(_VECTORS13, "x"), ArgumentError,
        "unknown strategy 'x' (need exhaustive, greedy, or a step list)",
    ),
}


@pytest.mark.parametrize("call, error, message", NETWORK_ERRORS.values(), ids=NETWORK_ERRORS.keys())
def test_network_errors_keep_their_class_and_text(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert info.type is error and str(info.value) == message


def test_pair_cost_examples():
    rng = np.random.default_rng(3)
    a = rand_tensor(rng, (3, 5))
    b = rand_tensor(rng, (5, 7))
    net = tk.TensorNetwork([("A", ("i", "p"), a), ("B", ("p", "q"), b)], output=("i", "q"))
    assert tk.pair_cost(net, "A", "B") == 3 * 5 * 7

    net2 = abv_network(rng, extent=8)
    assert tk.pair_cost(net2, "A", "B") == 8**3
    assert tk.pair_cost(net2, "B", "v") == 8**2
    with pytest.raises(ArgumentError):
        tk.pair_cost(net2, "A", "nope")
    with pytest.raises(ArgumentError):
        tk.pair_cost(net2, "A", "A")


def test_plan_abv_exhaustive_beats_left_to_right():
    rng = np.random.default_rng(4)
    net = abv_network(rng, extent=8)
    best = tk.plan(net, "exhaustive")
    assert best.steps[0] in (("B", "v"), ("v", "B"))
    assert best.total_cost == 2 * 8**2 == 128
    given = tk.plan(net, [("A", "B"), ("A", "v")])
    assert given.total_cost == 8**3 + 8**2 == 576
    assert given.step_costs == (512, 64)


def test_plan_fig17_pattern_max_step_costs():
    # 3-node chain A(I1,I2,I3,I4) - B(I4,I5,I6) - v(I6): contracting from
    # the small end keeps the peak step at I1..I5; starting at the fat pair
    # pays I1..I6.
    rng = np.random.default_rng(5)
    e = dict(I1=2, I2=3, I3=4, I4=5, I5=2, I6=3)
    a = rand_tensor(rng, (e["I1"], e["I2"], e["I3"], e["I4"]))
    b = rand_tensor(rng, (e["I4"], e["I5"], e["I6"]))
    v = rand_tensor(rng, (e["I6"],))
    net = tk.TensorNetwork(
        [
            ("A", ("i1", "i2", "i3", "i4"), a),
            ("B", ("i4", "i5", "i6"), b),
            ("v", ("i6",), v),
        ],
        output=("i1", "i2", "i3", "i5"),
    )
    right_first = tk.plan(net, [("B", "v"), ("A", "B")])
    left_first = tk.plan(net, [("A", "B"), ("A", "v")])
    prod_all = np.prod(list(e.values()))
    prod_five = prod_all // e["I6"]
    assert right_first.peak_step_cost == prod_five == 240
    assert left_first.peak_step_cost == prod_all == 720
    best = tk.plan(net, "exhaustive")
    assert best.total_cost <= right_first.total_cost


def test_plan_single_node_is_empty():
    rng = np.random.default_rng(6)
    net = tk.TensorNetwork([("A", ("i",), rand_tensor(rng, (3,)))], output=("i",))
    p = tk.plan(net)
    assert p.steps == () and p.total_cost == 0 and p.peak_step_cost == 0
    assert tk.evaluate(net, p) == net.tensor("A")


def test_plan_given_validation_errors():
    rng = np.random.default_rng(7)
    net = abv_network(rng)
    with pytest.raises(PlanError, match="step 1"):
        tk.plan(net, [("A", "X"), ("A", "v")])
    with pytest.raises(PlanError, match="step 2"):
        tk.plan(net, [("A", "B"), ("B", "v")])  # B was merged into A
    with pytest.raises(PlanError, match="leaves 2"):
        tk.plan(net, [("A", "B")])
    with pytest.raises(PlanError, match="itself"):
        tk.plan(net, [("A", "A"), ("A", "v")])


def test_greedy_tie_break_is_lexicographic():
    rng = np.random.default_rng(8)
    t = rand_tensor(rng, (2, 2))
    net = tk.TensorNetwork(
        [("y", ("a", "b"), t), ("x", ("b", "c"), t), ("w", ("c", "a"), t)], output=()
    )
    p = tk.plan(net, "greedy")
    assert p.steps[0] == ("w", "x")


def test_evaluate_matches_matmul_and_outer():
    rng = np.random.default_rng(9)
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (4, 2))
    net = tk.TensorNetwork([("A", ("i", "j"), a), ("B", ("j", "k"), b)], output=("i", "k"))
    assert tk.evaluate(net, tk.plan(net)) == tk.matmul(a, b)

    c = rand_tensor(rng, (2,))
    d = rand_tensor(rng, (3,))
    net2 = tk.TensorNetwork([("c", ("i",), c), ("d", ("j",), d)], output=("i", "j"))
    assert tk.evaluate(net2, tk.plan(net2)) == tk.outer([c, d])


def test_evaluate_respects_output_order():
    rng = np.random.default_rng(10)
    a = rand_tensor(rng, (2, 3))
    net = tk.TensorNetwork([("A", ("i", "j"), a)], output=("j", "i"))
    assert tk.evaluate(net, tk.plan(net)) == tk.permute(a, [2, 1])


def test_evaluate_cross_plan_agreement():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = random_network(rng, max_nodes=5)
        reference = tk.evaluate(net, tk.plan(net, "exhaustive"))
        scale = max(tk.frobenius_norm(reference), 1e-30)
        for steps in [random_plan_steps(net, rng) for _ in range(3)]:
            other = tk.evaluate(net, tk.plan(net, steps))
            assert np.abs(other.data - reference.data).max() <= 1e-12 * scale


def test_evaluate_matches_loop_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        net = random_network(rng, max_nodes=5, max_terms=5000)
        got = tk.evaluate(net, tk.plan(net, "greedy")).to_array()
        want = network_loop_oracle(net)
        assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-30)


def einsum_oracle(net):
    """numpy's einsum of the network, one subscript per label."""
    ids, operands = {}, []
    for name in net.node_names:
        operands += [net.tensor(name).to_array(), [ids.setdefault(l, len(ids)) for l in net.labels(name)]]
    return np.einsum(*operands, [ids[l] for l in net.output])


_EXTENTS = {"i": 2, "j": 3, "k": 4, "l": 2, "m": 3, "x": 3, "y": 2, "z": 3}

# (nodes as name and labels, output, permute calls). Small integer entries
# make every product and sum exact, so evaluate must equal einsum exactly.
INT_NETWORKS = {
    # Each last operand's free labels in the reverse of their mode order.
    "in-block-reorder": ([("A", "ijk"), ("B", "klm")], "jiml", 0),
    # A matrix step: l takes k's place in A, which is read in place.
    "interleaved": ([("A", "ikj"), ("B", "kl")], "ilj", 0),
    # Every step is a matrix step, and both plans contract Q last, whose free
    # label j sits between i and k in the output.
    "star": ([("C", "xyz"), ("P", "xi"), ("Q", "yj"), ("R", "zk")], "ijk", 0),
    # The last step is an outer product, the later node's labels first.
    "outer-product-last": ([("A", "ij"), ("B", "jk"), ("C", "l")], "lki", 0),
    # A last operand with more entries than the result is reordered too,
    # whether its GEMM matrix would be a view of it or (k between i and j)
    # a copy anyway.
    "large-operand-view": ([("A", "ijk"), ("B", "k")], "ji", 0),
    "large-operand-copied": ([("A", "ikj"), ("B", "k")], "ji", 0),
    "one-node": ([("A", "ijk")], "kij", 1),
    "scalar": ([("A", "ij"), ("B", "ji")], "", 0),
}


@pytest.mark.parametrize("strategy", ["exhaustive", "greedy"])
@pytest.mark.parametrize("nodes, output, permutes", INT_NETWORKS.values(), ids=INT_NETWORKS.keys())
def test_evaluate_of_integer_networks_equals_einsum(nodes, output, permutes, strategy, monkeypatch):
    rng = np.random.default_rng(30)
    net = tk.TensorNetwork(
        [
            (name, tuple(labels), tk.DenseTensor.from_array(rng.integers(-4, 5, [_EXTENTS[l] for l in labels]) * 1.0))
            for name, labels in nodes
        ],
        tuple(output),
    )
    perms = []
    monkeypatch.setattr(tn, "permute", lambda x, p: perms.append(list(p)) or tk.permute(x, p))
    got = tk.evaluate(net, tk.plan(net, strategy)).to_array()
    want = einsum_oracle(net)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert len(perms) == permutes


def test_evaluate_power_of_two_scaling_is_exact():
    # Entries of magnitude in [1, 2) are multiples of 2**-52, and so is every
    # value of a one-GEMM product; each further step shrinks that grain by
    # at most 2**-52, so no nonzero value of a 6-node network (5 steps)
    # falls below 2**-260, and none reaches 2**21 (at most 20000 terms of
    # 6 factors). Scaled by 2**k for k in [-700, 900], no value is
    # subnormal or overflows, and the result scales bit for bit.
    rng = np.random.default_rng(31)
    for _ in range(40):
        net = random_network(rng, max_nodes=6)
        nodes = []
        for name in net.node_names:
            t = net.tensor(name)
            data = rng.choice([-1.0, 1.0], t.size) * rng.uniform(1.0, 2.0, t.size)
            nodes.append((name, net.labels(name), tk.DenseTensor(t.shape, data)))
        scaled_node = int(rng.integers(len(nodes)))
        steps = random_plan_steps(net, rng)
        for strategy in ("exhaustive", "greedy", steps):
            base = tk.evaluate(tk.TensorNetwork(nodes, net.output), tk.plan(net, strategy)).data
            for k in (-700, -300, -1, 1, 300, 900):
                name, labels, t = nodes[scaled_node]
                scaled = list(nodes)
                scaled[scaled_node] = (name, labels, tk.DenseTensor(t.shape, np.ldexp(t.data, k)))
                got = tk.evaluate(tk.TensorNetwork(scaled, net.output), tk.plan(net, strategy)).data
                assert got.tobytes() == np.ldexp(base, k).tobytes()


def test_exhaustive_never_worse_than_greedy_or_random():
    rng = np.random.default_rng(13)
    for _ in range(30):
        net = random_network(rng, max_nodes=6)
        exhaustive = tk.plan(net, "exhaustive").total_cost
        assert exhaustive <= tk.plan(net, "greedy").total_cost
        for _ in range(3):
            assert exhaustive <= tk.plan(net, random_plan_steps(net, rng)).total_cost


def test_cost_overflow_is_an_error():
    # The checked product behind every step cost; networks whose planned
    # costs pass 2**63 - 1 are built from small tensors in the tests below.
    from tenkit.network import _checked_product

    with pytest.raises(NumericError):
        _checked_product([2**40, 2**40])
    assert _checked_product([2**31, 2**31]) == 2**62

    rng = np.random.default_rng(14)
    t = rand_tensor(rng, (2, 2))
    net = tk.TensorNetwork([("A", ("i", "j"), t), ("B", ("j", "k"), t)], output=("i", "k"))
    assert tk.pair_cost(net, "A", "B") == 8


def ring_network(rng, n, bonds, free):
    """n nodes in a cycle; bond k has extent bonds[k % len(bonds)]."""
    ext = {f"b{k}": bonds[k % len(bonds)] for k in range(n)}
    ext.update({f"f{k}": free for k in range(n)})
    nodes = []
    for k in range(n):
        labels = (f"b{k}", f"b{(k + 1) % n}", f"f{k}")
        nodes.append((f"n{k}", labels, rand_tensor(rng, tuple(ext[l] for l in labels))))
    return tk.TensorNetwork(nodes, tuple(f"f{k}" for k in range(n)))


def ladder_network(rng, length, bonds, free):
    """2 x length grid: two rails joined by a rung at every column."""
    ext, node_labels = {}, []
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
            node_labels.append((f"{rail}{k}", tuple(labels)))
    nodes = [(name, labels, rand_tensor(rng, tuple(ext[l] for l in labels))) for name, labels in node_labels]
    return tk.TensorNetwork(nodes, tuple(f"f{rail}{k}" for k in range(length) for rail in "ac"))


def star_network(rng, leaves, bond, free):
    """A center bonded to every leaf; leaf k holds the free label f{k}."""
    nodes = [("c", tuple(f"x{k}" for k in range(leaves)), rand_tensor(rng, (bond,) * leaves))]
    nodes += [(f"l{k}", (f"x{k}", f"f{k}"), rand_tensor(rng, (bond, free))) for k in range(leaves)]
    return tk.TensorNetwork(nodes, tuple(f"f{k}" for k in range(leaves)))


# Networks small enough for the loop oracle. Under both planned orders the
# ladder's and the star's output is one last operand's free labels followed
# by the other's; a ring's cheapest cut can wrap round and interleave them.
OUTPUT_ORDER_CASES = {
    "star": (lambda rng: star_network(rng, 4, 2, 3), True),
    "ring": (lambda rng: ring_network(rng, 6, (2, 3), 2), False),
    "ladder": (lambda rng: ladder_network(rng, 3, (2,), 2), True),
}


def last_operands(net, steps):
    """Label sets of the last step's two operands: a step leaves the labels
    its operands do not share."""
    labels = {name: set(net.labels(name)) for name in net.node_names}
    for a, b in steps[:-1]:
        labels[a] ^= labels.pop(b)
    a, b = steps[-1]
    return labels[a], labels[b]


@pytest.mark.parametrize("strategy", ["exhaustive", "greedy", "random"])
@pytest.mark.parametrize("build, planned_blocks", OUTPUT_ORDER_CASES.values(), ids=OUTPUT_ORDER_CASES.keys())
def test_evaluate_puts_the_earliest_output_label_first(build, planned_blocks, strategy, monkeypatch):
    # The last GEMM writes the output order when the output is the last
    # operands' free labels block by block, so no permute runs. An
    # interleaved output takes exactly one, unless the last step is a
    # matrix step (one operand of at most two labels, one bond) that writes
    # the output order by putting the matrix's free label in the bond's place.
    rng = np.random.default_rng(21)
    net = build(rng)
    contraction = tk.plan(net, random_plan_steps(net, rng) if strategy == "random" else strategy)
    perms = []
    monkeypatch.setattr(tn, "permute", lambda x, p: perms.append(list(p)) or tk.permute(x, p))
    got = tk.evaluate(net, contraction).to_array()
    want = network_loop_oracle(net)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    la, lb = last_operands(net, contraction.steps)
    blocked = any(set(net.output[: len(free)]) == free for free in (la - lb, lb - la))
    if planned_blocks and strategy != "random":
        assert blocked
    if blocked:
        assert perms == []
    elif len(la & lb) == 1 and min(len(la), len(lb)) <= 2:
        assert len(perms) <= 1
    else:
        assert len(perms) == 1


def assert_plan_matches_oracle(net):
    want = exhaustive_plan_oracle(net)
    got = tk.plan(net, "exhaustive")
    assert list(got.steps) == want
    assert got.total_cost == tk.plan(net, want).total_cost


def test_exhaustive_matches_python_dp_on_random_networks():
    rng = np.random.default_rng(15)
    for _ in range(200):
        assert_plan_matches_oracle(random_network(rng, max_nodes=10))


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: ring_network(rng, 10, (2, 3), 2),
        lambda rng: ring_network(rng, 11, (3, 2), 2),
        lambda rng: ring_network(rng, 12, (2, 3), 3),
        lambda rng: ladder_network(rng, 5, (2, 3), 3),
        lambda rng: ladder_network(rng, 6, (3, 2), 2),
    ],
    ids=["ring10", "ring11", "ring12", "ladder2x5", "ladder2x6"],
)
def test_exhaustive_matches_python_dp_on_rings_and_ladders(build):
    assert_plan_matches_oracle(build(np.random.default_rng(16)))


def test_exhaustive_with_more_than_64_labels_matches_python_dp():
    # Extent-1 labels are free to create: 9 nodes share 80 of them, more
    # than a 64-bit word has bits. They join all 36 node pairs, and the DP
    # keeps one bit per pair, so its bonds take three 12-bit words.
    rng = np.random.default_rng(17)
    n = 9
    node_labels = [[f"f{k}"] for k in range(n)]
    ext = {f"f{k}": int(rng.integers(2, 4)) for k in range(n)}
    for k in range(1, n):
        j = int(rng.integers(0, k))
        node_labels[k].append(f"t{k}")
        node_labels[j].append(f"t{k}")
        ext[f"t{k}"] = int(rng.integers(2, 4))
    for m in range(80):
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        node_labels[i].append(f"u{m}")
        node_labels[j].append(f"u{m}")
        ext[f"u{m}"] = 1
    nodes = [
        (f"n{k}", tuple(labels), rand_tensor(rng, tuple(ext[l] for l in labels)))
        for k, labels in enumerate(node_labels)
    ]
    net = tk.TensorNetwork(nodes, tuple(f"f{k}" for k in range(n)))
    assert len(ext) >= 64
    assert_plan_matches_oracle(net)


def test_exhaustive_cost_overflow_bound():
    # In a 12-ring with bond 2, splitting the even nodes from the odd ones
    # costs free**12 * 2**12: at most 2**63 - 1 for free 19, above it for 20.
    rng = np.random.default_rng(18)
    assert_plan_matches_oracle(ring_network(rng, 12, (2,), 19))
    for free in (20, 32):
        with pytest.raises(NumericError, match="overflows"):
            tk.plan(ring_network(rng, 12, (2,), free), "exhaustive")
    # With bonds 2 and 3 and free 17 only that split overflows, and its cost
    # wrapped to 64 bits would be positive and far from the minimum: the
    # plan must still fail, as the Python DP does.
    net = ring_network(rng, 12, (2, 3), 17)
    with pytest.raises(NumericError, match="overflows"):
        exhaustive_plan_oracle(net)
    with pytest.raises(NumericError, match="overflows"):
        tk.plan(net, "exhaustive")


def test_exhaustive_cost_sums_past_int64_are_exact():
    # Twelve vectors: every split of the full set costs 37**11 * 51, just
    # under 2**63 - 1, and the split that leaves the 51-vector alone adds
    # the cost of contracting the other eleven, which takes the sum past it.
    rng = np.random.default_rng(19)
    extents = [37] * 11 + [51]
    net = tk.TensorNetwork(
        [(f"v{k}", (f"i{k}",), rand_tensor(rng, (e,))) for k, e in enumerate(extents)],
        tuple(f"i{k}" for k in range(12)),
    )
    assert 37**11 * 51 <= 2**63 - 1 < 37**11 * 51 + 37**11
    assert_plan_matches_oracle(net)


def twelve_vectors(rng):
    extents = [37] * 11 + [51]
    return tk.TensorNetwork(
        [(f"v{k}", (f"i{k}",), rand_tensor(rng, (e,))) for k, e in enumerate(extents)],
        tuple(f"i{k}" for k in range(12)),
    )


@pytest.mark.parametrize(
    "build, dtype",
    [
        (lambda rng: ring_network(rng, 12, (2, 3), 2), np.int64),
        (lambda rng: ladder_network(rng, 6, (3, 2), 2), np.int64),
        (twelve_vectors, object),
        (lambda rng: ring_network(rng, 12, (2,), 19), object),
    ],
    ids=["ring12", "ladder2x6", "twelve-vectors", "ring12-free19"],
)
def test_split_tables_are_int64_exactly_when_cost_sums_fit(build, dtype):
    # The benchmark's largest rings and ladders must stay on int64; a bound
    # that was too strict would move them to Python ints without a failure.
    net = build(np.random.default_rng(20))
    size, _, bond_tables = tn._split_tables(*tn._census(net, net.node_names))
    assert [t.dtype for t in (size, *bond_tables)] == [np.dtype(dtype)] * (1 + len(bond_tables))
    assert_plan_matches_oracle(net)


def reference_greedy(net, key):
    """(total cost, steps) of a greedy order built from label sets: each
    round looks at every pair and contracts the one with the least key(cost,
    growth, unshared) + (a, b), where growth is the result's size less the
    two operands' sizes. None if it looks at a pair costing over 2**63 - 1."""
    nodes = {name: set(net.labels(name)) for name in net.node_names}

    def size(labels):
        return math.prod(net.extent(l) for l in labels)

    total, steps = 0, []
    while len(nodes) > 1:
        options = []
        for a, b in itertools.combinations(sorted(nodes), 2):
            cost = size(nodes[a] | nodes[b])
            if cost > 2**63 - 1:
                return None
            growth = size(nodes[a] ^ nodes[b]) - size(nodes[a]) - size(nodes[b])
            options.append((*key(cost, growth, not nodes[a] & nodes[b]), a, b))
        *_, a, b = min(options)
        total += size(nodes[a] | nodes[b])
        steps.append((a, b))
        nodes[a] ^= nodes.pop(b)
    return total, steps


def by_cost(cost, growth, unshared):
    return (cost,)


def by_growth(cost, growth, unshared):
    return (unshared, growth, cost)


def test_greedy_is_the_cheaper_of_two_reference_orders():
    # On equal cost the least-cost order's plan is kept, so no greedy plan
    # costs more than that order alone.
    rng = np.random.default_rng(22)
    ties = 0
    for _ in range(300):
        net = random_network(rng, max_nodes=8)
        first, second = reference_greedy(net, by_cost), reference_greedy(net, by_growth)
        want = second if second[0] < first[0] else first
        got = tk.plan(net, "greedy")
        assert (got.total_cost, list(got.steps)) == want
        ties += second[0] == first[0] and second[1] != first[1]
        assert list(tk.plan(net, "exhaustive").steps) == exhaustive_plan_oracle(net)
    assert ties > 0


def test_greedy_drops_the_growth_order_when_it_meets_a_cost_overflow():
    # Only the growth order builds a node whose pair with another costs over
    # 2**63 - 1; the cost order meets no such pair, so "greedy" gives its plan.
    log2 = {"b0": 0, "b1": 3, "b2": 2, "b3": 0, "b4": 6, "b5": 0}
    log2.update({"f6": 10, "f7": 8, "f8": 5, "f9": 6, "f10": 12, "f11": 9, "f12": 11})
    node_labels = [
        ("b0", "f6"), ("b0", "b1", "b2", "f7"), ("b1", "f8"), ("b2", "b3", "b4", "f9"),
        ("b3", "f10"), ("b4", "b5", "f11"), ("b5", "f12"),
    ]
    rng = np.random.default_rng(23)
    net = tk.TensorNetwork(
        [(f"n{k}", labels, rand_tensor(rng, tuple(2 ** log2[l] for l in labels))) for k, labels in enumerate(node_labels)],
        tuple(f"f{k}" for k in range(6, 13)),
    )
    assert reference_greedy(net, by_growth) is None
    want = reference_greedy(net, by_cost)
    got = tk.plan(net, "greedy")
    assert (got.total_cost, list(got.steps)) == want
    # Six vectors of 2**11: every order meets their outer product, 2**66.
    vectors = tk.TensorNetwork(
        [(f"v{k}", (f"i{k}",), rand_tensor(rng, (2**11,))) for k in range(6)], tuple(f"i{k}" for k in range(6))
    )
    assert reference_greedy(vectors, by_cost) is None
    with pytest.raises(NumericError, match="overflows"):
        tk.plan(vectors, "greedy")


def open_label_product(net, subset):
    """Element count of the node a subset of nodes merges into, from label sets."""
    count = {}
    for name in subset:
        for label in net.labels(name):
            count[label] = count.get(label, 0) + 1
    return math.prod(net.extent(l) for l, c in count.items() if c == 1)


@pytest.mark.parametrize(
    "build, tight, dropped",
    [
        (lambda rng: ring_network(rng, 10, (2, 3), 2), True, 0.4),
        (lambda rng: ladder_network(rng, 6, (3, 2), 2), False, 0.75),
    ],
    ids=["ring10-tight", "ladder2x6"],
)
def test_exhaustive_under_the_greedy_cap_matches_python_dp(build, tight, dropped, monkeypatch):
    # A subset whose node has more elements than the least-cost greedy order
    # costs is in no plan that costs as little, and the DP splits only the
    # other subsets; the ring's order is optimal, so its cap is tight, and
    # the ladder's cap rules out most subsets.
    net = build(np.random.default_rng(24))
    greedy = reference_greedy(net, by_cost)[0]
    names = net.node_names
    inner = [s for k in range(2, len(names)) for s in itertools.combinations(names, k)]
    over = sum(open_label_product(net, s) > greedy for s in inner)
    assert over >= dropped * len(inner)
    split = []
    level = tn._plan_level
    monkeypatch.setattr(tn, "_plan_level", lambda masks, *rest: split.append(len(masks)) or level(masks, *rest))
    assert (greedy == tk.plan(net, "exhaustive").total_cost) is tight
    assert sum(split) == len(inner) - over + 1
    assert_plan_matches_oracle(net)


def test_census_matches_label_sets():
    # Sizes and bonds from label sets, for nodes in a shuffled order; some
    # pairs of nodes share several labels, whose extents multiply.
    rng = np.random.default_rng(25)
    multiple = 0
    for _ in range(100):
        net = random_network(rng, max_nodes=8)
        names = list(net.node_names)
        rng.shuffle(names)
        size, bond = tn._census(net, names)
        assert size == [math.prod(net.extent(l) for l in net.labels(a)) for a in names]
        want = {}
        for (i, a), (j, b) in itertools.combinations(enumerate(names), 2):
            shared = set(net.labels(a)) & set(net.labels(b))
            if shared:
                want[i, j] = math.prod(net.extent(l) for l in shared)
                multiple += len(shared) > 1
        assert bond == want
    assert multiple > 0


@pytest.mark.parametrize(
    "build, scans",
    [
        (lambda rng: ladder_network(rng, 6, (3, 2), 2), ["_by_cost"]),
        (twelve_vectors, []),
        (lambda rng: ring_network(rng, 12, (2,), 19), []),
    ],
    ids=["int64", "twelve-vectors", "ring12-free19"],
)
def test_exhaustive_caps_itself_with_the_least_cost_scan_alone(build, scans, monkeypatch):
    # The cap needs one plan's cost, not the cheaper of the greedy orders;
    # Python-int tables run the DP uncapped and scan nothing.
    net = build(np.random.default_rng(26))
    rules = []
    scan = tn._greedy_scan
    monkeypatch.setattr(tn, "_greedy_scan", lambda size, bond, rule: rules.append(rule.__name__) or scan(size, bond, rule))
    tk.plan(net, "exhaustive")
    assert rules == scans
