import numpy as np
import pytest

import tenkit as tk
from tenkit import ParseError

from helpers import dumps_tensor_oracle, loads_tensor_oracle, rand_shape, rand_tensor


def test_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rand_tensor(rng, rand_shape(rng, max_order=4))
        path = tmp_path / "t.ten"
        tk.write_tensor(path, t)
        assert tk.read_tensor(path) == t


def test_scalar_round_trip(tmp_path):
    s = tk.DenseTensor((), [-1.25e-7])
    tk.write_tensor(tmp_path / "s.ten", s)
    back = tk.read_tensor(tmp_path / "s.ten")
    assert back == s and back.order == 0


def test_comments_and_whitespace():
    text = """
    # a comment line
    order 2   # trailing comment
    shape 2 2
    data
    1 2
    3 4
    """
    t = tk.loads_tensor(text)
    assert t.shape == (2, 2) and t.data.tolist() == [1, 2, 3, 4]


def test_seventeen_digits_round_trip():
    t = tk.DenseTensor((3,), [1 / 3, np.pi, 1e-300])
    assert tk.loads_tensor(tk.dumps_tensor(t)) == t


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        tk.loads_tensor("order x\nshape\ndata\n")
    assert err.value.line == 1

    with pytest.raises(ParseError) as err:
        tk.loads_tensor("order 2\nshape 2\ndata 1 2")
    assert err.value.line is not None

    with pytest.raises(ParseError) as err:
        tk.loads_tensor("order 1\nshape 2\ndata\n1.0\nbogus")
    assert err.value.line == 5

    with pytest.raises(ParseError) as err:
        tk.loads_tensor("order 1\nshape 2\ndata\n1.0 2.0 3.0")
    assert err.value.line == 4


def test_missing_file():
    with pytest.raises(ParseError):
        tk.read_tensor("/nonexistent/path/x.ten")


SPECIAL_VALUES = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1.7976931348623157e308]


def test_dumps_matches_value_by_value_oracle():
    rng = np.random.default_rng(11)
    # every remainder mod 6, so full rows and every short last row are covered
    for n in range(1, 14):
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        t = tk.DenseTensor((n,), values)
        assert tk.dumps_tensor(t) == dumps_tensor_oracle(t)
    for t in (
        tk.DenseTensor((), [-1.25e-7]),
        tk.DenseTensor((2, 3), SPECIAL_VALUES),
        tk.DenseTensor((len(SPECIAL_VALUES) + 1,), SPECIAL_VALUES + [1 / 3]),
        rand_tensor(rng, (5, 4, 3)),
    ):
        assert tk.dumps_tensor(t) == dumps_tensor_oracle(t)


def test_dumps_golden_bytes():
    t = tk.DenseTensor((2, 4), [0.1, -2.0, 1 / 3, 1e-300, 5e-324, -0.0, float("inf"), float("nan")])
    assert tk.dumps_tensor(t) == (
        "order 2\nshape 2 4\ndata\n"
        "0.10000000000000001 -2 0.33333333333333331 1e-300 4.9406564584124654e-324 -0\n"
        "inf nan\n"
    )


LOADS_CORPUS = [
    "",
    "   \n\n",
    "# only a comment\n# and another",
    "order",
    "order x\nshape\ndata\n",
    "order -1",
    "order 1.5",
    "shape 2\ndata\n1 2",
    "order 1\nshape",
    "order 1\nshape x\ndata\n1",
    "order 2\nshape 2 0\ndata\n1 2",
    "order 1\nshape 2\nDATA\n1 2",
    "order 1\nshape 2\n",
    "order 1\nshape 3\ndata\nbogus 2 3",
    "order 1\nshape 3\ndata\n1\n2x\n3",
    "order 1\nshape 3\ndata\n1 2\n\n0x10",
    "order 1\nshape 2\ndata\n1.0\nbogus",
    "order 1\nshape 3\ndata\n1 2",
    "order 1\nshape 3\ndata\n1 2 # three?\n# no\n",
    "order 1\nshape 2\ndata\n1.0 2.0 3.0",
    "order 1\nshape 2\ndata\n1 2\n\n# tail\n extra # more",
    "order 1 # c\nshape 2 # c\ndata # c\n1 # 7\n# between\n2\n",
    "order 1\r\nshape 2\r\ndata\r\n1\r\n2\r\n",
    "order 1\r\nshape 2\r\ndata\r\n1\r\nzz\r\n",
    "order 1\rshape 2\rdata\r1\rx",
    "order 1\nshape 2\ndata\n1\x0b2\x0cq",
    "order 1\nshape 2\ndata\n1 2#x\ny",
    "order 0\nshape\ndata\n5",
    "order 0\nshape\ndata\n",
    "order 2\nshape 2 2\ndata\n1 2 3 4",
    "order 1\nshape 3\ndata\nnan -inf +Infinity",
    "order 1\nshape 2\ndata\n1_0 \u0661",
    "order 99999999999\nshape 1",
    "order 1\nshape 99999999999\ndata\n1 q",
]


@pytest.mark.parametrize("text", LOADS_CORPUS)
def test_loads_matches_token_by_token_oracle(text):
    try:
        want = loads_tensor_oracle(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            tk.loads_tensor(text)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
    else:
        got = tk.loads_tensor(text)
        assert got.shape == want.shape
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("token", ["1e999", "-1e400", "+1E309", "1" * 400])
def test_overflowing_literal_is_a_parse_error(token):
    with pytest.raises(ParseError, match="overflows") as err:
        tk.loads_tensor(f"order 1\nshape 3\ndata\n1\n2 {token}")
    assert err.value.line == 5


def test_spelled_out_non_finite_values_still_parse():
    t = tk.loads_tensor("order 1\nshape 6\ndata\ninf -INF +Infinity -infinity nan -NaN")
    assert np.isposinf(t.data[[0, 2]]).all() and np.isneginf(t.data[[1, 3]]).all()
    assert np.isnan(t.data[4:]).all()
    back = tk.DenseTensor((3,), [float("inf"), -float("inf"), float("nan")])
    assert tk.loads_tensor(tk.dumps_tensor(back)).data.tobytes() == back.data.tobytes()
