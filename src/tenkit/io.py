"""Reading and writing the ".ten" text tensor format.

A .ten file is UTF-8 text with '#' comments and whitespace-separated
tokens:

    order N
    shape I1 ... IN
    data
    v1 v2 ...           (prod I_n decimal floats, vectorization order)

Writers emit 17 significant digits, which round-trips float64 exactly.
Both directions work in bulk: the writer fills a "%.17g" row template from
one tolist(); the reader splits the text once, parses the data with one
map(float) and counts lines only to report a ParseError.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import os

import numpy as np

from .core import DenseTensor, _as_instance, _as_real, _as_tensor, element_count
from .errors import ParseError

__all__ = ["read_tensor", "write_tensor", "loads_tensor", "dumps_tensor", "format_float"]

# What a path argument must be; an int would be taken as a file descriptor.
_PATH = (str, os.PathLike)


def format_float(x: float) -> str:
    """Render a float with 17 significant digits."""
    return format(_as_real(x, "format_float value", finite=False), ".17g")


def _format_rows(values: list[float], per_row: int) -> str:
    """Values as format_float renders them, per_row to a line, through one row template."""
    full, rest = divmod(len(values), per_row)
    rows = [" ".join(["%.17g"] * per_row)] * full + [" ".join(["%.17g"] * rest)] * (rest > 0)
    return "\n".join(rows) % tuple(values)


def _parse_floats(tokens: list[str], not_float: str, fail) -> np.ndarray:
    """float() of every token in one map pass. fail(i, message), which must raise, gets the first
    token float() rejects, else the first it takes to +-inf that does not spell inf."""
    try:
        values = np.array(list(map(float, tokens)), dtype=np.float64)
    except ValueError:
        for i, tok in enumerate(tokens):
            try:
                float(tok)
            except ValueError:
                fail(i, not_float.format(tok))
    for i in np.flatnonzero(np.isinf(values)).tolist():
        if tokens[i].lstrip("+-").lower() not in ("inf", "infinity"):
            fail(i, f"value {tokens[i]!r} overflows float64")
    return values


def loads_tensor(text: str) -> DenseTensor:
    """Parse .ten text into a tensor."""
    _as_instance(text, str, "loads_tensor")
    toks = ("\n".join(ln.split("#", 1)[0] for ln in text.splitlines()) if "#" in text else text).split()

    def fail(message: str, index: int):
        # Token `index` (or the last one) is on the first line whose running token count passes it.
        ends = [0, *itertools.accumulate(len(ln.split("#", 1)[0].split()) for ln in text.splitlines())]
        raise ParseError(message, max(1, bisect.bisect_left(ends, min(index + 1, ends[-1])))) from None
    def take(index: int, what: str, word: str | None = None) -> str:
        if index >= len(toks):
            fail(f"unexpected end of file, expected {what}", index)
        if word not in (None, toks[index]):
            fail(f"expected {what}, got {toks[index]!r}", index)
        return toks[index]
    def integer(index: int, what: str, name: str, lo: int) -> int:
        try:
            value = int(take(index, what))
        except ValueError:
            fail(f"{name} must be an integer, got {toks[index]!r}", index)
        if value < lo:
            fail(f"{name} must be {'positive' if lo else 'nonnegative'}, got {value}", index)
        return value

    take(0, "'order'", "order")
    order = integer(1, "the order", "order", 0)
    take(2, "'shape'", "shape")
    shape = [integer(k, "a shape extent", "shape extent", 1) for k in range(3, 3 + order)]
    take(3 + order, "'data'", "data")
    start, need = 4 + order, element_count(shape)
    data = toks[start : start + need]
    values = _parse_floats(data, "data value must be a float, got {!r}", lambda i, msg: fail(msg, start + i))
    if len(data) < need:
        fail("unexpected end of file, expected a data value", len(toks))
    if len(toks) > start + need:
        fail(f"trailing content {toks[start + need]!r} after {need} data values", start + need)
    return DenseTensor(shape, values)


def dumps_tensor(t: DenseTensor) -> str:
    """Render a tensor as .ten text."""
    t = _as_tensor(t, "dumps_tensor")
    head = f"order {t.order}\nshape" + "".join(f" {e}" for e in t.shape) + "\ndata\n"
    return head + _format_rows(t.data.tolist(), 6) + "\n"


def _read_text(path: str | os.PathLike, what: str) -> str:
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {what} '{path}': {getattr(exc, 'strerror', None) or exc}") from None


def read_tensor(path: str | os.PathLike) -> DenseTensor:
    return loads_tensor(_read_text(_as_instance(path, _PATH, "read_tensor"), "tensor file"))


def _write_atomic(path: str | os.PathLike, text: str) -> None:
    """Write text to a fresh temporary file beside path, then rename it over
    path; if writing fails, remove it and leave an existing path as it was.
    An OSError names path, not the temporary file."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8")
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def write_tensor(path: str | os.PathLike, t: DenseTensor) -> None:
    """Write t to path atomically (see _write_atomic)."""
    _as_instance(path, _PATH, "write_tensor")
    t = _as_tensor(t, "write_tensor")
    _write_atomic(path, dumps_tensor(t))
