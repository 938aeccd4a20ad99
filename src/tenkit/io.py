"""Reading and writing the ".ten" text tensor format.

A .ten file is UTF-8 text with '#' comments and whitespace-separated
tokens:

    order N
    shape I1 ... IN
    data
    v1 v2 ...           (prod I_n decimal floats, vectorization order)

Writers emit 17 significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import contextlib
import os

from .core import DenseTensor, element_count
from .errors import ParseError

__all__ = ["read_tensor", "write_tensor", "loads_tensor", "dumps_tensor", "format_float"]


def format_float(x: float) -> str:
    """Render a float with 17 significant digits."""
    return format(float(x), ".17g")


def _tokenize(text: str) -> list[tuple[str, int]]:
    toks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        for tok in body.split():
            toks.append((tok, lineno))
    return toks


def loads_tensor(text: str) -> DenseTensor:
    """Parse .ten text into a tensor."""
    toks = _tokenize(text)
    pos = 0

    def take(what: str) -> tuple[str, int]:
        nonlocal pos
        if pos >= len(toks):
            last = toks[-1][1] if toks else 1
            raise ParseError(f"unexpected end of file, expected {what}", last)
        tok = toks[pos]
        pos += 1
        return tok

    tok, line = take("'order'")
    if tok != "order":
        raise ParseError(f"expected 'order', got {tok!r}", line)
    tok, line = take("the order")
    try:
        order = int(tok)
    except ValueError:
        raise ParseError(f"order must be an integer, got {tok!r}", line) from None
    if order < 0:
        raise ParseError(f"order must be nonnegative, got {order}", line)

    tok, line = take("'shape'")
    if tok != "shape":
        raise ParseError(f"expected 'shape', got {tok!r}", line)
    shape = []
    for _ in range(order):
        tok, line = take("a shape extent")
        try:
            extent = int(tok)
        except ValueError:
            raise ParseError(f"shape extent must be an integer, got {tok!r}", line) from None
        if extent < 1:
            raise ParseError(f"shape extent must be positive, got {extent}", line)
        shape.append(extent)

    tok, line = take("'data'")
    if tok != "data":
        raise ParseError(f"expected 'data', got {tok!r}", line)

    need = element_count(shape)
    values = []
    for _ in range(need):
        tok, line = take("a data value")
        try:
            values.append(float(tok))
        except ValueError:
            raise ParseError(f"data value must be a float, got {tok!r}", line) from None
    if pos != len(toks):
        tok, line = toks[pos]
        raise ParseError(f"trailing content {tok!r} after {need} data values", line)
    return DenseTensor(shape, values)


def dumps_tensor(t: DenseTensor) -> str:
    """Render a tensor as .ten text."""
    lines = [f"order {t.order}", "shape" + "".join(f" {e}" for e in t.shape), "data"]
    flat = t.data
    for start in range(0, flat.size, 6):
        lines.append(" ".join(format_float(v) for v in flat[start : start + 6]))
    return "\n".join(lines) + "\n"


def read_tensor(path: str | os.PathLike) -> DenseTensor:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read tensor file '{path}': {exc.strerror or exc}") from None
    return loads_tensor(text)


def _write_atomic(path: str | os.PathLike, text: str) -> None:
    """Write text to path atomically.

    The text goes to a fresh temporary file in the target's directory,
    which then replaces the target in one rename; if writing fails the
    temporary file is removed and an existing target is left as it was.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_tensor(path: str | os.PathLike, t: DenseTensor) -> None:
    """Write t to path atomically (see _write_atomic)."""
    _write_atomic(path, dumps_tensor(t))
