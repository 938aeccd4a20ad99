"""Shared oracles and generators, independent of the library's own index math, and test spies."""

import itertools
import math
import re

import numpy as np

import tenkit as tk


def enumerate_indices(shape):
    """All 1-based multi-indices of a shape in storage order (first index fastest)."""
    if not shape:
        return [()]
    ranges = [range(1, e + 1) for e in reversed(shape)]
    return [tuple(reversed(t)) for t in itertools.product(*ranges)]


def position_map(shape):
    """1-based flat position of every multi-index, by explicit enumeration."""
    return {idx: pos for pos, idx in enumerate(enumerate_indices(shape), start=1)}


def rand_tensor(rng, shape):
    size = 1
    for e in shape:
        size *= e
    return tk.DenseTensor(shape, rng.standard_normal(size))


def rand_shape(rng, max_order=6, max_extent=4, min_order=1):
    order = int(rng.integers(min_order, max_order + 1))
    return tuple(int(rng.integers(1, max_extent + 1)) for _ in range(order))


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = np.linalg.norm(want.ravel())
    return float(np.linalg.norm((got - want).ravel())) / (scale if scale > 0 else 1.0)


def reconstruct_err(x, approx):
    return rel_err(approx.to_array(), x.to_array())


def sym3_eigvals(g):
    """Eigenvalues of a symmetric 3x3 matrix from its characteristic polynomial.

    Closed-form trigonometric solution; descending order. Used as an
    SVD-independent oracle for singular values (sigma_i^2 of M are the
    eigenvalues of M^T M).
    """
    g = np.asarray(g, dtype=float)
    p1 = g[0, 1] ** 2 + g[0, 2] ** 2 + g[1, 2] ** 2
    if p1 == 0.0:
        return tuple(sorted((g[0, 0], g[1, 1], g[2, 2]), reverse=True))
    q = (g[0, 0] + g[1, 1] + g[2, 2]) / 3.0
    p2 = (g[0, 0] - q) ** 2 + (g[1, 1] - q) ** 2 + (g[2, 2] - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = (g - q * np.eye(3)) / p
    det_b = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    r = min(1.0, max(-1.0, det_b / 2.0))
    phi = math.acos(r) / 3.0
    e1 = q + 2.0 * p * math.cos(phi)
    e3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return (e1, 3.0 * q - e1 - e3, e3)


def random_network(rng, max_nodes=6, max_extent=4, max_terms=20000):
    """Random valid network: spanning-tree bonds, a few extra bonds, free labels."""
    while True:
        n = int(rng.integers(2, max_nodes + 1))
        node_labels = [[] for _ in range(n)]
        extents = {}
        counter = itertools.count(1)

        def bond(i, j, prefix):
            lab = f"{prefix}{next(counter)}"
            node_labels[i].append(lab)
            node_labels[j].append(lab)
            extents[lab] = int(rng.integers(1, max_extent + 1))

        for k in range(1, n):
            bond(k, int(rng.integers(0, k)), "b")
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.choice(n, size=2, replace=False)
            bond(int(i), int(j), "c")
        free = []
        for k in range(n):
            if rng.random() < 0.6:
                lab = f"f{next(counter)}"
                node_labels[k].append(lab)
                free.append(lab)
                extents[lab] = int(rng.integers(1, max_extent + 1))
        if any(not ls or len(ls) > 5 for ls in node_labels):
            continue
        terms = 1
        for e in extents.values():
            terms *= e
        if terms > max_terms:
            continue
        nodes = []
        for k in range(n):
            shape = tuple(extents[l] for l in node_labels[k])
            nodes.append((f"n{k}", tuple(node_labels[k]), rand_tensor(rng, shape)))
        out = list(free)
        rng.shuffle(out)
        return tk.TensorNetwork(nodes, tuple(out))


def random_plan_steps(net, rng):
    """A uniformly random valid pairwise contraction order."""
    alive = list(net.node_names)
    steps = []
    while len(alive) > 1:
        i, j = sorted(rng.choice(len(alive), size=2, replace=False))
        steps.append((alive[int(i)], alive[int(j)]))
        alive.pop(int(j))
    return steps


def network_loop_oracle(net):
    """Brute-force network value: sum over every assignment of every label."""
    labels = sorted({l for nm in net.node_names for l in net.labels(nm)})
    gpos = {l: i for i, l in enumerate(labels)}
    nodes = []
    for nm in net.node_names:
        nl = net.labels(nm)
        t = net.tensor(nm)
        strides = [0] * len(labels)
        s = 1
        for pos, l in enumerate(nl):
            strides[gpos[l]] = s
            s *= t.shape[pos]
        nodes.append((strides, t.data.tolist()))
    out_pos = [gpos[l] for l in net.output]
    out_shape = tuple(net.extent(l) for l in net.output)
    acc = np.zeros(out_shape if out_shape else ())
    for assign in itertools.product(*[range(net.extent(l)) for l in labels]):
        p = 1.0
        for strides, data in nodes:
            flat = 0
            for g, s in zip(assign, strides):
                if s:
                    flat += g * s
            p *= data[flat]
        acc[tuple(assign[i] for i in out_pos)] += p
    return acc


def planted_cp_factors(rng, shape, rank, max_cond=5.0):
    """Well-conditioned random factors for exact-recovery tests (by rejection)."""
    while True:
        factors = [rng.standard_normal((extent, rank)) for extent in shape]
        if max(np.linalg.cond(f) for f in factors) < max_cond:
            return factors


def numpy_cp_als_trace(x, rank, sweeps, seed, restart=0, tol=0.0):
    """Residual trace of plain ALS on an ndarray: einsum MTTKRPs and
    np.linalg.pinv of the Hadamard Gram product, with cp_als's seeding and
    column normalization for one restart, stopping early once the relative
    fit change drops below tol."""
    rng = np.random.default_rng([seed, restart])
    factors = [rng.standard_normal((extent, rank)) for extent in x.shape]
    modes = "abcdefgh"[: x.ndim]
    norm = float(np.linalg.norm(x))
    trace = []
    for _ in range(sweeps):
        for n in range(x.ndim):
            others = [m for m in range(x.ndim) if m != n]
            spec = modes + "," + ",".join(modes[m] + "r" for m in others) + "->" + modes[n] + "r"
            mttkrp = np.einsum(spec, x, *(factors[m] for m in others))
            gram = np.ones((rank, rank))
            for m in others:
                gram *= factors[m].T @ factors[m]
            factors[n] = mttkrp @ np.linalg.pinv(gram)
        weights = np.ones(rank)
        for f in factors:
            norms = np.linalg.norm(f, axis=0)
            f /= np.where(norms > 0.0, norms, 1.0)
            weights = weights * norms
        spec = "r," + ",".join(m + "r" for m in modes) + "->" + modes
        approx = np.einsum(spec, weights, *factors)
        trace.append(float(np.linalg.norm(x - approx)))
        if len(trace) > 1 and abs(trace[-2] - trace[-1]) / norm < tol:
            break
    return trace


def planted_tt_train(rng, extents, bonds):
    """Random train with the given bond ranks; rejects rank-deficient cores."""
    while True:
        cores = []
        for k, extent in enumerate(extents):
            shape = (bonds[k], extent, bonds[k + 1])
            cores.append(rand_tensor(rng, shape))
        train = tk.TTTrain(tuple(cores))
        x = tk.tt_reconstruct(train)
        ok = True
        for k in range(1, len(extents)):
            if tk.numerical_rank(tk.k_unfold(x, k)) != bonds[k]:
                ok = False
                break
        if ok:
            return train, x


def narrow_spy(monkeypatch):
    """Record, sweep by sweep, whether the Jacobi kernel tested only some
    pairs (the truncated path of factor._jacobi_svd)."""
    seen = []
    real = tk.factor._top_columns

    def spy(w, keep, top):
        seen.append(real(w, keep, top))
        return seen[-1]

    monkeypatch.setattr(tk.factor, "_top_columns", spy)
    return seen


def exhaustive_plan_oracle(net):
    """Steps of the minimum-total-cost plan by the subset DP written as plain
    Python loops over every (mask, submask) pair; ties go to the largest
    submask, and a split whose cost exceeds 2**63 - 1 raises NumericError."""
    names = net.node_names
    n = len(names)
    labels = sorted({l for name in names for l in net.labels(name)})
    bit = {label: 1 << i for i, label in enumerate(labels)}
    ext = {bit[label]: net.extent(label) for label in labels}

    def mask_product(mask):
        out = 1
        while mask:
            low = mask & -mask
            out *= ext[low]
            if out > 2**63 - 1:
                raise tk.NumericError("contraction cost overflows 64-bit integers")
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
            if sub > rest:
                cost = best_cost[sub] + best_cost[rest] + mask_product(free[sub] | free[rest])
                if best is None or cost < best:
                    best = cost
                    best_split[mask] = sub
            sub = (sub - 1) & mask
        best_cost[mask] = best

    def build(mask):
        if mask & (mask - 1) == 0:
            return [], names[mask.bit_length() - 1]
        sub = best_split[mask]
        rest = mask ^ sub
        first, second = (sub, rest) if sub & (mask & -mask) else (rest, sub)
        steps1, rep1 = build(first)
        steps2, rep2 = build(second)
        return steps1 + steps2 + [(rep1, rep2)], rep1

    return build(size - 1)[0]


def loads_tensor_oracle(text):
    """.ten parser written token by token: a (token, line) tuple per token
    and one float() per value; the bulk reader must agree with it."""
    toks = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for tok in line.split("#", 1)[0].split():
            toks.append((tok, lineno))
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(toks):
            last = toks[-1][1] if toks else 1
            raise tk.ParseError(f"unexpected end of file, expected {what}", last)
        pos += 1
        return toks[pos - 1]

    tok, line = take("'order'")
    if tok != "order":
        raise tk.ParseError(f"expected 'order', got {tok!r}", line)
    tok, line = take("the order")
    try:
        order = int(tok)
    except ValueError:
        raise tk.ParseError(f"order must be an integer, got {tok!r}", line) from None
    if order < 0:
        raise tk.ParseError(f"order must be nonnegative, got {order}", line)
    tok, line = take("'shape'")
    if tok != "shape":
        raise tk.ParseError(f"expected 'shape', got {tok!r}", line)
    shape = []
    for _ in range(order):
        tok, line = take("a shape extent")
        try:
            extent = int(tok)
        except ValueError:
            raise tk.ParseError(f"shape extent must be an integer, got {tok!r}", line) from None
        if extent < 1:
            raise tk.ParseError(f"shape extent must be positive, got {extent}", line)
        shape.append(extent)
    tok, line = take("'data'")
    if tok != "data":
        raise tk.ParseError(f"expected 'data', got {tok!r}", line)
    need = math.prod(shape)
    values = []
    for _ in range(need):
        tok, line = take("a data value")
        try:
            values.append(float(tok))
        except ValueError:
            raise tk.ParseError(f"data value must be a float, got {tok!r}", line) from None
    if pos != len(toks):
        tok, line = toks[pos]
        raise tk.ParseError(f"trailing content {tok!r} after {need} data values", line)
    return tk.DenseTensor(shape, values)


def dumps_tensor_oracle(t):
    """.ten writer that formats one value at a time, six to a line."""
    lines = [f"order {t.order}", "shape" + "".join(f" {e}" for e in t.shape), "data"]
    flat = t.data
    for start in range(0, flat.size, 6):
        lines.append(" ".join(format(float(v), ".17g") for v in flat[start : start + 6]))
    return "\n".join(lines) + "\n"


_TN_TOKEN_RE = re.compile(
    r"""[ \t]+
      | (?P<punct>[\[\],=;])
      | (?P<at>@[^\s;,\]]+)
      | (?P<word>[^\s\[\],=;@#]+)
    """,
    re.X,
)


def tn_tokens_oracle(text):
    """.tn tokenizer written one regex match per token: a (kind, text, line,
    col) tuple for every token, values included; the bulk tokenizer must give
    the same tokens once its value runs are expanded."""
    statements = []
    current = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            m = _TN_TOKEN_RE.match(line, pos)
            if m is None:
                raise tk.ParseError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
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
