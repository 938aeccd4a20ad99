"""Purity smoke test: shared tensors used from many threads stay consistent."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tenkit as tk

from helpers import rand_tensor


def test_shared_tensors_across_threads_give_identical_results():
    rng = np.random.default_rng(0)
    x = rand_tensor(rng, (4, 3, 4))
    a = rand_tensor(rng, (5, 4))

    def work(_):
        y = tk.mode_product(x, a, 1)
        m = tk.matricize(y, 2)
        return tk.svd(m).sigma.data.tobytes(), tk.frobenius_norm(y)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(work, range(32)))
    assert len(set(results)) == 1
    # the shared inputs were never mutated
    assert x == rand_tensor(np.random.default_rng(0), (4, 3, 4))


@pytest.mark.parametrize("restarts", [1, 3])
def test_cp_als_deterministic_across_threads(restarts):
    rng = np.random.default_rng(1)
    x = rand_tensor(rng, (3, 3, 3))

    def fit(_):
        result = tk.cp_als(x, 2, max_sweeps=20, seed=3, restarts=restarts)
        return result.trace, result.restart, result.sweeps

    with ThreadPoolExecutor(max_workers=4) as pool:
        traces = list(pool.map(fit, range(8)))
    assert all(t == traces[0] for t in traces)
