"""The pairwise kernel sum behind ``sobolev.wce_squared``.

The O(N^2 s) Gram mean is computed with numpy in row blocks.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1024  # row block size keeps the working set under ~100 MB


def gram_mean_product(x, bern, poly2a, gamma, sign, gamma_empty):
    """Mean of the product-weight kernel Gram matrix plus (gamma_empty - 1).

    x: (N, s) points; bern: (N, s, alpha) values B_tau(x)/tau!;
    poly2a: descending coefficients of B_2alpha/(2alpha)!.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    N, s = x.shape
    acc = 0.0
    for lo in range(0, N, _CHUNK):
        hi = min(lo + _CHUNK, N)
        block = np.ones((hi - lo, N))
        for j in range(s):
            d = np.abs(x[lo:hi, j, None] - x[None, :, j])
            k1 = sign * np.polyval(poly2a, d)
            k1 += bern[lo:hi, j, :] @ bern[:, j, :].T
            block *= 1.0 + gamma[j] * k1
        acc += block.sum()
    return acc / (N * N) + (gamma_empty - 1.0)


def backend_name() -> str:
    """Name of the Gram-mean implementation, recorded in benchmark results."""
    return "numpy"
