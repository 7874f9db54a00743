"""Slow reference implementations the tests compare against.

Everything here is written the dumb way on purpose: direct digit loops,
O(M^2) quadrature double sums, polynomial long division over integer
lists, full scans instead of recursions.  None of it shares code with
the package.
"""

import cmath
import math
from fractions import Fraction

import numpy as np

from tentqmc.base_arith import BAdicReal, PolyZb
from tentqmc.nets import (
    CapacityError,
    GeneratingMatrices,
    PolyLatticeSpec,
    digit_cap,
)
from tentqmc.sobolev import ProductWeights, Weights


# ---------------------------------------------------------------------------
# digits and Walsh indices

def digits_lsb(k, b, count=None):
    out = []
    while k:
        out.append(k % b)
        k //= b
    if count is not None:
        out += [0] * (count - len(out))
    return out


def brute_delta_b(k, b):
    return sum(digits_lsb(k, b))


def brute_in_Eb(k, b):
    return k >= 1 and brute_delta_b(k, b) % b == 0


def brute_mu_alpha(k, alpha, b):
    """Sum of the positions of the top min(v, alpha) nonzero digits of k."""
    positions = [i + 1 for i, d in enumerate(digits_lsb(k, b)) if d != 0]
    return sum(sorted(positions, reverse=True)[:alpha])


def walsh_value(k, x, b):
    """wal_k(x) as a complex product over digits, from a BAdicReal."""
    assert isinstance(x, BAdicReal)
    kd = digits_lsb(k, b)
    acc = 0
    for i, ki in enumerate(kd):
        acc += ki * x.digit(i + 1)
    return cmath.exp(2j * math.pi * (acc % b) / b)


# ---------------------------------------------------------------------------
# polynomial long division route to Laurent coefficients

def laurent_by_long_division(q, p, length):
    """Coefficients t_1..t_length of q/p via division of q * x^length by p.

    Plain schoolbook long division on coefficient lists (descending), all
    arithmetic mod b.  t_l is the coefficient of x^(length - l) in the
    quotient.
    """
    b = p.base
    pd = list(reversed(p.coeffs))                      # descending
    num = list(reversed(q.coeffs)) + [0] * length      # q * x^length
    inv_lead = pow(pd[0], -1, b)
    quot = []
    work = list(num)
    for i in range(len(work) - len(pd) + 1):
        f = (work[i] * inv_lead) % b
        quot.append(f)
        for j, c in enumerate(pd):
            work[i + j] = (work[i + j] - f * c) % b
    # quotient has degree deg(q) + length - deg(p) < length; left-pad it
    quot = [0] * (length - len(quot)) + quot
    return tuple(quot[-length:])


# ---------------------------------------------------------------------------
# kernel helpers

BERNOULLI_NUMBERS = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}

# B_tau(x) coefficients, descending powers, for small tau
BERNOULLI_POLY = {
    1: [Fraction(1), Fraction(-1, 2)],
    2: [Fraction(1), Fraction(-1), Fraction(1, 6)],
    3: [Fraction(1), Fraction(-3, 2), Fraction(1, 2), Fraction(0)],
    4: [Fraction(1), Fraction(-2), Fraction(1), Fraction(0), Fraction(-1, 30)],
}


def kernel_1d_fraction(alpha, x, y):
    """Exact rational k1(x, y) for alpha <= 2 and rational arguments."""
    def bpoly(tau, t):
        return sum(c * t ** (len(BERNOULLI_POLY[tau]) - 1 - i)
                   for i, c in enumerate(BERNOULLI_POLY[tau]))

    x, y = Fraction(x), Fraction(y)
    acc = Fraction(0)
    for tau in range(1, alpha + 1):
        f = math.factorial(tau)
        acc += bpoly(tau, x) * bpoly(tau, y) / (f * f)
    sign = 1 if alpha % 2 == 1 else -1
    acc += sign * bpoly(2 * alpha, abs(x - y)) / math.factorial(2 * alpha)
    return acc


def gauss_legendre_01(f, deg=40):
    nodes, wts = np.polynomial.legendre.leggauss(deg)
    x = (nodes + 1.0) / 2.0
    return 0.5 * float(np.sum(wts * np.array([f(v) for v in x])))


def integral_split(f, split, deg=40):
    """Integral of f over [0,1] split at an interior kink."""
    nodes, wts = np.polynomial.legendre.leggauss(deg)
    total = 0.0
    for a, b in ((0.0, split), (split, 1.0)):
        if b <= a:
            continue
        x = (nodes + 1.0) / 2.0 * (b - a) + a
        total += 0.5 * (b - a) * float(np.sum(wts * np.array([f(v) for v in x])))
    return total


def kernel_coeff_naive(j, alpha, b, res_digits):
    """Diagonal Walsh coefficient of k1 by a plain O(M^2) double sum."""
    from tentqmc.sobolev import KernelParams, kernel_1d

    M = b**res_digits
    params = KernelParams(alpha, b)
    xs = [(i + 0.5) / M for i in range(M)]
    # exact character exponents at midpoints: leading digits = cell index
    es = []
    kd = digits_lsb(j, b, res_digits)
    for i in range(M):
        cd = digits_lsb(i, b, res_digits)[::-1]  # digit 1 first
        es.append(sum(a * c for a, c in zip(kd, cd)) % b)
    w = [cmath.exp(2j * math.pi * e / b) for e in es]
    acc = 0j
    for i in range(M):
        row = 0j
        for l in range(M):
            row += kernel_1d(params, xs[i], xs[l]) * w[l].conjugate()
        acc += row * w[i]
    return acc / (M * M)


def wce_squared_slow(points, params, weights):
    """Double loop over the full kernel, no vectorization."""
    from tentqmc.sobolev import kernel

    pts = [tuple(float(c) for c in p) for p in points]
    N = len(pts)
    acc = 0.0
    for xp in pts:
        for yp in pts:
            acc += kernel(params, weights, xp, yp)
    return acc / (N * N) - weights.gamma_empty


# ---------------------------------------------------------------------------
# truncated dual sums by enumerating the whole L^s dual box

def _dual_box_sum(gen: GeneratingMatrices, A: np.ndarray, coeff: np.ndarray,
                  weights: Weights, c_factor: float,
                  cap: int | None) -> float:
    """Sum of gamma_u c^|u| prod_j coeff[k_j] over truncated dual vectors.

    A is the admissible list and coeff is indexed like it; entry 0
    (k = 0) is unused.
    """
    b, n, m, s = gen.base, gen.n, gen.m, gen.s
    if weights.s != s:
        raise ValueError("weights dimension must match the net")
    L = A.shape[0]
    limit = digit_cap() if cap is None else cap
    if L**s > limit:
        raise CapacityError(f"dual box of {L}^{s} index vectors exceeds cap {limit}")
    kd = np.empty((L, n), dtype=np.int64)
    for i in range(n):
        kd[:, i] = (A // b**i) % b
    residues = [kd @ gen.mats[j].astype(np.int64) % b for j in range(s)]
    if isinstance(weights, ProductWeights):
        factors = [
            np.concatenate(([1.0], c_factor * weights.gammas[j] * coeff[1:]))
            for j in range(s)
        ]
        gamma_mask = None
    else:
        factors = [
            np.concatenate(([1.0], c_factor * coeff[1:])) for _ in range(s)
        ]
        gamma_mask = np.array(
            [weights.gamma_of_mask(mask) for mask in range(2**s)]
        )
    res = np.zeros((1, m), dtype=np.int64)
    prod = np.ones(1)
    mask = np.zeros(1, dtype=np.int64)
    for j in range(s):
        res = (res[:, None, :] + residues[j][None, :, :]).reshape(-1, m) % b
        prod = (prod[:, None] * factors[j][None, :]).reshape(-1)
        bit = np.where(A > 0, 1 << j, 0)
        mask = (mask[:, None] + bit[None, :]).reshape(-1)
    member = np.all(res == 0, axis=1)
    member[0] = False  # k = 0 is excluded from the sum
    if gamma_mask is not None:
        prod = prod * gamma_mask[mask]
    return float(np.sum(prod[member]))


# ---------------------------------------------------------------------------
# digit-sum index sets

def eb_weight_sum_brute(b, alpha, lam, T, multiple_of=1):
    acc = 0.0
    for k in range(1, b**T):
        if k % multiple_of:
            continue
        if brute_delta_b(k, b) % b:
            continue
        acc += float(b) ** (-2.0 * lam * brute_mu_alpha(k // b, alpha, b))
    return acc


def count_zero_sum_tuples(b, v):
    """Tuples in (Z_b minus 0)^v with digit sum divisible by b, by scan."""
    import itertools

    return sum(
        1
        for t in itertools.product(range(1, b), repeat=v)
        if sum(t) % b == 0
    )


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def irreducible_count(b, n):
    """Number of monic irreducible degree-n polynomials over Z_b."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += mobius(n // d) * b**d
    return total // n


# ---------------------------------------------------------------------------
# random instances

def random_poly_spec(rng, bases=(2, 3, 5), n_max=6, m_max=4, s_max=3,
                     combo_limit=None):
    """Random polynomial lattice spec; moduli are not forced irreducible."""
    while True:
        b = int(rng.choice(list(bases)))
        n = int(rng.integers(2, n_max + 1))
        m = int(rng.integers(1, min(n, m_max) + 1))
        s = int(rng.integers(1, s_max + 1))
        if combo_limit is not None and (b**3) ** s > combo_limit:
            continue
        coeffs = [int(rng.integers(0, b)) for _ in range(n)]
        coeffs.append(int(rng.integers(1, b)))
        p = PolyZb(b, tuple(coeffs))
        qs = tuple(
            PolyZb(b, tuple(int(rng.integers(0, b)) for _ in range(n)))
            for _ in range(s)
        )
        return PolyLatticeSpec(b, m, n, p, qs)
