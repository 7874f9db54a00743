"""Output checks for the benchmark workloads.

Each check recomputes what a CLI call printed by its own arithmetic and
returns a list of problems (empty when the output is correct).  Nothing
here calls the code path it checks: Laurent digits come from polynomial
long division rather than the coefficient recurrence, points from
per-point products h(x) q_j(x) rather than generating matrices, the
search bound from ``nets.enumerate_dual`` rather than the dual-box sum,
and the worst-case error from the kernel formula written out below.
"""

from __future__ import annotations

import csv
import io
import math
import sys

import numpy as np

ALPHA = 2  # smoothness of the searched figure of merit (the CLI default)
REL_BOUND = 1e-9  # search bound against the dual-net sum
REL_VALUE = 1e-15  # a printed float against its digit string
# Printed wce^2 against the kernel formula: REL_WCE relative plus eps * N
# absolute, N the number of points.  wce^2 is the mean of N^2 Gram terms
# near 1, minus 1.  Summed one by one into a single double (the compiled
# backend), the mean's rounding error is a random walk of N^2 roundings of
# up to eps * k / 2 at the k-th addition, about eps * N / 6 in RMS; the
# numpy backend sums in blocks and is closer.  Subtracting 1 keeps that
# absolute error however small wce^2 is.
REL_WCE = 1e-9
GRAM_BLOCK = 256  # rows of the independent Gram sum evaluated at once

# ---------------------------------------------------------------------------
# Polynomials over Z_b as ascending coefficient lists


def _trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _rem(a, d, b):
    """Remainder of a by d over Z_b, b prime."""
    a = _trim(a)
    d = _trim(d)
    inv = pow(d[-1], b - 2, b)
    nd = len(d) - 1
    for i in range(len(a) - 1, nd - 1, -1):
        f = a[i] * inv % b
        if f:
            for k, c in enumerate(d):
                a[i - nd + k] = (a[i - nd + k] - f * c) % b
    return _trim(a[:nd])


def _powmod_x(e, p, b):
    """x^e mod p by square and multiply."""
    result, base_poly = [1], [0, 1]
    while e:
        if e & 1:
            result = _rem(_mul(result, base_poly, b), p, b)
        base_poly = _rem(_mul(base_poly, base_poly, b), p, b)
        e >>= 1
    return result


def _mul(a, c, b):
    if not a or not c:
        return []
    out = [0] * (len(a) + len(c) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(c):
                out[i + j] = (out[i + j] + x * y) % b
    return out


def _gcd(a, c, b):
    a, c = _trim(a), _trim(c)
    while c:
        a, c = c, _rem(a, c, b)
    return a


def _is_irreducible(p, b):
    """Rabin's test: x^(b^n) = x mod p and gcd(x^(b^(n/r)) - x, p) = 1."""
    n = len(p) - 1

    def frob_minus_x(k):
        t = _powmod_x(b**k, p, b) + [0] * 2
        t[1] = (t[1] - 1) % b
        return _rem(t, p, b)

    if n < 1 or frob_minus_x(n):
        return False
    primes = [r for r in range(2, n + 1)
              if n % r == 0 and all(r % d for d in range(2, r))]
    return all(len(_gcd(frob_minus_x(n // r), p, b)) == 1 for r in primes)


def first_irreducible(b, n):
    """First monic irreducible of degree n, low coefficients in
    lexicographic order with the constant term most significant."""
    for h in range(b**n):
        low = [(h // b ** (n - 1 - i)) % b for i in range(n)]
        if _is_irreducible(low + [1], b):
            return low + [1]
    raise ValueError(f"no irreducible polynomial of degree {n} over Z_{b}")


def laurent_digits(q, p, length, b):
    """t_1..t_length of q/p = poly + sum_l t_l x^-l, by long division of
    q x^length by p: the quotient's coefficient of x^(length - l) is t_l."""
    num = [0] * length + list(q)
    inv = pow(p[-1], b - 2, b)
    nd = len(p) - 1
    quot = [0] * max(len(num) - nd, 1)
    for i in range(len(num) - 1, nd - 1, -1):
        f = num[i] * inv % b
        quot[i - nd] = f
        if f:
            for k, c in enumerate(p):
                num[i - nd + k] = (num[i - nd + k] - f * c) % b
    quot += [0] * length
    return [quot[length - l] for l in range(1, length + 1)]


def parse_poly(text):
    return _trim(int(v) for v in text.split(","))


# ---------------------------------------------------------------------------
# Walsh statistics, written out


def digit_sum(k, b):
    s = 0
    while k:
        s += k % b
        k //= b
    return s


def mu(k, alpha, b):
    """Sum of the min(v, alpha) most significant nonzero digit positions."""
    positions = []
    a = 1
    while k:
        if k % b:
            positions.append(a)
        k //= b
        a += 1
    return sum(sorted(positions, reverse=True)[:alpha])


# ---------------------------------------------------------------------------
# experiment


def _read_csv(text):
    return [row for row in csv.reader(io.StringIO(text)) if row]


def _finite(text):
    try:
        v = float(text)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _ols_slope(xs, ys):
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def check_experiment(text, base, m_min, m_max, half_digit):
    """Rows m_min..m_max, all finite.  In the half-digit regime each bound
    dominates rmse^2 and the log_b rmse slope is <= -1.6."""
    rows = _read_csv(text)
    problems = []
    if not rows or rows[0][:5] != ["m", "N", "rmse_estimate", "stderr",
                                   "theorem_bound"]:
        return ["experiment: missing or unexpected header"]
    body = rows[1:]
    ms = [r[0] for r in body]
    want = [str(m) for m in range(m_min, m_max + 1)]
    if ms != want:
        return [f"experiment: rows for m={ms}, expected {want}"]
    xs, ys = [], []
    for r in body:
        m = int(r[0])
        if r[1] != str(base**m):
            problems.append(f"experiment: m={m} has N={r[1]}")
        vals = [_finite(v) for v in r[2:5]]
        if any(v is None for v in vals):
            problems.append(f"experiment: m={m} has a non-finite value {r[2:5]}")
            continue
        rmse, _, bound = vals
        if half_digit and not bound >= rmse * rmse:
            problems.append(
                f"experiment: m={m} bound {bound!r} < rmse^2 {rmse * rmse!r}")
        if rmse > 0:
            xs.append(m)
            ys.append(math.log(rmse) / math.log(base))
    if half_digit and not problems:
        if len(xs) < 3:
            problems.append("experiment: fewer than 3 positive rmse rows")
        else:
            slope = _ols_slope(xs, ys)
            if not slope <= -1.6:
                problems.append(f"experiment: slope {slope:.3f} > -1.6")
    return problems


# ---------------------------------------------------------------------------
# search


def search_bound(b, m, n, qs, T, c_walsh, gammas):
    """sum over nonzero truncated dual vectors with admissible components of
    prod_{k_j != 0} gamma_j c b^(-2 mu(floor(k_j / b)))."""
    from tentqmc.nets import GeneratingMatrices, enumerate_dual

    s = len(qs)
    p = first_irreducible(b, n)
    mats = np.zeros((s, n, m), dtype=np.uint8)
    for j, q in enumerate(qs):
        t = laurent_digits(q, p, n + m - 1, b)
        for row in range(n):
            for col in range(m):
                mats[j, row, col] = t[row + col]
    dual = enumerate_dual(GeneratingMatrices(b, mats), T, cap=(b**T) ** s)

    def factor(j, k):
        return gammas[j] * c_walsh * float(b) ** (-2 * mu(k // b, ALPHA, b))

    return math.fsum(
        math.prod(factor(j, k) for j, k in enumerate(kvec) if k)
        for kvec in dual
        if all(k == 0 or digit_sum(k, b) % b == 0 for k in kvec))


def check_search(text, b, m, n, s, gammas):
    """The printed winner's bound equals an independent dual-net sum."""
    rows = _read_csv(text)
    header = ["rank"] + [f"q{j + 1}" for j in range(s)] + [
        "bound", "T", "c_walsh", "seconds"]
    if not rows or rows[0] != header:
        return ["search: missing or unexpected header"]
    if len(rows) != 2 or rows[1][0] != "1":
        return [f"search: expected one ranked row, got {len(rows) - 1}"]
    row = rows[1]
    qs = [parse_poly(v) for v in row[1:1 + s]]
    if any(len(q) > n or any(not 0 <= c < b for c in q) for q in qs):
        return [f"search: generating polynomials out of range {row[1:1 + s]}"]
    printed, T, c_walsh = float(row[1 + s]), int(row[2 + s]), float(row[3 + s])
    want = search_bound(b, m, n, qs, T, c_walsh, gammas)
    if not abs(printed - want) <= REL_BOUND * abs(want):
        return [f"search: printed bound {printed!r}, dual-net sum {want!r}"]
    return []


# ---------------------------------------------------------------------------
# points


def folded_digits(b, m, n, p, qs, shift):
    """(N, s, P-1) fold prefixes and (N, s) tails of the shifted net.

    Point h has coordinate digits v_n(h(x) q_j(x) / p(x)), where the
    coefficients of h are the base-b digits of h; each product is
    long-divided by p for all h at once.
    """
    N, s = b**m, len(qs)
    P = shift.shape[1]
    hd = np.array([[(h // b**r) % b for r in range(m)] for h in range(N)],
                  dtype=np.int64)
    inv = pow(p[-1], b - 2, b)
    nd = len(p) - 1
    pv = np.array(p, dtype=np.int64)
    digits = np.zeros((N, s, P), dtype=np.int64)
    for j, q in enumerate(qs):
        # (h q) x^n, then long division by p; quotient coefficient of
        # x^(n - l) is the l-th digit
        num = np.zeros((N, n + m + max(len(q), 1)), dtype=np.int64)
        for r in range(m):
            for k, c in enumerate(q):
                num[:, n + r + k] += hd[:, r] * c
        num %= b
        quot = np.zeros((N, num.shape[1]), dtype=np.int64)
        for i in range(num.shape[1] - 1, nd - 1, -1):
            f = num[:, i] * inv % b
            quot[:, i - nd] = f
            num[:, i - nd:i + 1] = (num[:, i - nd:i + 1] - f[:, None] * pv) % b
        digits[:, j, :n] = quot[:, n - np.arange(1, n + 1)]
    shifted = (digits + shift[None, :, :]) % b
    prefix = (shifted[:, :, 1:] - shifted[:, :, :1]) % b
    tail = (-shifted[:, :, 0]) % b
    return prefix, tail


def shift_from_origin(fields, b, n):
    """The (s, P) shift digits read back from point h = 0's digit strings.

    Point 0 has all digits 0, so its shifted digits are the shift itself:
    the tail is -shift_0 and prefix digit k is shift_k - shift_0.  Returns
    None unless each string is P - 1 >= n digits and a bracketed tail.
    """
    rows = []
    for field in fields:
        head, _, tail = field.partition("(")
        digits = head + tail[:-1]
        if (len(head) < n or len(tail) != 2 or tail[1] != ")"
                or any(c not in "0123456789"[:b] for c in digits)):
            return None
        shift0 = -int(tail[:-1]) % b
        rows.append([shift0] + [(int(c) + shift0) % b for c in head])
    if len({len(r) for r in rows}) != 1:
        return None
    return np.array(rows, dtype=np.int64)


def check_points(gen_text, wce_text, b, m, n, p, qs):
    """Digit strings exact, floats true to their digits, wce^2 recomputed.

    The shift is not redrawn here: it is read from point 0's digits, and
    every other point must then match its own long division, shift and
    fold.  See REL_WCE for the wce^2 tolerance.
    """
    s = len(qs)
    rows = _read_csv(gen_text)
    if len(rows) != b**m or any(len(r) != 2 * s for r in rows):
        return [f"points: expected {b**m} rows of {2 * s} fields"]
    shift = shift_from_origin(rows[0][s:], b, n)
    if shift is None:
        return [f"points: row 0 digits {rows[0][s:]} are not a shift of "
                f"at least {n + 1} digits"]
    prefix, tail = folded_digits(b, m, n, p, qs, shift)
    problems = []
    for h, r in enumerate(rows):
        for j in range(s):
            want = "".join(map(str, prefix[h, j])) + f"({tail[h, j]})"
            if r[s + j] != want:
                problems.append(f"points: row {h} coord {j + 1} digits "
                                f"{r[s + j]} != {want}")
        if len(problems) > 5:
            return problems
    if problems:
        return problems
    x = np.array([[float(v) for v in r[:s]] for r in rows])
    P = shift.shape[1]
    weights = float(b) ** -np.arange(1, P)
    exact = prefix @ weights + tail * float(b) ** -(P - 1) / (b - 1)
    bad = np.abs(x - exact) > REL_VALUE * np.abs(exact)
    if bad.any():
        h, j = np.argwhere(bad)[0]
        return [f"points: row {h} coord {j + 1} value {x[h, j]!r} does not "
                f"match its digits ({exact[h, j]!r})"]
    try:
        printed = float(wce_text.strip())
    except ValueError:
        return [f"points: wce printed {wce_text.strip()!r}"]
    want = wce2_alpha2(x)
    tol = REL_WCE * abs(want) + sys.float_info.epsilon * len(x)
    if not abs(printed - want) <= tol:
        return [f"points: wce^2 printed {printed!r}, kernel formula {want!r}"]
    return []


def wce2_alpha2(x):
    """(1/N^2) sum_il prod_j (1 + k1(x_ij, x_lj)) - 1 with unit weights and

        k1(x, y) = B1(x) B1(y) + B2(x) B2(y) / 4 - B4(|x - y|) / 24,

    B1 = x - 1/2, B2 = x^2 - x + 1/6, B4 = x^4 - 2x^3 + x^2 - 1/30.
    The summand is symmetric in (i, l), so only l >= the block start is
    evaluated and pairs right of the diagonal block count twice.
    """
    N, s = x.shape
    b1 = x - 0.5
    b2 = x * x - x + 1.0 / 6.0
    total = []
    for lo in range(0, N, GRAM_BLOCK):
        hi = min(lo + GRAM_BLOCK, N)
        acc = np.ones((hi - lo, N - lo))
        for j in range(s):
            d = np.abs(x[lo:hi, j, None] - x[None, lo:, j])
            b4 = d * d * (d * d - 2.0 * d + 1.0) - 1.0 / 30.0
            acc *= (1.0 + b1[lo:hi, j, None] * b1[None, lo:, j]
                    + b2[lo:hi, j, None] * b2[None, lo:, j] / 4.0
                    - b4 / 24.0)
        total += [acc[:, :hi - lo].sum(), 2.0 * acc[:, hi - lo:].sum()]
    return math.fsum(total) / (N * N) - 1.0
