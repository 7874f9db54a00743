"""Weighted Sobolev kernel of smoothness alpha and worst-case error tools.

The one-dimensional kernel is

    k1(x, y) = sum_{tau=1..alpha} B_tau(x) B_tau(y) / (tau!)^2
               + (-1)^(alpha+1) B_2alpha(|x - y|) / (2alpha)!

with Bernoulli polynomials B_tau, and the s-dimensional kernel is the
subset-weighted sum K(x, y) = sum_u gamma_u prod_{j in u} k1(x_j, y_j),
gamma_emptyset for u empty.  Because every marginal integral of k1
vanishes, int K(x, .) = int int K = gamma_emptyset, and the squared
worst-case error of an equal-weight rule collapses to

    wce^2 = (1/N^2) sum_i sum_l K(x_i, x_l) - gamma_emptyset.

For a digitally shifted then folded net, the expectation of wce^2 over
the shift equals a sum of nonnegative kernel coefficients over the dual
indices whose digit sums vanish mod b; ``dual_net_wce`` evaluates that
sum truncated to k_j < b^T and ``bound_B`` the closed-form dominating
sum C^|u| b^(-2 mu_alpha), whose truncation-free value is controlled by
the A1/A2 constants of ``A_constants``.

Both sums are taken without listing dual vectors.  Dual membership is
linear in the index digits, so each coordinate becomes a histogram of
its weighted coefficients over the b^m residues in Z_b^m, and the
coordinates combine by convolution over Z_b^m (Dick & Pillichshammer,
Digital Nets and Sequences, on digital-shift-invariant kernels).  Every
term added is nonnegative.  The equivalent character sum over the
points, (1/N) sum_h prod_j (1 + c gamma_j G(x_hj)) - 1, is not used: it
subtracts numbers of size 1 to leave figures near 1e-12 and loses most
of their digits.

The coefficient magnitude constant C is not pinned analytically; it is
calibrated empirically by ``calibrate_c_walsh`` (scan of diagonal kernel
coefficients against b^(-2 mu_alpha(k)), plus ten percent headroom) and
always reported next to any figure that used it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from .base_arith import BAdicReal
from .nets import (
    CapacityError,
    DigitalNet,
    GeneratingMatrices,
    PolyLatticeSpec,
    _check_budget,
    matrices_from_poly,
    net_from_matrices,
)
from .transforms import RngSpec, folded_values, sample_shift, shift_digit_array
from .walsh import grid_exponents, mu_alpha

# ---------------------------------------------------------------------------
# Bernoulli polynomials, exact

@lru_cache(maxsize=None)
def _bernoulli_number(n: int) -> Fraction:
    # B_0 = 1 and sum_{j<=n} C(n+1, j) B_j = 0; B_1 = -1/2 in this convention
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(n):
        acc += math.comb(n + 1, j) * _bernoulli_number(j)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def bernoulli_coefficients(tau: int) -> tuple[Fraction, ...]:
    """Coefficients of B_tau(x), descending powers, exact rationals."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    return tuple(
        math.comb(tau, k) * _bernoulli_number(k) for k in range(tau + 1)
    )


def bernoulli_polynomial(tau: int, x):
    """B_tau at x; exact for Fraction input, float otherwise."""
    coeffs = bernoulli_coefficients(tau)
    if isinstance(x, Fraction) or isinstance(x, int):
        acc = Fraction(0)
        for c in coeffs:
            acc = acc * x + c
        return acc
    acc = 0.0
    for c in coeffs:
        acc = acc * x + float(c)
    return acc


def bernoulli_values(tau: int, x: np.ndarray) -> np.ndarray:
    """Vectorized B_tau by Horner with float coefficients."""
    return np.polyval([float(c) for c in bernoulli_coefficients(tau)], x)


# ---------------------------------------------------------------------------
# Weights over coordinate subsets

class Weights:
    """Subset weights gamma_u; subclasses fix the storage scheme."""

    s: int
    gamma_empty: float

    def gamma_of_mask(self, mask: int) -> float:
        raise NotImplementedError

    def gamma_of(self, subset: Iterable[int]) -> float:
        """Weight of a subset given as 1-based coordinate indices."""
        mask = 0
        for j in subset:
            if not (1 <= j <= self.s):
                raise ValueError(f"coordinate {j} out of range")
            mask |= 1 << (j - 1)
        return self.gamma_of_mask(mask)

    def restrict(self, s: int) -> "Weights":
        raise NotImplementedError


@dataclass(frozen=True)
class ProductWeights(Weights):
    """gamma_u = prod_{j in u} gamma_j."""

    gammas: tuple[float, ...]
    gamma_empty: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "gammas", tuple(float(g) for g in self.gammas))
        if not self.gammas:
            raise ValueError("need at least one coordinate weight")
        if any(g < 0 for g in self.gammas) or self.gamma_empty < 0:
            raise ValueError("weights must be >= 0")

    @property
    def s(self) -> int:
        return len(self.gammas)

    def gamma_of_mask(self, mask: int) -> float:
        if mask == 0:
            return self.gamma_empty
        out = 1.0
        for j, g in enumerate(self.gammas):
            if mask >> j & 1:
                out *= g
        return out

    def restrict(self, s: int) -> "ProductWeights":
        if not (1 <= s <= self.s):
            raise ValueError("restriction dimension out of range")
        return ProductWeights(self.gammas[:s], self.gamma_empty)


@dataclass(frozen=True)
class TableWeights(Weights):
    """Explicit gamma_u per subset mask; s <= 16 keeps tables enumerable."""

    s: int
    table: tuple[float, ...]  # indexed by mask, length 2^s
    gamma_empty: float = 1.0

    def __post_init__(self):
        if not (1 <= self.s <= 16):
            raise ValueError("table weights support 1 <= s <= 16")
        t = tuple(float(v) for v in self.table)
        if len(t) != 2**self.s:
            raise ValueError(f"table must have 2^{self.s} entries")
        if any(v < 0 for v in t) or self.gamma_empty < 0:
            raise ValueError("weights must be >= 0")
        object.__setattr__(self, "table", t)

    @classmethod
    def from_entries(cls, s: int, entries: dict[frozenset, float],
                     gamma_empty: float = 1.0) -> "TableWeights":
        """Build from {subset of 1-based coords: weight}; absent subsets get 0."""
        table = [0.0] * (2**s)
        for subset, val in entries.items():
            mask = 0
            for j in subset:
                if not (1 <= j <= s):
                    raise ValueError(f"coordinate {j} out of range")
                mask |= 1 << (j - 1)
            if mask == 0:
                raise ValueError("use gamma_empty for the empty subset")
            table[mask] = float(val)
        return cls(s, tuple(table), gamma_empty)

    def gamma_of_mask(self, mask: int) -> float:
        if mask == 0:
            return self.gamma_empty
        return self.table[mask]

    def restrict(self, s: int) -> "TableWeights":
        if not (1 <= s <= self.s):
            raise ValueError("restriction dimension out of range")
        table = [0.0] * (2**s)
        for mask in range(2**s):
            table[mask] = self.table[mask]
        return TableWeights(s, tuple(table), self.gamma_empty)


def weights_to_string(w: Weights) -> str:
    lines = [f"s={w.s}", f"gamma_empty={w.gamma_empty!r}"]
    if isinstance(w, ProductWeights):
        lines.append("product:" + ",".join(repr(g) for g in w.gammas))
    elif isinstance(w, TableWeights):
        for mask in range(1, 2**w.s):
            if w.table[mask]:
                subset = ",".join(str(j + 1) for j in range(w.s) if mask >> j & 1)
                lines.append(f"table:{subset}:{w.table[mask]!r}")
    else:
        raise TypeError(f"unknown weights type {type(w)!r}")
    return "\n".join(lines) + "\n"


def weights_from_string(text: str) -> Weights:
    s = None
    gamma_empty = 1.0
    product: tuple[float, ...] | None = None
    entries: dict[frozenset, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("s="):
            s = int(line[2:])
        elif line.startswith("gamma_empty="):
            gamma_empty = float(line.split("=", 1)[1])
        elif line.startswith("product:"):
            product = tuple(float(v) for v in line[len("product:"):].split(","))
        elif line.startswith("table:"):
            _, subset, val = line.split(":", 2)
            coords = frozenset(int(v) for v in subset.split(","))
            entries[coords] = float(val)
        else:
            raise ValueError(f"malformed weights line {line!r}")
    if s is None:
        raise ValueError("weights text must set s=")
    if product is not None and entries:
        raise ValueError("weights text mixes product: and table: lines")
    if product is not None:
        if len(product) != s:
            raise ValueError(f"product line has {len(product)} weights, s={s}")
        return ProductWeights(product, gamma_empty)
    if entries:
        return TableWeights.from_entries(s, entries, gamma_empty)
    raise ValueError("weights text needs a product: or table: line")


def load_weights_file(path: str) -> Weights:
    with open(path) as fh:
        return weights_from_string(fh.read())


def save_weights_file(w: Weights, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(weights_to_string(w))


# ---------------------------------------------------------------------------
# Kernel evaluation

@dataclass(frozen=True)
class KernelParams:
    """Smoothness alpha >= 1 (>= 2 for the decay bounds), base, constant C."""

    alpha: int
    base: int
    c_walsh: float | None = None

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if self.c_walsh is not None and self.c_walsh <= 0:
            raise ValueError("c_walsh must be positive when given")

    def require_c(self) -> float:
        if self.c_walsh is None:
            raise ValueError(
                "this figure needs c_walsh; calibrate it or set it explicitly"
            )
        return self.c_walsh


def _cross_sign(alpha: int) -> float:
    return 1.0 if alpha % 2 == 1 else -1.0


def _poly2a(alpha: int) -> np.ndarray:
    f = float(math.factorial(2 * alpha))
    return np.array(
        [float(c) / f for c in bernoulli_coefficients(2 * alpha)], dtype=np.float64
    )


def kernel_1d(params: KernelParams, x: float, y: float) -> float:
    """One-dimensional kernel value."""
    a = params.alpha
    acc = 0.0
    for tau in range(1, a + 1):
        ft = math.factorial(tau)
        acc += bernoulli_polynomial(tau, float(x)) * bernoulli_polynomial(
            tau, float(y)
        ) / (ft * ft)
    acc += _cross_sign(a) * bernoulli_polynomial(2 * a, abs(float(x) - float(y))) / (
        math.factorial(2 * a)
    )
    return acc


def kernel_1d_matrix(params: KernelParams, xs: np.ndarray, ys: np.ndarray
                     ) -> np.ndarray:
    """k1 on the grid xs x ys, vectorized."""
    a = params.alpha
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    acc = np.zeros((xs.size, ys.size))
    for tau in range(1, a + 1):
        ft = math.factorial(tau)
        acc += np.outer(bernoulli_values(tau, xs), bernoulli_values(tau, ys)) / (
            ft * ft
        )
    d = np.abs(xs[:, None] - ys[None, :])
    acc += _cross_sign(a) * np.polyval(_poly2a(a), d)
    return acc


def _coord_floats(x) -> tuple[float, ...]:
    return tuple(c.to_float() if isinstance(c, BAdicReal) else float(c) for c in x)


def kernel(params: KernelParams, weights: Weights, x: Sequence, y: Sequence
           ) -> float:
    """Subset-weighted kernel K(x, y) in s dimensions."""
    xv, yv = _coord_floats(x), _coord_floats(y)
    if len(xv) != weights.s or len(yv) != weights.s:
        raise ValueError("point dimension must match the weights")
    k1 = [kernel_1d(params, xv[j], yv[j]) for j in range(weights.s)]
    if isinstance(weights, ProductWeights):
        out = 1.0
        for g, v in zip(weights.gammas, k1):
            out *= 1.0 + g * v
        # the empty-subset term of the product is 1; re-anchor it at gamma_empty
        return out - 1.0 + weights.gamma_empty
    acc = weights.gamma_empty
    for mask in range(1, 2**weights.s):
        g = weights.gamma_of_mask(mask)
        if g == 0.0:
            continue
        term = g
        for j in range(weights.s):
            if mask >> j & 1:
                term *= k1[j]
        acc += term
    return acc


def points_as_array(points) -> np.ndarray:
    """(N, s) float array from an array, a DigitalNet, or digit-vector tuples."""
    if isinstance(points, DigitalNet):
        return points.points
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=np.float64)
    else:
        points = list(points)
        if not points:
            return np.empty((0, 0))
        arr = np.array([_coord_floats(p) for p in points], dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError("points must form an (N, s) array")
    return arr


def wce_squared(points, params: KernelParams, weights: Weights) -> float:
    """(1/N^2) sum_il K(x_i, x_l) - gamma_empty for an equal-weight rule.

    The two integral terms of the full error expression both equal
    gamma_empty because every marginal integral of k1 vanishes.
    """
    x = points_as_array(points)
    if x.shape[0] == 0:
        raise ValueError("empty point set has no quadrature rule")
    if x.shape[1] != weights.s:
        raise ValueError("point dimension must match the weights")
    N, s = x.shape
    a = params.alpha
    if isinstance(weights, ProductWeights):
        bern = np.empty((N, s, a))
        for tau in range(1, a + 1):
            bern[:, :, tau - 1] = bernoulli_values(tau, x) / math.factorial(tau)
        gram_mean = _kernels.gram_mean_product(
            x, bern, _poly2a(a), np.array(weights.gammas), _cross_sign(a),
            weights.gamma_empty,
        )
        return float(gram_mean - weights.gamma_empty)
    # gamma_empty cancels: summing the nonempty-subset terms is the difference
    k1 = [kernel_1d_matrix(params, x[:, j], x[:, j]) for j in range(s)]
    acc = np.zeros((N, N))
    for mask in range(1, 2**s):
        g = weights.gamma_of_mask(mask)
        if g == 0.0:
            continue
        term = np.full((N, N), g)
        for j in range(s):
            if mask >> j & 1:
                term *= k1[j]
        acc += term
    return float(acc.mean())


def mean_wce_estimate(net: DigitalNet, params: KernelParams, weights: Weights,
                      replicates: int, rng: RngSpec,
                      p_sigma: int | None = None) -> tuple[float, float]:
    """Monte Carlo mean of wce^2 over random shifts of the folded net.

    Returns (mean, standard error).  Shift digits reach p_sigma positions,
    by default n + alpha + 2; past that depth the change in the estimate is
    far below the statistical error.
    """
    if replicates < 2:
        raise ValueError("need at least 2 replicates for a standard error")
    if p_sigma is None:
        p_sigma = net.n + params.alpha + 2
    gen = rng.generator()
    vals = np.empty(replicates)
    for r in range(replicates):
        shift = sample_shift(gen, net.s, net.base, p_sigma)
        shifted = shift_digit_array(net.digits, shift, net.base)
        pts = folded_values(shifted, net.base)
        vals[r] = wce_squared(pts, params, weights)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(replicates))
    return mean, stderr


# ---------------------------------------------------------------------------
# Kernel coefficients by quadrature

@lru_cache(maxsize=None)
def _midpoint_tables(b: int, res_digits: int):
    M = b**res_digits
    xs = (np.arange(M) + 0.5) / M
    return M, xs


@lru_cache(maxsize=200_000)
def kernel_walsh_coefficient_1d(j: int, alpha: int, b: int,
                                res_digits: int) -> float:
    """Diagonal kernel coefficient against the index-j character, quadrature.

    Composite midpoint rule with b^res_digits cells per axis; the character
    is evaluated exactly at the midpoints since their leading digits agree
    with the cell index.  Cached per index.
    """
    if j < 0:
        raise ValueError("index must be >= 0")
    M, xs = _midpoint_tables(b, res_digits)
    if j >= M:
        raise ValueError("index needs more digits than the resolution")
    e = grid_exponents(j, b, res_digits)
    w = np.exp(2j * np.pi * e.astype(np.float64) / b)
    acc = 0.0
    for tau in range(1, alpha + 1):
        u = np.mean(bernoulli_values(tau, xs) * np.conj(w))
        acc += (abs(u) / math.factorial(tau)) ** 2
    # cross term sum_{i,i'} B_2a(|i-i'|/M) conj(w_i) w_i' via autocorrelation
    t = bernoulli_values(2 * alpha, np.arange(M) / M)
    f = np.fft.fft(w, 2 * M)
    corr = np.fft.ifft(f * np.conj(f))[:M].real  # corr[d] = sum_i w_{i+d} conj(w_i)
    cross = (t[0] * corr[0] + 2.0 * np.dot(t[1:], corr[1:])) / (M * M)
    acc += _cross_sign(alpha) * cross / math.factorial(2 * alpha)
    return float(acc)


# Headroom on the calibrated constant: the scan stops at b^scan_digits and
# the midpoint rule carries a small relative error, so the largest ratio
# actually attained can sit a little above the scanned maximum.
_CALIBRATION_MARGIN = 1.1


def calibrate_c_walsh(alpha: int, b: int, scan_digits: int = 8) -> float:
    """Empirical coefficient-decay constant.

    Scans every index k < b^scan_digits, with quadrature at resolution
    scan_digits + alpha + 1, takes the smallest C with
    |coeff(k, k)| <= C b^(-2 mu_alpha(k)), and adds ten percent headroom.
    """
    if alpha < 1 or scan_digits < 1:
        raise ValueError("need alpha >= 1 and scan_digits >= 1")
    res_digits = scan_digits + alpha + 1
    worst = 0.0
    for k in range(1, b**scan_digits):
        coeff = kernel_walsh_coefficient_1d(k, alpha, b, res_digits)
        worst = max(worst, abs(coeff) * float(b) ** (2 * mu_alpha(k, alpha, b)))
    return _CALIBRATION_MARGIN * worst


# ---------------------------------------------------------------------------
# Truncated dual sums

@lru_cache(maxsize=32)
def _admissible_digits(b: int, T: int) -> np.ndarray:
    """Digits of the admissible indices k < b^T, least significant first.

    An index is admissible when it is 0 or its digit sum is 0 mod b.  The
    top T - 1 digits are free and fix the last one, so row j holds the one
    admissible k with floor(k / b) = j, for j < b^(T-1); row 0 is k = 0.
    Shape (b^(T-1), T), uint8, read-only because calls share it.
    """
    L = b ** (T - 1)
    digits = np.empty((L, T), dtype=np.uint8)
    q = np.arange(L, dtype=np.int64)
    for i in range(1, T):
        q, r = np.divmod(q, b)
        digits[:, i] = r
    digits[:, 0] = -digits[:, 1:].sum(axis=1, dtype=np.int64) % b
    digits.flags.writeable = False
    return digits


@lru_cache(maxsize=32)
def _decay_coefficients(b: int, T: int, alpha: int) -> np.ndarray:
    """b^(-2 mu_alpha(j)) for j < b^(T-1), read-only.

    The digits of j are columns 1..T-1 of ``_admissible_digits``.
    """
    digits = _admissible_digits(b, T)
    mu = np.zeros(digits.shape[0], dtype=np.int64)
    taken = np.zeros(digits.shape[0], dtype=np.int64)
    for pos in range(T - 1, 0, -1):
        use = (digits[:, pos] != 0) & (taken < alpha)
        mu += use * pos
        taken += use
    # the same float power per exponent as the scalar formula
    table = np.array([float(b) ** (-2 * v) for v in range(int(mu.max()) + 1)])
    coeff = table[mu]
    coeff.flags.writeable = False
    return coeff


def _as_matrices(net) -> GeneratingMatrices:
    if isinstance(net, GeneratingMatrices):
        return net
    if isinstance(net, PolyLatticeSpec):
        return matrices_from_poly(net)
    if isinstance(net, DigitalNet) and net.gen is not None:
        return net.gen
    raise TypeError("need generating matrices (or a spec that yields them)")


def _code_digit(codes: np.ndarray, b: int, i: int) -> np.ndarray:
    return codes // b**i % b


@lru_cache(maxsize=8)
def _negated_codes(b: int, m: int) -> np.ndarray:
    """Code of -r in Z_b^m for every code r < b^m, read-only."""
    codes = np.arange(b**m, dtype=np.int64)
    neg = np.zeros_like(codes)
    for i in range(m):
        neg += -_code_digit(codes, b, i) % b * b**i
    neg.flags.writeable = False
    return neg


def _residue_codes(digits: np.ndarray, mat: np.ndarray, b: int) -> np.ndarray:
    """Code sum_i r_i b^i of r = tr_t(k)^T C mod b per digit row of k.

    t = digits.shape[1], and mat holds the first t rows of C.
    """
    res = np.zeros((digits.shape[0], mat.shape[1]), dtype=np.int64)
    for i in range(digits.shape[1]):
        res = (res + digits[:, i, None].astype(np.int64) * mat[i]) % b
    return res @ b ** np.arange(mat.shape[1], dtype=np.int64)


# Entries of the (rows, N) difference-code block of one convolution step
_CONV_BLOCK = 2**16


def _convolve(D: np.ndarray, F: np.ndarray, b: int, m: int) -> np.ndarray:
    """(D * F)(r) = sum_r' D(r') F(r - r') over Z_b^m, in row blocks."""
    N = D.size
    codes = np.arange(N, dtype=np.int64)
    out = np.zeros(N)
    step = max(1, _CONV_BLOCK // N)
    for lo in range(0, N, step):
        rows = codes[lo:lo + step, None]
        diff = np.zeros((rows.shape[0], N), dtype=np.int64)
        for i in range(m):
            delta = _code_digit(codes, b, i) - _code_digit(rows, b, i)
            diff += delta % b * b**i
        out += D[lo:lo + step] @ F[diff]
    return out


def _dual_histogram_sum(gen: GeneratingMatrices, digits: np.ndarray,
                        coeff: np.ndarray, weights: Weights, c_factor: float,
                        cap: int | None) -> float:
    """Sum of gamma_u c^|u| prod_j coeff[k_j] over the truncated dual.

    ``digits`` and ``coeff`` are indexed by admissible row; row 0 (k = 0)
    is left out of every histogram.
    """
    b, n, m, s = gen.base, gen.n, gen.m, gen.s
    if weights.s != s:
        raise ValueError("weights dimension must match the net")
    N = b**m
    table = not isinstance(weights, ProductWeights)
    work = max(N * N if s >= 3 else N, 2**s * N if table else 0)
    _check_budget(work, cap, f"combining {s} residue histograms over Z_{b}^{m}")
    kd = digits[1:, : min(n, digits.shape[1])]
    hist = []
    for j in range(s):
        scale = c_factor if table else c_factor * weights.gammas[j]
        code = _residue_codes(kd, gen.mats[j, : kd.shape[1]], b)
        hist.append(np.bincount(code, weights=scale * coeff[1:], minlength=N))
    neg = _negated_codes(b, m)
    if not table:
        # D(r): nonzero k_1..k_j whose residues add up to r
        D = hist[0]
        for F in hist[1:-1]:
            D = D + F + _convolve(D, F, b, m)
        if s == 1:
            return float(D[0])
        F = hist[-1]
        return float(D[0] + F[0] + D @ F[neg])
    # one D row per support mask u, holding the k with support exactly u
    D = np.zeros((2**s, N))
    at_zero = np.zeros(2**s)
    for j, F in enumerate(hist):
        bit = 1 << j
        for u in range(1, bit):
            at_zero[u | bit] = D[u] @ F[neg]
            if j < s - 1 and D[u].any():
                D[u | bit] = _convolve(D[u], F, b, m)
        D[bit] = F
        at_zero[bit] = F[0]
    gammas = np.array([0.0] + [weights.gamma_of_mask(u) for u in range(1, 2**s)])
    return float(gammas @ at_zero)


def _truncated_dual_sum(net, params: KernelParams, weights: Weights,
                        T: int | None, cap: int | None, coeffs,
                        c_factor: float) -> tuple[float, int]:
    """Resolve the net and the truncation T, then sum over the truncated dual.

    The dual condition sum_j C_j^T tr_t(k_j) = 0 in Z_b^m (t = min(n, T))
    is linear, so each coordinate reduces to a histogram over the N = b^m
    residues: F_j(r) sums c gamma_j coeff(k) over the admissible k != 0
    whose residue is r.  The coordinates combine by the recurrence
    D <- D + F_j + D * F_j, * the convolution over Z_b^m, and the sum is
    D(0): O(N) per coordinate for s <= 2, O(N^2) for each further one.
    Table weights keep one D per support mask.  Every term added is
    nonnegative, so the tiny sums keep their relative accuracy; the
    character-sum form (1/N) sum_h prod_j (1 + c gamma_j G(x_hj)) - 1
    subtracts numbers of size 1 and would lose most of their digits.

    coeffs(T) returns the one-dimensional coefficient at index
    j = floor(k / b) for every j < b^(T-1).  Returns (sum, T).
    """
    gen = _as_matrices(net)
    b = gen.base
    if params.base != b:
        raise ValueError("params base must match the net")
    if T is None:
        T = gen.n + params.alpha + 2
    if T < 1:
        raise ValueError("truncation T must be >= 1")
    _check_budget(b**T, cap, f"admissible index scan of {b}^{T}")
    digits = _admissible_digits(b, T)
    value = _dual_histogram_sum(gen, digits, coeffs(T), weights, c_factor, cap)
    return value, T


def dual_net_wce(net, params: KernelParams, weights: Weights,
                 T: int | None = None, cap: int | None = None) -> float:
    """Truncated mean square worst-case error of the shifted-folded net.

    Sums the diagonal kernel coefficients at index floor(k_j / b) over all
    nonzero dual vectors whose components are 0 or have digit sum 0 mod b,
    each component below b^T.  Coefficients come from quadrature at digit
    resolution T + alpha.
    """
    a, b = params.alpha, params.base

    def coeffs(T: int) -> np.ndarray:
        return np.array([0.0] + [
            kernel_walsh_coefficient_1d(j, a, b, T + a)
            for j in range(1, b ** (T - 1))
        ])

    return _truncated_dual_sum(net, params, weights, T, cap, coeffs, 1.0)[0]


@dataclass(frozen=True)
class FigureOfMerit:
    """A truncated dominating sum with its budget and a tail estimate."""

    value: float
    truncation: int
    tail_note: str

    def __float__(self) -> float:
        return self.value


def bound_B(net, params: KernelParams, weights: Weights,
            T: int | None = None, cap: int | None = None) -> FigureOfMerit:
    """Dominating sum sum_u gamma_u C^|u| sum b^(-2 mu_alpha(floor(k/b))).

    Runs over the same truncated dual vectors as ``dual_net_wce`` with the
    kernel coefficients replaced by their decay bound; requires c_walsh.
    """
    c = params.require_c()
    a, b = params.alpha, params.base

    def coeffs(T: int) -> np.ndarray:
        return _decay_coefficients(b, T, a)

    value, T = _truncated_dual_sum(net, params, weights, T, cap, coeffs, c)
    if params.alpha >= 2:
        _, a2 = A_constants(params.alpha, b, 1.0)
        tail_1d = a2 * float(b) ** (-4.0 * T)
        note = (
            f"omitted multiples of b^{T} contribute <= {tail_1d:.3e} "
            "per coordinate (lambda=1)"
        )
    else:
        note = "tail estimate needs alpha >= 2"
    return FigureOfMerit(value, T, note)


# ---------------------------------------------------------------------------
# Closed-form constants and truncated digit sums

def _check_lambda(alpha: int, lam: float) -> None:
    if alpha < 2:
        raise ValueError("decay constants need alpha >= 2")
    if not (1.0 / (2 * alpha) < lam <= 1.0):
        raise ValueError(f"lambda must lie in (1/(2 alpha), 1], got {lam}")


def A_constants(alpha: int, b: int, lam: float) -> tuple[float, float]:
    """Closed forms dominating the full and the b^n-multiples index sums."""
    _check_lambda(alpha, lam)
    if b < 2:
        raise ValueError("base must be >= 2")
    B = float(b)

    def prod1(v: int) -> float:
        out = 1.0
        for i in range(1, v + 1):
            out *= (B - 1) / (B ** (2 * lam * i) - 1)
        return out

    def prod2(v: int) -> float:
        out = 1.0
        for i in range(1, v + 1):
            out *= B ** (2 * lam) * (B - 1) / (B ** (2 * lam * i) - 1)
        return out

    a1 = (B / (B - 1)) * (
        sum(prod1(v) for v in range(1, alpha))
        + (B ** (2 * lam * alpha) - 1) / (B ** (2 * lam * alpha) - B) * prod1(alpha)
    )
    a2 = (1 / (B - 1)) * sum(prod2(v) for v in range(2, alpha)) + (
        B ** (2 * lam) / (B ** (2 * lam * alpha) - B)
    ) * prod2(alpha - 1)
    return a1, a2


def N_b_count(b: int, v: int) -> int:
    """Count of (Z_b \\ 0)^v digit tuples with zero digit sum mod b."""
    if b < 2 or v < 1:
        raise ValueError("need b >= 2 and v >= 1")
    acc = 0
    for i in range(2, v + 1):
        acc = (b - 1) ** (i - 1) - acc
    return acc


def _mask_weight_sum(b: int, alpha: int, lam: float, width: int,
                     shift: int) -> float:
    """sum over nonempty digit-position subsets of {1..width} of
    N_b(v) b^(-2 lam mu), mu = top-alpha of the shifted positions."""
    if width <= 0:
        return 0.0
    if width > 24:
        raise CapacityError("digit-position enumeration beyond 24 positions")
    masks = np.arange(1, 2**width, dtype=np.int64)
    v = np.zeros(masks.shape, dtype=np.int64)
    mu = np.zeros(masks.shape, dtype=np.int64)
    taken = np.zeros(masks.shape, dtype=np.int64)
    for i in range(width - 1, -1, -1):
        bit = (masks >> i) & 1
        v += bit
        pos = i + shift  # bit i is digit position i + 1, worth i + shift after /b
        use = bit * (taken < alpha) * (pos > 0)
        mu += use * pos
        taken += use
    nb = np.zeros(width + 1, dtype=np.float64)
    for cnt in range(1, width + 1):
        nb[cnt] = N_b_count(b, cnt)
    return float(np.sum(nb[v] * float(b) ** (-2.0 * lam * mu)))


def eb_weight_sum_truncated(b: int, alpha: int, lam: float, T: int) -> float:
    """sum of b^(-2 lam mu_alpha(floor(k/b))) over k in E_b with k < b^T.

    Indices are grouped by the set of nonzero digit positions: the shifted
    position multiset determines mu and N_b counts the digit choices, so the
    enumeration is over 2^T position subsets rather than b^T integers.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if alpha < 1 or lam <= 0:
        raise ValueError("need alpha >= 1 and lam > 0")
    return _mask_weight_sum(b, alpha, lam, T, 0)


def eb_weight_sum_multiples_truncated(b: int, alpha: int, lam: float, n: int,
                                      T: int) -> float:
    """Same sum restricted to multiples of b^n (n = 0 gives the full sum)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if T < 1:
        raise ValueError("T must be >= 1")
    return _mask_weight_sum(b, alpha, lam, T - n, n)


# ---------------------------------------------------------------------------
# Existence bounds and information complexity

def _existence_subset_sum(params: KernelParams, weights: Weights,
                          lam: float) -> float:
    c = params.require_c()
    a1, a2 = A_constants(params.alpha, params.base, lam)
    if isinstance(weights, ProductWeights):
        p1 = p2 = 1.0
        for g in weights.gammas:
            p1 *= 1.0 + g**lam * c**lam * a1
            p2 *= 1.0 + g**lam * c**lam * a2
        return (p1 - 1.0) + (p2 - 1.0)
    acc = 0.0
    for mask in range(1, 2**weights.s):
        g = weights.gamma_of_mask(mask)
        if g == 0.0:
            continue
        u = mask.bit_count()
        acc += g**lam * c ** (lam * u) * (a1**u + a2**u)
    return acc


def existence_bound(params: KernelParams, weights: Weights, m: int, n: int,
                    lam: float) -> float:
    """Averaging bound: some generating vector achieves a mean square error
    at most b^(-min(m/lam, 4n)) [subset sum]^(1/lam)."""
    _check_lambda(params.alpha, lam)
    if m < 1 or n < m:
        raise ValueError("need 1 <= m <= n")
    s = _existence_subset_sum(params, weights, lam)
    return float(params.base) ** (-min(m / lam, 4.0 * n)) * s ** (1.0 / lam)


def lambda_grid(alpha: int, size: int = 64) -> np.ndarray:
    """size points in (1/(2 alpha), 1], right endpoint included."""
    lo = 1.0 / (2 * alpha)
    return lo + (np.arange(1, size + 1) / size) * (1.0 - lo)


def existence_bound_opt(params: KernelParams, weights: Weights, m: int, n: int,
                        grid: int = 64) -> tuple[float, float]:
    """Minimum of ``existence_bound`` over a lambda grid: (bound, lambda)."""
    best, best_lam = math.inf, math.nan
    for lam in lambda_grid(params.alpha, grid):
        val = existence_bound(params, weights, m, n, float(lam))
        if val < best:
            best, best_lam = val, float(lam)
    return best, best_lam


def info_complexity_bound(eps: float, params: KernelParams, weights: Weights,
                          m_max: int = 60, grid: int = 64) -> int | None:
    """Smallest b^m whose optimized existence bound is <= eps^2 gamma_empty.

    Uses the regime n >= ceil(alpha m / 2), where the exponent is m / lam.
    None when no m <= m_max suffices.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    target = eps * eps * weights.gamma_empty
    for m in range(1, m_max + 1):
        n = (params.alpha * m + 1) // 2
        bound, _ = existence_bound_opt(params, weights, m, max(n, m), grid)
        if bound <= target:
            return params.base**m
    return None


__all__ = [
    "A_constants",
    "FigureOfMerit",
    "KernelParams",
    "N_b_count",
    "ProductWeights",
    "TableWeights",
    "Weights",
    "bernoulli_coefficients",
    "bernoulli_polynomial",
    "bernoulli_values",
    "bound_B",
    "calibrate_c_walsh",
    "dual_net_wce",
    "eb_weight_sum_multiples_truncated",
    "eb_weight_sum_truncated",
    "existence_bound",
    "existence_bound_opt",
    "info_complexity_bound",
    "kernel",
    "kernel_1d",
    "kernel_1d_matrix",
    "kernel_walsh_coefficient_1d",
    "lambda_grid",
    "load_weights_file",
    "mean_wce_estimate",
    "points_as_array",
    "save_weights_file",
    "wce_squared",
    "weights_from_string",
    "weights_to_string",
]
