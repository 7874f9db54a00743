"""Digital nets over Z_b: construction, dual sets, and character sums.

A net with b^m points in s dimensions is generated by matrices
C_1, ..., C_s in Z_b^(n x m): point index h with digit vector l gets
coordinate digits y_j = C_j l mod b and value x_j = sum_i y_i b^-i.
Nets can also be built from a modulus polynomial p (deg p = n) and
generating polynomials q_j (deg q_j < n) via x_j(h) = v_n(h(x) q_j / p),
either through explicit matrices (Laurent coefficients of q_j / p) or by
direct per-point polynomial arithmetic.

The dual set holds index vectors k whose first n digits pair to zero
against every point; sums of wal_k over the net are exactly b^m on the
dual and exactly 0 off it.

Enumeration and materialization sizes are guarded by a digit budget, by
default 2^22, overridable through the TENTQMC_CAP environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

import numpy as np

from .base_arith import (
    BAdicReal,
    PolyZb,
    int_digits_lsb,
    laurent_expand,
    poly_from_string,
    poly_is_irreducible,
    poly_mod,
    poly_mul,
    poly_to_string,
    vn_badic,
)

DEFAULT_CAP = 2**22


class CapacityError(RuntimeError):
    """Requested enumeration or materialization exceeds the configured cap."""


def digit_cap() -> int:
    raw = os.environ.get("TENTQMC_CAP")
    if raw is None:
        return DEFAULT_CAP
    cap = int(raw)
    if cap < 1:
        raise ValueError("TENTQMC_CAP must be >= 1")
    return cap


def _check_budget(amount: int, cap: int | None, what: str) -> None:
    limit = digit_cap() if cap is None else cap
    if amount > limit:
        raise CapacityError(
            f"{what} needs {amount} > cap {limit}; raise TENTQMC_CAP to allow it"
        )


@dataclass(frozen=True, eq=False)
class GeneratingMatrices:
    """Stack of s generating matrices, shape (s, n, m), entries in [0, b)."""

    base: int
    mats: np.ndarray

    def __post_init__(self):
        mats = np.asarray(self.mats, dtype=np.uint8)
        if mats.ndim != 3:
            raise ValueError("mats must have shape (s, n, m)")
        if mats.shape[0] < 1 or mats.shape[1] < 1 or mats.shape[2] < 1:
            raise ValueError("matrix dimensions must be >= 1")
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if mats.max(initial=0) >= self.base:
            raise ValueError(f"matrix entries must lie in [0, {self.base})")
        object.__setattr__(self, "mats", mats)

    @property
    def s(self) -> int:
        return self.mats.shape[0]

    @property
    def n(self) -> int:
        return self.mats.shape[1]

    @property
    def m(self) -> int:
        return self.mats.shape[2]


@dataclass(frozen=True, eq=False)
class DigitalNet:
    """Materialized point set: digit array of shape (N, s, n)."""

    base: int
    digits: np.ndarray
    gen: GeneratingMatrices | None = None

    def __post_init__(self):
        d = np.asarray(self.digits, dtype=np.uint8)
        if d.ndim != 3:
            raise ValueError("digits must have shape (N, s, n)")
        if d.max(initial=0) >= self.base:
            raise ValueError(f"digits must lie in [0, {self.base})")
        object.__setattr__(self, "digits", d)

    @property
    def size(self) -> int:
        return self.digits.shape[0]

    @property
    def s(self) -> int:
        return self.digits.shape[1]

    @property
    def n(self) -> int:
        return self.digits.shape[2]

    @property
    def points(self) -> np.ndarray:
        """Float coordinates, shape (N, s)."""
        w = self.base ** -np.arange(1, self.n + 1, dtype=np.float64)
        return self.digits.astype(np.float64) @ w

    def point_badic(self, i: int) -> tuple[BAdicReal, ...]:
        """Point i as exact digit vectors with tail 0."""
        return tuple(
            BAdicReal(self.base, tuple(int(d) for d in self.digits[i, j]), 0)
            for j in range(self.s)
        )


@dataclass(frozen=True)
class PolyLatticeSpec:
    """Modulus p of degree n with s generating polynomials of degree < n."""

    base: int
    m: int
    n: int
    p: PolyZb
    qs: tuple[PolyZb, ...]
    p_irreducible: bool = field(init=False)

    def __post_init__(self):
        if self.p.base != self.base or any(q.base != self.base for q in self.qs):
            raise ValueError("p and all q_j must share the spec base")
        if not (1 <= self.m <= self.n):
            raise ValueError("need 1 <= m <= n")
        if self.p.degree() != self.n:
            raise ValueError(f"deg p = {self.p.degree()}, expected n = {self.n}")
        if not self.qs:
            raise ValueError("need at least one generating polynomial")
        if any(q.degree() >= self.n for q in self.qs):
            raise ValueError("each q_j must satisfy deg q_j < n")
        object.__setattr__(self, "p_irreducible", _irreducible_cached(self.p))

    @property
    def s(self) -> int:
        return len(self.qs)


@lru_cache(maxsize=4096)
def _irreducible_cached(p: PolyZb) -> bool:
    return poly_is_irreducible(p)


def matrices_from_poly(spec: PolyLatticeSpec) -> GeneratingMatrices:
    """C_j[l, r] = t_(l+r-1), the Laurent coefficients of q_j / p."""
    n, m = spec.n, spec.m
    mats = np.zeros((spec.s, n, m), dtype=np.uint8)
    for j, q in enumerate(spec.qs):
        t = laurent_expand(q, spec.p, n + m - 1).coeffs
        for l in range(n):
            for r in range(m):
                mats[j, l, r] = t[l + r]
    return GeneratingMatrices(spec.base, mats)


def net_from_matrices(gen: GeneratingMatrices, cap: int | None = None) -> DigitalNet:
    """Materialize all b^m points of the net generated by C_1..C_s."""
    b, n, m, s = gen.base, gen.n, gen.m, gen.s
    size = b**m
    _check_budget(size * s * n, cap, "net materialization")
    hvecs = np.empty((size, m), dtype=np.int64)
    for r in range(m):
        hvecs[:, r] = (np.arange(size) // b**r) % b
    # digits[h, j, l] = sum_r C_j[l, r] h_r mod b
    digits = np.tensordot(hvecs, gen.mats.astype(np.int64), axes=([1], [2])) % b
    return DigitalNet(b, digits.astype(np.uint8), gen)


def net_from_poly(spec: PolyLatticeSpec, cap: int | None = None) -> DigitalNet:
    """Net of spec via its generating matrices."""
    return net_from_matrices(matrices_from_poly(spec), cap)


def net_from_poly_direct(spec: PolyLatticeSpec, cap: int | None = None) -> DigitalNet:
    """Net of spec by per-point polynomial arithmetic, x_j = v_n(h q_j / p).

    The polynomial part of h q_j / p carries no negative powers, so only
    (h q_j mod p) / p contributes to v_n.
    """
    b, n, m = spec.base, spec.n, spec.m
    size = b**m
    _check_budget(size * spec.s * n, cap, "net materialization")
    digits = np.zeros((size, spec.s, n), dtype=np.uint8)
    for h in range(size):
        hpoly = PolyZb.from_integer(h, b)
        for j, q in enumerate(spec.qs):
            rem = poly_mod(poly_mul(hpoly, q), spec.p)
            digits[h, j, :] = laurent_expand(rem, spec.p, n).coeffs
    return DigitalNet(b, digits)


def _trunc_digits(k: int, b: int, n: int) -> tuple[int, ...]:
    """First n base-b digits of k, least significant first."""
    return tuple((k // b**i) % b for i in range(n))


def _pairing_exponents(net: DigitalNet, kvec: tuple[int, ...]) -> np.ndarray:
    """Per-point exponent sum_j digits[:, j, :] . tr_n(k_j) mod b, shape (N,)."""
    if len(kvec) != net.s:
        raise ValueError("kvec length must equal the net dimension")
    b, n = net.base, net.n
    e = np.zeros(net.size, dtype=np.int64)
    for j, k in enumerate(kvec):
        if k < 0:
            raise ValueError("indices must be >= 0")
        kd = np.array(_trunc_digits(k, b, n), dtype=np.int64)
        e += net.digits[:, j, :].astype(np.int64) @ kd
    return e % b


def is_dual_member_direct(net: DigitalNet, kvec: tuple[int, ...]) -> bool:
    """True when the digit pairing of kvec against every point is 0 mod b."""
    return bool(np.all(_pairing_exponents(net, kvec) == 0))


def is_dual_member_matrix(gen: GeneratingMatrices, kvec: tuple[int, ...]) -> bool:
    """True when sum_j C_j^T tr_n(k_j) = 0 in Z_b^m."""
    if len(kvec) != gen.s:
        raise ValueError("kvec length must equal the net dimension")
    b, n = gen.base, gen.n
    acc = np.zeros(gen.m, dtype=np.int64)
    for j, k in enumerate(kvec):
        if k < 0:
            raise ValueError("indices must be >= 0")
        kd = np.array(_trunc_digits(k, b, n), dtype=np.int64)
        acc += gen.mats[j].astype(np.int64).T @ kd
    return bool(np.all(acc % b == 0))


def is_dual_member_poly(spec: PolyLatticeSpec, kvec: tuple[int, ...]) -> bool:
    """True when sum_j tr_n(k_j)(x) q_j(x) mod p has degree < n - m."""
    if len(kvec) != spec.s:
        raise ValueError("kvec length must equal the spec dimension")
    acc = PolyZb.zero(spec.base)
    for k, q in zip(kvec, spec.qs):
        if k < 0:
            raise ValueError("indices must be >= 0")
        trunc = PolyZb(spec.base, _trunc_digits(k, spec.base, spec.n))
        acc = acc + poly_mul(trunc, q)
    return poly_mod(acc, spec.p).degree() < spec.n - spec.m


def _index_digits(gen: GeneratingMatrices, indices: np.ndarray) -> np.ndarray:
    """First n base-b digits of each index, least significant first: (L, n)."""
    b, n = gen.base, gen.n
    L = indices.shape[0]
    kd = np.empty((L, n), dtype=np.int64)
    for i in range(n):
        kd[:, i] = (indices // b**i) % b
    return kd


def enumerate_dual(
    gen: GeneratingMatrices, T: int, cap: int | None = None
) -> list[tuple[int, ...]]:
    """All nonzero dual members with every k_j < b^T, lexicographic order."""
    b, n, m, s = gen.base, gen.n, gen.m, gen.s
    if T < 1:
        raise ValueError("T must be >= 1")
    per = b**T
    _check_budget(per**s, cap, "dual enumeration")
    kd = _index_digits(gen, np.arange(per))
    r = min(T, n)
    tables = [
        kd[:, :r] @ gen.mats[j, :r, :].astype(np.int64) % b for j in range(s)
    ]
    acc = np.zeros((1, m), dtype=np.int64)
    for j in range(s):  # coordinate 1 outermost keeps lexicographic order
        acc = (acc[:, None, :] + tables[j][None, :, :]).reshape(-1, m) % b
    flat = np.flatnonzero(np.all(acc == 0, axis=1))
    out = []
    for idx in flat:
        kvec = []
        rest = int(idx)
        for j in range(s - 1, -1, -1):
            rest, kj = divmod(rest, per)
            kvec.append(kj)
        kvec.reverse()
        if any(kvec):
            out.append(tuple(kvec))
    return out


def walsh_character_sum(net: DigitalNet, kvec: tuple[int, ...]) -> complex:
    """Exact sum of wal_k over the net: b^m on the dual, 0 otherwise.

    Exponents are tallied as integers; the zero/nonzero decision never
    touches floating point.
    """
    b = net.base
    counts = np.bincount(_pairing_exponents(net, kvec), minlength=b)
    if counts[0] == net.size:
        return complex(net.size)
    # image of a digit-linear map is the subgroup gZ_b; fibers have equal size
    g = 0
    for r in range(b):
        if counts[r]:
            g = gcd(g, r)
    g = gcd(g, b)
    expected = net.size * g // b
    for r in range(b):
        want = expected if r % g == 0 else 0
        if counts[r] != want:
            raise RuntimeError("point set is not closed under digitwise addition")
    return 0j


def save_net_file(gen: GeneratingMatrices, path: str) -> None:
    """Write 'b m n s' then s blocks of n rows by m digit columns."""
    lines = [f"{gen.base} {gen.m} {gen.n} {gen.s}"]
    for j in range(gen.s):
        lines.append("")
        for l in range(gen.n):
            lines.append(" ".join(str(int(v)) for v in gen.mats[j, l]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_net_file(path: str) -> GeneratingMatrices:
    with open(path) as fh:
        rows = [ln.split() for ln in fh if ln.strip()]
    if not rows or len(rows[0]) != 4:
        raise ValueError(f"{path}: expected header 'b m n s'")
    b, m, n, s = (int(v) for v in rows[0])
    body = rows[1:]
    if len(body) != s * n:
        raise ValueError(f"{path}: expected {s * n} matrix rows, got {len(body)}")
    mats = np.zeros((s, n, m), dtype=np.uint8)
    for j in range(s):
        for l in range(n):
            row = body[j * n + l]
            if len(row) != m:
                raise ValueError(f"{path}: row of width {len(row)}, expected {m}")
            mats[j, l] = [int(v) for v in row]
    return GeneratingMatrices(b, mats)


def save_spec_file(spec: PolyLatticeSpec, path: str) -> None:
    lines = [
        f"b={spec.base}",
        f"m={spec.m}",
        f"n={spec.n}",
        f"p={poly_to_string(spec.p)}",
    ]
    lines += [f"q{j + 1}={poly_to_string(q)}" for j, q in enumerate(spec.qs)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_spec_file(path: str) -> PolyLatticeSpec:
    fields: dict[str, str] = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            if "=" not in ln:
                raise ValueError(f"{path}: malformed line {ln!r}")
            key, val = ln.split("=", 1)
            fields[key.strip()] = val.strip()
    try:
        b = int(fields["b"])
        m = int(fields["m"])
        n = int(fields["n"])
        p = poly_from_string(fields["p"], b)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from exc
    qs = []
    j = 1
    while f"q{j}" in fields:
        qs.append(poly_from_string(fields[f"q{j}"], b))
        j += 1
    if not qs:
        raise ValueError(f"{path}: no generating polynomials q1=, q2=, ...")
    return PolyLatticeSpec(b, m, n, p, tuple(qs))
