"""Generating-vector search ranked by the truncated dominating sum.

Candidates q = (q_1, ..., q_s) are polynomials of degree < n over Z_b,
ordered lexicographically by ascending coefficient tuples.  Every mode
scores candidates with ``bound_B`` at a fixed truncation T and ranks by
value, ties resolved by the candidate order.

``verify_existence`` checks the averaging argument numerically on an
exhaustive scan: the best candidate is no worse than the power mean of
all candidates, which in turn should fall under the closed-form bound.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from .base_arith import PolyZb, int_digits_lsb, poly_is_irreducible
from .nets import CapacityError, PolyLatticeSpec, digit_cap
from .sobolev import (
    KernelParams,
    Weights,
    bound_B,
    existence_bound,
)
from .transforms import RngSpec


def first_irreducible(base: int, degree: int) -> PolyZb:
    """First irreducible monic polynomial of the degree, candidate-lex order."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    for low in itertools.product(range(base), repeat=degree):
        if degree > 1 and low[0] == 0:
            continue  # divisible by x
        p = PolyZb(base, low + (1,))
        if poly_is_irreducible(p):
            return p
    raise ValueError(f"no irreducible polynomial of degree {degree}?")


@dataclass(frozen=True)
class SearchConfig:
    base: int
    m: int
    n: int
    p: PolyZb
    s: int
    params: KernelParams
    weights: Weights
    T: int | None = None
    mode: str = "exhaustive"
    draws: int = 64
    rng: RngSpec = field(default_factory=lambda: RngSpec(0))
    cap: int | None = None

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random", "greedy"):
            raise ValueError(f"unknown search mode {self.mode!r}")
        if self.s != self.weights.s:
            raise ValueError("weights dimension must match s")
        if self.draws < 1:
            raise ValueError("draws must be >= 1")


@dataclass(frozen=True)
class RankedCandidate:
    rank: int
    qs: tuple[PolyZb, ...]
    bound: float
    truncation: int
    c_walsh: float
    seconds: float


def _score(cfg: SearchConfig, qs: tuple[PolyZb, ...]) -> tuple[float, int, float]:
    t0 = time.perf_counter()
    spec = PolyLatticeSpec(cfg.base, cfg.m, cfg.n, cfg.p, qs)
    fom = bound_B(spec, cfg.params, cfg.weights, cfg.T, cfg.cap)
    return fom.value, fom.truncation, time.perf_counter() - t0


def _rank(cfg: SearchConfig, candidates: list[tuple[PolyZb, ...]]
          ) -> list[RankedCandidate]:
    scored = []
    for qs in candidates:
        value, T, secs = _score(cfg, qs)
        key = tuple(q.coeffs for q in qs)
        scored.append((value, key, qs, T, secs))
    scored.sort(key=lambda row: (row[0], row[1]))
    c = cfg.params.require_c()
    return [
        RankedCandidate(i + 1, qs, value, T, c, secs)
        for i, (value, _, qs, T, secs) in enumerate(scored)
    ]


def _all_candidates_one_coord(cfg: SearchConfig) -> list[PolyZb]:
    return [
        PolyZb(cfg.base, coeffs)
        for coeffs in itertools.product(range(cfg.base), repeat=cfg.n)
    ]


def exhaustive_search(cfg: SearchConfig) -> list[RankedCandidate]:
    """Rank all b^(n s) candidate vectors."""
    total = cfg.base ** (cfg.n * cfg.s)
    limit = digit_cap() if cfg.cap is None else cfg.cap
    if total > limit:
        raise CapacityError(f"exhaustive search over {total} vectors exceeds cap")
    one = _all_candidates_one_coord(cfg)
    return _rank(cfg, [qs for qs in itertools.product(one, repeat=cfg.s)])


def random_search(cfg: SearchConfig) -> list[RankedCandidate]:
    """Rank cfg.draws vectors drawn uniformly with replacement."""
    gen = cfg.rng.generator()
    candidates = []
    for _ in range(cfg.draws):
        hs = gen.integers(0, cfg.base**cfg.n, size=cfg.s)
        candidates.append(
            tuple(PolyZb.from_integer(int(h), cfg.base) for h in hs)
        )
    return _rank(cfg, candidates)


def greedy_search(cfg: SearchConfig) -> list[RankedCandidate]:
    """Fix coordinates left to right, each minimizing the restricted bound."""
    one = _all_candidates_one_coord(cfg)
    chosen: list[PolyZb] = []
    for j in range(1, cfg.s + 1):
        sub = SearchConfig(
            cfg.base, cfg.m, cfg.n, cfg.p, j, cfg.params,
            cfg.weights.restrict(j), cfg.T, "exhaustive", cfg.draws, cfg.rng,
            cfg.cap,
        )
        best_val, best_key, best_q = None, None, None
        for q in one:
            value, _, _ = _score(sub, tuple(chosen) + (q,))
            key = (value, q.coeffs)
            if best_val is None or key < (best_val, best_key):
                best_val, best_key, best_q = value, q.coeffs, q
        chosen.append(best_q)
    return _rank(cfg, [tuple(chosen)])


def run_search(cfg: SearchConfig) -> list[RankedCandidate]:
    if cfg.mode == "exhaustive":
        return exhaustive_search(cfg)
    if cfg.mode == "random":
        return random_search(cfg)
    return greedy_search(cfg)


@dataclass(frozen=True)
class ExistenceReport:
    """Numerical check of the averaging argument on an exhaustive scan."""

    lam: float
    min_bound: float
    power_mean: float  # (mean of B^lam)^(1/lam) over all candidates
    closed_form: float
    min_le_power_mean: bool
    power_mean_le_closed_form: bool
    candidates: int


def verify_existence(cfg: SearchConfig, lam: float) -> ExistenceReport:
    """Exhaustively score all vectors and compare against the closed form.

    The first flag (min <= power mean) holds by arithmetic; the second is
    reported rather than asserted since it compares a truncated sum with an
    infinite-sum bound.
    """
    spec_probe = PolyLatticeSpec(
        cfg.base, cfg.m, cfg.n, cfg.p, (PolyZb.zero(cfg.base),) * cfg.s
    )
    if not spec_probe.p_irreducible:
        raise ValueError("existence verification requires an irreducible modulus")
    ranked = exhaustive_search(cfg)
    values = [r.bound for r in ranked]
    power_mean = (sum(v**lam for v in values) / len(values)) ** (1.0 / lam)
    closed = existence_bound(cfg.params, cfg.weights, cfg.m, cfg.n, lam)
    return ExistenceReport(
        lam=lam,
        min_bound=values[0],
        power_mean=power_mean,
        closed_form=closed,
        min_le_power_mean=values[0] <= power_mean * (1 + 1e-12),
        power_mean_le_closed_form=power_mean <= closed * (1 + 1e-12),
        candidates=len(values),
    )
