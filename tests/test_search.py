"""Candidate ranking, search modes, and the averaging-argument check."""

import itertools

import numpy as np
import pytest

from tentqmc.base_arith import PolyZb, poly_from_string, poly_is_irreducible
from tentqmc.nets import CapacityError, PolyLatticeSpec
from tentqmc.search import (
    ExistenceReport,
    SearchConfig,
    exhaustive_search,
    first_irreducible,
    greedy_search,
    random_search,
    run_search,
    verify_existence,
)
from tentqmc.sobolev import (
    KernelParams,
    ProductWeights,
    bound_B,
    calibrate_c_walsh,
)
from tentqmc.transforms import RngSpec

C22 = calibrate_c_walsh(2, 2)


def make_cfg(m=2, n=2, s=1, mode="exhaustive", T=6, **kw):
    p = first_irreducible(2, n)
    params = KernelParams(2, 2, C22)
    return SearchConfig(2, m, n, p, s, params, ProductWeights((1.0,) * s),
                        T=T, mode=mode, **kw)


class TestFirstIrreducible:
    def test_known_values(self):
        assert first_irreducible(2, 2) == poly_from_string("1,1,1", 2)
        assert first_irreducible(2, 4) == poly_from_string("1,0,0,1,1", 2)
        assert first_irreducible(3, 1).degree() == 1

    # the check below scans every candidate, constant term 0 included, so
    # it also pins the skip of multiples of x
    @pytest.mark.parametrize("b,n", [(2, 3), (3, 2), (5, 2), (2, 5), (2, 7),
                                     (3, 3), (3, 4), (5, 3)])
    def test_result_is_monic_irreducible_and_first(self, b, n):
        p = first_irreducible(b, n)
        assert p.degree() == n and p.coeffs[-1] == 1
        assert poly_is_irreducible(p)
        # nothing earlier in candidate order qualifies
        for low in itertools.product(range(b), repeat=n):
            q = PolyZb(b, low + (1,))
            if q == p:
                break
            assert not poly_is_irreducible(q)

    @pytest.mark.parametrize("b", [2, 3, 5])
    def test_degree_one_is_x(self, b):
        assert first_irreducible(b, 1) == PolyZb(b, (0, 1))


class TestExhaustive:
    def test_ranks_all_candidates(self):
        cfg = make_cfg()
        ranked = exhaustive_search(cfg)
        assert len(ranked) == 2 ** (cfg.n * cfg.s)
        assert [r.rank for r in ranked] == list(range(1, len(ranked) + 1))
        bounds = [r.bound for r in ranked]
        assert bounds == sorted(bounds)

    def test_best_matches_direct_minimum(self):
        cfg = make_cfg(s=2)
        ranked = exhaustive_search(cfg)
        direct = []
        one = [PolyZb(2, c) for c in itertools.product(range(2), repeat=2)]
        for qs in itertools.product(one, repeat=2):
            spec = PolyLatticeSpec(2, 2, 2, cfg.p, qs)
            direct.append(
                (bound_B(spec, cfg.params, cfg.weights, cfg.T).value, qs)
            )
        direct.sort(key=lambda t: t[0])
        assert ranked[0].bound == pytest.approx(direct[0][0], rel=1e-14)

    def test_deterministic_tie_break(self):
        cfg = make_cfg()
        a = exhaustive_search(cfg)
        b = exhaustive_search(cfg)
        assert [r.qs for r in a] == [r.qs for r in b]

    def test_cap_guard(self):
        cfg = make_cfg(n=4, s=3, cap=100)
        with pytest.raises(CapacityError):
            exhaustive_search(cfg)


class TestRandom:
    def test_reproducible_and_sized(self):
        cfg = make_cfg(mode="random", draws=12, rng=RngSpec(3))
        a = random_search(cfg)
        b = random_search(cfg)
        assert len(a) == 12
        assert [r.qs for r in a] == [r.qs for r in b]

    def test_no_better_than_exhaustive(self):
        ex = exhaustive_search(make_cfg())[0].bound
        rnd = random_search(make_cfg(mode="random", draws=8, rng=RngSpec(1)))
        assert rnd[0].bound >= ex - 1e-18


class TestGreedy:
    def test_single_coordinate_equals_exhaustive(self):
        ex = exhaustive_search(make_cfg())
        gr = greedy_search(make_cfg(mode="greedy"))
        assert len(gr) == 1
        assert gr[0].qs == ex[0].qs

    def test_two_coordinates_reasonable(self):
        ex = exhaustive_search(make_cfg(s=2))
        gr = greedy_search(make_cfg(s=2, mode="greedy"))
        # greedy is not guaranteed optimal, but must beat the median and
        # can never beat the exhaustive optimum
        bounds = [r.bound for r in ex]
        assert ex[0].bound <= gr[0].bound <= bounds[len(bounds) // 2]


def test_run_search_dispatch():
    assert len(run_search(make_cfg())) == 4
    assert len(run_search(make_cfg(mode="random", draws=5))) == 5
    assert len(run_search(make_cfg(mode="greedy"))) == 1
    with pytest.raises(ValueError):
        make_cfg(mode="simulated-annealing")


class TestVerifyExistence:
    def test_report_chain(self):
        cfg = make_cfg(s=2)
        rep = verify_existence(cfg, 1.0)
        assert isinstance(rep, ExistenceReport)
        assert rep.candidates == 16
        assert rep.min_bound <= rep.power_mean
        assert rep.min_le_power_mean
        # with lam = 1 the power mean is the arithmetic mean
        ranked = exhaustive_search(cfg)
        mean = float(np.mean([r.bound for r in ranked]))
        assert rep.power_mean == pytest.approx(mean, rel=1e-14)

    def test_smaller_lambda_still_ordered(self):
        rep = verify_existence(make_cfg(), 0.6)
        assert rep.min_bound <= rep.power_mean

    def test_reducible_modulus_rejected(self):
        p_red = poly_from_string("1,0,1", 2)
        params = KernelParams(2, 2, C22)
        cfg = SearchConfig(2, 2, 2, p_red, 1, params, ProductWeights((1.0,)),
                           T=5)
        with pytest.raises(ValueError):
            verify_existence(cfg, 1.0)


def test_candidate_metadata():
    ranked = run_search(make_cfg(T=5))
    for r in ranked:
        assert r.truncation == 5
        assert r.c_walsh == C22
        assert r.seconds >= 0.0
