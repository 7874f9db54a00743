"""Net construction, dual membership, character sums, file round trips."""

import numpy as np
import pytest

from oracles import random_poly_spec
from tentqmc.base_arith import poly_from_string
from tentqmc.nets import (
    CapacityError,
    DigitalNet,
    GeneratingMatrices,
    PolyLatticeSpec,
    enumerate_dual,
    is_dual_member_direct,
    is_dual_member_matrix,
    is_dual_member_poly,
    load_net_file,
    load_spec_file,
    matrices_from_poly,
    net_from_matrices,
    net_from_poly,
    net_from_poly_direct,
    save_net_file,
    save_spec_file,
    walsh_character_sum,
)


def spec_2d():
    """b=2, m=n=2, p = 1+x+x^2, q = (1, x): the worked reference case."""
    p = poly_from_string("1,1,1", 2)
    return PolyLatticeSpec(2, 2, 2, p, (poly_from_string("1", 2),
                                        poly_from_string("0,1", 2)))


class TestConstruction:
    def test_frozen_matrix(self):
        gen = matrices_from_poly(spec_2d())
        # q = 1 against 1+x+x^2 expands to 0,1,1,...: C = [[0,1],[1,1]]
        assert gen.mats[0].tolist() == [[0, 1], [1, 1]]

    def test_frozen_points(self):
        net = net_from_matrices(matrices_from_poly(spec_2d()))
        assert net.points[:, 0].tolist() == [0.0, 0.25, 0.75, 0.5]

    def test_pure_power_modulus_gives_natural_grid(self):
        # p = x^2, q = 1: C is the digit reversal, so h -> h / 4 in order
        spec = PolyLatticeSpec(
            2, 2, 2, poly_from_string("0,0,1", 2), (poly_from_string("1", 2),)
        )
        net = net_from_poly(spec)
        assert net.points[:, 0].tolist() == [0.0, 0.25, 0.5, 0.75]

    @pytest.mark.parametrize("seed", range(8))
    def test_poly_direct_equals_matrix_route(self, seed):
        rng = np.random.default_rng(1000 + seed)
        spec = random_poly_spec(rng, n_max=5, m_max=3)
        a = net_from_poly(spec)
        c = net_from_poly_direct(spec)
        assert np.array_equal(a.digits, c.digits)

    def test_every_point_distinct_when_matrix_has_rank_m(self):
        net = net_from_matrices(matrices_from_poly(spec_2d()))
        seen = {tuple(map(tuple, net.digits[i])) for i in range(net.size)}
        assert len(seen) == net.size

    def test_digit_range_validated(self):
        with pytest.raises(ValueError):
            GeneratingMatrices(2, np.full((1, 2, 2), 2))
        with pytest.raises(ValueError):
            DigitalNet(2, np.full((1, 1, 1), 3))

    def test_shapes(self):
        gen = matrices_from_poly(spec_2d())
        assert (gen.s, gen.n, gen.m) == (2, 2, 2)
        net = net_from_matrices(gen)
        assert net.digits.shape == (4, 2, 2)
        assert net.size == 4 and net.s == 2 and net.n == 2


class TestSpecValidation:
    def test_degree_checks(self):
        p = poly_from_string("1,1,1", 2)
        with pytest.raises(ValueError):
            PolyLatticeSpec(2, 3, 2, p, (poly_from_string("1", 2),))  # m > n
        with pytest.raises(ValueError):
            PolyLatticeSpec(2, 2, 2, p, (poly_from_string("1,1,1", 2),))
        with pytest.raises(ValueError):
            PolyLatticeSpec(2, 2, 2, p, ())

    def test_irreducibility_is_reported_not_required(self):
        p_red = poly_from_string("1,0,1", 2)  # (1+x)^2
        spec = PolyLatticeSpec(2, 1, 2, p_red, (poly_from_string("1", 2),))
        assert spec.p_irreducible is False
        assert spec_2d().p_irreducible is True


class TestDual:
    def test_dual_of_reference_net(self):
        """One-dimensional projection: multiples of 4 survive."""
        p = poly_from_string("1,1,1", 2)
        spec = PolyLatticeSpec(2, 2, 2, p, (poly_from_string("1", 2),))
        gen = matrices_from_poly(spec)
        net = net_from_matrices(gen)
        members = [k for k in range(16) if is_dual_member_direct(net, (k,))]
        assert members == [0, 4, 8, 12]
        assert enumerate_dual(gen, 3) == [(4,)]

    @pytest.mark.parametrize("seed", range(6))
    def test_three_predicates_agree(self, seed):
        rng = np.random.default_rng(40 + seed)
        spec = random_poly_spec(rng, n_max=5, m_max=3, s_max=2)
        gen = matrices_from_poly(spec)
        net = net_from_matrices(gen)
        K = spec.base ** min(spec.n + 1, 4)
        for _ in range(80):
            kvec = tuple(int(v) for v in rng.integers(0, K, size=spec.s))
            a = is_dual_member_direct(net, kvec)
            assert is_dual_member_matrix(gen, kvec) == a
            assert is_dual_member_poly(spec, kvec) == a

    def test_enumerate_matches_predicate(self):
        rng = np.random.default_rng(7)
        spec = random_poly_spec(rng, n_max=4, m_max=3, s_max=2)
        gen = matrices_from_poly(spec)
        net = net_from_matrices(gen)
        T = 2
        got = set(enumerate_dual(gen, T))
        b = spec.base
        want = set()
        for flat in range((b**T) ** spec.s):
            kvec = []
            rest = flat
            for _ in range(spec.s):
                rest, kj = divmod(rest, b**T)
                kvec.append(kj)
            kvec = tuple(kvec)
            if any(kvec) and is_dual_member_direct(net, kvec):
                want.add(kvec)
        assert got == want

    def test_zero_vector_is_member_but_not_enumerated(self):
        gen = matrices_from_poly(spec_2d())
        net = net_from_matrices(gen)
        assert is_dual_member_direct(net, (0, 0))
        assert all(any(kvec) for kvec in enumerate_dual(gen, 2))

    def test_enumeration_is_lexicographic(self):
        gen = matrices_from_poly(spec_2d())
        out = enumerate_dual(gen, 2)
        assert out == sorted(out)

    def test_negative_index_rejected(self):
        net = net_from_matrices(matrices_from_poly(spec_2d()))
        with pytest.raises(ValueError):
            is_dual_member_direct(net, (-1, 0))
        with pytest.raises(ValueError):
            walsh_character_sum(net, (-1, 0))


class TestCharacterSum:
    def test_exact_dichotomy(self):
        gen = matrices_from_poly(spec_2d())
        net = net_from_matrices(gen)
        for k1 in range(8):
            for k2 in range(8):
                cs = walsh_character_sum(net, (k1, k2))
                if is_dual_member_direct(net, (k1, k2)):
                    assert cs == complex(net.size)
                else:
                    assert cs == 0j

    def test_rejects_non_group_sets(self):
        digits = np.zeros((3, 1, 2), dtype=np.uint8)
        digits[1, 0, 0] = 1  # {0, 1/2, 1/4}: not closed under addition
        digits[2, 0, 1] = 1
        with pytest.raises(RuntimeError):
            walsh_character_sum(DigitalNet(2, digits), (3,))


class TestCapacity:
    def test_budget_guard(self):
        spec = spec_2d()
        with pytest.raises(CapacityError):
            net_from_poly(spec, cap=3)
        gen = matrices_from_poly(spec)
        with pytest.raises(CapacityError):
            enumerate_dual(gen, 8, cap=100)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("TENTQMC_CAP", "4")
        with pytest.raises(CapacityError):
            net_from_poly(spec_2d())
        monkeypatch.setenv("TENTQMC_CAP", "0")
        with pytest.raises(ValueError):
            net_from_poly(spec_2d())


class TestFiles:
    def test_net_round_trip(self, tmp_path):
        gen = matrices_from_poly(spec_2d())
        path = tmp_path / "net.txt"
        save_net_file(gen, str(path))
        back = load_net_file(str(path))
        assert back.base == gen.base
        assert np.array_equal(back.mats, gen.mats)

    def test_spec_round_trip(self, tmp_path):
        spec = spec_2d()
        path = tmp_path / "spec.txt"
        save_spec_file(spec, str(path))
        back = load_spec_file(str(path))
        assert back == spec

    def test_malformed_files(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2\n")
        with pytest.raises(ValueError):
            load_net_file(str(bad))
        bad.write_text("b=2\nm=2\nn=2\n")
        with pytest.raises(ValueError):
            load_spec_file(str(bad))
