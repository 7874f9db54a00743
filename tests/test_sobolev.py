"""Kernel evaluation, truncated dual sums, decay constants, existence bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    BERNOULLI_NUMBERS,
    _dual_box_sum,
    brute_delta_b,
    brute_mu_alpha,
    count_zero_sum_tuples,
    eb_weight_sum_brute,
    integral_split,
    kernel_1d_fraction,
    kernel_coeff_naive,
    random_poly_spec,
    wce_squared_slow,
)
from tentqmc import _kernels, sobolev
from tentqmc.base_arith import poly_from_string
from tentqmc.nets import (
    CapacityError,
    PolyLatticeSpec,
    matrices_from_poly,
    net_from_poly,
)
from tentqmc.sobolev import (
    A_constants,
    KernelParams,
    N_b_count,
    ProductWeights,
    TableWeights,
    bernoulli_coefficients,
    bernoulli_polynomial,
    bernoulli_values,
    bound_B,
    calibrate_c_walsh,
    dual_net_wce,
    eb_weight_sum_multiples_truncated,
    eb_weight_sum_truncated,
    existence_bound,
    existence_bound_opt,
    info_complexity_bound,
    kernel,
    kernel_1d,
    kernel_walsh_coefficient_1d,
    lambda_grid,
    load_weights_file,
    mean_wce_estimate,
    save_weights_file,
    wce_squared,
    weights_from_string,
    weights_to_string,
)
from tentqmc.transforms import RngSpec
from tentqmc.walsh import in_Eb, mu_alpha
from tentqmc.nets import enumerate_dual


def ref_spec(gammas=(1.0, 1.0)):
    p = poly_from_string("1,1,1", 2)
    spec = PolyLatticeSpec(2, 2, 2, p, (poly_from_string("1", 2),
                                        poly_from_string("0,1", 2)))
    return spec, ProductWeights(tuple(gammas))


class TestBernoulli:
    def test_constant_terms_are_bernoulli_numbers(self):
        for n, want in BERNOULLI_NUMBERS.items():
            coeffs = bernoulli_coefficients(n) if n else (Fraction(1),)
            assert coeffs[-1] == want

    def test_polynomial_values(self):
        # B_2(x) = x^2 - x + 1/6
        for x in (0, Fraction(1, 3), Fraction(1, 2), 1):
            want = x * x - x + Fraction(1, 6)
            assert bernoulli_polynomial(2, x) == pytest.approx(float(want))

    def test_symmetry(self):
        # B_n(1 - x) = (-1)^n B_n(x)
        for n in range(1, 7):
            for x in np.linspace(0.0, 1.0, 9):
                a = bernoulli_polynomial(n, 1.0 - x)
                b = (-1.0) ** n * bernoulli_polynomial(n, x)
                assert a == pytest.approx(b, abs=1e-12)

    def test_vectorized_agrees(self):
        xs = np.linspace(0.0, 1.0, 17)
        for n in (1, 2, 4, 6):
            got = bernoulli_values(n, xs)
            want = [bernoulli_polynomial(n, float(x)) for x in xs]
            assert np.allclose(got, want, atol=1e-14)


class TestKernel1d:
    def test_alpha1_at_zero(self):
        # B_1(0)^2 + B_2(0)/2 = 1/4 + 1/12 = 1/3
        params = KernelParams(1, 2)
        assert kernel_1d(params, 0.0, 0.0) == pytest.approx(1 / 3, abs=1e-15)

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_matches_rational_evaluation(self, alpha):
        params = KernelParams(alpha, 2)
        rng = np.random.default_rng(alpha)
        for _ in range(30):
            x = Fraction(int(rng.integers(0, 33)), 32)
            y = Fraction(int(rng.integers(0, 33)), 32)
            want = float(kernel_1d_fraction(alpha, x, y))
            assert kernel_1d(params, float(x), float(y)) == pytest.approx(
                want, abs=1e-14
            )

    def test_symmetric(self):
        params = KernelParams(3, 2)
        for x, y in ((0.1, 0.9), (0.25, 0.3), (0.0, 1.0)):
            assert kernel_1d(params, x, y) == pytest.approx(
                kernel_1d(params, y, x), abs=1e-15
            )

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_marginals_vanish(self, alpha):
        """The kernel integrates to zero in each argument."""
        params = KernelParams(alpha, 2)
        for x in (0.0, 0.17, 0.5, 0.83):
            val = integral_split(lambda y: kernel_1d(params, x, y), x, deg=48)
            assert abs(val) < 1e-12


class TestWeights:
    def test_product_masks(self):
        w = ProductWeights((0.5, 2.0, 3.0))
        assert w.gamma_of_mask(0) == w.gamma_empty == 1.0
        assert w.gamma_of_mask(0b101) == 1.5
        assert w.gamma_of((1, 2, 3)) == 3.0
        with pytest.raises(ValueError):
            w.gamma_of((0,))

    def test_table_weights(self):
        w = TableWeights.from_entries(
            2, {frozenset({1}): 0.5, frozenset({1, 2}): 2.0}
        )
        assert w.gamma_of_mask(0b01) == 0.5
        assert w.gamma_of_mask(0b10) == 0.0
        assert w.gamma_of_mask(0b11) == 2.0

    def test_restrict(self):
        w = ProductWeights((0.5, 2.0, 3.0))
        assert w.restrict(2).gammas == (0.5, 2.0)

    def test_text_round_trip(self, tmp_path):
        for w in (
            ProductWeights((1.0, 0.25)),
            TableWeights.from_entries(
                2, {frozenset({1}): 0.75, frozenset({1, 2}): 1.5}
            ),
        ):
            back = weights_from_string(weights_to_string(w))
            assert type(back) is type(w)
            for mask in range(4):
                assert back.gamma_of_mask(mask) == w.gamma_of_mask(mask)
            path = tmp_path / "w.txt"
            save_weights_file(w, str(path))
            again = load_weights_file(str(path))
            assert again.gamma_of_mask(3) == w.gamma_of_mask(3)

    def test_malformed_text(self):
        with pytest.raises(ValueError):
            weights_from_string("s=2\nnonsense\n")


class TestWceSquared:
    def test_matches_slow_double_loop_product(self):
        rng = np.random.default_rng(5)
        pts = rng.random((9, 2))
        params = KernelParams(2, 2)
        w = ProductWeights((0.8, 1.7))
        got = wce_squared(pts, params, w)
        want = wce_squared_slow(pts, params, w)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_matches_slow_double_loop_across_row_blocks(self, monkeypatch):
        # blocks of 4 rows split N = 11 into 4 + 4 + 3
        monkeypatch.setattr(_kernels, "_CHUNK", 4)
        rng = np.random.default_rng(8)
        pts = rng.random((11, 3))
        params = KernelParams(2, 2)
        w = ProductWeights((1.0, 0.5, 0.25))
        got = wce_squared(pts, params, w)
        want = wce_squared_slow(pts, params, w)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_matches_slow_double_loop_table(self):
        rng = np.random.default_rng(6)
        pts = rng.random((7, 2))
        params = KernelParams(1, 3)
        w = TableWeights.from_entries(
            2,
            {frozenset({1}): 0.5, frozenset({2}): 0.25, frozenset({1, 2}): 2.0},
        )
        got = wce_squared(pts, params, w)
        want = wce_squared_slow(pts, params, w)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_table_equals_product_when_weights_coincide(self):
        rng = np.random.default_rng(7)
        pts = rng.random((8, 2))
        params = KernelParams(2, 2)
        prod = ProductWeights((0.5, 2.0))
        table = TableWeights.from_entries(
            2,
            {
                frozenset({1}): 0.5,
                frozenset({2}): 2.0,
                frozenset({1, 2}): 1.0,
            },
        )
        a = wce_squared(pts, params, prod)
        b = wce_squared(pts, params, table)
        assert a == pytest.approx(b, rel=1e-10, abs=1e-13)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            wce_squared(np.empty((0, 2)), KernelParams(2, 2), ProductWeights((1.0, 1.0)))


class TestMeanEstimate:
    def test_reproducible(self):
        spec, w = ref_spec()
        net = net_from_poly(spec)
        params = KernelParams(2, 2)
        a = mean_wce_estimate(net, params, w, 16, RngSpec(3))
        b = mean_wce_estimate(net, params, w, 16, RngSpec(3))
        assert a == b
        assert a[0] > 0 and a[1] > 0

    def test_needs_two_replicates(self):
        spec, w = ref_spec()
        net = net_from_poly(spec)
        with pytest.raises(ValueError):
            mean_wce_estimate(net, KernelParams(2, 2), w, 1, RngSpec(0))


class TestWalshCoefficients:
    @pytest.mark.parametrize("b,res", [(2, 3), (3, 2)])
    def test_matches_naive_double_sum(self, b, res):
        for alpha in (1, 2):
            for j in (0, 1, 2, b**res - 1):
                got = kernel_walsh_coefficient_1d(j, alpha, b, res)
                want = kernel_coeff_naive(j, alpha, b, res)
                assert abs(want.imag) < 1e-12
                assert got == pytest.approx(want.real, abs=1e-12)

    def test_index_zero_is_tiny_at_production_resolution(self):
        # the kernel integrates to zero; midpoint error only
        assert abs(kernel_walsh_coefficient_1d(0, 2, 2, 10)) < 1e-9

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            kernel_walsh_coefficient_1d(8, 2, 2, 3)

    def test_calibration_frozen_value(self):
        assert calibrate_c_walsh(2, 2) == pytest.approx(
            0.27729166848792114, rel=1e-12
        )

    def test_calibration_dominates_scan(self):
        c = calibrate_c_walsh(2, 2, scan_digits=5)
        for k in range(1, 32):
            coeff = kernel_walsh_coefficient_1d(k, 2, 2, 8)
            assert abs(coeff) <= c * 2.0 ** (-2 * mu_alpha(k, 2, 2))


class TestDualNetWce:
    def manual_dual_sum(self, spec, params, weights, T):
        """Recompose the truncated sum from the dual list and 1d coefficients."""
        gen = matrices_from_poly(spec)
        res = T + params.alpha
        b = spec.base
        total = 0.0
        for kvec in enumerate_dual(gen, T):
            if any(k != 0 and not in_Eb(k, b) for k in kvec):
                continue
            mask = 0
            term = 1.0
            for j, k in enumerate(kvec):
                if k:
                    mask |= 1 << j
                    term *= kernel_walsh_coefficient_1d(k // b, params.alpha, b, res)
            total += weights.gamma_of_mask(mask) * term
        return total

    def test_matches_manual_composition_product(self):
        spec, _ = ref_spec()
        w = ProductWeights((0.7, 1.3))
        params = KernelParams(2, 2)
        got = dual_net_wce(spec, params, w, T=4)
        want = self.manual_dual_sum(spec, params, w, 4)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_matches_manual_composition_table(self):
        spec, _ = ref_spec()
        w = TableWeights.from_entries(
            2,
            {frozenset({1}): 0.5, frozenset({2}): 0.25, frozenset({1, 2}): 2.0},
        )
        params = KernelParams(2, 2)
        got = dual_net_wce(spec, params, w, T=4)
        want = self.manual_dual_sum(spec, params, w, 4)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_base_mismatch(self):
        spec, w = ref_spec()
        with pytest.raises(ValueError):
            dual_net_wce(spec, KernelParams(2, 3), w, T=3)


class TestBoundB:
    def test_dominates_dual_sum_at_same_truncation(self):
        spec, w = ref_spec()
        params = KernelParams(2, 2, calibrate_c_walsh(2, 2))
        for T in (4, 6):
            fom = bound_B(spec, params, w, T=T)
            assert fom.value >= dual_net_wce(spec, params, w, T=T)
            assert fom.truncation == T
            assert float(fom) == fom.value

    def test_requires_constant(self):
        spec, w = ref_spec()
        with pytest.raises(ValueError):
            bound_B(spec, KernelParams(2, 2), w, T=4)

    def test_zero_vector_scores_worst(self):
        p = poly_from_string("1,1,1", 2)
        params = KernelParams(2, 2, calibrate_c_walsh(2, 2))
        w = ProductWeights((1.0,))
        vals = {}
        for qs_text in ("0", "1", "0,1", "1,1"):
            spec = PolyLatticeSpec(2, 2, 2, p, (poly_from_string(qs_text, 2),))
            vals[qs_text] = bound_B(spec, params, w, T=6).value
        assert vals["0"] == max(vals.values())


class TestHistogramAgainstBoxOracle:
    """Residue-histogram sums against the enumeration of the L^s dual box."""

    # largest truncation per base that keeps the box small, for s <= 2 and 3
    T_MAX = {2: (8, 6), 3: (5, 4), 5: (4, 3)}

    def box_sums(self, spec, alpha, c, weights, T):
        """(bound_B, dual_net_wce) by the box oracle, admissible list by scan."""
        b = spec.base
        A = np.array(
            [0] + [k for k in range(1, b**T) if brute_delta_b(k, b) % b == 0]
        )
        gen = matrices_from_poly(spec)
        decay = np.array([0.0] + [
            float(b) ** (-2 * brute_mu_alpha(int(k) // b, alpha, b))
            for k in A[1:]
        ])
        coeffs = np.array([0.0] + [
            kernel_walsh_coefficient_1d(int(k) // b, alpha, b, T + alpha)
            for k in A[1:]
        ])
        return (_dual_box_sum(gen, A, decay, weights, c, None),
                _dual_box_sum(gen, A, coeffs, weights, 1.0, None))

    def random_weights(self, rng, s, table):
        if table:
            return TableWeights(
                s, (0.0,) + tuple(rng.uniform(0.0, 2.0, 2**s - 1)), 0.5
            )
        return ProductWeights(tuple(rng.uniform(0.1, 2.0, s)), 0.5)

    def assert_agrees(self, spec, alpha, weights, T):
        c = 0.3
        want_b, want_w = self.box_sums(spec, alpha, c, weights, T)
        params = KernelParams(alpha, spec.base, c)
        got_b = bound_B(spec, params, weights, T=T)
        got_w = dual_net_wce(spec, params, weights, T=T)
        assert got_b.truncation == T
        assert got_b.value == pytest.approx(want_b, rel=1e-12, abs=0.0)
        assert got_w == pytest.approx(want_w, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("table", [False, True])
    def test_random_specs(self, table):
        rng = np.random.default_rng(20 + table)
        for _ in range(40):
            spec = random_poly_spec(rng, bases=(2, 3, 5), s_max=3)
            T = int(rng.integers(2, self.T_MAX[spec.base][spec.s == 3] + 1))
            alpha = int(rng.integers(1, 4))
            weights = self.random_weights(rng, spec.s, table)
            self.assert_agrees(spec, alpha, weights, T)

    @pytest.mark.parametrize("table", [False, True])
    def test_convolution_across_row_blocks(self, monkeypatch, table):
        # N = 27 with one difference row per block; s = 4 convolves twice
        monkeypatch.setattr(sobolev, "_CONV_BLOCK", 8)
        p = poly_from_string("1,2,0,1", 3)
        qs = tuple(poly_from_string(q, 3) for q in ("1", "2,1", "1,0,2", "0,1,1"))
        spec = PolyLatticeSpec(3, 3, 3, p, qs)
        weights = self.random_weights(np.random.default_rng(3), 4, table)
        self.assert_agrees(spec, 2, weights, 3)

    def three_coordinate_spec(self):
        p = poly_from_string("1,1,0,0,0,0,1", 2)
        qs = tuple(poly_from_string(q, 2) for q in ("1", "1,1,0,1", "1,0,1,1,1"))
        return PolyLatticeSpec(2, 6, 6, p, qs)

    def test_capacity_checked_before_the_scan(self, monkeypatch):
        def fail(*args):
            raise AssertionError("admissible digits built before the cap check")

        monkeypatch.setattr(sobolev, "_admissible_digits", fail)
        spec = self.three_coordinate_spec()
        params = KernelParams(2, 2, 0.3)
        with pytest.raises(CapacityError, match="TENTQMC_CAP"):
            bound_B(spec, params, ProductWeights((1.0,) * 3), cap=1000)  # 2^10

    @pytest.mark.parametrize("table", [False, True])
    def test_capacity_checked_before_the_histograms(self, monkeypatch, table):
        def fail(*args):
            raise AssertionError("histograms built before the cap check")

        monkeypatch.setattr(sobolev, "_residue_codes", fail)
        spec = self.three_coordinate_spec()
        params = KernelParams(2, 2, 0.3)
        weights = self.random_weights(np.random.default_rng(1), 3, table)
        # the 2^10 scan fits; the 64^2 convolution does not
        with pytest.raises(CapacityError, match="TENTQMC_CAP"):
            bound_B(spec, params, weights, cap=2000)


class TestDigitSums:
    @pytest.mark.parametrize("b", [2, 3])
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_truncated_sum_equals_brute_force(self, b, alpha):
        for lam in (0.6, 1.0):
            for T in (3, 5):
                got = eb_weight_sum_truncated(b, alpha, lam, T)
                want = eb_weight_sum_brute(b, alpha, lam, T)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_multiples_variant_equals_brute_force(self):
        for b, n in ((2, 2), (3, 1)):
            got = eb_weight_sum_multiples_truncated(b, 2, 0.8, n, 6)
            want = eb_weight_sum_brute(b, 2, 0.8, 6, multiple_of=b**n)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("b,v", [(b, v) for b in (2, 3, 5) for v in range(1, 7)])
    def test_tuple_counts(self, b, v):
        assert N_b_count(b, v) == count_zero_sum_tuples(b, v)

    def test_single_digit_count_is_zero(self):
        for b in (2, 3, 5, 7):
            assert N_b_count(b, 1) == 0


class TestClosedForms:
    def test_frozen_constants(self):
        a1, a2 = A_constants(2, 2, 1.0)
        assert a1 == pytest.approx(5 / 7, abs=1e-15)
        assert a2 == pytest.approx(8 / 21, abs=1e-15)

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            A_constants(2, 2, 0.2)  # at most 1/(2 alpha)
        with pytest.raises(ValueError):
            A_constants(1, 2, 0.9)  # decay bounds need alpha >= 2

    def test_closed_forms_dominate_truncations(self):
        for b in (2, 3):
            for alpha in (2, 3):
                a1, a2 = A_constants(alpha, b, 0.8)
                assert eb_weight_sum_truncated(b, alpha, 0.8, 10) < a1
                n = 2
                assert (
                    eb_weight_sum_multiples_truncated(b, alpha, 0.8, n, 10)
                    < a2 * float(b) ** (-4 * 0.8 * n)
                )


class TestExistence:
    def params(self):
        return KernelParams(2, 2, calibrate_c_walsh(2, 2))

    def test_decreasing_in_m(self):
        params = self.params()
        w = ProductWeights((1.0, 1.0))
        vals = [existence_bound(params, w, m, 2 * m, 0.75) for m in (1, 2, 4, 6)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_opt_no_worse_than_endpoints(self):
        params = self.params()
        w = ProductWeights((1.0,))
        best, lam = existence_bound_opt(params, w, 4, 4)
        assert best <= existence_bound(params, w, 4, 4, 1.0) + 1e-18
        assert 1.0 / (2 * params.alpha) < lam <= 1.0

    def test_lambda_grid_range(self):
        g = lambda_grid(2, 64)
        assert len(g) == 64
        assert g[0] > 0.25 and g[-1] == 1.0

    def test_info_complexity_is_tight(self):
        params = self.params()
        w = ProductWeights((1.0,))
        eps = 0.05
        N = info_complexity_bound(eps, params, w)
        assert N is not None
        m = round(math.log2(N))
        target = eps * eps * w.gamma_empty

        def opt(mm):
            n = max((params.alpha * mm + 1) // 2, mm)
            return existence_bound_opt(params, w, mm, n)[0]

        assert opt(m) <= target
        if m > 1:
            assert opt(m - 1) > target

    def test_info_complexity_can_fail(self):
        params = self.params()
        w = ProductWeights((1.0,))
        assert info_complexity_bound(1e-9, params, w, m_max=3) is None


class TestKernelNd:
    def test_product_formula(self):
        params = KernelParams(2, 2)
        w = ProductWeights((0.5, 2.0))
        x, y = (0.125, 0.75), (0.5, 0.25)
        k1a = kernel_1d(params, x[0], y[0])
        k1b = kernel_1d(params, x[1], y[1])
        want = (1 + 0.5 * k1a) * (1 + 2.0 * k1b) - 1.0 + w.gamma_empty
        assert kernel(params, w, x, y) == pytest.approx(want, abs=1e-15)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            kernel(KernelParams(2, 2), ProductWeights((1.0,)), (0.1, 0.2), (0.3, 0.4))
