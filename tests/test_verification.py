import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpline import verification
from lpline.triangle import family_indicator, regime_indicator, stationarity_gap
from lpline.verification import (
    CheckResult,
    _horner_t2,
    binomial_series_coefficient,
    default_b_grid,
    default_t_grid,
    remainder_coefficients,
    remainder_tail_bound,
    run_verification_suite,
    stationarity_gap_over_t,
)

from conftest import (
    remainder_partial_sum, remainder_partial_sum_reference, run_verification_suite_reference)


def exact_coefficient(b: Fraction, n: int) -> Fraction:
    """Direct factorial-product form of the series coefficients (oracle)."""
    prod = b - 2
    for j in range(4, 2 * n):
        prod *= b - j
    return 3 * n * prod / math.factorial(2 * n + 1) * (b - Fraction(8 * n + 1, 3))


class TestIndicators:
    def test_family_indicator_zeros_exact(self):
        assert family_indicator(1.0) == 0.0
        assert family_indicator(3.0) == 0.0
        assert family_indicator(2.0) == -1.0

    def test_family_indicator_convex(self):
        b = np.linspace(-2.0, 8.0, 200)
        s = np.array([family_indicator(float(x)) for x in b])
        second = s[2:] - 2 * s[1:-1] + s[:-2]
        assert np.all(second > 0.0)

    def test_regime_indicator_zeros_exact(self):
        assert regime_indicator(1.0) == 0.0
        assert regime_indicator(3.0) == 0.0
        assert regime_indicator(0.0) == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-15)

    def test_regime_indicator_sign_pattern(self):
        for b in np.linspace(0.025, 5.0, 200):
            v = regime_indicator(float(b))
            if abs(b - 1.0) < 1e-12 or abs(b - 3.0) < 1e-12:
                continue
            if b < 1.0 or b > 3.0:
                assert v > 0.0, b
            else:
                assert v < 0.0, b


class TestScaledGap:
    def test_h_at_one_is_zero(self):
        for b in (0.4, 1.0, 2.2, 3.0, 7.0):
            assert stationarity_gap_over_t(1.0, b) == 0.0

    def test_small_t_limit(self):
        assert stationarity_gap_over_t(1e-6, 2.0) == pytest.approx(
            2.0 * family_indicator(2.0), abs=1e-9)

    def test_direct_value(self):
        assert stationarity_gap_over_t(0.5, 2.0) == pytest.approx(-1.5, abs=1e-13)

    def test_series_matches_direct_across_switch(self):
        # the series branch takes over below 1e-4; both must agree nearby
        for b in (0.7, 2.0, 4.4, 11.0):
            for t in (2e-5, 9e-5, 1.1e-4, 5e-4):
                series_free = stationarity_gap(t, b) / t
                assert stationarity_gap_over_t(t, b) == pytest.approx(
                    series_free, rel=1e-7, abs=1e-11)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            stationarity_gap_over_t(0.0, 2.0)
        with pytest.raises(ValueError):
            stationarity_gap_over_t(-0.1, 2.0)

    # nodes below the series switch reach no stationarity_gap call
    @pytest.mark.parametrize("t", [1e-6, 0.5, [1e-6, 0.5]])
    @pytest.mark.parametrize("b", [0.0, -1.0, math.nan])
    def test_rejects_b_not_positive(self, t, b):
        with pytest.raises(ValueError, match="^b must be > 0$"):
            stationarity_gap_over_t(t, b)


class TestRemainderSeries:
    @pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2),
                                   Fraction(7), Fraction(41, 4)])
    def test_coefficients_match_factorial_oracle(self, b):
        coeffs = remainder_coefficients(float(b), 24)
        for n in range(2, 25):
            exact = float(exact_coefficient(b, n))
            if exact == 0.0:
                assert coeffs[n - 2] == pytest.approx(0.0, abs=1e-300)
            else:
                assert coeffs[n - 2] == pytest.approx(exact, rel=1e-12)

    def test_partial_sum_at_zero(self):
        assert remainder_partial_sum(0.0, 3.7, 30) == 0.0

    def test_b2_above_minus_half(self):
        assert remainder_partial_sum(0.5, 2.0, 40) > -0.5

    def test_nonnegative_coefficients_below_b2(self):
        for b in (1.1, 1.5, 2.0):
            assert np.all(remainder_coefficients(b, 64) >= 0.0)

    def test_integer_b_series_terminates(self):
        coeffs = remainder_coefficients(8.0, 30)
        assert np.all(coeffs[8:] == 0.0)  # zero once the product hits b - 8

    def test_derivative_identity(self, rng):
        # 4 t b (b-1) (3-b) (1/2 + r(t)) equals h'(t)
        h = 1e-6
        for _ in range(40):
            b = float(rng.uniform(1.2, 6.0))
            if min(abs(b - 1.0), abs(b - 3.0)) < 0.2:
                continue
            t = float(rng.uniform(0.05, 0.6))
            fd = (stationarity_gap_over_t(t + h, b)
                  - stationarity_gap_over_t(t - h, b)) / (2 * h)
            analytic = 4.0 * t * b * (b - 1.0) * (3.0 - b) * (
                0.5 + remainder_partial_sum(t, b, 64))
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_truncated_series_reproduces_h(self):
        # even-power expansion of h against the direct evaluation
        from lpline.verification import binomial_series_coefficient

        for b in (0.8, 2.5, 5.5):
            for t in (0.1, 0.3, 0.5):
                n_terms = 40
                acc = 0.0
                for n in reversed(range(n_terms)):
                    coeff = (binomial_series_coefficient(b, 2 * n)
                             - 3.0 * binomial_series_coefficient(b, 2 * n + 1))
                    acc = acc * t * t + coeff
                series = 2.0 * (2.0 ** b + acc)
                assert series == pytest.approx(
                    stationarity_gap_over_t(t, b), rel=1e-10, abs=1e-12)

    def test_tail_bound_controls_truncation(self):
        t = np.array([0.3, 0.6, 0.9])
        for b in (2.5, 4.0, 9.0):
            bound = remainder_tail_bound(remainder_coefficients(b, 32), t)
            assert bound is not None
            gap = np.abs(remainder_partial_sum(t, b, 96) - remainder_partial_sum(t, b, 32))
            assert np.all(gap <= bound + 1e-15)

    @pytest.mark.parametrize("b", [1.1, 2.0, 2.5, 7.3, 20.0])
    def test_in_place_horner_is_bit_identical(self, b):
        coeffs = remainder_coefficients(b, 64)
        ts = default_t_grid()
        assert np.array_equal(remainder_partial_sum(ts, b, 64),
                              remainder_partial_sum_reference(coeffs, ts))
        scalar = remainder_partial_sum(0.37, b, 64)
        assert isinstance(scalar, float)
        assert scalar == remainder_partial_sum_reference(coeffs, 0.37)

    def test_partial_sum_rejects_t_outside_the_unit_disc(self):
        with pytest.raises(ValueError, match=r"\|t\| < 1"):
            remainder_partial_sum(np.array([0.5, 1.0]), 2.5, 64)

    def test_coefficient_prefix_is_independent_of_n_max(self):
        for b in default_b_grid():
            assert np.array_equal(remainder_coefficients(float(b), 128)[:63],
                                  remainder_coefficients(float(b), 64))

    @pytest.mark.parametrize("b", [2.0, 4.0, 5.0, 8.0, 13.0, 20.0, 40.0])
    def test_terminating_series_stops_without_changing_a_bit(self, b):
        coeffs = remainder_coefficients(b, 64)
        assert coeffs[-1] == 0.0
        ts = np.concatenate([[0.0], default_t_grid(), [1.0]])
        got = _horner_t2(coeffs, ts * ts)
        assert got.tobytes() == remainder_partial_sum_reference(coeffs, ts).tobytes()

    def test_array_b_gives_the_scalar_rows(self):
        bs = np.concatenate([default_b_grid(), [0.37, 2.0, 40.0]])
        table = remainder_coefficients(bs, 128)
        assert table.shape == (len(bs), 127)
        for b, row in zip(bs, table):
            assert row.tobytes() == remainder_coefficients(float(b), 128).tobytes()
        for k in range(18):
            column = binomial_series_coefficient(bs, k)
            assert column.shape == bs.shape
            scalars = [binomial_series_coefficient(float(b), k) for b in bs]
            assert column.tobytes() == np.array(scalars).tobytes()

    def test_scalar_b_keeps_its_types(self):
        assert type(binomial_series_coefficient(2.5, 0)) is float
        assert type(binomial_series_coefficient(2.5, 3)) is float
        coeffs = remainder_coefficients(2.5, 10)
        assert isinstance(coeffs, np.ndarray) and coeffs.shape == (9,)

    def test_tail_bound_is_infinite_at_one_without_a_warning(self):
        coeffs = remainder_coefficients(4.5, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = remainder_tail_bound(coeffs, np.array([0.5, 1.0]))
        assert bound[0] > 0.0 and bound[1] == math.inf


class TestSuite:
    def test_default_grids(self):
        bs = default_b_grid()
        assert bs[0] == pytest.approx(0.1) and bs[-1] == pytest.approx(20.0)
        ts = default_t_grid(256)
        assert np.all((ts > 0.0) & (ts < 1.0))
        assert len(ts) == 256

    def test_family_b_values_pass_zero_check(self):
        report = run_verification_suite(b_grid=[1.0, 3.0], t_grid=default_t_grid(512))
        zero_checks = [c for c in report.checks if c.name.startswith("identically-zero")]
        assert len(zero_checks) == 2
        assert all(c.status == "pass" for c in zero_checks)

    def test_sign_checks_follow_indicator(self):
        report = run_verification_suite(b_grid=[0.5, 2.0, 5.0], t_grid=default_t_grid(512))
        sign_checks = [c for c in report.checks if c.name.startswith("sign-constant")]
        assert len(sign_checks) == 3
        assert all(c.status == "pass" for c in sign_checks)

    def test_remainder_certified_for_b_above_one(self):
        grid = [1.2, 1.8, 2.0, 2.5, 3.0, 3.5, 5.0, 8.0, 12.0, 20.0]
        report = run_verification_suite(b_grid=grid, t_grid=default_t_grid(1024))
        bound_checks = [c for c in report.checks if c.name.startswith("remainder")]
        assert len(bound_checks) == len(grid)
        assert all(c.status == "pass" for c in bound_checks), [
            (c.name, c.status, c.margin) for c in bound_checks if c.status != "pass"]

    def test_full_default_suite_passes(self):
        report = run_verification_suite()
        assert report.ok
        assert not report.inconclusive

    def test_injected_fault_detected(self, monkeypatch):
        monkeypatch.setattr(verification, "_check_sign_constant",
                            lambda b, ts: CheckResult("injected", "fail", -1.0))
        report = run_verification_suite(b_grid=[2.0], t_grid=default_t_grid(128))
        assert not report.ok

    def test_unit_t_node_leaks_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_verification_suite(b_grid=[1.0, 3.0], t_grid=[1.0])
        assert report.ok

    def test_family_b_accepts_t_zero(self):
        assert run_verification_suite(b_grid=[1.0], t_grid=[0.0, 0.5]).ok

    def test_non_family_b_rejects_t_zero(self):
        with pytest.raises(ValueError, match=r"^t must lie in \(0, 1\]$"):
            run_verification_suite(b_grid=[1.0, 2.5], t_grid=[0.0, 0.5])

    @pytest.mark.parametrize("b", [0.0, -1.5, math.nan])
    def test_rejects_nonpositive_b(self, b):
        with pytest.raises(ValueError, match="^b must be > 0$"):
            run_verification_suite(b_grid=[b], t_grid=default_t_grid(64))

    # nodes below the series switch evaluate no stationarity_gap
    @pytest.mark.parametrize("b_grid,t_grid", [
        ([-1.0], [1e-6]),
        ([math.nan], [1e-6]),
        ([2.0, -1.0], [1e-6, 0.5]),
    ])
    def test_rejects_b_outside_the_domain_on_series_nodes(self, b_grid, t_grid):
        with pytest.raises(ValueError, match="^b must be > 0$"):
            run_verification_suite(b_grid=b_grid, t_grid=t_grid)

    @pytest.mark.parametrize("b_grid,t_grid", [
        (None, None),
        (np.round(np.arange(1, 41) * 0.5, 10), default_t_grid(512)),
    ])
    def test_default_and_quick_grids_match_the_per_b_reference(self, b_grid, t_grid):
        assert (run_verification_suite(b_grid, t_grid).to_json()
                == run_verification_suite_reference(b_grid, t_grid).to_json())

    # the JSON text, not the checks, is compared: an inconclusive check's NaN
    # margin is never equal to itself
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        b_grid=st.lists(st.one_of(
            st.floats(0.0, 40.0, exclude_min=True),
            st.floats(0.0, 2.0, exclude_min=True),
            st.integers(1, 40).map(float),
            st.sampled_from([1.0, 3.0]),
            st.integers(1, 400).map(lambda k: round(k * 0.1, 10)),
        ), min_size=1, max_size=8),
        t_grid=st.lists(st.one_of(
            st.floats(1e-9, 1e-4),
            st.floats(1e-4, 1.0),
            st.just(1.0),
        ), min_size=1, max_size=48),
    )
    @example(b_grid=[1.0, 3.0], t_grid=[1.0])
    @example(b_grid=[0.1, 2.0, 4.0, 16.0], t_grid=[3e-7, 5e-5, 0.5, 1.0])
    # 1 < b <= 2 reads its remainder margin at the smallest t^2 alone
    @example(b_grid=[1.5, 2.0, 1.1, 0.5], t_grid=[0.3, 0.01, 0.01, 0.9, 0.01])
    @example(b_grid=[1.2, 2.0, 2.5, 0.5], t_grid=[0.7])
    @example(b_grid=[1.05, 2.0, 0.3, 7.5, 3.0], t_grid=[5e-5, 1e-9, 3e-6])
    @example(b_grid=[1.3, 0.7, 4.5, 1.9], t_grid=[0.9, 2e-5, 0.4, 1.0, 0.05, 3e-8])
    # coefficient rows of inf and nan leave no finite ratio: inconclusive
    @example(b_grid=[1e300, 1.5], t_grid=[0.5, 0.9])
    def test_matches_the_per_b_reference(self, b_grid, t_grid):
        ts = np.array(t_grid)
        with np.errstate(over="ignore", invalid="ignore"):  # the powers at huge b
            assert (run_verification_suite(b_grid, ts).to_json()
                    == run_verification_suite_reference(b_grid, ts).to_json())

    def test_negative_coefficient_below_b2_fails(self):
        grid = verification._Grid([1.5, 2.0], default_t_grid(64))
        assert np.all(grid.remainder[1] == 0.0) and np.all(np.signbit(grid.remainder[1]))
        assert verification._check_remainder_bound(2.0, grid).status == "pass"  # -0.0
        grid.remainder[0, 10] = -1e-310
        check = verification._check_remainder_bound(1.5, grid)
        assert (check.status, check.margin) == ("fail", -1e-310)

    def test_b_up_to_two_runs_one_horner_node(self, monkeypatch):
        nodes = []

        def counting(coeffs, t2):
            nodes.append(t2.size)
            return _horner_t2(coeffs, t2)

        monkeypatch.setattr(verification, "_horner_t2", counting)
        assert run_verification_suite().ok
        remainder_bs = [b for b in default_b_grid() if b > 1.0]
        assert nodes == [1 if b <= 2.0 else 4096 for b in remainder_bs]
        assert nodes.count(1) == 10

    def test_report_serializes(self):
        report = run_verification_suite(b_grid=[2.0], t_grid=default_t_grid(128))
        text = report.to_json()
        assert '"ok": true' in text
