from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import pairwise_gini
from taxsim.metrics import (
    annual_inflation,
    annual_unemployment,
    equality,
    gini,
    productivity,
    social_outcome,
)

wealth_vectors = st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False), min_size=1, max_size=100
)


class TestGini:
    def test_perfect_equality(self):
        assert gini([1.0, 1.0, 1.0, 1.0]) == 0.0

    @pytest.mark.parametrize("x", [1.0, 5.0, 123.45])
    def test_single_holder_of_everything(self, x):
        assert gini([0.0, 0.0, 0.0, x]) == pytest.approx(0.75)

    def test_all_zero_vector_is_zero_by_convention(self):
        assert gini([0.0, 0.0, 0.0, 0.0]) == 0.0

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            gini([])

    @pytest.mark.parametrize("bad", [-2.0, np.nan])
    def test_negative_values_rejected(self, bad):
        with pytest.raises(ValueError):
            gini([1.0, bad])
        with pytest.raises(ValueError):
            gini([[1.0, 2.0], [1.0, bad]])

    @given(wealth_vectors)
    @example([0.0, 5e-324])
    @example([5e-324, 5e-324, 0.0])
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_oracle(self, values):
        assert gini(values) == pytest.approx(pairwise_gini(values), abs=1e-9)

    @given(wealth_vectors, st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, values, scale):
        scaled = [v * scale for v in values]
        assert gini(scaled) == pytest.approx(gini(values), abs=1e-9)

    @given(wealth_vectors, st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert gini(shuffled) == pytest.approx(gini(values), abs=1e-12)

    @given(wealth_vectors)
    @settings(max_examples=100, deadline=None)
    def test_range(self, values):
        n = len(values)
        assert -1e-12 <= gini(values) <= (n - 1) / n + 1e-12


class TestEquality:
    def test_uniform_four(self):
        assert equality([1.0, 1.0, 1.0, 1.0]) == pytest.approx(0.75)

    def test_single_holder_four(self):
        assert equality([0.0, 0.0, 0.0, 9.0]) == pytest.approx(0.1875)

    def test_fifty_equal_households(self):
        assert equality([10_000.0] * 50) == pytest.approx(0.98)

    @given(wealth_vectors)
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_population_factor(self, values):
        n = len(values)
        assert -1e-12 <= equality(values) <= (n - 1) / n + 1e-12


class TestProductivity:
    def test_per_capita_mean(self):
        assert productivity([10.0, 20.0, 30.0]) == pytest.approx(20.0)

    def test_all_zero(self):
        assert productivity([0.0, 0.0]) == 0.0

    def test_total_variant(self):
        assert productivity([10.0, 20.0, 30.0], per_capita=False) == pytest.approx(60.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            productivity([])


class TestSocialOutcome:
    def test_product(self):
        assert social_outcome(0.75, 20.0) == pytest.approx(15.0)

    def test_zero_factor_zeroes_outcome(self):
        assert social_outcome(0.0, 123.0) == 0.0
        assert social_outcome(0.98, 0.0) == 0.0

    @given(
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1.0)),
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e9)),
    )
    @settings(max_examples=50, deadline=None)
    def test_zero_iff_a_factor_is_zero(self, eq, prod):
        outcome = social_outcome(eq, prod)
        assert (outcome == 0.0) == (eq == 0.0 or prod == 0.0)


class TestAnnualInflation:
    def test_constant_prices(self):
        assert annual_inflation([100.0] * 24) == 0.0

    def test_eight_percent_rise(self):
        assert annual_inflation([100.0] * 12 + [108.0] * 12) == pytest.approx(0.08)

    def test_five_percent_fall(self):
        assert annual_inflation([100.0] * 12 + [95.0] * 12) == pytest.approx(-0.05)

    def test_first_year_defined_as_zero(self):
        assert annual_inflation([100.0] * 12) == 0.0
        assert annual_inflation([100.0, 101.0]) == 0.0

    def test_partial_months_ignored(self):
        prices = [100.0] * 12 + [110.0] * 12 + [999.0] * 5
        assert annual_inflation(prices) == pytest.approx(0.10)


class TestAnnualUnemployment:
    def test_all_employed(self):
        assert annual_unemployment([[1] * 5] * 12) == 0.0

    def test_all_unemployed(self):
        assert annual_unemployment([[0] * 5] * 12) == 1.0

    def test_half_employed(self):
        months = [[1, 0]] * 12
        assert annual_unemployment(months) == pytest.approx(0.5)

    @pytest.mark.parametrize("rows", [0, 5, 13])
    def test_wrong_month_count_rejected(self, rows):
        with pytest.raises(ValueError):
            annual_unemployment([[1, 0]] * rows)

    @given(
        st.lists(
            st.lists(st.integers(0, 1), min_size=3, max_size=3), min_size=12, max_size=12
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_always_a_fraction(self, matrix):
        assert 0.0 <= annual_unemployment(matrix) <= 1.0
