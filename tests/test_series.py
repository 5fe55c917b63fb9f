"""Tests for the monthly-series container and its correlation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from currsub.errors import DataError, DegeneracyError
from currsub.series import (
    MonthlySeries,
    MonthStamp,
    pearson_correlation,
)

# Years far enough inside 0..9999 that the shifts below stay in range.
monthstamps = st.builds(
    MonthStamp, st.integers(100, 9900), st.integers(1, 12)
)


class TestMonthStamp:
    def test_str_zero_pads(self):
        assert str(MonthStamp(2001, 9)) == "2001-09"

    def test_parse_round_trip(self):
        stamp = MonthStamp.parse("2015-11")
        assert stamp == MonthStamp(2015, 11)
        assert MonthStamp.parse(str(stamp)) == stamp

    @pytest.mark.parametrize("text", ["2015-13", "2015-00", "201-09", "2015/09", "2015-9", ""])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(DataError):
            MonthStamp.parse(text)

    def test_month_out_of_range(self):
        with pytest.raises(DataError):
            MonthStamp(2001, 0)
        with pytest.raises(DataError):
            MonthStamp(2001, 13)

    def test_year_out_of_range(self):
        # Only the years 0..9999 print as YYYY-MM, which parse reads back.
        for stamp in (MonthStamp(0, 1), MonthStamp(9999, 12)):
            assert MonthStamp.parse(str(stamp)) == stamp
        with pytest.raises(DataError, match=r"^month -1-12 is outside 0000-01\.\.9999-12$"):
            MonthStamp(0, 1).shift(-1)
        with pytest.raises(DataError, match=r"^month 10000-01 is outside"):
            MonthStamp(9999, 12).shift(1)

    def test_shift_wraps_years(self):
        assert MonthStamp(2001, 9).shift(4) == MonthStamp(2002, 1)
        assert MonthStamp(2001, 9).shift(-9) == MonthStamp(2000, 12)
        assert MonthStamp(2001, 9).shift(0) == MonthStamp(2001, 9)

    def test_ordering(self):
        assert MonthStamp(2001, 9) < MonthStamp(2001, 10) < MonthStamp(2002, 1)

    @given(monthstamps, st.integers(-500, 500), st.integers(-500, 500))
    def test_shift_composes(self, stamp, a, b):
        assert stamp.shift(a).shift(b) == stamp.shift(a + b)



class TestMonthlySeries:
    def test_basic_accessors(self):
        s = MonthlySeries(MonthStamp(2001, 9), [1.0, 2.0, 3.0])
        assert len(s) == 3
        assert [str(d) for d in s.dates()] == ["2001-09", "2001-10", "2001-11"]

    def test_values_are_frozen_and_copied(self):
        buf = np.array([1.0, 2.0, 3.0])
        s = MonthlySeries(MonthStamp(2001, 9), buf)
        buf[0] = 99.0
        assert s.values[0] == 1.0
        with pytest.raises(ValueError):
            s.values[0] = 0.0

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            MonthlySeries(MonthStamp(2001, 9), [])

    def test_months_past_9999_12_refused(self):
        assert MonthlySeries(MonthStamp(9999, 11), [1.0, 2.0]).labels()[-1] == "9999-12"
        for n in (3, 40):
            with pytest.raises(DataError, match=r"^month 10000-01 is outside 0000-01\.\.9999-12$"):
                MonthlySeries(MonthStamp(9999, 11), np.ones(n))

    def test_nonfinite_error_names_the_month(self):
        with pytest.raises(DataError, match="2001-11"):
            MonthlySeries(MonthStamp(2001, 9), [1.0, 2.0, np.nan, 4.0])



class TestPearsonCorrelation:
    def test_perfect_positive_and_negative(self):
        x = MonthlySeries(MonthStamp(2001, 9), [1.0, 2.0, 3.0, 4.0])
        y = MonthlySeries(x.start, 2.0 * x.values + 7.0)
        assert pearson_correlation(x, y) == pytest.approx(1.0, abs=1e-12)
        z = MonthlySeries(x.start, -0.5 * x.values)
        assert pearson_correlation(x, z) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        a = MonthlySeries(MonthStamp(2001, 9), rng.standard_normal(40))
        b = MonthlySeries(MonthStamp(2001, 9), rng.standard_normal(40))
        expected = np.corrcoef(a.values, b.values)[0, 1]
        assert pearson_correlation(a, b) == pytest.approx(expected, abs=1e-12)

    def test_requires_alignment(self):
        a = MonthlySeries(MonthStamp(2001, 9), np.arange(5.0))
        b = MonthlySeries(MonthStamp(2001, 10), np.arange(5.0))
        with pytest.raises(DataError):
            pearson_correlation(a, b)

    def test_requires_three_points(self):
        a = MonthlySeries(MonthStamp(2001, 9), [1.0, 2.0])
        with pytest.raises(DataError):
            pearson_correlation(a, a)

    def test_constant_series_is_degenerate(self):
        a = MonthlySeries(MonthStamp(2001, 9), np.arange(5.0))
        c = MonthlySeries(a.start, np.full(5, 3.0))
        with pytest.raises(DegeneracyError):
            pearson_correlation(a, c)

    def test_constant_series_whose_mean_rounds_off_is_degenerate(self):
        # The mean of these 171 equal values is one ulp away from them, so
        # centring leaves a constant series that is not exactly zero.
        a = MonthlySeries(MonthStamp(2001, 9), np.arange(171.0))
        c = MonthlySeries(a.start, np.full(171, np.log(0.25)))
        assert c.values.mean() != c.values[0]
        for pair in ((a, c), (c, a)):
            with pytest.raises(DegeneracyError, match="constant series"):
                pearson_correlation(*pair)
