import pytest

import stats


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
     (199, 90), (200, 95), (999, 95), (1000, 99)],
)
def test_highest_percentile_with_ten_samples_beyond_it(n, expected):
    assert stats.highest_supported_percentile(n) == expected


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 100) == 4.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)

