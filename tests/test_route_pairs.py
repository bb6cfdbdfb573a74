"""Fast routes against their reference routes on drawn inputs. Each test
states its example count and its tolerance; the draws are derandomized, so
a run is reproducible."""

import math
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nsrkit import c_q, optimal_fnsr  # noqa: E402
from nsrkit.scalar import _ratio_table  # noqa: E402

# 2 beta^2 at 0, subnormal, and over [1e-6, 700]; N over (1e-300, 1.7e308)
two_beta_sq = st.one_of(
    st.just(0.0),
    st.floats(0.0, sys.float_info.min, exclude_min=True, exclude_max=True),
    st.floats(1e-6, 700.0))
n_mean = st.floats(1e-300, 1.7e308, exclude_min=True, exclude_max=True)


def point_ratio(n: float, t: float):
    """optimal_fnsr / c_q from the public point functions at beta formed as
    the table forms it, or the exception they raise."""
    beta = math.sqrt(t / 2.0)
    try:
        return optimal_fnsr(n, beta) / c_q(n, beta)
    except ArithmeticError as error:
        return error


@settings(max_examples=300, derandomize=True, deadline=None)
@given(tbs=st.lists(two_beta_sq, min_size=1, max_size=3),
       ns=st.lists(n_mean, min_size=1, max_size=4))
def test_ratio_table_cells_match_point_functions(tbs, ns):
    """_ratio_table against optimal_fnsr / c_q, cell by cell, at 300 examples
    and no tolerance: where every ratio is finite, the table's cells equal
    them bit for bit. At the first cell in row order whose ratio is inf, the
    table raises OverflowError; where the point functions raise there, it
    raises the same type with the same message."""
    expected = [[point_ratio(n, t) for n in ns] for t in tbs]
    failing = next((cell for row in expected for cell in row
                    if not (isinstance(cell, float) and cell < math.inf)), None)
    if failing is None:
        rows, _ = _ratio_table(tbs, ns)
        assert [list(map(float.hex, row)) for row in rows] == \
            [list(map(float.hex, row)) for row in expected]
        return
    with pytest.raises(ArithmeticError) as error:
        _ratio_table(tbs, ns)
    if isinstance(failing, float):
        assert type(error.value) is OverflowError
    else:
        assert type(error.value) is type(failing)
        assert str(error.value) == str(failing)
