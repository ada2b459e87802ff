"""The artifact renderer: g17_fields against b"%.17g" % x for every float64,
grid_csv against the per-cell fmt loop."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volterra_bsde.reporting import CHUNK_ROWS, FIELD, fmt, g17_fields, grid_csv

_FAST_LO, _FAST_HI = 1e-11, 1e16


def _assert_printf(values):
    x = np.asarray(values, dtype=float)
    fields = g17_fields(x)
    assert fields.shape == (x.size, FIELD)
    got = [row[row != 0].tobytes() for row in fields]
    assert got == [b"%.17g" % v for v in x.ravel()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
def test_every_bit_pattern_renders_as_printf(bits):
    _assert_printf(np.array(bits, dtype=np.uint64).view(np.float64))


# sign, biased exponent and mantissa of a float64 whose exponent lies in
# the fast range (and a little beyond it on both sides)
_FAST_BITS = st.tuples(st.integers(0, 1), st.integers(985, 1080),
                       st.integers(0, 2**52 - 1)).map(
    lambda t: (t[0] << 63) | (t[1] << 52) | t[2])


@settings(max_examples=200, deadline=None)
@given(st.lists(_FAST_BITS, min_size=1, max_size=50))
def test_fast_range_bit_patterns_render_as_printf(bits):
    _assert_printf(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=50))
def test_floats_render_as_printf(values):
    _assert_printf(values)


def _neighbours(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


@pytest.mark.parametrize("values", [
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
     np.finfo(float).max, -np.finfo(float).max],
    [w for k in range(-13, 18) for v in _neighbours(float(f"1e{k}")) for w in (v, -v)],
    _neighbours(_FAST_LO) + _neighbours(_FAST_HI) + [-_FAST_LO, -_FAST_HI],
    # log10 of the first value floors to -6 while it lies below 1e-6; the
    # next three times 10 end in .5 exactly (a half-even tie), then round values
    [9.9999999999999995e-07, 1000000000000000.25, 1000000000000000.75,
     1125899906842623.75, 2.0**52, 2.0**53, 123.0, 0.0001, 1e-05, 12345678901234567.0],
], ids=["specials", "powers_of_ten", "fast_range_edges", "log10_and_ties"])
def test_explicit_values_render_as_printf(values):
    _assert_printf(values)


def test_no_fast_value_rounds_up_to_a_power_of_ten():
    """Why _decimal17 needs no carry: the largest float64 below each power
    of ten in the fast range keeps 17 digits below 99999999999999999.5."""
    for j in range(-10, 17):
        below = float(f"1e{j}")
        if Decimal(below) >= Decimal(10) ** j:
            below = np.nextafter(below, 0.0)
        scaled = Decimal(float(below)).scaleb(17 - j)
        assert scaled < Decimal("99999999999999999.5"), j


def _per_cell(header, tgrid, xgrid, *tables):
    lines = [header] + [
        ",".join([fmt(t), fmt(x), *(fmt(tab[i, j]) for tab in tables)])
        for i, t in enumerate(tgrid) for j, x in enumerate(xgrid)]
    return "".join(f"{line}\n" for line in lines).encode()


@pytest.mark.parametrize("nt,nx", [(1, 2), (CHUNK_ROWS + 3, 5),
                                   (2 * CHUNK_ROWS, 3)])
def test_grid_csv_matches_per_cell_rendering(nt, nx):
    rng = np.random.default_rng(nt * 100 + nx)
    tg, xg = np.linspace(0.0, 1.0, nt), np.linspace(-2.0, 2.0, nx)
    u = rng.standard_normal((nt, nx)) * 10.0 ** rng.integers(-15, 18, (nt, nx))
    ux = -rng.standard_normal((nt, nx))
    chunks = grid_csv("t,x,u,ux", tg, xg, u, ux)
    assert len(chunks) == 1 + -(-nt // CHUNK_ROWS)
    assert all(isinstance(c, bytes) and c.endswith(b"\n") for c in chunks)
    assert b"".join(chunks) == _per_cell("t,x,u,ux", tg, xg, u, ux)


def test_grid_csv_path_ids_and_an_all_fallback_table():
    """Integer path ids as the first axis, and a table none of whose
    values lies in the fast range."""
    ids, times = np.arange(CHUNK_ROWS + 2), np.array([0.0, 1e-12, 0.5, 2e16])
    specials = np.array([0.0, -0.0, np.inf, -np.nan, 5e-324, -1e300, 1e-11, 1e16])
    a = np.resize(specials, (ids.size, times.size))
    b = np.resize(specials[::-1], (ids.size, times.size))
    got = b"".join(grid_csv("path_id,t,A,B", ids, times, a, b))
    expected = _per_cell("path_id,t,A,B", ids, times, a, b)
    assert got == expected
    assert expected.startswith(b"path_id,t,A,B\n0,0,0,10000000000000000\n"
                               b"0,9.9999999999999998e-13,-0,9.9999999999999994e-12\n")


def test_grid_csv_of_no_rows_is_the_header():
    assert grid_csv(["# a", "p,t,v"], np.arange(0), np.array([0.0, 1.0]),
                    np.zeros((0, 2))) == [b"# a\np,t,v\n"]
