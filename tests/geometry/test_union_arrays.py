"""The array cell-union boundary equals the dict-and-walk loop by ``repr``.

``cells_union_boundary`` generates and cancels its directed cell edges
with array operations and merges collinear nodes with plain float
arithmetic; ``tests/oracles/geometry.py`` keeps the loop it replaced.
The inputs are random cell subsets of a grid whose last row and column
the outline clips, as the region stage's decomposition makes them: holes,
diagonal pinches, islands and single cells all come up, in any order.
Bounds may be ints or floats and zeros may carry either sign: every node
must keep the number object the loop gives it.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from oracles import geometry as oracle
from repro.geometry import cells_union_boundaries, cells_union_boundary


def _axis(origin, pitch, count, clip):
    """Lower and upper bounds of ``count`` cells, the last one clipped to
    ``clip`` of a pitch."""
    lower = [origin + i * pitch for i in range(count)]
    upper = lower[1:] + [lower[-1] + clip * pitch]
    return lower, upper


@st.composite
def grids(draw):
    ints = draw(st.booleans())
    nx = draw(st.integers(1, 6))
    ny = draw(st.integers(1, 6))
    if ints:
        origin = draw(st.integers(-3, 3))
        pitch = draw(st.integers(1, 4))
        clip = 1
    else:
        origin = draw(st.sampled_from([0.0, -7.3, 1e6 / 7, 0.1]))
        pitch = draw(st.sampled_from([1.0, 0.3, 2.54, 1e-3, 3.3000000000000003]))
        clip = draw(st.sampled_from([1.0, 0.5, 0.07, 0.999999]))
    return _axis(origin, pitch, nx, clip), _axis(origin, pitch, ny, clip)


@st.composite
def unions(draw, grid=None):
    (x0, x1), (y0, y1) = grid if grid is not None else draw(grids())
    index = st.tuples(st.integers(0, len(x0) - 1), st.integers(0, len(y0) - 1))
    picked = draw(st.lists(index, min_size=1, max_size=36, unique=True))
    flip = draw(st.booleans())  # write some zero bounds as -0.0
    cells = []
    for ix, iy in picked:
        cell = (x0[ix], y0[iy], x1[ix], y1[iy])
        if flip and draw(st.booleans()):
            cell = tuple(-v if v == 0 and isinstance(v, float) else v for v in cell)
        cells.append(cell)
    return cells


def _same(cells):
    assert repr(cells_union_boundary(cells)) == repr(oracle.cells_union_boundary(cells))


RING = [(x, y, x + 1.0, y + 1.0) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
PINCH = [(0.0, 0.0, 1.0, 1.0), (1.0, 1.0, 2.0, 2.0)]
ISLANDS = [(0.0, 0.0, 1.0, 1.0), (3.0, 0.0, 4.0, 1.0), (0.0, 3.0, 1.0, 4.0)]


@settings(max_examples=300, deadline=None)
@given(unions())
@example(RING)
@example(PINCH)
@example(PINCH[::-1] + [(1.0, 0.0, 2.0, 1.0)])
@example(ISLANDS)
@example([(0.0, 0.0, 0.3, 0.3)])
@example([(0, 0, 1, 1), (1, 0, 2.5, 1)])
@example([(-0.0, 0.0, 1.0, 1.0), (0.0, 1.0, 1.0, 2.0), (1.0, -0.0, 2.0, 1.0)])
def test_union_matches_the_loop(cells):
    _same(cells)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batch_matches_one_union_at_a_time(data):
    grid = data.draw(grids())
    groups = data.draw(st.lists(unions(grid), min_size=1, max_size=5))
    groups.insert(data.draw(st.integers(0, len(groups))), [])  # a trace with no cells
    assert repr(cells_union_boundaries(groups)) == repr(
        [oracle.cells_union_boundary(cells) for cells in groups]
    )


def test_no_cells():
    assert cells_union_boundary([]) == []
    assert cells_union_boundaries([[], []]) == [[], []]
