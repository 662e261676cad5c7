import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalpha import (
    ConfigError,
    Cube,
    GridFunction,
    cube_lattice,
    cube_mean,
    enumerate_cubes,
    l2_on_cube,
    read_grid,
    write_grid,
)
from qalpha.grid import cube_blocks, cube_energies, cube_sums, dilate, per_cube

import oracles


def test_non_power_of_two_rejected():
    with pytest.raises(ConfigError):
        GridFunction(np.ones(12))
    with pytest.raises(ConfigError):
        GridFunction(np.ones(4))  # below the 8-point minimum


def test_non_finite_rejected():
    v = np.ones(8)
    v[3] = np.inf
    with pytest.raises(ConfigError):
        GridFunction(v)


def test_values_immutable():
    f = GridFunction(np.ones(8))
    with pytest.raises(ValueError):
        f.values[0] = 2.0


def test_fresh_array_kept_without_copy():
    a = np.random.default_rng(0).standard_normal(2**20)
    tracemalloc.start()
    try:
        GridFunction(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.2 * a.nbytes  # the finiteness mask, an eighth of the grid


def test_ownership_rule():
    # a float64 array that owns its memory is kept and frozen
    a = np.ones(8)
    assert GridFunction(a).values is a and not a.flags.writeable
    # anything else is copied: the caller's array stays writable and unaliased
    base = np.ones(16)
    for given in (base[:8], base[::2], base.reshape(2, 8)[0]):
        f = GridFunction(given)
        assert not np.shares_memory(f.values, base) and not f.values.flags.writeable
    base[0] = 2.0
    assert f.values[0] == 1.0
    for given in (np.ones(8, dtype=np.float32), [1.0] * 8, np.ones(8, dtype=">f8")):
        f = GridFunction(given)
        assert f.values.dtype == np.float64 and f.values is not given


def test_cube_mean_constant():
    f = GridFunction(np.full((8, 8), 2.5))
    assert cube_mean(f, Cube((0.0, 0.0), 0.5)) == 2.5


def test_cube_mean_linear_closed_boundary():
    # closed membership includes 4/8 = 1/2: mean of {0, 1/8, ..., 4/8}
    f = GridFunction(np.arange(8) / 8)
    assert cube_mean(f, Cube((0.0,), 0.5)) == pytest.approx(0.25, abs=1e-15)


def test_cube_mean_zero_mean_harmonic():
    x = np.arange(16) / 16
    f = GridFunction(np.cos(2 * np.pi * x))
    assert abs(cube_mean(f, Cube((0.0,), 1.0))) < 1e-12


def test_cube_mean_matches_oracle():
    rng = np.random.default_rng(3)
    f = GridFunction(rng.standard_normal((8, 8)))
    for corner, edge in [((0.0, 0.25), 0.5), ((0.375, 0.5), 0.25), ((0.75, 0.75), 0.5)]:
        assert cube_mean(f, Cube(corner, edge)) == pytest.approx(
            oracles.naive_cube_mean(f.values, corner, edge), rel=1e-12
        )


def test_l2_full_cube_measure():
    assert l2_on_cube(GridFunction(np.ones(8)), Cube((0.0,), 1.0)) == pytest.approx(
        1.0, abs=1e-15
    )


def test_l2_half_cube_measure_2d():
    f = GridFunction(np.ones((8, 8)))
    assert l2_on_cube(f, Cube((0.0, 0.0), 0.5)) == pytest.approx(0.25, abs=1e-15)
    assert l2_on_cube(f, Cube((0.5, 0.25), 0.5)) == pytest.approx(0.25, abs=1e-15)


def test_l2_matches_oracle():
    rng = np.random.default_rng(4)
    f = GridFunction(rng.standard_normal(16))
    for corner, edge in [((0.0,), 0.5), ((0.25,), 0.25), ((0.875,), 0.25)]:
        assert l2_on_cube(f, Cube(corner, edge)) == pytest.approx(
            oracles.naive_l2_on_cube(f.values, corner, edge), rel=1e-12
        )


def test_l2_wrapped_cube_multiplicity():
    # a cube of edge 2 sees every lattice point twice
    f = GridFunction(np.ones(8))
    assert l2_on_cube(f, Cube((-0.5,), 2.0)) == pytest.approx(2.0, abs=1e-15)


@given(
    data=st.lists(st.floats(-10, 10), min_size=16, max_size=16),
    level=st.integers(0, 1),
)
@settings(max_examples=50, deadline=None)
def test_children_partition_l2(data, level):
    f = GridFunction(np.asarray(data))
    edge = 2.0**-level
    for i in range(2**level):
        parent = Cube((i * edge,), edge)
        total = sum(
            l2_on_cube(f, Cube((i * edge + j * edge / 2,), edge / 2)) for j in (0, 1)
        )
        assert total == pytest.approx(l2_on_cube(f, parent), rel=1e-12, abs=1e-15)


def test_translation_equivariance_exact():
    rng = np.random.default_rng(5)
    f = GridFunction(rng.standard_normal(16))
    g = GridFunction(np.roll(f.values, 4))  # shift by 4 lattice steps = 1/4
    I = Cube((0.25,), 0.5)
    J = Cube((0.5,), 0.5)
    assert cube_mean(g, J) == cube_mean(f, I)
    assert l2_on_cube(g, J) == l2_on_cube(f, I)


def test_cube_lattice_positions_unwrapped():
    f = GridFunction(np.arange(8, dtype=float))
    pos, vals = cube_lattice(f, Cube((0.75,), 0.5))
    assert pos[:, 0].tolist() == [0.75, 0.875, 1.0, 1.125]
    assert vals.tolist() == [6.0, 7.0, 0.0, 1.0]


# (corner, edge) per dimension: aligned, half-shifted, wrapped past 1, wider
# than the torus, and with off-lattice corners
BLOCK_CUBES = {
    1: [((0.0,), 0.5), ((0.25,), 0.25), ((0.125,), 0.25), ((0.375,), 0.5),
        ((0.875,), 0.25), ((0.75,), 0.5), ((-0.5,), 2.0), ((0.25,), 1.5),
        ((0.03,), 0.4), ((0.9,), 0.33)],
    2: [((0.0, 0.25), 0.5), ((0.5, 0.5), 0.25), ((0.25, 0.5), 0.5), ((0.625, 0.125), 0.25),
        ((0.75, 0.875), 0.5), ((0.875, 0.0), 0.25), ((-0.25, 0.5), 1.5), ((0.0, 0.0), 2.0),
        ((0.1, 0.77), 0.3), ((0.93, 0.41), 0.45)],
}


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
def test_cube_blocks_match_oracles(n, N, closed):
    """The one cube primitive every norm reads: each cube's lattice points and
    samples, and the per-cube closed means and half-open energies."""
    f = GridFunction(np.random.default_rng(6).standard_normal((N,) * n))
    cubes = [Cube(c, e) for c, e in BLOCK_CUBES[n]]
    blocks = cube_blocks(f, cubes, closed=closed)
    assert sorted(i for b in blocks for i in b.index.tolist()) == list(range(len(cubes)))
    for b in blocks:
        for i, start, samples in zip(b.index.tolist(), b.start.tolist(), b.read(f)):
            axes = [[((s + k) / N, (s + k) % N) for k in range(M)] for s, M in zip(start, b.shape)]
            got = [tuple(zip(*point)) for point in itertools.product(*axes)]
            I = cubes[i]
            assert sorted(got) == sorted(oracles.naive_lattice(N, n, I.corner, I.edge, closed))
            assert samples.ravel().tolist() == [f.values[idx] for _, idx in got]
    if closed:
        got = per_cube(f, blocks, lambda v, b: cube_sums(v) / v[0].size)
        want = [oracles.naive_cube_mean(f.values, I.corner, I.edge) for I in cubes]
    else:
        got = cube_energies(f, blocks)
        want = [oracles.naive_l2_on_cube(f.values, I.corner, I.edge) for I in cubes]
    assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_degenerate_cube_rejected():
    f = GridFunction(np.ones(8))
    with pytest.raises(ConfigError, match="degenerate"):
        cube_mean(f, Cube((0.01,), 0.05))
    with pytest.raises(ConfigError, match="degenerate"):
        l2_on_cube(f, Cube((0.01,), 0.05))


def test_enumerate_cubes_counts():
    assert len(enumerate_cubes(5, 2, n=1)) == 7
    assert len(enumerate_cubes(5, 1, n=2)) == 5
    shifted = enumerate_cubes(5, 1, n=1, shifted=True)
    assert len(shifted) == 6
    assert Cube((0.5,), 1.0) in shifted
    assert Cube((0.25,), 0.5) in shifted


def test_enumerate_cubes_depth_guard():
    with pytest.raises(ConfigError, match="8 lattice points"):
        enumerate_cubes(5, 3, n=1)
    with pytest.raises(ConfigError):
        enumerate_cubes(5, -1, n=1)


def test_dilate_keeps_center():
    def center(cube):
        return tuple(a + cube.edge / 2 for a in cube.corner)

    c = Cube((0.25, 0.25), 0.25)
    corner, edge = dilate(np.array([c.corner]), c.edge, 3.0)
    d = Cube(tuple(corner[0].tolist()), edge)
    assert center(d) == center(c)
    assert d.edge == pytest.approx(0.75)


def test_grid_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    for shape in [(8,), (8, 8)]:
        f = GridFunction(rng.standard_normal(shape))
        path = tmp_path / "f.grid"
        write_grid(f, path)
        g = read_grid(path)
        assert g.n == f.n and g.N == f.N
        assert np.array_equal(g.values, f.values)


def test_grid_file_malformed(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text("1 8\n1.0\n2.0\n")
    with pytest.raises(ConfigError, match="expected 8 values"):
        read_grid(path)
