import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pampa import mesh
from pampa.errors import ConfigError
from pampa.systems import Euler, advection

N = 5  # cells of the grid in test_ghost_extension_index_map

# Source row of every extended row for n = 5 cells; the ghost rows are the
# first and last PT_GHOST (points) or AVG_GHOST (the rest). Periodic points
# hold n values, the other point sets n+1.
GHOST_ROWS = {
    ("periodic", "averages"): [2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2],
    ("periodic", "points"): [3, 4, 0, 1, 2, 3, 4, 0, 1, 2],
    ("periodic", "cell_sizes"): [2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2],
    ("outflow", "averages"): [0, 0, 0, 0, 1, 2, 3, 4, 4, 4, 4],
    ("outflow", "points"): [0, 0, 0, 1, 2, 3, 4, 5, 5, 5],
    ("outflow", "cell_sizes"): [0, 0, 0, 0, 1, 2, 3, 4, 4, 4, 4],
    # a wall mirrors cells about the boundary node and nodes about the
    # boundary node itself, which is not repeated
    ("reflective", "averages"): [2, 1, 0, 0, 1, 2, 3, 4, 4, 3, 2],
    ("reflective", "points"): [2, 1, 0, 1, 2, 3, 4, 5, 4, 3],
    ("reflective", "cell_sizes"): [2, 1, 0, 0, 1, 2, 3, 4, 4, 3, 2],
}


def test_uniform_grid_small():
    g = mesh.uniform_grid(0.0, 1.0, 4)
    assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.n_cells == 4


def test_uniform_grid_sizes_and_centers():
    g = mesh.uniform_grid(-1.0, 1.0, 400)
    assert np.allclose(g.cell_sizes, 0.005, rtol=1e-12, atol=0)
    g2 = mesh.uniform_grid(-5.0, 5.0, 200)
    assert g2.cell_centers[0] == pytest.approx(-4.975, rel=1e-13)
    # centers are exactly the midpoint of the bounding nodes, as computed
    assert np.array_equal(g2.cell_centers, 0.5 * (g2.nodes[:-1] + g2.nodes[1:]))


def test_uniform_grid_rejects_bad_args():
    with pytest.raises(ConfigError):
        mesh.uniform_grid(0.0, 1.0, 2)
    with pytest.raises(ConfigError):
        mesh.uniform_grid(1.0, 0.0, 10)
    with pytest.raises(ConfigError, match="need at least 3 cells"):
        mesh.grid_from_nodes([0.0, 1.0, 2.0])
    with pytest.raises(ConfigError, match="strictly increasing"):
        mesh.grid_from_nodes([0.0, 1.0, 1.0, 2.0])


def test_periodic_ghost_wraps():
    sys = advection(0.0, 10.0)
    avgs = np.array([[1.0], [2.0], [3.0]])
    ext = mesh.extend_averages(avgs, mesh.PERIODIC, sys)
    assert ext.shape == (3 + 2 * mesh.AVG_GHOST, 1)
    assert ext[mesh.AVG_GHOST - 1, 0] == 3.0  # ghost left = last interior
    assert ext[mesh.AVG_GHOST + 3, 0] == 1.0  # ghost right = first interior


def test_outflow_ghost_copies():
    sys = advection(0.0, 10.0)
    avgs = np.array([[1.0], [2.0], [3.0]])
    ext = mesh.extend_averages(avgs, mesh.OUTFLOW, sys)
    assert np.all(ext[: mesh.AVG_GHOST] == 1.0)
    assert np.all(ext[-mesh.AVG_GHOST:] == 3.0)


def test_reflective_mirrors_and_negates_momentum():
    sys = Euler(1.4)
    U = sys.from_primitive(np.array([[1.0, 0.3, 1.0], [2.0, -0.1, 3.0],
                                     [1.5, 0.2, 2.0], [1.1, 0.4, 1.2]]))
    ext = mesh.extend_averages(U, mesh.REFLECTIVE, sys)
    g = mesh.AVG_GHOST
    for k in range(g):
        mirrored = ext[g - 1 - k]
        inner = U[k]
        assert mirrored[0] == inner[0]
        assert mirrored[1] == -inner[1]
        assert mirrored[2] == inner[2]
    # point values mirror about the boundary node (ghost -1 <- node 1)
    W = np.array([[0.5, 0.3, 0.1], [0.6, -0.2, 0.2], [0.7, 0.1, 0.3],
                  [0.8, 0.0, 0.4], [0.9, 0.2, 0.5]])
    pext = mesh.extend_points(W, mesh.REFLECTIVE, sys)
    assert pext[mesh.PT_GHOST - 1, 0] == W[1, 0]
    assert pext[mesh.PT_GHOST - 1, 1] == -W[1, 1]


def test_reflective_point_value_example():
    # interior point (rho, v, p) = (1, 0.3, 1) mirrors to (1, -0.3, 1)
    sys = Euler(1.4)
    U = sys.from_primitive(np.array([1.0, 0.3, 1.0]))
    M = sys.reflect(U)
    prim = sys.primitive(M)
    assert prim[0] == pytest.approx(1.0, abs=0)
    assert prim[1] == pytest.approx(-0.3, rel=1e-15)
    assert prim[2] == pytest.approx(1.0, rel=1e-13)


def test_reflective_rejected_for_scalar():
    with pytest.raises(ConfigError):
        mesh.check_bc(mesh.REFLECTIVE, advection(0.0, 1.0))


def test_reflective_fixed_point_of_symmetric_field():
    # mirroring a mirror-symmetric field reproduces it
    sys = Euler(1.4)
    n = 6
    rho = np.array([1.0, 2.0, 3.0, 3.0, 2.0, 1.0])
    v = np.array([-0.3, -0.2, -0.1, 0.1, 0.2, 0.3])
    p = np.array([1.0, 2.0, 3.0, 3.0, 2.0, 1.0])
    U = sys.from_primitive(np.stack([rho, v, p], axis=-1))
    ext = mesh.extend_averages(U, mesh.REFLECTIVE, sys)
    g = mesh.AVG_GHOST
    full = ext[g - 3 : g + n + 3]
    assert np.allclose(full, full[::-1] * np.array([1.0, -1.0, 1.0]), rtol=0, atol=0)


@given(st.integers(min_value=0, max_value=19))
def test_periodic_shift_invariance_of_extension(k):
    sys = advection(0.0, 1.0)
    rng = np.random.Generator(np.random.Philox(7))
    avgs = rng.uniform(0, 1, (20, 1))
    ext = mesh.extend_averages(avgs, mesh.PERIODIC, sys)
    ext_rolled = mesh.extend_averages(np.roll(avgs, k, axis=0), mesh.PERIODIC, sys)
    # extension of the rolled field equals the extension re-indexed cyclically
    n, g = 20, mesh.AVG_GHOST
    idx = (np.arange(-g, n + g) - k) % n
    assert np.array_equal(ext_rolled, avgs[idx])
    assert np.array_equal(ext, avgs[(np.arange(-g, n + g)) % n])


@pytest.mark.parametrize("kind", ["averages", "points", "cell_sizes"])
@pytest.mark.parametrize("bc", mesh.BC_KINDS)
def test_ghost_extension_index_map(bc, kind):
    sys = Euler(1.4)
    rng = np.random.Generator(np.random.Philox(3))
    grid = mesh.grid_from_nodes(np.cumsum(rng.uniform(0.5, 1.5, N + 1)))
    rows = np.array(GHOST_ROWS[(bc, kind)])
    if kind == "cell_sizes":
        ext = mesh.extend_cell_sizes(grid, bc)
        expected = grid.cell_sizes[rows]
    else:
        m = N + (kind == "points" and bc != mesh.PERIODIC)
        data = rng.uniform(-1.0, 1.0, (m, 3))
        extend = mesh.extend_averages if kind == "averages" else mesh.extend_points
        ext = extend(data, bc, sys)
        expected = data[rows]
        if bc == mesh.REFLECTIVE:
            g = mesh.PT_GHOST if kind == "points" else mesh.AVG_GHOST
            ghost = np.r_[:g, len(rows) - g : len(rows)]
            expected[ghost] *= np.array([1.0, -1.0, 1.0])
    assert ext.shape == expected.shape
    assert np.array_equal(ext, expected)
