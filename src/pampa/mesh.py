"""1D grids, boundary conditions, and ghost extension of the discrete data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

PERIODIC = "periodic"
OUTFLOW = "outflow"
REFLECTIVE = "reflective"
BC_KINDS = (PERIODIC, OUTFLOW, REFLECTIVE)

# Cell averages carry three ghost cells per side (MP limiting of the ghost
# cell adjacent to a boundary interface needs two neighbours of its own);
# point values carry two ghost nodes per side.
AVG_GHOST = 3
PT_GHOST = 2


@dataclass(frozen=True)
class Grid1D:
    """Non-overlapping cells [nodes[j], nodes[j+1]] with per-cell sizes."""

    nodes: np.ndarray
    cell_sizes: np.ndarray
    cell_centers: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.cell_sizes.shape[0]


def grid_from_nodes(nodes) -> Grid1D:
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1 or nodes.size < 4:
        raise ConfigError("need at least 3 cells (4 nodes)")
    sizes = np.diff(nodes)
    if not np.all(sizes > 0):
        raise ConfigError("grid nodes must be strictly increasing")
    centers = 0.5 * (nodes[:-1] + nodes[1:])
    return Grid1D(nodes=nodes, cell_sizes=sizes, cell_centers=centers)


def uniform_grid(a: float, b: float, n: int) -> Grid1D:
    """n equal cells on [a, b]; stencils require n >= 3."""
    if not a < b:
        raise ConfigError(f"domain must satisfy a < b, got [{a}, {b}]")
    if n < 3:
        raise ConfigError(f"need n >= 3 cells, got {n}")
    return grid_from_nodes(np.linspace(a, b, n + 1))


def check_bc(bc: str, system) -> None:
    if bc not in BC_KINDS:
        raise ConfigError(f"unknown boundary condition {bc!r}")
    if bc == REFLECTIVE and not hasattr(system, "reflect"):
        raise ConfigError(
            f"reflective boundaries need a velocity component; {system.name} has none"
        )


def fill_ghosts(ext: np.ndarray, bc: str, g: int, reflect=None, nodal=False):
    """ext, its g ghost rows per side filled in place from its interior
    under the boundary condition bc. ext holds cells or nodes -g .. m-1+g;
    periodic nodal data holds m = n values (node n is node 0), so it wraps
    one more row on the right, and a wall mirrors about the boundary node,
    which is not repeated. reflect maps mirrored states (None: copies)."""
    k, e = int(nodal), ext.shape[0]
    if bc == PERIODIC:
        m = e - 2 * g - k
        ext[:g], ext[m + g :] = ext[m : m + g], ext[g : e - m]
    elif bc == OUTFLOW:
        ext[:g], ext[e - g :] = ext[g], ext[e - g - 1]
    else:
        left, right = ext[g + k : 2 * g + k][::-1], ext[e - 2 * g - k : e - g - k][::-1]
        if reflect is not None:
            left, right = reflect(left), reflect(right)
        ext[:g], ext[e - g :] = left, right
    return ext


def _extended(data: np.ndarray, bc: str, g: int, reflect=None, nodal=False):
    """A new array of data with g ghost rows per side (`fill_ghosts`)."""
    ext = np.empty((len(data) + 2 * g + int(nodal and bc == PERIODIC),)
                   + data.shape[1:])
    ext[g : g + len(data)] = data
    return fill_ghosts(ext, bc, g, reflect, nodal)


def extend_averages(avgs: np.ndarray, bc: str, system) -> np.ndarray:
    """Cell averages for cells -AVG_GHOST .. n-1+AVG_GHOST as an (n+6, d) array.

    A wall mirrors about the boundary node, negating normal momentum."""
    return _extended(avgs, bc, AVG_GHOST, getattr(system, "reflect", None))


def extend_points(points: np.ndarray, bc: str, system) -> np.ndarray:
    """Transformed point values for nodes -PT_GHOST .. n+PT_GHOST: n + 5
    rows from the n values of a periodic grid (node n is node 0), else n+1."""
    return _extended(points, bc, PT_GHOST, getattr(system, "reflect", None),
                     nodal=True)


def extend_cell_sizes(grid: Grid1D, bc: str) -> np.ndarray:
    return _extended(grid.cell_sizes, bc, AVG_GHOST)
