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


def _extend(data: np.ndarray, bc: str, g: int, reflect=None, nodal: bool = False):
    """data with g ghost rows per side under the boundary condition bc.

    Cell data gains cells -g .. n-1+g. Nodal data gains nodes -g .. n+g:
    periodic nodal data holds n values (node n is node 0), so it wraps one
    more row on the right, and a wall mirrors about the boundary node, which
    is not repeated. reflect maps mirrored states (None: plain copies).
    """
    k = int(nodal)
    m = data.shape[0]
    if bc == PERIODIC:
        left, right = data[m - g :], data[: g + k]
    elif bc == OUTFLOW:
        left = np.repeat(data[:1], g, axis=0)
        right = np.repeat(data[-1:], g, axis=0)
    else:
        left, right = data[k : g + k][::-1], data[m - g - k : m - k][::-1]
        if reflect is not None:
            left, right = reflect(left), reflect(right)
    return np.concatenate([left, data, right], axis=0)


def extend_averages(avgs: np.ndarray, bc: str, system) -> np.ndarray:
    """Cell averages for cells -AVG_GHOST .. n-1+AVG_GHOST as an (n+6, d) array.

    A wall mirrors about the boundary node, negating normal momentum."""
    return _extend(avgs, bc, AVG_GHOST, getattr(system, "reflect", None))


def extend_points(points: np.ndarray, bc: str, system) -> np.ndarray:
    """Transformed point values for nodes -PT_GHOST .. last+PT_GHOST.

    For periodic runs `points` holds n values (node n is identified with
    node 0); otherwise n+1 values. The result has points.shape[0]+(4 or 5)
    rows so that nodes -2 .. n+2 are always addressable.
    """
    return _extend(points, bc, PT_GHOST, getattr(system, "reflect", None),
                   nodal=True)


def extend_cell_sizes(grid: Grid1D, bc: str) -> np.ndarray:
    return _extend(grid.cell_sizes, bc, AVG_GHOST)
