"""1D grids, boundary conditions, and ghost extension of the discrete data.

`ghost_map` is the one ghost rule. A scheme turns it once into flat indices
of its field buffer; `extend_averages`, `extend_points` and
`extend_cell_sizes` apply it to a padded copy of their input."""

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


def ghost_map(rows: int, bc: str, g: int, nodal=False):
    """(ghost, src, mirror) of an extended array of `rows` rows, cells or
    nodes -g .. m-1+g: its ghost rows, the interior rows they copy under
    the boundary condition bc, and whether a wall mirrors them. Periodic
    nodal data holds m = n values (node n is node 0), so it wraps one more
    row on the right; a wall mirrors about the boundary node, which is not
    repeated."""
    k = int(nodal)
    if bc == PERIODIC:
        m = rows - 2 * g - k
        src = np.r_[m : m + g, g : 2 * g + k]
    elif bc == OUTFLOW:
        src = np.repeat([g, rows - g - 1], g)
    else:
        src = np.r_[2 * g + k - 1 : g + k - 1 : -1,
                    rows - g - k - 1 : rows - 2 * g - k - 1 : -1]
    return np.r_[:g, rows + g - len(src) : rows], src, bc == REFLECTIVE


def _extended(data: np.ndarray, bc: str, g: int, sign=None, nodal=False):
    """A new array of data with g ghost rows per side (`ghost_map`); a
    wall multiplies the mirrored rows by sign (None: copies)."""
    rows = len(data) + 2 * g + int(nodal and bc == PERIODIC)
    ext = np.empty((rows,) + data.shape[1:])
    ext[g : g + len(data)] = data
    ghost, src, mirror = ghost_map(rows, bc, g, nodal)
    vals = ext[src]
    if mirror and sign is not None:
        vals *= sign
    ext[ghost] = vals
    return ext


def extend_averages(avgs: np.ndarray, bc: str, system) -> np.ndarray:
    """Cell averages for cells -AVG_GHOST .. n-1+AVG_GHOST as an (n+6, d) array.

    A wall mirrors about the boundary node, negating normal momentum."""
    return _extended(avgs, bc, AVG_GHOST, getattr(system, "_reflection", None))


def extend_points(points: np.ndarray, bc: str, system) -> np.ndarray:
    """Transformed point values for nodes -PT_GHOST .. n+PT_GHOST: n + 5
    rows from the n values of a periodic grid (node n is node 0), else n+1."""
    return _extended(points, bc, PT_GHOST, getattr(system, "_reflection", None),
                     nodal=True)


def extend_cell_sizes(grid: Grid1D, bc: str) -> np.ndarray:
    """Cell sizes for cells -AVG_GHOST .. n-1+AVG_GHOST; a wall mirrors
    them without a sign."""
    return _extended(grid.cell_sizes, bc, AVG_GHOST)
