"""Manifold models that form fields live on.

Every model presents ``n`` frame directions.  Coordinate directions belong to
a chart (periodic interval or closed box, with a grid resolution) and support
differentiation and quadrature; algebraic directions are invariant directions
of a Lie group, carrying structure constants ``c[i, j, k]`` with
``[e_i, e_j] = sum_k c[i, j, k] e_k``.  Charts have only coordinate
directions, Lie groups only algebraic ones, and products concatenate the two
blocks, which is what makes one exterior-derivative formula serve all three
backends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .exterior import _per_block

__all__ = [
    "TWO_PI",
    "Axis",
    "Model",
    "LieGroupModel",
    "ChartModel",
    "ProductModel",
    "periodic_axis",
    "box_axis",
    "torus",
    "box_chart",
    "heisenberg3",
    "grid_shape",
    "grid_nodes",
    "grid_points",
    "integration_points",
    "random_points",
    "sample_points",
    "integrate",
    "default_tolerance",
]

TWO_PI = 2.0 * math.pi

COORDINATE = "coordinate"
ALGEBRAIC = "algebraic"


@dataclass(frozen=True)
class Axis:
    kind: str
    periodic: bool = False
    lo: float = 0.0
    hi: float = TWO_PI
    resolution: int = 32

    def __post_init__(self):
        if self.kind not in (COORDINATE, ALGEBRAIC):
            raise ValueError(f"unknown axis kind {self.kind!r}")
        if self.kind == COORDINATE:
            if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
                raise ValueError(f"axis needs finite lo < hi, got lo={self.lo!r}, hi={self.hi!r}")
            if self.resolution < 4:
                raise ValueError("axis resolution must be at least 4")

    @property
    def length(self) -> float:
        return self.hi - self.lo


def periodic_axis(resolution: int = 32) -> Axis:
    return Axis(COORDINATE, periodic=True, lo=0.0, hi=TWO_PI, resolution=resolution)


def box_axis(lo: float, hi: float, resolution: int = 32) -> Axis:
    return Axis(COORDINATE, periodic=False, lo=lo, hi=hi, resolution=resolution)


class Model:
    """Base model: a tuple of axes plus structure constants (zero off the
    algebraic block).  Immutable after construction; hash by identity."""

    grid_cap: int | None = None

    def __init__(self, axes, structure=None, name: str = ""):
        self.axes: tuple[Axis, ...] = tuple(axes)
        n = len(self.axes)
        if structure is None:
            structure = np.zeros((n, n, n))
        structure = np.asarray(structure, dtype=float)
        if structure.shape != (n, n, n):
            raise ValueError(f"structure constants must have shape ({n},{n},{n})")
        if not np.all(np.isfinite(structure)):
            raise ValueError("structure constants must be finite")
        structure = structure.copy()
        structure.setflags(write=False)
        self.structure = structure
        self.name = name

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def coordinate_axes(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.axes) if a.kind == COORDINATE)

    @property
    def algebraic_axes(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.axes) if a.kind == ALGEBRAIC)

    @property
    def is_closed(self) -> bool:
        """True when every coordinate axis is periodic (Lie directions count
        as closed: invariant data integrates against a normalized unit volume)."""
        return all(a.periodic for a in self.axes if a.kind == COORDINATE)

    def bracket_values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Structure-constant bracket on constant frame components; zeros,
        without the product, when every structure constant is zero."""
        if not self.structure.any():
            return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
        return np.einsum("ijk,...i,...j->...k", self.structure, x, y)

    def __repr__(self):
        label = self.name or type(self).__name__
        return f"<{label}: n={self.n}>"


def _jacobi_defect(c: np.ndarray) -> float:
    cyc = np.einsum("ijm,mkl->ijkl", c, c)
    total = cyc + np.einsum("jkm,mil->ijkl", c, c) + np.einsum("kim,mjl->ijkl", c, c)
    return float(np.max(np.abs(total))) if c.size else 0.0


class LieGroupModel(Model):
    """Invariant calculus of a Lie group, given by structure constants."""

    def __init__(self, structure, name: str = ""):
        structure = np.asarray(structure, dtype=float)
        n = structure.shape[0] if structure.ndim else 0
        axes = tuple(Axis(ALGEBRAIC) for _ in range(n))
        super().__init__(axes, structure, name=name)
        anti = float(np.max(np.abs(self.structure + np.swapaxes(self.structure, 0, 1))))
        if anti > 1e-12:
            raise ValueError(f"structure constants not antisymmetric (defect {anti:.3e})")
        defect = _jacobi_defect(self.structure)
        if defect > 1e-12:
            raise ValueError(f"structure constants violate the Jacobi identity (defect {defect:.3e})")


class ChartModel(Model):
    """A single chart: periodic and/or box coordinate axes."""

    def __init__(self, axes, name: str = ""):
        axes = tuple(axes)
        if any(a.kind != COORDINATE for a in axes):
            raise ValueError("chart models take coordinate axes only")
        super().__init__(axes, None, name=name)


class ProductModel(Model):
    """Product of two models; left axes precede right axes.

    Full tensor grids on products are kept coarse (``grid_cap`` points per
    axis); finer sweeps should sample uniformly at random.
    """

    grid_cap = 8

    def __init__(self, left: Model, right: Model, name: str = ""):
        axes = left.axes + right.axes
        n = len(axes)
        nl = left.n
        structure = np.zeros((n, n, n))
        structure[:nl, :nl, :nl] = left.structure
        structure[nl:, nl:, nl:] = right.structure
        super().__init__(axes, structure, name=name or f"{left.name or 'left'}x{right.name or 'right'}")
        self.left = left
        self.right = right


def torus(dim: int, resolution: int = 32, name: str = "") -> ChartModel:
    """The flat torus T^dim with periodic coordinates on [0, 2*pi)."""
    return ChartModel([periodic_axis(resolution) for _ in range(dim)], name=name or f"T{dim}")


def box_chart(bounds, resolution: int = 32, name: str = "") -> ChartModel:
    """A closed box chart; ``bounds`` is a sequence of (lo, hi) pairs."""
    return ChartModel([box_axis(lo, hi, resolution) for lo, hi in bounds], name=name)


def heisenberg3(name: str = "heisenberg3") -> LieGroupModel:
    """The 3-dimensional Heisenberg algebra: [e0, e1] = e2, all else zero."""
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    return LieGroupModel(c, name=name)


def _axis_resolutions(model: Model, resolution=None) -> list[int]:
    coord = model.coordinate_axes
    if resolution is None:
        res = [model.axes[i].resolution for i in coord]
        if model.grid_cap is not None:
            res = [min(r, model.grid_cap) for r in res]
        return res
    if np.isscalar(resolution):
        return [int(resolution)] * len(coord)
    res = [int(r) for r in resolution]
    if len(res) != len(coord):
        raise ValueError(f"expected {len(coord)} per-axis resolutions")
    return res


def grid_shape(model: Model, resolution=None) -> tuple[int, ...]:
    return tuple(_axis_resolutions(model, resolution))


def grid_nodes(model: Model, resolution=None) -> list[np.ndarray]:
    """The node array of each coordinate axis of the tensor sample grid.

    Periodic axes are sampled uniformly without the right endpoint; box axes
    include both endpoints.
    """
    grids = []
    for i, r in zip(model.coordinate_axes, _axis_resolutions(model, resolution)):
        a = model.axes[i]
        if a.periodic:
            grids.append(a.lo + np.arange(r) * (a.length / r))
        else:
            grids.append(np.linspace(a.lo, a.hi, r))
    return grids


def grid_points(model: Model, resolution=None) -> np.ndarray:
    """Tensor sample grid over the coordinate axes (nodes from grid_nodes),
    shape (P, n).  Algebraic axes hold the single formal coordinate 0, so a
    pure Lie model yields exactly one point.
    """
    return _tensor_points(model.n, model.coordinate_axes, grid_nodes(model, resolution))


def _tensor_points(n: int, coord, grids) -> np.ndarray:
    """The tensor grid of the node arrays ``grids`` on the coordinate axes
    ``coord`` (first axis slowest), shape (P, n), zero on the other axes.
    Each axis is broadcast into its column: no meshgrid copies."""
    pts = np.zeros(tuple(len(g) for g in grids) + (n,))
    for d, (i, g) in enumerate(zip(coord, grids)):
        pts[..., i] = g.reshape((-1,) + (1,) * (len(grids) - 1 - d))
    return pts.reshape(-1, n)


def integration_points(model: Model, resolution=None) -> tuple[np.ndarray, float]:
    """Quadrature nodes and the constant cell weight.

    Uniform nodes on periodic axes (exact for trigonometric polynomials below
    the Nyquist bandwidth), midpoint nodes on box axes.  Lie directions carry
    normalized unit volume.
    """
    grids, weight = _quadrature_axes(model, resolution)
    return _tensor_points(model.n, model.coordinate_axes, grids), weight


def _quadrature_axes(model: Model, resolution) -> tuple[list, float]:
    """The 1-d node arrays of integration_points and its cell weight: the
    grid nodes of a periodic axis, the cell midpoints of a box axis."""
    grids, weight = [], 1.0
    for i, g in zip(model.coordinate_axes, grid_nodes(model, resolution)):
        a = model.axes[i]
        step = a.length / len(g)
        grids.append(g if a.periodic else a.lo + (np.arange(len(g)) + 0.5) * step)
        weight *= step
    return grids, weight


def random_points(model: Model, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random points over the coordinate axes, shape (count, n)."""
    pts = np.zeros((count, model.n))
    for i in model.coordinate_axes:
        a = model.axes[i]
        pts[:, i] = rng.uniform(a.lo, a.hi, size=count)
    return pts


def sample_points(model: Model, rng=None, random_count: int = 10000, grid_limit: int = 50000) -> np.ndarray:
    """Default sampling policy: the tensor grid while it stays small, seeded
    uniform random points beyond ``grid_limit`` total grid points."""
    size = 1
    for r in grid_shape(model):
        size *= r
    if size <= grid_limit:
        return grid_points(model)
    if rng is None:
        rng = np.random.default_rng(0)
    return random_points(model, random_count, rng)


def integrate(model: Model, field, resolution=None) -> float:
    """Integrate a top-degree form field by the model's tensor quadrature."""
    if field.degree != model.n:
        raise ValueError(f"integrate requires degree {model.n}, got {field.degree}")
    return _integrals(model, (field,), lambda pts: (field.values(pts)[:, 0],), resolution)[0]


def _mentioned_nodes(model: Model, nodes, forms) -> tuple[list, int]:
    """The coordinate axes' node arrays ``nodes`` with each axis that no
    coefficient of ``forms`` mentions held at its first node, and the held
    node count: d mentions no new variable, so what is formed pointwise from
    the forms and their derivatives is constant along a held axis."""
    used = set().union(*(ex.variables_of(c) for form in forms for c in form.coeffs))
    held = [i not in used for i in model.coordinate_axes]
    count = math.prod(len(g) for g, h in zip(nodes, held) if h)
    return [g[:1] if h else g for g, h in zip(nodes, held)], count


def _integrals(model: Model, forms, integrands, resolution=None) -> list[float]:
    """The quadrature of each array of ``integrands(points)``, formed
    pointwise from ``forms`` and their derivatives, on the nodes of
    ``integration_points`` that ``_mentioned_nodes`` keeps, which are never
    all held at once: as many nodes of the first axis at a time as fit in
    one block (``exterior._per_block``), each array summed over all blocks
    at once."""
    grids, weight = _quadrature_axes(model, resolution)
    grids, held = _mentioned_nodes(model, grids, forms)
    step = _per_block(math.prod(len(g) for g in grids[1:]))
    slices = [[grids[0][j : j + step], *grids[1:]] for j in range(0, len(grids[0]), step)] if grids else [[]]
    values = zip(*(integrands(_tensor_points(model.n, model.coordinate_axes, s)) for s in slices))
    return [float(np.sum(np.concatenate(v)) * (weight * held)) for v in values]


def default_tolerance(model: Model) -> float:
    """1e-8 on exact (purely algebraic) backends, 1e-6 where charts enter."""
    return 1e-8 if not model.coordinate_axes else 1e-6
