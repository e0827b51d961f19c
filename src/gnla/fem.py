"""Quadrilateral meshes, finite-element assembly, sine-mode bases, datasets."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .graph_net import AttributedGraph, matrix_to_graph, with_attrs
from .sparse import (SparseMatrixCSR, atomic_write, format_floats, from_coo,
                     read_matrix_market, write_matrix_market)

# corners of the reference bilinear element [-1,1]^2, counterclockwise from (-1,-1)
_CX, _CY = np.array([-1.0, 1.0, 1.0, -1.0]), np.array([-1.0, -1.0, 1.0, 1.0])
_GAUSS = np.array([-1.0, 1.0]) / np.sqrt(3.0)
_GAUSS_XI, _GAUSS_ETA = np.repeat(_GAUSS, 2), np.tile(_GAUSS, 2)   # 2x2 points, xi-major
# (dN/dxi, dN/deta) of the bilinear shape functions there: (4 points, 4 nodes, 2)
_DN = 0.25 * np.stack([_CX * (1.0 + np.outer(_GAUSS_ETA, _CY)),
                       _CY * (1.0 + np.outer(_GAUSS_XI, _CX))], axis=-1)


@dataclass(frozen=True)
class QuadMesh:
    """Quadrilateral mesh on the unit square.

    ``elements`` rows list 4 vertex ids counterclockwise from the lower left;
    ``boundary`` flags Dirichlet vertices.
    """

    coords: np.ndarray        # (Nv, 2)
    elements: np.ndarray      # (Ne, 4)
    boundary: np.ndarray      # (Nv,) bool

    @property
    def num_vertices(self) -> int:
        return len(self.coords)

    def interior(self) -> np.ndarray:
        """Ids of non-Dirichlet vertices, in vertex order."""
        return np.flatnonzero(~self.boundary)


@dataclass
class ProblemInstance:
    """One assembled linear system plus the geometry it came from.

    ``coords`` are the coordinates of the unknowns (one row per matrix row).
    ``targets`` holds per-unknown regression targets where the experiment has
    them (diffusion: columns alpha, beta), else None.
    """

    A: SparseMatrixCSR
    coords: np.ndarray
    h: float
    targets: np.ndarray | None = None
    meta: dict = field(default_factory=dict)


def element_stiffness(corners, a=1.0, b=1.0) -> np.ndarray:
    """(..., 4, 4) stiffness of bilinear rectangles for -d/dx(a du/dx) - d/dy(b du/dy).

    ``corners`` is (..., 4, 2): axis-aligned rectangles listed counterclockwise
    from the lower left. ``a`` and ``b`` are constants or (..., 4) values at the
    2x2 Gauss points, xi-major. On a w-by-h rectangle the Jacobian is
    diag(w, h) / 2, so the physical gradients are dN * (2 / (w, h)) and
    det = w h / 4; the 2x2 rule is exact for constant a and b.
    """
    corners = np.asarray(corners, dtype=np.float64)
    x, y = corners[..., 0], corners[..., 1]
    size = np.stack([x[..., 1] - x[..., 0], y[..., 3] - y[..., 0]], axis=-1)
    if not (np.all((size > 0) & (size < np.inf)) and np.array_equal(x, x[..., [0, 1, 1, 0]])
            and np.array_equal(y, y[..., [0, 0, 3, 3]])):
        raise ValueError("element is not an axis-aligned rectangle listed "
                         "counterclockwise from the lower left")
    det = (size[..., 0] * size[..., 1] / 4.0)[..., None, None]
    G = _DN * (2.0 / size)[..., None, None, :]     # (..., point, node, 2)
    a, b = (c * np.ones(len(_DN)) for c in (a, b))    # (..., 4) Gauss-point values
    K = 0.0      # point by point in this order: assembled bits depend on it
    for q in range(len(_DN)):
        gx, gy = G[..., q, :, 0], G[..., q, :, 1]
        K = K + det * (a[..., q, None, None] * (gx[..., :, None] * gx[..., None, :])
                       + b[..., q, None, None] * (gy[..., :, None] * gy[..., None, :]))
    return K


def _scatter(n_dofs: int, dofs: np.ndarray, blocks: np.ndarray) -> SparseMatrixCSR:
    """Sum (Ne, 4, 4) element blocks at their (Ne, 4) dofs; dofs < 0 are dropped.

    Duplicates are summed in element order, then local row, then local column.
    """
    rows = np.repeat(dofs, 4, axis=1).ravel()
    cols = np.tile(dofs, (1, 4)).ravel()
    vals = blocks.ravel()
    if np.any(dofs < 0):
        keep = (rows >= 0) & (cols >= 0)
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    return from_coo(n_dofs, rows, cols, vals, sum_duplicates=True)


# -- band mesh (Dirichlet Laplace experiment) --------------------------------

def build_band_mesh(N_y: int, beta: float, band_col: int) -> QuadMesh:
    """Uniform N_y x N_y grid plus two vertex columns at band_x +- beta.

    ``band_col`` indexes the retained grid column (its x is band_col * h with
    h = 1/(N_y - 1)); it must stay clear of the boundary columns, and beta must
    not reach the neighboring columns.
    """
    if N_y < 6:
        raise ValueError("N_y too small for a banded mesh")
    h = 1.0 / (N_y - 1)
    if not (2 <= band_col <= N_y - 3):
        raise ValueError(f"band column {band_col} too close to the boundary")
    if not (0 < beta < h / 2):
        raise ValueError(f"beta={beta} collides with a neighboring grid column "
                         f"(need 0 < beta < h/2 = {h / 2})")
    band_x = band_col * h
    xs = np.sort(np.concatenate([np.arange(N_y) * h,
                                 [band_x - beta, band_x + beta]]))
    ys = np.arange(N_y) * h
    ncols = N_y + 2
    X, Y = np.meshgrid(xs, ys)           # row r, column c -> vertex r*ncols + c
    coords = np.column_stack([X.ravel(), Y.ravel()])
    v = (np.arange(N_y - 1)[:, None] * ncols + np.arange(ncols - 1)).ravel()
    elems = np.column_stack([v, v + 1, v + 1 + ncols, v + ncols])
    boundary = np.zeros(len(coords), dtype=bool)
    rr, cc = np.divmod(np.arange(len(coords)), ncols)
    boundary[(rr == 0) | (rr == N_y - 1) | (cc == 0) | (cc == ncols - 1)] = True
    return QuadMesh(coords, elems, boundary)


def assemble_laplace_dirichlet(mesh: QuadMesh) -> SparseMatrixCSR:
    """Stiffness matrix of -Laplace with homogeneous Dirichlet rows eliminated."""
    dof = np.full(mesh.num_vertices, -1, dtype=np.int64)
    interior = mesh.interior()
    dof[interior] = np.arange(len(interior))
    K = element_stiffness(mesh.coords[mesh.elements])
    return _scatter(len(interior), dof[mesh.elements], K)


# -- periodic diffusion problem ----------------------------------------------

def assemble_diffusion_periodic(N: int, theta_ax: int = 0, theta_ay: int = 0,
                                theta_bx: int = 0, theta_by: int = 0,
                                alpha=None, beta=None) -> ProblemInstance:
    """N x N doubly periodic mesh for d/dx(a du/dx) + d/dy(b du/dy).

    Default coefficients are a = cos(theta_ax pi x)^2 cos(theta_ay pi y)^2 and
    the analogous b; pass callables ``alpha``/``beta`` to override (used for
    constant-coefficient probes). Vertices are (ix + iy*N) at (ix*h, iy*h),
    h = 1/N; targets are the coefficient values at the vertices.
    """
    if N < 4:
        raise ValueError("N must be at least 4")
    for t in (theta_ax, theta_ay, theta_bx, theta_by):
        if t < 0 or t != int(t):
            raise ValueError("frequencies must be non-negative integers")
    h = 1.0 / N
    if alpha is None:
        alpha = lambda x, y: np.cos(theta_ax * np.pi * x) ** 2 * np.cos(theta_ay * np.pi * y) ** 2
    if beta is None:
        beta = lambda x, y: np.cos(theta_bx * np.pi * x) ** 2 * np.cos(theta_by * np.pi * y) ** 2
    ix, iy = np.meshgrid(np.arange(N), np.arange(N))
    coords = np.column_stack([(ix.ravel() * h), (iy.ravel() * h)])
    # all elements are h-by-h squares; only the connectivity wraps
    c, r = ix.ravel(), iy.ravel()
    vid = lambda rr, cc: (rr % N) * N + (cc % N)
    conn = np.column_stack([vid(r, c), vid(r, c + 1), vid(r + 1, c + 1), vid(r + 1, c)])
    gx = (c[:, None] + (1.0 + _GAUSS_XI) / 2.0) * h      # (N^2, 4) Gauss points
    gy = (r[:, None] + (1.0 + _GAUSS_ETA) / 2.0) * h
    K_all = element_stiffness(np.array([[0.0, 0.0], [h, 0.0], [h, h], [0.0, h]]),
                              alpha(gx, gy) * np.ones_like(gx), beta(gx, gy) * np.ones_like(gx))
    A = _scatter(N * N, conn, K_all)
    targets = np.column_stack([alpha(coords[:, 0], coords[:, 1]) * np.ones(N * N),
                               beta(coords[:, 0], coords[:, 1]) * np.ones(N * N)])
    meta = {"N": N, "h": h, "theta": [theta_ax, theta_ay, theta_bx, theta_by]}
    return ProblemInstance(A, coords, h, targets, meta)


def diffusion_graph(inst: ProblemInstance) -> AttributedGraph:
    """Model-input view: edge (A_ij, x_rel, y_rel), vertex (A_ii), global (h).

    Relative offsets are grid steps from vertex i to neighbor j in {-1, 0, 1},
    wrapping periodically; e.g. the southeast neighbor gives (1, -1).
    """
    N = inst.meta["N"]
    graph = matrix_to_graph(inst.A, self_edges=True,
                            vertex_attrs=np.zeros((inst.A.n, 1)),
                            global_attrs=np.array([inst.h]))
    sx, sy = graph.src % N, graph.src // N
    dx_, dy_ = graph.dst % N, graph.dst // N
    wrap = lambda d: ((d + N // 2) % N) - N // 2
    x_rel, y_rel = wrap(sx - dx_), wrap(sy - dy_)
    if np.any(np.abs(x_rel) > 1) or np.any(np.abs(y_rel) > 1):
        raise ValueError("matrix couples vertices beyond nearest neighbors")
    edge_attrs = np.column_stack([graph.edge_attrs[:, 0], x_rel, y_rel])
    diag_attr = np.zeros((inst.A.n, 1))
    self_mask = graph.src == graph.dst
    diag_attr[graph.dst[self_mask], 0] = graph.edge_attrs[self_mask, 0]
    return with_attrs(graph, vertex_attrs=diag_attr, edge_attrs=edge_attrs)


# -- sine-mode bases ----------------------------------------------------------

def sine_mode_basis(coords: np.ndarray, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns sin(tx pi x) sin(ty pi y) at ``coords``, unit-normalized.

    Modes run over (tx, ty) in {1..n_modes}^2, ordered row-major by (tx, ty).
    Returns (low, high): low has both frequencies <= n_modes/2.
    """
    x, y = coords[:, 0], coords[:, 1]
    t = np.arange(1, n_modes + 1)
    sx = np.sin(np.pi * np.outer(x, t))   # (n, n_modes)
    sy = np.sin(np.pi * np.outer(y, t))
    V = sx[:, :, None] * sy[:, None, :]   # (n, tx, ty)
    V = V.reshape(len(coords), n_modes * n_modes)
    norms = np.linalg.norm(V, axis=0)
    if np.any(norms == 0):
        raise ValueError("sine mode vanishes on this vertex set")
    V = V / norms
    tx, ty = np.meshgrid(t, t, indexing="ij")
    low = ((tx <= n_modes / 2) & (ty <= n_modes / 2)).ravel()
    return V[:, low], V[:, ~low]


# -- dataset generation -------------------------------------------------------

SPLITS = ("train", "val", "test")      # the order of a config's counts


def check_int(key: str, value, low: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")


def check_real(key: str, value, low: float, high: float) -> None:
    """Raise ValueError unless ``value`` is a number (not a bool) in (low, high)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not low < value < high:
        raise ValueError(f"{key} must be a number in ({low}, {high}), got {value!r}")


def _check_seed_and_counts(cfg) -> None:
    """The fields both dataset configs share; counts is stored as a tuple."""
    check_int("seed", cfg.seed, 0)
    if not isinstance(cfg.counts, (list, tuple)) or len(cfg.counts) != 3:
        raise ValueError(f"counts must list three split sizes, got {cfg.counts!r}")
    for count in cfg.counts:
        check_int("each of counts", count, 0)
    object.__setattr__(cfg, "counts", tuple(cfg.counts))


@dataclass(frozen=True)
class JacobiDataConfig:
    N_y: int = 20
    beta_frac_min: float = 0.05   # beta as a fraction of h
    beta_frac_max: float = 0.45
    counts: tuple[int, int, int] = (60, 20, 20)
    seed: int = 0

    def __post_init__(self):
        check_int("N_y", self.N_y, 6)           # build_band_mesh's smallest grid
        # 0 < beta < h/2 keeps the band clear of the neighbouring grid columns
        check_real("beta_frac_min", self.beta_frac_min, 0, 0.5)
        check_real("beta_frac_max", self.beta_frac_max, 0, 0.5)
        if self.beta_frac_min > self.beta_frac_max:
            raise ValueError(f"beta_frac_min ({self.beta_frac_min}) must not exceed "
                             f"beta_frac_max ({self.beta_frac_max})")
        _check_seed_and_counts(self)


@dataclass(frozen=True)
class DiffusionDataConfig:
    N_min: int = 24
    N_max: int = 32
    theta_max: int = 4
    counts: tuple[int, int, int] = (100, 30, 20)
    seed: int = 0

    def __post_init__(self):
        check_int("N_min", self.N_min, 4)       # assemble_diffusion_periodic's smallest grid
        check_int("N_max", self.N_max, self.N_min)
        check_int("theta_max", self.theta_max, 0)
        _check_seed_and_counts(self)


def paper_jacobi_config(seed: int = 0) -> JacobiDataConfig:
    return JacobiDataConfig(N_y=38 + 2, counts=(800, 50, 150), seed=seed)


def paper_diffusion_config(seed: int = 0) -> DiffusionDataConfig:
    return DiffusionDataConfig(N_min=80, N_max=100, theta_max=6,
                               counts=(700, 200, 100), seed=seed)


def jacobi_instance(cfg: JacobiDataConfig, index: int) -> ProblemInstance:
    """Banded Dirichlet Laplace system; randomness from (seed, index)."""
    rng = np.random.default_rng([cfg.seed, index])
    h = 1.0 / (cfg.N_y - 1)
    beta = rng.uniform(cfg.beta_frac_min, cfg.beta_frac_max) * h
    band_col = int(rng.integers(2, cfg.N_y - 2))
    mesh = build_band_mesh(cfg.N_y, beta, band_col)
    A = assemble_laplace_dirichlet(mesh)
    coords = mesh.coords[mesh.interior()]
    meta = {"index": index, "seed": cfg.seed, "N_y": cfg.N_y, "h": h,
            "beta": beta, "band_x": band_col * h, "band_col": band_col}
    return ProblemInstance(A, coords, h, None, meta)


def diffusion_instance(cfg: DiffusionDataConfig, index: int) -> ProblemInstance:
    rng = np.random.default_rng([cfg.seed, index])
    N = int(rng.integers(cfg.N_min, cfg.N_max + 1))
    thetas = [int(t) for t in rng.integers(0, cfg.theta_max + 1, size=4)]
    inst = assemble_diffusion_periodic(N, *thetas)
    inst.meta.update({"index": index, "seed": cfg.seed})
    return inst


def dataset_instances(cfg: JacobiDataConfig | DiffusionDataConfig):
    """Yield (split, instance) in index order, building each one when asked for.

    The instance function is a global looked up here, so rebinding it works.
    """
    make = jacobi_instance if isinstance(cfg, JacobiDataConfig) else diffusion_instance
    splits = [split for split, count in zip(SPLITS, cfg.counts) for _ in range(count)]
    for index, split in enumerate(splits):
        yield split, make(cfg, index)


def gen_dataset(cfg: JacobiDataConfig | DiffusionDataConfig) -> dict[str, list[ProblemInstance]]:
    """Every split in memory, for training without a dataset directory."""
    splits = {split: [] for split in SPLITS}
    for split, inst in dataset_instances(cfg):
        splits[split].append(inst)
    return splits


gen_jacobi_dataset = gen_diffusion_dataset = gen_dataset


# -- disk format --------------------------------------------------------------

def write_instance(dirname: str, inst: ProblemInstance) -> None:
    """matrix.mtx + meta.json + coords.csv (+ targets.csv when present)."""
    os.makedirs(dirname, exist_ok=True)
    write_matrix_market(os.path.join(dirname, "matrix.mtx"), inst.A)
    meta = dict(inst.meta)
    meta["h"] = inst.h
    with atomic_write(os.path.join(dirname, "meta.json")) as fh:
        json.dump(meta, fh, sort_keys=True, indent=1)
    for name, header, values in (("coords.csv", "x,y", inst.coords),
                                 ("targets.csv", "alpha,beta", inst.targets)):
        if values is not None:
            with atomic_write(os.path.join(dirname, name)) as fh:
                fh.write(header + "\n")
                fh.write("".join(f"{x},{y}\n" for x, y in format_floats(values).tolist()))


def _read_pairs(path: str, n: int) -> np.ndarray:
    """One finite 2-column row per matrix row from a side file with a header."""
    try:
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if values.shape != (n, 2):
        raise ValueError(f"{path}: expected {n} rows of 2 values, got shape {values.shape}")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if len(bad):
        raise ValueError(f"{path}: non-finite value in data row {bad[0] + 1}")
    return values


def read_instance(dirname: str) -> ProblemInstance:
    A = read_matrix_market(os.path.join(dirname, "matrix.mtx"))
    with open(os.path.join(dirname, "meta.json")) as fh:
        meta = json.load(fh)
    coords = _read_pairs(os.path.join(dirname, "coords.csv"), A.n)
    tpath = os.path.join(dirname, "targets.csv")
    targets = _read_pairs(tpath, A.n) if os.path.exists(tpath) else None
    return ProblemInstance(A, coords, meta["h"], targets, meta)
