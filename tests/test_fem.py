"""Meshes, FEM assembly, stencil values, sine bases, dataset generation, disk I/O."""

import io
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import dst_basis
from gnla import fem
from gnla.fem import (DiffusionDataConfig, JacobiDataConfig, ProblemInstance,
                      assemble_diffusion_periodic, assemble_laplace_dirichlet,
                      build_band_mesh, diffusion_graph, element_stiffness,
                      gen_diffusion_dataset, gen_jacobi_dataset,
                      jacobi_instance, read_instance, sine_mode_basis,
                      write_instance)
from gnla.sparse import identity, spmv_csr


def row_by_offset(A, coords, i, tol=1e-9):
    """Map (dx, dy) physical offsets of row i's entries to their values."""
    cols, vals = A.row(i)
    return {(round(float(dx), 12), round(float(dy), 12)): v
            for (dx, dy), v in zip(coords[cols] - coords[i], vals)}


# exact bilinear stiffness on a w-by-h rectangle, corners counterclockwise from
# the lower left: (a h / 6w) KX + (b w / 6h) KY
KX = np.array([[2, -2, -1, 1], [-2, 2, 1, -1], [-1, 1, 2, -2], [1, -1, -2, 2]])
KY = np.array([[2, 1, -1, -2], [1, 2, -2, -1], [-1, -2, 2, 1], [-2, -1, 1, 2]])


def rectangle_stiffness(w, h, a=1, b=1):
    """Closed-form stiffness; exact when w, h, a, b are Fractions."""
    return (a * h / (6 * w)) * KX + (b * w / (6 * h)) * KY


def rectangle(x0, y0, x1, y1):
    return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def test_element_stiffness_unit_square():
    # unit bilinear element: rows sum to zero, diagonal 2/3
    K = element_stiffness(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(K.sum(axis=1), 0.0, atol=1e-14)
    assert np.allclose(np.diag(K), 2.0 / 3.0, atol=1e-14)
    assert np.allclose(K, K.T, atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1, 1), st.floats(-1, 1), st.floats(1e-3, 1), st.floats(1e-3, 1),
       st.floats(0.1, 10), st.floats(0.1, 10))
def test_element_stiffness_matches_closed_form(x0, y0, w, h, a, b):
    corners = rectangle(x0, y0, x0 + w, y0 + h)
    # the exact widths of the float corners, not the drawn w and h
    w_exact = Fraction(corners[1, 0]) - Fraction(corners[0, 0])
    h_exact = Fraction(corners[3, 1]) - Fraction(corners[0, 1])
    want = rectangle_stiffness(w_exact, h_exact, Fraction(a), Fraction(b)).astype(float)
    got = element_stiffness(corners, a, b)
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


def test_element_stiffness_rejects_degenerate():
    for corners in ([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]],     # clockwise
                    [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 1.0]],     # zero width
                    [[0.0, 0.0], [1.0, 0.0], [1.5, 1.0], [0.5, 1.0]],     # sheared
                    [[[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],    # one bad element
                     [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.1]]]):  # in a batch
        with pytest.raises(ValueError, match="not an axis-aligned rectangle"):
            element_stiffness(np.array(corners))


def test_element_stiffness_batched_equals_per_element():
    rng = np.random.default_rng(3)
    mesh = build_band_mesh(9, 0.01, 4)
    corners = mesh.coords[mesh.elements]
    a, b = rng.uniform(0.1, 2.0, (2, len(corners), 4))
    batched = element_stiffness(corners, a, b)
    assert np.array_equal(batched, np.stack(
        [element_stiffness(c, ae, be) for c, ae, be in zip(corners, a, b)]))
    assert np.array_equal(element_stiffness(corners), np.stack(
        [element_stiffness(c) for c in corners]))
    # one shared rectangle against per-element coefficients, as the periodic assembler calls it
    square = rectangle(0.0, 0.0, 0.125, 0.125)
    assert np.array_equal(element_stiffness(square, a, b), np.stack(
        [element_stiffness(square, ae, be) for ae, be in zip(a, b)]))


def test_band_mesh_counts_and_flags():
    mesh = build_band_mesh(9, 0.04, 4)
    assert mesh.num_vertices == 9 * 11
    assert len(mesh.elements) == 8 * 10
    assert len(mesh.interior()) == 7 * 9


def test_band_mesh_validation():
    with pytest.raises(ValueError):
        build_band_mesh(5, 0.01, 2)          # too small
    with pytest.raises(ValueError):
        build_band_mesh(9, 0.04, 1)          # band at the boundary
    with pytest.raises(ValueError):
        build_band_mesh(9, 0.1, 4)           # beta >= h/2


def test_uniform_poisson_stencil():
    # away from the band the 9-point stencil is (1/6){16, -2 everywhere}
    N_y = 9
    h = 1.0 / (N_y - 1)
    mesh = build_band_mesh(N_y, 0.3 * h, 2)
    A = assemble_laplace_dirichlet(mesh)
    coords = mesh.coords[mesh.interior()]
    mid = int(np.argmin(np.abs(coords[:, 0] - 6 * h) + np.abs(coords[:, 1] - 4 * h)))
    row = row_by_offset(A, coords, mid)
    assert len(row) == 9
    assert row[(0.0, 0.0)] == pytest.approx(16.0 / 6.0, abs=1e-12)
    for off, v in row.items():
        if off != (0.0, 0.0):
            assert v == pytest.approx(-2.0 / 6.0, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_band_assembly_matches_per_element_oracle(data):
    N_y = data.draw(st.integers(min_value=6, max_value=14), label="N_y")
    frac = data.draw(st.floats(min_value=0.01, max_value=0.49), label="beta/h")
    band_col = data.draw(st.integers(min_value=2, max_value=N_y - 3), label="band_col")
    mesh = build_band_mesh(N_y, frac / (N_y - 1), band_col)
    A = assemble_laplace_dirichlet(mesh)
    # oracle: every element's closed-form stiffness added into a dense matrix
    interior = mesh.interior()
    dof = np.full(mesh.num_vertices, -1)
    dof[interior] = np.arange(len(interior))
    dense = np.zeros((len(interior), len(interior)))
    coupled = np.zeros(dense.shape, dtype=bool)
    for elem in mesh.elements:
        (x0, y0), _, (x1, y1), _ = mesh.coords[elem]
        K = rectangle_stiffness(x1 - x0, y1 - y0)
        d = dof[elem]
        inner = d >= 0
        dense[np.ix_(d[inner], d[inner])] += K[np.ix_(inner, inner)]
        coupled[np.ix_(d[inner], d[inner])] = True
    pattern = np.zeros(dense.shape, dtype=bool)
    pattern[A.row_of_entry(), A.col_idx] = True
    assert np.array_equal(pattern, coupled)
    scale = np.max(np.abs(dense))
    assert np.max(np.abs(A.to_dense() - dense)) <= 1e-13 * scale


def band_stencil(h, beta):
    """{offset class: value} for a band-column vertex, scale beta/(6h)."""
    r = (h / beta) ** 2
    s = beta / (6.0 * h)
    return {"center": s * (8 + 8 * r), "ns": s * (-4 + 2 * r),
            "ew": s * (2 - 4 * r), "corner": s * (-1 - r)}


def test_band_stencil_formula():
    N_y = 9
    h = 1.0 / (N_y - 1)
    beta = 0.3 * h
    mesh = build_band_mesh(N_y, beta, 4)
    A = assemble_laplace_dirichlet(mesh)
    coords = mesh.coords[mesh.interior()]
    mid = int(np.argmin(np.abs(coords[:, 0] - 4 * h) + np.abs(coords[:, 1] - 4 * h)))
    want = band_stencil(h, beta)
    for (dx, dy), v in row_by_offset(A, coords, mid).items():
        kind = ("center" if dx == dy == 0.0 else
                "ns" if dx == 0.0 else "ew" if dy == 0.0 else "corner")
        assert v == pytest.approx(want[kind], abs=1e-12), (dx, dy)


def test_band_stencil_reduces_to_uniform_when_beta_equals_h():
    # h/beta = 1 collapses the band formula onto the uniform stencil
    want = band_stencil(0.125, 0.125)
    assert want["center"] == pytest.approx(16.0 / 6.0)
    assert want["ns"] == pytest.approx(-2.0 / 6.0)
    assert want["ew"] == pytest.approx(-2.0 / 6.0)
    assert want["corner"] == pytest.approx(-2.0 / 6.0)


def test_uniform_diffusion_stencil():
    # alpha = beta = 1 gives the bilinear Poisson stencil (1/3){8, -1}
    inst = assemble_diffusion_periodic(8, alpha=lambda x, y: 1.0,
                                       beta=lambda x, y: 1.0)
    cols, vals = inst.A.row(0)
    by_val = {round(v, 12) for v in vals}
    assert by_val == {round(8.0 / 3.0, 12), round(-1.0 / 3.0, 12)}


def test_anisotropic_diffusion_stencil():
    inst = assemble_diffusion_periodic(16, alpha=lambda x, y: 0.001,
                                       beta=lambda x, y: 0.8)
    N, h = 16, 1.0 / 16
    i = 5 * N + 5
    row = {}
    cols, vals = inst.A.row(i)
    for j, v in zip(cols, vals):
        dx = ((j % N - i % N) + N // 2) % N - N // 2
        dy = ((j // N - i // N) + N // 2) % N - N // 2
        row[(dx, dy)] = v
    assert row[(0, 0)] == pytest.approx(1.068, abs=5e-4)
    assert row[(0, 1)] == pytest.approx(-0.533, abs=5e-4)
    assert row[(1, 0)] == pytest.approx(0.266, abs=5e-4)
    assert row[(1, 1)] == pytest.approx(-0.1335, abs=5e-4)


def test_periodic_rows_sum_to_zero():
    inst = assemble_diffusion_periodic(10, 2, 1, 0, 3)
    assert np.allclose(spmv_csr(inst.A, np.ones(100)), 0.0, atol=1e-12)


def test_diffusion_targets_are_vertex_coefficients():
    inst = assemble_diffusion_periodic(8, 1, 0, 0, 0)
    x = inst.coords[:, 0]
    assert np.allclose(inst.targets[:, 0], np.cos(np.pi * x) ** 2, atol=1e-14)
    assert np.allclose(inst.targets[:, 1], 1.0, atol=1e-14)


def test_diffusion_graph_attributes():
    inst = assemble_diffusion_periodic(6)
    g = diffusion_graph(inst)
    assert g.edge_attrs.shape[1] == 3
    assert set(np.unique(g.edge_attrs[:, 1])) == {-1.0, 0.0, 1.0}
    assert g.global_attrs[0] == inst.h
    # vertex attr is the diagonal
    self_mask = g.src == g.dst
    assert np.array_equal(g.vertex_attrs[g.dst[self_mask], 0],
                          g.edge_attrs[self_mask, 0])


def test_sine_mode_basis_split_and_norms():
    rng = np.random.default_rng(0)
    coords = rng.uniform(0.1, 0.9, (40, 2))
    V_lf, V_hf = sine_mode_basis(coords, 6)
    assert V_lf.shape == (40, 9)       # both frequencies <= 3
    assert V_hf.shape == (40, 27)
    assert np.allclose(np.linalg.norm(V_lf, axis=0), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(V_hf, axis=0), 1.0, atol=1e-12)


def test_dst_basis_is_orthonormal():
    V_lf, V_hf = dst_basis(8)
    V = np.concatenate([V_lf, V_hf], axis=1)
    assert V.shape == (64, 64)
    assert np.allclose(V.T @ V, np.eye(64), atol=1e-12)


def test_jacobi_instance_determinism_and_bounds():
    cfg = JacobiDataConfig(N_y=10, counts=(2, 1, 1), seed=5)
    a = jacobi_instance(cfg, 3)
    b = jacobi_instance(cfg, 3)
    assert np.array_equal(a.A.values, b.A.values)
    h = 1.0 / 9
    assert 0.05 * h <= a.meta["beta"] <= 0.45 * h
    assert 2 <= a.meta["band_col"] <= 7


def test_dataset_split_counts():
    data = gen_jacobi_dataset(JacobiDataConfig(N_y=8, counts=(3, 2, 1)))
    assert [len(data[s]) for s in ("train", "val", "test")] == [3, 2, 1]
    data = gen_diffusion_dataset(DiffusionDataConfig(N_min=4, N_max=5, counts=(2, 1, 1)))
    assert [len(data[s]) for s in ("train", "val", "test")] == [2, 1, 1]
    for inst in data["train"]:
        assert 4 <= inst.meta["N"] <= 5


def test_instance_disk_roundtrip(tmp_path):
    inst = assemble_diffusion_periodic(6, 1, 2, 0, 1)
    inst.meta["index"] = 0
    write_instance(str(tmp_path / "i0"), inst)
    back = read_instance(str(tmp_path / "i0"))
    assert np.array_equal(back.A.values, inst.A.values)
    assert np.array_equal(back.coords, inst.coords)
    assert np.array_equal(back.targets, inst.targets)
    assert back.h == inst.h
    assert back.meta["theta"] == [1, 2, 0, 1]


@pytest.mark.parametrize("fname, edit, message", [
    ("coords.csv", lambda lines: lines[:2] + ["inf,0.5"] + lines[3:],
     "non-finite value in data row 2"),
    ("targets.csv", lambda lines: lines[:5] + ["nan,0.5"] + lines[6:],
     "non-finite value in data row 5"),
    ("targets.csv", lambda lines: lines[:-1], "expected 36 rows of 2 values"),
    ("coords.csv", lambda lines: [line + ",0.0" for line in lines],
     "expected 36 rows of 2 values"),
    ("coords.csv", lambda lines: lines[:3] + [lines[3] + ",0.0"] + lines[4:],
     "the number of columns changed from 2 to 3 at row 3"),
    ("targets.csv", lambda lines: lines[:2] + ["abc,0.5"] + lines[3:],
     "could not convert string 'abc'"),
])
def test_read_instance_rejects_bad_side_files(tmp_path, fname, edit, message):
    inst = assemble_diffusion_periodic(6, 1, 2, 0, 1)
    inst.meta["index"] = 0
    write_instance(str(tmp_path / "i0"), inst)
    path = tmp_path / "i0" / fname
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=f"{fname}: {message}"):
        read_instance(str(tmp_path / "i0"))


def test_write_instance_deterministic_bytes(tmp_path):
    cfg = JacobiDataConfig(N_y=8, counts=(1, 0, 0), seed=1)
    for name in ("a", "b"):
        write_instance(str(tmp_path / name), jacobi_instance(cfg, 0))
    for fname in ("matrix.mtx", "meta.json", "coords.csv"):
        assert ((tmp_path / "a" / fname).read_bytes()
                == (tmp_path / "b" / fname).read_bytes())


def test_write_instance_failure_keeps_old_files(tmp_path, monkeypatch):
    inst = assemble_diffusion_periodic(6, 1, 2, 0, 1)
    inst.meta["index"] = 0
    folder = tmp_path / "i0"
    write_instance(str(folder), inst)
    old = {name: (folder / name).read_bytes() for name in os.listdir(folder)}

    def fail(values):       # coords.csv's header is written by now
        raise OSError("disk full")

    monkeypatch.setattr(fem, "format_floats", fail)
    with pytest.raises(OSError, match="disk full"):
        write_instance(str(folder), inst)
    assert {name: (folder / name).read_bytes() for name in os.listdir(folder)} == old


# signed zeros, subnormals and the largest finite doubles among repeated values
SIDE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072009e-308,
                               1.7976931348623157e308, -1.7976931348623157e308, 0.5])


@st.composite
def side_values(draw):
    """coords and targets arrays of n rows each."""
    n = draw(st.integers(0, 6))
    cell = SIDE_FLOATS | st.floats(allow_nan=False)
    rows = st.lists(st.tuples(cell, cell), min_size=n, max_size=n)
    return [np.array(draw(rows), dtype=np.float64).reshape(n, 2) for _ in range(2)]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(side_values())
def test_side_files_match_savetxt(tmp_path, side):
    coords, targets = side
    write_instance(str(tmp_path), ProblemInstance(identity(len(coords)), coords, 0.5,
                                                  targets, {}))
    for fname, header, values in (("coords.csv", "x,y", coords),
                                  ("targets.csv", "alpha,beta", targets)):
        want = io.StringIO()
        np.savetxt(want, values, fmt="%.17g", delimiter=",", header=header, comments="")
        assert (tmp_path / fname).read_text() == want.getvalue()
