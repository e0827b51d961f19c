"""Losses, baselines, spectral evaluation, training loops, CSV emission."""

import dataclasses
import os

import numpy as np
import pytest

from conftest import dst_basis, tridiag
from gnla import autodiff as ad
from gnla import nn
from gnla import train as tr
from gnla.fem import (DiffusionDataConfig, JacobiDataConfig,
                      assemble_diffusion_periodic, diffusion_graph,
                      gen_diffusion_dataset, gen_jacobi_dataset,
                      jacobi_instance, sine_mode_basis)
from gnla.sparse import SparseMatrixCSR, diag, from_dense, identity, spmm_csr


def small_jacobi_data():
    return gen_jacobi_dataset(JacobiDataConfig(N_y=8, counts=(3, 2, 2), seed=0))


def test_sample_probes_columns_are_distinct_vhf_columns():
    rng = np.random.default_rng(0)
    _, V_hf = dst_basis(6)
    probes = sample_probes = tr.sample_probes(V_hf, 5, rng)
    assert probes.shape == (36, 5)
    # each probe equals one V_hf column
    for k in range(5):
        assert np.any(np.all(np.isclose(V_hf, probes[:, [k]], atol=0), axis=0))


def test_sample_probes_too_many_raises():
    with pytest.raises(ValueError):
        tr.sample_probes(np.zeros((5, 3)), 4, np.random.default_rng(0))


def test_jacobi_probe_loss_taped_matches_plain():
    rng = np.random.default_rng(2)
    A = tridiag(9)
    probes = rng.standard_normal((9, 4))
    probes /= np.linalg.norm(probes, axis=0)
    d = rng.uniform(0.1, 0.6, 9)
    plain = tr.jacobi_probe_loss(d, A, probes, 3)
    tape = ad.Tape()
    taped = tr.jacobi_probe_loss(tape.leaf(d), A, probes, 3)
    assert plain >= 0.0
    assert plain == float(taped.value)


def test_jacobi_loss_permutation_invariance():
    rng = np.random.default_rng(3)
    A = tridiag(8)
    probes = rng.standard_normal((8, 3))
    d = rng.uniform(0.1, 0.6, 8)
    perm = rng.permutation(8)
    P = np.eye(8)[perm]
    A_p = from_dense(P @ A.to_dense() @ P.T)
    a = tr.jacobi_probe_loss(d, A, probes, 3)
    b = tr.jacobi_probe_loss(d[perm] @ np.eye(8), A_p, P @ probes, 3)
    assert a == pytest.approx(b, rel=1e-12)


def test_jacobi_loss_exact_single_probe():
    # d = 1/diag on I: B = 0, loss 0; d = 0: B = I, loss = ||u|| = 1
    A = identity(4)
    u = np.array([[0.5], [0.5], [0.5], [0.5]])
    assert tr.jacobi_probe_loss(np.ones(4), A, u, 3) == 0.0
    assert tr.jacobi_probe_loss(np.zeros(4), A, u, 3) == pytest.approx(1.0)


def test_omega_co_uniform_tridiagonal_is_one():
    # D^{-1}A spectrum is 1 - cos(k pi/(n+1)): symmetric around 1 -> omega = 1
    assert tr.omega_co(tridiag(25)) == pytest.approx(1.0, abs=1e-8)


def test_omega_co_matches_dense_spectrum_of_band_matrix():
    A = jacobi_instance(JacobiDataConfig(), 0).A
    lam = np.linalg.eigvals(A.to_dense() / diag(A)[:, None]).real
    assert tr.omega_co(A) == pytest.approx(2.0 / (lam.min() + lam.max()), rel=1e-12)


def test_eval_jacobi_identity_case():
    V, _ = dst_basis(4)
    omega = 0.3
    vals = tr.eval_jacobi(omega * np.ones(16), V, V, k=3)    # A = I: AV = V
    assert np.allclose(vals, [1 - omega] * 3, atol=1e-12)


def test_train_jacobi_deterministic_and_early_stop():
    data = small_jacobi_data()
    cfg = tr.TrainConfig(epochs_max=3, batch_size=2, lr=1e-2, seed=0)
    store1, res1 = tr.train_jacobi(data, cfg)
    store2, res2 = tr.train_jacobi(data, cfg)
    assert np.array_equal(store1.values, store2.values)
    assert res1.history == res2.history
    # early stopping returns the epoch of minimal recorded validation loss
    assert res1.best_val == min(v for _, _, v in res1.history)
    assert res1.history[res1.best_epoch][2] == res1.best_val
    # and the returned parameters evaluate to exactly that validation loss
    val = tr._jacobi_setup(data["val"], cfg)
    got = float(np.mean([
        tr.jacobi_probe_loss(nn.jacobi_model_forward(inst.A, store1), inst.A, p, cfg.K)
        for inst, p in val]))
    assert got == pytest.approx(res1.best_val, rel=1e-12)


def test_compare_methods_trivial_model_subsumes_baseline():
    # a constant omega = 1 stands in for the model and must tie the omega_1 rows
    data = small_jacobi_data()
    report = tr.compare_methods(data["test"], 1.0, k=5)
    learned = {(m, k): v for m, meth, k, v in report.eig_rows if meth == "learned"}
    base = {(m, k): v for m, meth, k, v in report.eig_rows if meth == "omega_1"}
    assert learned == base
    assert report.fractions["omega_1"] == 0.0  # ties are not wins


def test_compare_methods_baselines_match_their_own_propagators():
    # desk instances 80 and 81 have complex eigenvalues in M = V^T D^{-1} A V;
    # the shared spectrum must report them as the separate propagators do
    cfg = JacobiDataConfig()
    test = [jacobi_instance(cfg, idx) for idx in (80, 81, 82)]
    k = 60
    report = tr.compare_methods(test, 0.5, k=k)
    rows = {}
    for mid, method, rank, val in report.eig_rows:
        rows.setdefault((mid, method), []).append(val)
    saw_complex = False
    for inst in test:
        _, V = sine_mode_basis(inst.coords, inst.meta["N_y"] - 2)
        AV = spmm_csr(inst.A, V)
        mu = np.linalg.eigvals(V.T @ (AV / diag(inst.A)[:, None]))
        saw_complex |= bool(np.any(mu.imag != 0))
        for method, omega in (("learned", 0.5), ("omega_1", 1.0),
                              ("omega_2_3", 2.0 / 3.0), ("omega_co", tr.omega_co(inst.A))):
            want = tr.eval_jacobi(omega / diag(inst.A), AV, V, k)
            assert np.allclose(rows[(inst.meta["index"], method)], want,
                               rtol=0, atol=1e-12), method
    assert saw_complex


@pytest.mark.parametrize("with_model, per_matrix", [(True, 2), (False, 1)])
def test_compare_methods_eigensolves_per_matrix(monkeypatch, with_model, per_matrix):
    data = small_jacobi_data()
    learned = (nn.init_glorot(nn.jacobi_model_spec(), np.random.default_rng(0))
               if with_model else 0.6667)
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(1) or eigvals(M))
    tr.compare_methods(data["test"], learned, k=3)
    assert len(calls) == per_matrix * len(data["test"])


def test_compare_methods_names_a_non_positive_diagonal():
    inst = jacobi_instance(JacobiDataConfig(N_y=8), 0)
    A = inst.A
    values = np.where(A.row_of_entry() == A.col_idx, 0.0, A.values)
    bad = dataclasses.replace(inst, A=SparseMatrixCSR(A.n, A.row_ptr, A.col_idx, values))
    with pytest.raises(ValueError, match="omega_co requires a positive diagonal"):
        tr.compare_methods([bad], 0.5, k=3)


def test_diffusion_loss_values():
    t = np.ones((9, 2))
    assert tr.diffusion_loss(t.copy(), t) == 0.0
    assert tr.diffusion_loss(t + 1.0, t) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tr.diffusion_loss(np.ones((4, 2)), t)


def test_diffusion_loss_taped_matches_plain():
    rng = np.random.default_rng(5)
    pred = rng.standard_normal((6, 2))
    t = rng.standard_normal((6, 2))
    tape = ad.Tape()
    taped = tr.diffusion_loss(tape.leaf(pred), t)
    assert float(taped.value) == pytest.approx(tr.diffusion_loss(pred, t), rel=1e-14)


def test_train_diffusion_deterministic():
    data = gen_diffusion_dataset(DiffusionDataConfig(N_min=6, N_max=6, theta_max=2,
                                                     counts=(2, 1, 1), seed=0))
    cfg = tr.TrainConfig(epochs_max=2, batch_size=2, lr=1e-3, seed=0)
    store1, res1 = tr.train_diffusion(data, cfg)
    store2, res2 = tr.train_diffusion(data, cfg)
    assert np.array_equal(store1.values, store2.values)
    assert res1.history == res2.history


@pytest.mark.parametrize("k", [0, 2])
def test_train_diffusion_names_the_first_non_finite_sample(k):
    data = gen_diffusion_dataset(DiffusionDataConfig(N_min=6, N_max=6, theta_max=2,
                                                     counts=(3, 1, 0), seed=0))
    data["train"][k].targets[4, 1] = np.nan
    cfg = tr.TrainConfig(epochs_max=2, batch_size=2, lr=1e-3, seed=0)
    index = data["train"][k].meta["index"]
    with pytest.raises(FloatingPointError,
                       match=f"at epoch 0 on training instance {index}$"):
        tr.train_diffusion(data, cfg)


@pytest.mark.parametrize("key, value", [
    ("K", 2.0), ("m", True), ("seed", -1), ("lr", 0.0), ("lr", float("inf")),
    ("lr", "1e-3"),
])
def test_train_config_rejects_bad_values(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be"):
        tr.TrainConfig(**{key: value})


def test_freq_sweep_grid_shape():
    store = nn.init_glorot(nn.diffusion_model_spec(), np.random.default_rng(0))
    grid, rows = tr.freq_sweep_eval(store, theta_grid_max=2, N=6, trained_theta_max=1)
    assert grid.shape == (3, 3)
    assert len(rows) == 9
    assert rows[0][3] == 1 and rows[-1][3] == 0


def test_stencil_probe_runs():
    store = nn.init_glorot(nn.diffusion_model_spec(), np.random.default_rng(0))
    a, b = tr.stencil_probe(store, N=8)
    assert np.isfinite(a) and np.isfinite(b)


def test_csv_writers(tmp_path):
    res = tr.TrainResult([(0, 0.5, 0.25)], 0, 0.25)
    path = tmp_path / "loss.csv"
    tr.write_loss_curve(path, res)
    assert path.read_text() == "epoch,train_loss,val_loss\n0,0.5,0.25\n"
    rows = [(0, 1, 0.1, 1)]
    tr.write_freq_sweep(tmp_path / "f.csv", rows)
    assert (tmp_path / "f.csv").read_text() == ("theta_x,theta_y,mse,in_training_region\n"
                                                "0,1,0.10000000000000001,1\n")


def test_csv_write_failure_keeps_old_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cannot format")

    path = tmp_path / "loss.csv"
    tr.write_loss_curve(path, tr.TrainResult([(0, 0.5, 0.25)], 0, 0.25))
    old = path.read_bytes()
    rows = [(0, 0.5, 0.25), (1, Unprintable(), 0.125)]   # fails on the second row
    with pytest.raises(RuntimeError, match="cannot format"):
        tr.write_loss_curve(path, tr.TrainResult(rows, 1, 0.125))
    assert path.read_bytes() == old
    assert os.listdir(tmp_path) == ["loss.csv"]
