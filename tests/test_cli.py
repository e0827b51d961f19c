"""CLI subcommands: exit codes, config validation, artifact files, determinism."""

import json
import os
import shutil

import numpy as np
import pytest

from conftest import random_spd
from gnla import amg, fem, kernels
from gnla.cli import main
from gnla.sparse import identity, write_matrix_market


def run_config(tmp_path, **overrides):
    cfg = {
        "version": 1,
        "seed": 0,
        "dataset": {"kind": "jacobi", "N_y": 8, "counts": [3, 2, 2]},
        "train": {"epochs_max": 2, "batch_size": 2, "lr": 1e-2},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("name", ["spmv", "norm", "jacobi", "chebyshev",
                                  "power", "soc-classic", "soc-sa"])
def test_kernel_demo_passes(name):
    assert main(["kernel", name, "--n", "6"]) == 0


def test_kernel_unknown_name_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["kernel", "qr"])
    assert exc.value.code == 2


def test_kernel_spmv_identity_file(tmp_path, capsys):
    mtx = tmp_path / "eye.mtx"
    write_matrix_market(mtx, identity(3))
    vec = tmp_path / "x.csv"
    vec.write_text("1.0\n2.0\n3.0\n")
    assert main(["kernel", "spmv", "--matrix", str(mtx), "--vector", str(vec)]) == 0
    out = capsys.readouterr().out
    assert "[1.0, 2.0, 3.0]" in out
    assert "discrepancy: 0.000e+00" in out


def test_kernel_chebyshev_matrix_file(tmp_path):
    mtx = tmp_path / "a.mtx"
    write_matrix_market(mtx, random_spd(np.random.default_rng(3), 12, 0.3))
    assert main(["kernel", "chebyshev", "--matrix", str(mtx)]) == 0


def test_kernel_bad_matrix_file_is_numerical_error(tmp_path):
    bad = tmp_path / "bad.mtx"
    bad.write_text("not a matrix\n")
    assert main(["kernel", "spmv", "--matrix", str(bad)]) == 1


@pytest.mark.parametrize("field, entry, message", [
    ("pattern", "1 1", "bad.mtx:1: unsupported field type 'pattern'"),
    ("complex", "1 1 1.0 0.0", "bad.mtx:1: unsupported field type 'complex'"),
    ("real", "1 1 nan", "bad.mtx:4: non-finite value 'nan'"),
    ("real", "1 1 -inf", "bad.mtx:4: non-finite value '-inf'"),
    ("real", "2 2 5.0", "bad.mtx: duplicate (row, col) entry (2, 2)"),
])
def test_kernel_matrix_field_type_and_non_finite_rejected(tmp_path, capsys,
                                                          field, entry, message):
    bad = tmp_path / "bad.mtx"
    bad.write_text(f"%%MatrixMarket matrix coordinate {field} general\n"
                   f"% comment\n2 2 2\n{entry}\n2 2 1\n")
    assert main(["kernel", "spmv", "--matrix", str(bad)]) == 1
    assert message in capsys.readouterr().err


def test_kernel_integer_matrix_accepted(tmp_path):
    mtx = tmp_path / "int.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate integer general\n"
                   "2 2 2\n1 1 2\n2 2 3\n")
    assert main(["kernel", "spmv", "--matrix", str(mtx)]) == 0


@pytest.mark.parametrize("argv, message", [
    (["kernel", "spmv", "--n", "0"], "--n must be >= 1, got 0"),
    (["kernel", "jacobi", "--n", "-3"], "--n must be >= 1, got -3"),
    (["demo-amg", "--n", "0"], "--n must be >= 1, got 0"),
    (["kernel", "jacobi", "--iters", "-1"], "--iters must be >= 0, got -1"),
    (["kernel", "power", "--iters", "-2"], "--iters must be >= 0, got -2"),
    (["demo-amg", "--iters", "-1"], "--iters must be >= 0, got -1"),
])
def test_kernel_and_demo_amg_bad_counts_are_usage_errors(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["kernel", "soc-classic", "--tau", "0"], "--tau must lie in (0, 1], got 0.0"),
    (["kernel", "soc-classic", "--tau", "1.5"], "--tau must lie in (0, 1], got 1.5"),
    (["kernel", "jacobi", "--omega", "nan"], "--omega must be finite, got nan"),
    (["kernel", "spmv", "--tol", "-1"], "--tol must be > 0, got -1.0"),
    (["demo-amg", "--tol", "0"], "--tol must be > 0, got 0.0"),
])
def test_kernel_and_demo_amg_bad_reals_are_usage_errors(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["spmv", "norm", "jacobi", "chebyshev",
                                  "power", "soc-classic", "soc-sa"])
def test_kernel_empty_matrix_file_is_named(tmp_path, capsys, name):
    mtx = tmp_path / "empty.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n0 0 0\n")
    assert main(["kernel", name, "--matrix", str(mtx)]) == 1
    assert f"{mtx}: the matrix is empty (n = 0)" in capsys.readouterr().err


def test_threads_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "kernel", "spmv"])
    assert exc.value.code == 2


def test_gen_data_writes_instances_and_manifest(tmp_path):
    cfg = run_config(tmp_path)
    out = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sum(len(v) for v in manifest["splits"].values()) == 7
    assert (out / "inst_0000" / "matrix.mtx").exists()


def test_gen_data_refuses_existing_dir(tmp_path):
    cfg = run_config(tmp_path)
    out = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 2
    assert main(["gen-data", "--config", cfg, "--out", str(out), "--force"]) == 0


def test_gen_data_force_removes_stale_instances(tmp_path):
    out = tmp_path / "data"
    big = run_config(tmp_path, dataset={"kind": "jacobi", "N_y": 8, "counts": [3, 2, 2]})
    assert main(["gen-data", "--config", big, "--out", str(out)]) == 0
    (out / "notes.txt").write_text("kept")
    small = run_config(tmp_path, dataset={"kind": "jacobi", "N_y": 8, "counts": [1, 1, 1]})
    assert main(["gen-data", "--config", small, "--out", str(out), "--force"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "inst_0000", "inst_0001", "inst_0002", "manifest.json", "notes.txt"]


def test_gen_data_same_seed_identical_bytes(tmp_path):
    cfg = run_config(tmp_path)
    for name in ("a", "b"):
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    for root, _, files in os.walk(tmp_path / "a"):
        for fname in files:
            rel = os.path.relpath(os.path.join(root, fname), tmp_path / "a")
            assert (open(os.path.join(tmp_path, "a", rel), "rb").read()
                    == open(os.path.join(tmp_path, "b", rel), "rb").read()), rel


def test_gen_data_writes_each_instance_before_building_the_next(tmp_path, monkeypatch):
    out, real, on_disk = tmp_path / "data", fem.jacobi_instance, []

    def instance(cfg, index):
        on_disk.append(sorted(p.parent.name for p in out.glob("inst_*/coords.csv")))
        return real(cfg, index)

    monkeypatch.setattr(fem, "jacobi_instance", instance)
    assert main(["gen-data", "--config", run_config(tmp_path), "--out", str(out)]) == 0
    assert on_disk == [[f"inst_{k:04d}" for k in range(index)] for index in range(7)]


def test_gen_data_stopped_run_leaves_no_manifest(tmp_path, monkeypatch, capsys):
    cfg, out, real = run_config(tmp_path), tmp_path / "data", fem.jacobi_instance
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0

    def instance(cfg, index):
        if index == 2:
            raise RuntimeError("stopped at instance 2")
        return real(cfg, index)

    monkeypatch.setattr(fem, "jacobi_instance", instance)
    assert main(["gen-data", "--config", cfg, "--out", str(out), "--force"]) == 1
    assert not (out / "manifest.json").exists()
    assert main(["train", "jacobi", "--config", cfg, "--data", str(out),
                 "--out", str(tmp_path / "run")]) == 2
    assert "cannot read dataset manifest" in capsys.readouterr().err


def test_gen_data_lists_a_zero_count_split_as_empty(tmp_path):
    cfg = run_config(tmp_path, dataset={"kind": "jacobi", "N_y": 8, "counts": [2, 0, 1]})
    out = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["splits"] == {"train": ["inst_0000", "inst_0001"], "val": [],
                                  "test": ["inst_0002"]}


def test_config_unknown_key_rejected(tmp_path):
    cfg = run_config(tmp_path, extra_section={"x": 1})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d")]) == 2


def test_config_eval_section_rejected(tmp_path, capsys):
    cfg = run_config(tmp_path, eval={"k": 10})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d")]) == 2
    assert "unknown config key(s) in top level: ['eval']" in capsys.readouterr().err


def test_config_missing_version_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"seed": 0, "dataset": {"kind": "jacobi"}}))
    assert main(["gen-data", "--config", path.as_posix(), "--out", str(tmp_path / "d")]) == 2


def test_config_bad_dataset_kind(tmp_path):
    cfg = run_config(tmp_path, dataset={"kind": "stokes"})
    assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "d")]) == 2


@pytest.mark.parametrize("overrides, message", [
    ({"train": {"epochs_max": 0}}, "epochs_max must be an integer >= 1, got 0"),
    ({"train": {"batch_size": 0}}, "batch_size must be an integer >= 1, got 0"),
    ({"train": {"epochs_max": "2"}}, "epochs_max must be an integer >= 1, got '2'"),
    ({"dataset": {"kind": "jacobi", "N_y": 8, "counts": [3, 0, 2]}},
     "training needs a non-empty val split"),
    ({"train": {"probe_style": "sphere"}}, "unknown config key(s) in train: ['probe_style']"),
    ({"train": {"early_stop": False}}, "unknown config key(s) in train: ['early_stop']"),
])
def test_train_bad_config_is_usage_error(tmp_path, capsys, overrides, message):
    cfg = run_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert main(["train", "jacobi", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


JACOBI = {"kind": "jacobi", "N_y": 8, "counts": [3, 2, 2]}
DIFFUSION = {"kind": "diffusion", "N_min": 6, "N_max": 6, "theta_max": 2, "counts": [2, 1, 1]}


@pytest.mark.parametrize("dataset, message", [
    ({**JACOBI, "N_y": "8"}, "N_y must be an integer >= 6, got '8'"),
    ({**JACOBI, "N_y": 5}, "N_y must be an integer >= 6, got 5"),
    ({**DIFFUSION, "N_min": 6.5}, "N_min must be an integer >= 4, got 6.5"),
    ({**DIFFUSION, "N_min": 8}, "N_max must be an integer >= 8, got 6"),
    ({**DIFFUSION, "theta_max": -1}, "theta_max must be an integer >= 0, got -1"),
    ({**JACOBI, "counts": [3, 2]}, "counts must list three split sizes, got [3, 2]"),
    ({**JACOBI, "counts": 7}, "counts must list three split sizes, got 7"),
    ({**DIFFUSION, "counts": [3, -1, 2]}, "each of counts must be an integer >= 0, got -1"),
    ({**JACOBI, "beta_frac_min": float("nan")},
     "beta_frac_min must be a number in (0, 0.5), got nan"),
    ({**JACOBI, "beta_frac_max": "0.4"},
     "beta_frac_max must be a number in (0, 0.5), got '0.4'"),
    ({**JACOBI, "beta_frac_min": 0.3, "beta_frac_max": 0.2},
     "beta_frac_min (0.3) must not exceed beta_frac_max (0.2)"),
    ({**DIFFUSION, "N_y": 8}, "unexpected keyword argument 'N_y'"),
])
def test_bad_dataset_config_is_usage_error(tmp_path, capsys, dataset, message):
    cfg = run_config(tmp_path, dataset=dataset)
    out = tmp_path / "d"
    assert main(["gen-data", "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("N_y, n_high", [(8, 27), (20, 243)])
def test_train_m_beyond_high_modes_is_usage_error(tmp_path, capsys, N_y, n_high):
    # checked before the dataset is read: the --data folder does not exist
    cfg = run_config(tmp_path, dataset={"kind": "jacobi", "N_y": N_y, "counts": [3, 2, 2]},
                     train={"m": n_high + 1})
    assert main(["train", "jacobi", "--config", cfg, "--data", str(tmp_path / "none"),
                 "--out", str(tmp_path / "run")]) == 2
    assert (f"train.m = {n_high + 1} exceeds the {n_high} high-frequency modes "
            f"of dataset.N_y = {N_y}") in capsys.readouterr().err
    cfg = run_config(tmp_path, dataset={"kind": "jacobi", "N_y": N_y, "counts": [3, 2, 2]},
                     train={"m": n_high})
    assert main(["train", "jacobi", "--config", cfg, "--data", str(tmp_path / "none"),
                 "--out", str(tmp_path / "run")]) == 2
    assert "cannot read dataset manifest" in capsys.readouterr().err


def test_train_dataset_N_y_must_match_config(tmp_path, capsys):
    data = tmp_path / "data"
    cfg = run_config(tmp_path, dataset={"kind": "jacobi", "N_y": 6, "counts": [3, 2, 2]})
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    # m = 20 fits the config's N_y = 8 (27 high modes), not the data's N_y = 6 (12)
    cfg = run_config(tmp_path, train={"m": 20})
    assert main(["train", "jacobi", "--config", cfg, "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 2
    assert (f"dataset at {data} has N_y = 6, but the config's dataset.N_y is 8"
            in capsys.readouterr().err)


def test_config_not_an_object_is_usage_error(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("[1, 2]")
    assert main(["train", "jacobi", "--config", str(path)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_train_divergence_exits_1(tmp_path, capsys):
    cfg = run_config(tmp_path, train={"epochs_max": 2, "batch_size": 2, "lr": 1e300})
    out = tmp_path / "run"
    assert main(["train", "jacobi", "--config", cfg, "--out", str(out)]) == 1
    assert "non-finite loss or gradient at epoch 0 on training instance" in \
        capsys.readouterr().err
    assert not (out / "checkpoint.json").exists()


def test_train_non_finite_target_file_exits_1(tmp_path, capsys):
    cfg = run_config(tmp_path,
                     dataset={"kind": "diffusion", "N_min": 6, "N_max": 6,
                              "theta_max": 2, "counts": [2, 1, 1]},
                     train={"epochs_max": 1, "batch_size": 2, "lr": 1e-3})
    data = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    targets = data / "inst_0001" / "targets.csv"
    lines = targets.read_text().splitlines()
    targets.write_text("\n".join(lines[:3] + ["nan,0.5"] + lines[4:]) + "\n")
    assert main(["train", "diffusion", "--config", cfg, "--data", str(data),
                 "--out", str(tmp_path / "run")]) == 1
    assert f"{targets}: non-finite value in data row 3" in capsys.readouterr().err


def test_train_eval_jacobi_roundtrip(tmp_path, capsys):
    cfg = run_config(tmp_path)
    data = tmp_path / "data"
    out = tmp_path / "run"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    assert main(["train", "jacobi", "--config", cfg, "--data", str(data),
                 "--out", str(out)]) == 0
    assert (out / "checkpoint.json").exists()
    curve = (out / "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,train_loss,val_loss"
    assert len(curve) == 3
    assert main(["eval", "jacobi", "--checkpoint", str(out / "checkpoint.json"),
                 "--data", str(data), "--out", str(out), "--k", "4"]) == 0
    assert (out / "eig_report.csv").exists()
    assert (out / "winners.csv").exists()
    assert "learned beats" in capsys.readouterr().out


def test_eval_jacobi_omega_baseline(tmp_path):
    cfg = run_config(tmp_path)
    data = tmp_path / "data"
    out = tmp_path / "ev"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    assert main(["eval", "jacobi", "--data", str(data), "--out", str(out),
                 "--omega", "0.6667", "--k", "3"]) == 0
    rows = (out / "eig_report.csv").read_text().splitlines()
    learned = sorted(r.split(",", 2)[2] for r in rows[1:] if ",learned," in r)
    base = sorted(r.split(",", 2)[2] for r in rows[1:] if ",omega_2_3," in r)
    # omega differs in the 4th digit from 2/3, so values are close but distinct
    assert len(learned) == len(base) > 0


def test_eval_jacobi_needs_checkpoint_or_omega(tmp_path):
    cfg = run_config(tmp_path)
    data = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    assert main(["eval", "jacobi", "--data", str(data),
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("flags, message", [
    (["--omega", "0.6667", "--k", "-1"], "--k must be >= 1, got -1"),
    (["--omega", "0.6667", "--k", "0"], "--k must be >= 1, got 0"),
    (["--omega", "nan"], "--omega must be finite, got nan"),
    (["--omega", "inf"], "--omega must be finite, got inf"),
])
def test_eval_jacobi_bad_k_or_omega_is_usage_error(tmp_path, capsys, flags, message):
    cfg = run_config(tmp_path)
    data = tmp_path / "data"
    out = tmp_path / "o"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    assert main(["eval", "jacobi", "--data", str(data), "--out", str(out)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not (out / "eig_report.csv").exists()


def test_train_experiment_kind_mismatch(tmp_path):
    cfg = run_config(tmp_path)
    assert main(["train", "diffusion", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


def test_eval_checkpoint_architecture_mismatch(tmp_path):
    cfg = run_config(tmp_path)
    data = tmp_path / "data"
    out = tmp_path / "run"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    assert main(["train", "jacobi", "--config", cfg, "--data", str(data),
                 "--out", str(out)]) == 0
    assert main(["eval", "diffusion",
                 "--checkpoint", str(out / "checkpoint.json")]) == 2


def test_train_eval_diffusion_tiny(tmp_path, capsys):
    cfg = run_config(tmp_path,
                     dataset={"kind": "diffusion", "N_min": 6, "N_max": 6,
                              "theta_max": 2, "counts": [2, 1, 1]},
                     train={"epochs_max": 1, "batch_size": 2, "lr": 1e-3})
    out = tmp_path / "run"
    assert main(["train", "diffusion", "--config", cfg, "--out", str(out)]) == 0
    assert main(["eval", "diffusion", "--checkpoint", str(out / "checkpoint.json"),
                 "--out", str(out), "--theta-grid-max", "2", "--sweep-n", "6"]) == 0
    sweep = (out / "freq_sweep.csv").read_text().splitlines()
    assert sweep[0] == "theta_x,theta_y,mse,in_training_region"
    assert len(sweep) == 10
    assert "constant-coefficient probe" in capsys.readouterr().out


def _drop_splits(data, splits):
    """Delete the instance folders of ``splits``, keeping the manifest."""
    manifest = json.loads((data / "manifest.json").read_text())
    for split in splits:
        for name in manifest["splits"][split]:
            shutil.rmtree(data / name)


@pytest.mark.parametrize("kind", ["jacobi", "diffusion"])
def test_commands_read_only_the_splits_they_use(tmp_path, kind):
    if kind == "jacobi":
        cfg = run_config(tmp_path)
        eval_args = ["--omega", "0.6667", "--k", "3"]
    else:
        cfg = run_config(tmp_path,
                         dataset={"kind": "diffusion", "N_min": 6, "N_max": 6,
                                  "theta_max": 2, "counts": [2, 1, 1]},
                         train={"epochs_max": 1, "batch_size": 2, "lr": 1e-3})
        eval_args = ["--theta-grid-max", "1", "--sweep-n", "6"]
    train_data, eval_data, out = tmp_path / "td", tmp_path / "ed", tmp_path / "run"
    for data in (train_data, eval_data):
        assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    _drop_splits(train_data, ["test"])
    assert main(["train", kind, "--config", cfg, "--data", str(train_data),
                 "--out", str(out)]) == 0
    _drop_splits(eval_data, ["train", "val"])
    if kind == "diffusion":
        eval_args += ["--checkpoint", str(out / "checkpoint.json")]
    assert main(["eval", kind, "--data", str(eval_data), "--out", str(out)]
                + eval_args) == 0


def test_manifest_without_the_split_is_usage_error(tmp_path, capsys):
    cfg = run_config(tmp_path)
    data = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    del manifest["splits"]["test"]
    (data / "manifest.json").write_text(json.dumps(manifest))
    assert main(["eval", "jacobi", "--data", str(data), "--out", str(tmp_path / "o"),
                 "--omega", "0.6667"]) == 2
    assert "has no ['test'] split" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("broken, message", [
    (lambda m: "{kind: jacobi", "is not valid JSON"),
    (lambda m: json.dumps([m]), "must be a JSON object with 'kind' and a 'splits' object"),
    (lambda m: json.dumps({k: v for k, v in m.items() if k != "kind"}), "must be a JSON object"),
    (lambda m: json.dumps({k: v for k, v in m.items() if k != "splits"}), "must be a JSON object"),
], ids=["not-json", "not-an-object", "no-kind", "no-splits"])
def test_broken_manifest_is_usage_error(tmp_path, capsys, command, broken, message):
    cfg = run_config(tmp_path)
    data = tmp_path / "data"
    assert main(["gen-data", "--config", cfg, "--out", str(data)]) == 0
    path = data / "manifest.json"
    path.write_text(broken(json.loads(path.read_text())))
    capsys.readouterr()
    args = (["train", "jacobi", "--config", cfg] if command == "train"
            else ["eval", "jacobi", "--omega", "0.6667"])
    assert main(args + ["--data", str(data), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: dataset manifest {path} ") and message in err


def test_train_twice_identical_outputs(tmp_path):
    cfg = run_config(tmp_path)
    for name in ("r1", "r2"):
        assert main(["train", "jacobi", "--config", cfg,
                     "--out", str(tmp_path / name)]) == 0
    for fname in ("checkpoint.json", "loss_curve.csv"):
        assert ((tmp_path / "r1" / fname).read_bytes()
                == (tmp_path / "r2" / fname).read_bytes())


def test_svg_outputs(tmp_path):
    cfg = run_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "jacobi", "--config", cfg, "--out", str(out), "--svg"]) == 0
    svg = (out / "loss_curve.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_demo_amg():
    assert main(["demo-amg", "--n", "31", "--iters", "20"]) == 0


def test_demo_amg_names_the_tol_it_missed(capsys):
    assert main(["demo-amg", "--n", "31", "--iters", "0"]) == 1
    assert ("error: final residual 5.568e+00 not below --tol 1e-08"
            in capsys.readouterr().err)


@pytest.mark.parametrize("name, fake, message", [
    ("soc-sa", lambda A: identity(A.n), "does not keep the matrix's sparsity pattern"),
    ("soc-classic", lambda A, tau: A, "max relative discrepancy"),
])
def test_kernel_soc_checks_pattern_and_values(capsys, monkeypatch, name, fake, message):
    monkeypatch.setattr(amg, name.replace("-", "_"), fake)
    assert main(["kernel", name, "--n", "6"]) == 1
    assert message in capsys.readouterr().err


def test_kernel_names_the_tol_it_missed(capsys, monkeypatch):
    monkeypatch.setattr(kernels, "gnn_spmv", lambda A, x, self_edges=True: np.zeros(A.n))
    assert main(["kernel", "spmv", "--n", "6"]) == 1
    assert ("error: max relative discrepancy 1.000e+00 not below --tol 1e-10"
            in capsys.readouterr().err)
