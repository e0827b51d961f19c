"""Command-line entry point: kernels, dataset generation, training, evaluation."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import numpy as np

from . import amg, kernels, nn, train as tr
from .fem import (SPLITS, DiffusionDataConfig, JacobiDataConfig, dataset_instances,
                  gen_dataset, read_instance, write_instance)
from .sparse import (SparseMatrixCSR, atomic_write, dense_vector, diag, from_coo,
                     read_matrix_market, spectrum_bounds)

CONFIG_VERSION = 1


class UsageError(Exception):
    pass


# -- run configuration --------------------------------------------------------

_SCHEMA = {
    "": {"version", "seed", "output_dir", "dataset", "train"},
    "dataset": {"kind", "N_y", "beta_frac_min", "beta_frac_max", "counts",
                "N_min", "N_max", "theta_max"},
    "train": {"epochs_max", "batch_size", "lr", "K", "m"},
}


def load_run_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    if cfg.get("version") != CONFIG_VERSION:
        raise UsageError(f"config must declare \"version\": {CONFIG_VERSION}")
    for section, allowed in _SCHEMA.items():
        doc = cfg if section == "" else cfg.get(section, {})
        if not isinstance(doc, dict):
            raise UsageError(f"config section '{section}' must be an object")
        unknown = set(doc) - allowed
        if unknown:
            where = section or "top level"
            raise UsageError(f"unknown config key(s) in {where}: {sorted(unknown)}")
    return cfg


def _dataset_config(cfg: dict):
    ds = dict(cfg.get("dataset", {}))
    kind = ds.pop("kind", None)
    classes = {"jacobi": JacobiDataConfig, "diffusion": DiffusionDataConfig}
    if kind not in classes:
        raise UsageError("dataset.kind must be 'jacobi' or 'diffusion'")
    try:
        return kind, classes[kind](seed=cfg.get("seed", 0), **ds)
    except (TypeError, ValueError) as exc:    # a key of the other kind, or a bad value
        raise UsageError(f"invalid dataset config: {exc}") from None


def _train_config(cfg: dict) -> tr.TrainConfig:
    try:
        return tr.TrainConfig(seed=cfg.get("seed", 0), **cfg.get("train", {}))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# -- dataset on disk ----------------------------------------------------------

def _write_dataset(out_dir: str, kind: str, dcfg, force: bool) -> dict:
    if os.path.exists(out_dir) and not force:
        raise UsageError(f"output directory {out_dir} exists (use --force)")
    os.makedirs(out_dir, exist_ok=True)
    # a run stopped part-way leaves no manifest over a mix of old and new instances
    manifest_path = os.path.join(out_dir, "manifest.json")
    if os.path.lexists(manifest_path):
        os.remove(manifest_path)
    manifest = {"version": CONFIG_VERSION, "kind": kind,
                "config": {**dcfg.__dict__, "counts": list(dcfg.counts)},
                "splits": {split: [] for split in SPLITS}}
    for split, inst in dataset_instances(dcfg):     # one instance in memory at a time
        name = f"inst_{inst.meta['index']:04d}"
        write_instance(os.path.join(out_dir, name), inst)
        manifest["splits"][split].append(name)
    with atomic_write(manifest_path) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
    # a --force run over a larger dataset must not leave its instances behind
    listed = {name for names in manifest["splits"].values() for name in names}
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        if name.startswith("inst_") and name not in listed and os.path.isdir(path):
            shutil.rmtree(path)
    return manifest


def load_dataset(data_dir: str, splits: tuple[str, ...]) -> tuple[str, dict]:
    """The dataset's kind and the instances of the named splits only."""
    path = os.path.join(data_dir, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read dataset manifest: {exc}") from None
    except ValueError as exc:     # not JSON, or not text
        raise UsageError(f"dataset manifest {path} is not valid JSON: {exc}") from None
    if not (isinstance(manifest, dict) and "kind" in manifest
            and isinstance(manifest.get("splits"), dict)):
        raise UsageError(f"dataset manifest {path} must be a JSON object "
                         "with 'kind' and a 'splits' object")
    missing = [split for split in splits if split not in manifest["splits"]]
    if missing:
        raise UsageError(f"dataset at {data_dir} has no {missing} split")
    return manifest["kind"], {
        split: [read_instance(os.path.join(data_dir, name))
                for name in manifest["splits"][split]]
        for split in splits}


# -- kernel subcommand --------------------------------------------------------

def _demo_tridiag(n: int) -> SparseMatrixCSR:
    if n < 1:
        raise UsageError(f"--n must be >= 1, got {n}")
    i = np.arange(n)
    rows = np.concatenate([i, i[:-1], i[1:]])
    cols = np.concatenate([i, i[1:], i[:-1]])
    vals = np.concatenate([np.full(n, 2.0), np.full(n - 1, -1.0), np.full(n - 1, -1.0)])
    return from_coo(n, rows, cols, vals)


def _check_iters_and_tol(args) -> None:
    if args.iters < 0:
        raise UsageError(f"--iters must be >= 0, got {args.iters}")
    if not args.tol > 0:
        raise UsageError(f"--tol must be > 0, got {args.tol}")


def cmd_kernel(args) -> int:
    _check_iters_and_tol(args)
    if not 0 < args.tau <= 1:
        raise UsageError(f"--tau must lie in (0, 1], got {args.tau}")
    if not np.isfinite(args.omega):
        raise UsageError(f"--omega must be finite, got {args.omega}")
    A = read_matrix_market(args.matrix) if args.matrix else _demo_tridiag(args.n)
    if A.n == 0:
        raise ValueError(f"{args.matrix}: the matrix is empty (n = 0)")
    if args.vector:
        x = np.loadtxt(args.vector, delimiter=",", ndmin=1)
    else:
        x = np.arange(1, A.n + 1, dtype=np.float64)
    x = dense_vector(x)
    name = args.name
    if name == "spmv":
        got = kernels.gnn_spmv(A, x, self_edges=not args.no_self_edges)
        want = np.bincount(A.row_of_entry(), A.values * x[A.col_idx], minlength=A.n)
    elif name == "norm":
        got = kernels.gnn_weighted_norm(A, x)
        want = kernels.weighted_norm_reference(A, x)
    elif name == "jacobi":
        got = kernels.gnn_jacobi(A, x, np.zeros(A.n), args.omega, args.iters)
        want = kernels.jacobi_reference(A, x, np.zeros(A.n), args.omega, args.iters)
    elif name == "chebyshev":
        lam = spectrum_bounds(A)
        got = kernels.gnn_chebyshev(A, x, np.zeros(A.n), lam[0], lam[1], args.iters)
        want = kernels.chebyshev_reference(A, x, np.zeros(A.n), lam[0], lam[1], args.iters)
    elif name == "power":
        got_v, got = kernels.gnn_power_method(A, x, args.iters)
        _, want = kernels.power_method_reference(A, x, args.iters)
    elif name in ("soc-classic", "soc-sa"):   # compared per stored entry of A
        S = amg.soc_classic(A, args.tau) if name == "soc-classic" else amg.soc_sa(A)
        if not (np.array_equal(S.row_ptr, A.row_ptr) and np.array_equal(S.col_idx, A.col_idx)):
            raise ArithmeticError(f"{name} result does not keep the matrix's sparsity pattern")
        got = S.values
        want = _soc_classic_oracle(A, args.tau) if name == "soc-classic" else _soc_sa_oracle(A)
    else:
        raise UsageError(f"unknown kernel '{name}'")
    got_a, want_a = np.atleast_1d(got), np.atleast_1d(want)
    disc = float(np.max(np.abs(got_a - want_a)) / max(1.0, float(np.max(np.abs(want_a)))))
    print(f"kernel {name} on n={A.n}")
    print("result:", np.round(np.asarray(got_a).ravel()[:10], 12).tolist())
    print("oracle:", np.round(np.asarray(want_a).ravel()[:10], 12).tolist())
    print(f"max relative discrepancy: {disc:.3e}")
    if not disc < args.tol:
        raise ArithmeticError(f"max relative discrepancy {disc:.3e} not below --tol {args.tol:g}")
    return 0


def _soc_classic_oracle(A: SparseMatrixCSR, tau: float) -> np.ndarray:
    """Per stored entry: 1 where -A_ij / max_{k != i}(-A_ik) > tau, else 0."""
    rows = A.row_of_entry()
    row_max = np.full(A.n, -np.inf)
    np.maximum.at(row_max, rows, np.where(rows != A.col_idx, -A.values, -np.inf))
    return ((-A.values / row_max[rows] - tau) > 0).astype(np.float64)


def _soc_sa_oracle(A: SparseMatrixCSR) -> np.ndarray:
    """Per stored entry: A_ij^2 / (A_ii A_jj)."""
    d = diag(A)
    return A.values ** 2 / (d[A.row_of_entry()] * d[A.col_idx])


# -- other subcommands --------------------------------------------------------

def cmd_gen_data(args) -> int:
    cfg = load_run_config(args.config)
    kind, dcfg = _dataset_config(cfg)
    out_dir = args.out or cfg.get("output_dir")
    if not out_dir:
        raise UsageError("no output directory (config output_dir or --out)")
    manifest = _write_dataset(out_dir, kind, dcfg, args.force)
    total = sum(len(v) for v in manifest["splits"].values())
    print(f"wrote {total} {kind} instances to {out_dir}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    kind_cfg, dcfg = _dataset_config(cfg)
    if args.experiment != kind_cfg:
        raise UsageError(f"config dataset.kind is '{kind_cfg}', not '{args.experiment}'")
    tcfg = _train_config(cfg)
    if args.experiment == "jacobi":
        n_modes = dcfg.N_y - 2          # sine_mode_basis's modes per direction
        n_high = n_modes ** 2 - (n_modes // 2) ** 2
        if tcfg.m > n_high:
            raise UsageError(f"train.m = {tcfg.m} exceeds the {n_high} high-frequency "
                             f"modes of dataset.N_y = {dcfg.N_y}")
    if args.data:
        kind, datasets = load_dataset(args.data, ("train", "val"))
        if kind != args.experiment:
            raise UsageError(f"dataset at {args.data} is '{kind}'")
        if args.experiment == "jacobi":
            for inst in datasets["train"] + datasets["val"]:
                if inst.meta.get("N_y") != dcfg.N_y:
                    raise UsageError(f"dataset at {args.data} has N_y = {inst.meta.get('N_y')}, "
                                     f"but the config's dataset.N_y is {dcfg.N_y}")
    else:
        datasets = gen_dataset(dcfg)
    for split in ("train", "val"):
        if not datasets[split]:
            raise UsageError(f"training needs a non-empty {split} split")
    out_dir = args.out or cfg.get("output_dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    trainer = tr.train_jacobi if args.experiment == "jacobi" else tr.train_diffusion
    store, result = trainer(datasets, tcfg)
    meta = {"experiment": args.experiment, "seed": tcfg.seed,
            "best_epoch": result.best_epoch, "best_val": result.best_val,
            "epochs_run": len(result.history)}
    nn.save_checkpoint(os.path.join(out_dir, "checkpoint.json"), store, meta)
    tr.write_loss_curve(os.path.join(out_dir, "loss_curve.csv"), result)
    if args.svg:
        _loss_svg(os.path.join(out_dir, "loss_curve.svg"), result)
    print(f"best validation loss {result.best_val:.6e} at epoch {result.best_epoch}")
    return 0


def cmd_eval(args) -> int:
    store, meta = nn.load_checkpoint(args.checkpoint) if args.checkpoint else (None, {})
    if store is not None and meta.get("experiment") not in (None, args.experiment):
        raise UsageError(f"checkpoint was trained for '{meta.get('experiment')}'")
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    if args.experiment == "jacobi":
        if args.k < 1:
            raise UsageError(f"--k must be >= 1, got {args.k}")
        if args.omega is not None and not np.isfinite(args.omega):
            raise UsageError(f"--omega must be finite, got {args.omega}")
        kind, datasets = load_dataset(args.data, ("test",))
        if kind != "jacobi":
            raise UsageError(f"dataset at {args.data} is '{kind}'")
        test = datasets["test"]
        if args.omega is not None:
            store = args.omega      # the constant diagonal omega / A_ii stands in for "learned"
        elif store is None:
            raise UsageError("eval jacobi needs --checkpoint or --omega")
        elif store.model.param_count != nn.jacobi_model_spec().param_count:
            raise UsageError("checkpoint architecture does not match the jacobi model")
        report = tr.compare_methods(test, store, k=args.k)
        tr.write_eig_report(os.path.join(out_dir, "eig_report.csv"), report)
        tr.write_winners(os.path.join(out_dir, "winners.csv"), report)
        for b, f in report.fractions.items():
            print(f"learned beats {b} on {100 * f:.1f}% of test matrices")
        if args.svg:
            _hist_svg(os.path.join(out_dir, "eig_diffs.svg"), report)
    else:
        if store is None:
            raise UsageError("eval diffusion needs --checkpoint")
        if store.model.param_count != nn.diffusion_model_spec().param_count:
            raise UsageError("checkpoint architecture does not match the diffusion model")
        ecfg = {}
        if args.data:
            kind, datasets = load_dataset(args.data, ("test",))
            if kind != "diffusion":
                raise UsageError(f"dataset at {args.data} is '{kind}'")
            from .fem import diffusion_graph
            mses = [tr.diffusion_loss(
                nn.diffusion_model_forward(diffusion_graph(inst), store), inst.targets)
                for inst in datasets["test"]]
            print(f"test MSE: mean {np.mean(mses):.6e}, max {np.max(mses):.6e}")
        _, rows = tr.freq_sweep_eval(store, args.theta_grid_max, args.sweep_n)
        tr.write_freq_sweep(os.path.join(out_dir, "freq_sweep.csv"), rows)
        a, b = tr.stencil_probe(store)
        print(f"constant-coefficient probe (target 0.001, 0.8): "
              f"alpha={a:.6f}, beta={b:.6f}")
    return 0


def cmd_demo_amg(args) -> int:
    _check_iters_and_tol(args)
    A = _demo_tridiag(args.n)
    b = np.ones(A.n)
    x, residuals = amg.two_level_solve(A, b, iters=args.iters, collect_residuals=True)
    for k, r in enumerate(residuals):
        print(f"cycle {k:2d}: residual {r:.6e}")
    if not residuals[-1] < args.tol:
        raise ArithmeticError(f"final residual {residuals[-1]:.3e} not below --tol {args.tol:g}")
    return 0


# -- minimal SVG plots --------------------------------------------------------

def _svg_doc(body: str, w=640, h=400) -> str:
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}"><rect width="100%" height="100%" fill="white"/>'
            f"{body}</svg>\n")


def _polyline(xs, ys, color, w=640, h=400, pad=40):
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    xr = xs.max() - xs.min() or 1.0
    yr = ys.max() - ys.min() or 1.0
    px = pad + (xs - xs.min()) / xr * (w - 2 * pad)
    py = h - pad - (ys - ys.min()) / yr * (h - 2 * pad)
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(px, py))
    return f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>'


def _loss_svg(path, result: tr.TrainResult) -> None:
    epochs = [r[0] for r in result.history]
    body = (_polyline(epochs, [r[1] for r in result.history], "steelblue")
            + _polyline(epochs, [r[2] for r in result.history], "firebrick"))
    with atomic_write(path) as fh:
        fh.write(_svg_doc(body))


def _hist_svg(path, report: tr.EvalReport) -> None:
    diffs = np.concatenate([np.asarray(v) for v in report.diffs.values()])
    counts, edges = np.histogram(diffs, bins=20)
    w, h, pad = 640, 400, 40
    top = counts.max() or 1
    bars = []
    for k, c in enumerate(counts):
        x0 = pad + k * (w - 2 * pad) / len(counts)
        bw = (w - 2 * pad) / len(counts) - 2
        bh = c / top * (h - 2 * pad)
        bars.append(f'<rect x="{x0:.1f}" y="{h - pad - bh:.1f}" width="{bw:.1f}" '
                    f'height="{bh:.1f}" fill="steelblue"/>')
    with atomic_write(path) as fh:
        fh.write(_svg_doc("".join(bars)))


# -- entry point --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gnla",
        description="Sparse linear-algebra kernels as graph networks, plus the "
                    "two learned-relaxation experiments.")
    sub = p.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="run a GNN kernel against its oracle")
    k.add_argument("name", choices=["spmv", "norm", "jacobi", "chebyshev",
                                    "power", "soc-classic", "soc-sa"])
    k.add_argument("--matrix", help="Matrix Market file (default: tridiagonal demo)")
    k.add_argument("--vector", help="CSV vector input")
    k.add_argument("--n", type=int, default=5, help="demo matrix size")
    k.add_argument("--iters", type=int, default=10)
    k.add_argument("--omega", type=float, default=2.0 / 3.0)
    k.add_argument("--tau", type=float, default=0.25)
    k.add_argument("--tol", type=float, default=1e-10)
    k.add_argument("--no-self-edges", action="store_true")
    k.set_defaults(func=cmd_kernel)

    g = sub.add_parser("gen-data", help="write a dataset directory")
    g.add_argument("--config", required=True)
    g.add_argument("--out", help="override config output_dir")
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train one of the two models")
    t.add_argument("experiment", choices=["jacobi", "diffusion"])
    t.add_argument("--config", required=True)
    t.add_argument("--data", help="dataset directory (default: generate in memory)")
    t.add_argument("--out", help="override config output_dir")
    t.add_argument("--svg", action="store_true")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    e.add_argument("experiment", choices=["jacobi", "diffusion"])
    e.add_argument("--checkpoint")
    e.add_argument("--data")
    e.add_argument("--out")
    e.add_argument("--omega", type=float,
                   help="evaluate the trivial diagonal omega/A_ii instead of a model")
    e.add_argument("--k", type=int, default=10)
    e.add_argument("--theta-grid-max", type=int, default=10)
    e.add_argument("--sweep-n", type=int, default=24)
    e.add_argument("--svg", action="store_true")
    e.set_defaults(func=cmd_eval)

    d = sub.add_parser("demo-amg", help="two-level cycle on the tridiagonal demo")
    d.add_argument("--n", type=int, default=63)
    d.add_argument("--iters", type=int, default=30)
    d.add_argument("--tol", type=float, default=1e-8)
    d.set_defaults(func=cmd_demo_amg)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical / IO failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
