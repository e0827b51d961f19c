"""Losses, training loops, baselines, and evaluation for both experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .fem import (ProblemInstance, assemble_diffusion_periodic, check_int, check_real,
                  diffusion_graph, sine_mode_basis)
from .sparse import SparseMatrixCSR, atomic_write, diag, spectrum_bounds, spmm_csr


@dataclass(frozen=True)
class TrainConfig:
    epochs_max: int = 30
    batch_size: int = 10
    lr: float = 1e-3
    K: int = 3                 # loss power iterations
    m: int = 20                # probe count
    seed: int = 0

    def __post_init__(self):
        for key, low in (("epochs_max", 1), ("batch_size", 1), ("K", 1), ("m", 1),
                         ("seed", 0)):
            check_int(key, getattr(self, key), low)
        check_real("lr", self.lr, 0, np.inf)


@dataclass
class TrainResult:
    history: list          # (epoch, train_loss, val_loss)
    best_epoch: int
    best_val: float


def desk_jacobi_train_config(seed: int = 0) -> TrainConfig:
    # Short schedule on purpose: the probe surrogate at this problem size is
    # dominated by low-frequency leakage through the band, so prolonged
    # optimisation drifts away from the projected-spectrum objective.  Two
    # epochs of per-sample Adam steps reach the best generalising checkpoint.
    return TrainConfig(epochs_max=2, batch_size=1, lr=3e-2, K=3, m=20, seed=seed)


def desk_diffusion_train_config(seed: int = 0) -> TrainConfig:
    return TrainConfig(epochs_max=40, batch_size=10, lr=3e-3, seed=seed)


# -- relaxation-diagonal experiment ------------------------------------------

def sample_probes(V_hf: np.ndarray, m: int, rng) -> np.ndarray:
    """m distinct V_hf columns."""
    if m > V_hf.shape[1]:
        raise ValueError(f"asked for {m} probes but only {V_hf.shape[1]} columns")
    idx = rng.choice(V_hf.shape[1], size=m, replace=False)
    return V_hf[:, idx]


def jacobi_probe_loss(d, A: SparseMatrixCSR, probes: np.ndarray, K: int):
    """max_i ||(I - diag(d) A)^K u_i||^(1/K) over the probe columns.

    ``d`` may be a taped Var (returns a scalar Var; the max routes the gradient
    to the argmax probe) or a plain array (returns a float).
    """
    plain = not isinstance(d, ad.Var)
    if plain:
        d = ad.Tape(record=False).leaf(d)
    U = d.tape.leaf(probes)
    dcol = ad.reshape(d, (len(d.value), 1))
    for _ in range(K):
        U = ad.sub(U, ad.mul(dcol, ad.csr_matmat(A, U)))
    loss = ad.vmax(ad.power(ad.l2_norm(U, axis=0), 1.0 / K))
    return float(loss.value) if plain else loss


def _jacobi_setup(instances, cfg: TrainConfig):
    """(instance, fixed probes) pairs; the probes are keyed by dataset index."""
    out = []
    for inst in instances:
        _, V_hf = sine_mode_basis(inst.coords, inst.meta["N_y"] - 2)
        rng = np.random.default_rng([cfg.seed, 7, inst.meta["index"]])
        out.append((inst, sample_probes(V_hf, cfg.m, rng)))
    return out


def _fit(store: nn.ParamStore, cfg: TrainConfig, train: list, val: list,
         taped_loss, plain_loss) -> tuple[nn.ParamStore, TrainResult]:
    """Adam on batches of samples, each a tuple led by its ProblemInstance;
    returns the parameters of least validation loss.

    ``taped_loss(sample, store, tape)`` gives the loss Var and its TapedParams,
    ``plain_loss(sample, store)`` a float: a loss's two branches may differ in
    the last bit, and validation keeps the plain one's bits.
    """
    adam = nn.adam_init(store.size)
    history, best = [], (np.inf, 0, store.values.copy())
    for epoch in range(cfg.epochs_max):
        epoch_losses = []
        for k in range(0, len(train), cfg.batch_size):
            gsum = np.zeros(store.size)
            for sample in train[k:k + cfg.batch_size]:
                tape = ad.Tape()
                loss, tparams = taped_loss(sample, store, tape)
                grad = tparams.flat_grad(ad.backward(tape, loss))
                if not (np.isfinite(loss.value) and np.all(np.isfinite(grad))):
                    raise FloatingPointError(
                        f"non-finite loss or gradient at epoch {epoch} on training "
                        f"instance {sample[0].meta['index']}")
                gsum += grad
                epoch_losses.append(float(loss.value))
            new_values, adam = nn.adam_step(store.values, gsum, adam, cfg.lr)
            store = store.replaced(new_values)
        val_loss = float(np.mean([plain_loss(sample, store) for sample in val]))
        if not np.isfinite(val_loss):
            raise FloatingPointError(f"non-finite validation loss {val_loss} at epoch {epoch}")
        history.append((epoch, float(np.mean(epoch_losses)), val_loss))
        if val_loss < best[0]:
            best = (val_loss, epoch, store.values.copy())
    return store.replaced(best[2]), TrainResult(history, best[1], best[0])


def train_jacobi(datasets: dict, cfg: TrainConfig,
                 store: nn.ParamStore | None = None) -> tuple[nn.ParamStore, TrainResult]:
    """Adam training of the relaxation-diagonal model with validation-minimum
    checkpointing. Deterministic given (datasets, cfg)."""
    if store is None:
        store = nn.init_glorot(nn.jacobi_model_spec(), np.random.default_rng([cfg.seed, 1]))

    def taped_loss(sample, store, tape):
        inst, probes = sample
        d, tparams = nn.jacobi_model_forward(inst.A, store, tape)
        return jacobi_probe_loss(d, inst.A, probes, cfg.K), tparams

    def plain_loss(sample, store):
        inst, probes = sample
        return jacobi_probe_loss(nn.jacobi_model_forward(inst.A, store), inst.A,
                                 probes, cfg.K)

    return _fit(store, cfg, _jacobi_setup(datasets["train"], cfg),
                _jacobi_setup(datasets["val"], cfg), taped_loss, plain_loss)


# -- spectral evaluation ------------------------------------------------------

def omega_co(A: SparseMatrixCSR) -> float:
    """2 / (lambda_min + lambda_max) of D^{-1} A, the classical optimal weight.

    Both extremal eigenvalues come from ``spectrum_bounds`` of the similar
    matrix D^{-1/2} A D^{-1/2}, built on A's pattern.
    """
    d = diag(A)
    if np.any(d <= 0):
        raise ValueError("omega_co requires a positive diagonal")
    s = 1.0 / np.sqrt(d)
    scaled = SparseMatrixCSR(A.n, A.row_ptr, A.col_idx,
                             s[A.row_of_entry()] * A.values * s[A.col_idx])
    lam_min, lam_max = spectrum_bounds(scaled)
    return 2.0 / (lam_min + lam_max)


def _top_k(w: np.ndarray, k: int) -> np.ndarray:
    """The k largest-magnitude eigenvalues among w; a complex one is reported
    by its magnitude."""
    w = w[np.argsort(-np.abs(w), kind="stable")[:k]]
    return np.where(np.abs(w.imag) <= 1e-8 * np.maximum(1.0, np.abs(w)), w.real, np.abs(w))


def eval_jacobi(d: np.ndarray, AV: np.ndarray, V_hf: np.ndarray,
                k: int = 10) -> np.ndarray:
    """Top-k largest-magnitude eigenvalues of I - V_hf^T diag(d) A V_hf, the
    error propagator seen by the high modes, given AV = A V_hf.

    The propagator is not symmetric, so all its eigenvalues come from one
    dense eigensolve.
    """
    d = np.asarray(d, dtype=np.float64)
    return _top_k(np.linalg.eigvals(np.eye(V_hf.shape[1]) - V_hf.T @ (d[:, None] * AV)), k)


@dataclass
class EvalReport:
    """Per-matrix spectral comparison of the learned diagonal vs. baselines."""

    eig_rows: list = field(default_factory=list)     # (matrix_id, method, rank, value)
    winner_rows: list = field(default_factory=list)  # (matrix_id, band_width, band_x, winner)
    max_eigs: dict = field(default_factory=dict)     # method -> list of spectral radii
    diffs: dict = field(default_factory=dict)        # baseline -> baseline_minus_learned
    fractions: dict = field(default_factory=dict)    # baseline -> fraction learned wins


BASELINES = ("omega_1", "omega_2_3", "omega_co")


def compare_methods(test_set: list[ProblemInstance], learned: nn.ParamStore | float,
                    k: int = 10) -> EvalReport:
    """Spectral comparison of the "learned" diagonal against the BASELINES.

    ``learned`` is the model's ParamStore, or a float omega whose constant
    diagonal omega / A_ii stands in for the model. A constant diagonal gives
    the propagator I - omega M with M = V_hf^T D^{-1} A V_hf, so one spectrum
    of M serves every constant-omega method; only a model needs its own solve.
    """
    methods = ("learned",) + BASELINES
    report = EvalReport(max_eigs={m: [] for m in methods})
    for inst in test_set:
        mid = inst.meta.get("index", 0)
        _, V_hf = sine_mode_basis(inst.coords, inst.meta["N_y"] - 2)
        AV = spmm_csr(inst.A, V_hf)
        # omega_co checks that diag(A) > 0 before M divides by it
        omegas = {"omega_1": 1.0, "omega_2_3": 2.0 / 3.0, "omega_co": omega_co(inst.A)}
        top = {}
        if isinstance(learned, nn.ParamStore):
            d = nn.jacobi_model_forward(inst.A, learned)
            top["learned"] = eval_jacobi(d, AV, V_hf, k)
        else:
            omegas["learned"] = learned
        mu = np.linalg.eigvals(V_hf.T @ (AV / diag(inst.A)[:, None]))
        top.update({m: _top_k(1.0 - omega * mu, k) for m, omega in omegas.items()})
        radii = {}
        for method in methods:
            radii[method] = float(np.max(np.abs(top[method])))
            report.max_eigs[method].append(radii[method])
            for rank, val in enumerate(top[method]):
                report.eig_rows.append((mid, method, rank, float(val)))
        winner = min(radii, key=radii.get)
        report.winner_rows.append(
            (mid, 2 * inst.meta["beta"], inst.meta["band_x"], winner))
    learned = np.array(report.max_eigs["learned"])
    for b in BASELINES:
        base = np.array(report.max_eigs[b])
        report.diffs[b] = (base - learned).tolist()
        report.fractions[b] = float(np.mean(learned < base))
    return report


# -- diffusion-coefficient experiment ----------------------------------------

def diffusion_loss(pred, targets):
    """(1/2N^2) * sum(|alpha - alpha_t|^2 + |beta - beta_t|^2) over N^2 vertices."""
    targets = np.asarray(targets, dtype=np.float64)
    shape = pred.value.shape if isinstance(pred, ad.Var) else np.shape(pred)
    if tuple(shape) != targets.shape:
        raise ValueError(f"prediction shape {shape} != target shape {targets.shape}")
    n = len(targets)
    if isinstance(pred, ad.Var):
        diff = ad.sub(pred, pred.tape.leaf(targets))
        return ad.scalar_mul(1.0 / (2 * n), ad.vsum(ad.mul(diff, diff)))
    return float(((np.asarray(pred) - targets) ** 2).sum() / (2 * n))


def train_diffusion(datasets: dict, cfg: TrainConfig,
                    store: nn.ParamStore | None = None) -> tuple[nn.ParamStore, TrainResult]:
    """Adam training of the diffusion-coefficient model, as train_jacobi."""
    if store is None:
        store = nn.init_glorot(nn.diffusion_model_spec(),
                               np.random.default_rng([cfg.seed, 2]))

    def taped_loss(sample, store, tape):
        inst, graph = sample
        pred, tparams = nn.diffusion_model_forward(graph, store, tape)
        return diffusion_loss(pred, inst.targets), tparams

    def plain_loss(sample, store):
        inst, graph = sample
        return diffusion_loss(nn.diffusion_model_forward(graph, store), inst.targets)

    def setup(instances):
        return [(inst, diffusion_graph(inst)) for inst in instances]

    return _fit(store, cfg, setup(datasets["train"]), setup(datasets["val"]),
                taped_loss, plain_loss)


def freq_sweep_eval(store: nn.ParamStore, theta_grid_max: int, N: int,
                    trained_theta_max: int = 4):
    """MSE grid over isotropic coefficient frequencies (theta_x, theta_y).

    Returns (grid, rows) where rows are (theta_x, theta_y, mse, in_training_region).
    """
    grid = np.zeros((theta_grid_max + 1, theta_grid_max + 1))
    rows = []
    for tx in range(theta_grid_max + 1):
        for ty in range(theta_grid_max + 1):
            inst = assemble_diffusion_periodic(N, tx, ty, tx, ty)
            pred = nn.diffusion_model_forward(diffusion_graph(inst), store)
            mse = diffusion_loss(pred, inst.targets)
            grid[tx, ty] = mse
            rows.append((tx, ty, mse, int(tx <= trained_theta_max and ty <= trained_theta_max)))
    return grid, rows


def stencil_probe(store: nn.ParamStore, N: int = 32,
                  alpha: float = 0.001, beta: float = 0.8) -> tuple[float, float]:
    """Mean predicted (alpha, beta) on the constant-coefficient instance."""
    inst = assemble_diffusion_periodic(N, alpha=lambda x, y: alpha,
                                       beta=lambda x, y: beta)
    pred = nn.diffusion_model_forward(diffusion_graph(inst), store)
    return float(pred[:, 0].mean()), float(pred[:, 1].mean())


# -- CSV emission -------------------------------------------------------------

def _write_csv(path, header, rows):
    with atomic_write(path) as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(
                ("%.17g" % v) if isinstance(v, float) else str(v)
                for v in row) + "\n")


def write_loss_curve(path, result: TrainResult) -> None:
    _write_csv(path, "epoch,train_loss,val_loss", result.history)


def write_eig_report(path, report: EvalReport) -> None:
    _write_csv(path, "matrix_id,method,k,eigenvalue", report.eig_rows)


def write_winners(path, report: EvalReport) -> None:
    _write_csv(path, "matrix_id,band_width,band_x,winner", report.winner_rows)


def write_freq_sweep(path, rows) -> None:
    _write_csv(path, "theta_x,theta_y,mse,in_training_region", rows)
