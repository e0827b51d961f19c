"""One benchmark workload, run in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --work DIR
                                  [--min-rounds K] [--trace] [--setup-only]

The process writes its config and seeded inputs under DIR (set-up), then runs
rounds of the workload: at least K, and another one while it is expected to
end within S seconds of the first. Every round of one seed must produce
byte-identical outputs. The result goes to DIR/result.json;
``perfbench/run.py`` starts this script and reads it.

The time from ``PERFBENCH_SPAWN`` (the parent's ``time.monotonic()`` just
before it started this process) to the first timed phase is the set-up time:
interpreter start, ``import gnla`` and writing the inputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time

# Pinned before NumPy loads its threaded OpenBLAS. One thread: with two, the
# same training phase varied by a third between rounds on a shared 2-core host.
THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import gnla  # noqa: E402
from gnla import amg, cli, fem, kernels  # noqa: E402
from gnla import train as tr  # noqa: E402
from gnla.sparse import spmv_csr  # noqa: E402

KERNEL_TOL = 1e-10          # acceptance criterion 1
WIN_FRACTION = 0.9          # acceptance criterion 6, vs omega=1 and omega=2/3
ACCEPTANCE_SEED = 0         # the seed tests/test_acceptance.py runs criterion 6 at
AMG_RESIDUAL = 1e-8         # acceptance criterion 5


class Ops:
    """Operations attempted and failed; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def rel_error(got, want) -> float:
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


# -- training pipelines through the CLI -------------------------------------

class CliPipeline:
    """``gnla gen-data``, ``gnla train`` and ``gnla eval`` on one config."""

    def __init__(self, kind: str, dataset: dict, train: dict, eval_args: list[str],
                 eval_items: int, compared: tuple[str, ...]):
        self.kind = kind
        self.dataset = dataset
        self.train = train
        self.eval_args = eval_args
        self.eval_items = eval_items
        self.compared = compared

    def setup(self, work: str, seed: int) -> None:
        self.work = work
        self.config = self.write_config(os.path.join(work, "config.json"), seed)

    def write_config(self, path: str, seed: int) -> str:
        doc = {"version": cli.CONFIG_VERSION, "seed": seed,
               "dataset": {"kind": self.kind, **self.dataset}, "train": self.train}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
        return path

    def pipeline(self, config: str, data: str, out: str) -> list[tuple[str, list[str]]]:
        ckpt = os.path.join(out, "checkpoint.json")
        return [
            ("gen", ["gen-data", "--config", config, "--out", data]),
            ("train", ["train", self.kind, "--config", config, "--data", data,
                       "--out", out]),
            ("eval", ["eval", self.kind, "--checkpoint", ckpt, "--data", data,
                      "--out", out] + self.eval_args),
        ]

    def acceptance(self, ops: Ops) -> None:
        """Criterion 6 where the acceptance gate pins it: the desk config at seed 0.

        The thresholds are a claim about that seed. On other seeds the short
        desk schedule often generalises worse (at seed 7 the learned diagonal
        beat omega=1 on 80% of test matrices), so the timed rounds
        report their win fractions as per-layer metrics and do not judge them.
        Untimed; it runs once, before the first round.
        """
        if self.kind != "jacobi":
            return
        base = os.path.join(self.work, "acceptance")
        os.makedirs(base)
        config = self.write_config(os.path.join(base, "config.json"), ACCEPTANCE_SEED)
        out = os.path.join(base, "run")
        for _, argv in self.pipeline(config, os.path.join(base, "data"), out):
            rc = cli.main(argv)
            if not ops.check(rc == 0, f"acceptance: gnla {' '.join(argv[:2])} exited {rc}"):
                return
        fractions = _win_fractions(os.path.join(out, "eig_report.csv"))
        for base_method in ("omega_1", "omega_2_3"):
            ops.check(fractions[base_method] >= WIN_FRACTION,
                      f"seed {ACCEPTANCE_SEED}: learned diagonal beats {base_method} "
                      f"on {fractions[base_method]:.0%} of test matrices")
        shutil.rmtree(base, ignore_errors=True)

    def run_round(self, k: int, ops: Ops, tracer) -> dict | None:
        """gen -> train -> eval on the run's config.

        The dataset and the compared outputs must equal those of round 0 byte
        for byte; their digests are compared by the caller.
        """
        base = os.path.join(self.work, f"round{k}")
        data, out = os.path.join(base, "data"), os.path.join(base, "run")
        ckpt = os.path.join(out, "checkpoint.json")
        times = {}
        for phase, argv in self.pipeline(self.config, data, out):
            t0 = time.perf_counter()
            _timed(tracer, True)
            rc = cli.main(argv)
            _timed(tracer, False)
            times[phase] = time.perf_counter() - t0
            if not ops.check(rc == 0, f"gnla {' '.join(argv[:2])} exited {rc}"):
                return None
        with open(ckpt) as fh:
            meta = json.load(fh)["metadata"]
        counts = self.dataset["counts"]
        rows = _read_csv(os.path.join(out, "loss_curve.csv"))
        losses = [float(r[key]) for r in rows for key in ("train_loss", "val_loss")]
        if self.kind == "diffusion":
            losses += [float(r["mse"]) for r in _read_csv(os.path.join(out, "freq_sweep.csv"))]
        ops.check(bool(losses) and bool(np.all(np.isfinite(losses)))
                  and np.isfinite(meta["best_val"]), "non-finite loss")
        quality = {"train.val_loss": meta["best_val"]}
        if self.kind == "jacobi":
            fractions = _win_fractions(os.path.join(out, "eig_report.csv"))
            for base_method in ("omega_1", "omega_2_3"):
                quality[f"train.win_frac_{base_method}"] = fractions[base_method]
        digests = {name: sha256(os.path.join(out, name)) for name in self.compared}
        digests["dataset"] = _tree_digest(data)
        return {"wall_s": sum(times.values()), "timed_s": sum(times.values()),
                "gen_s": times["gen"], "gen_items": sum(counts),
                "train_s": times["train"], "train_samples": meta["epochs_run"] * counts[0],
                "eval_s": times["eval"], "eval_items": self.eval_items,
                "quality": quality, "digests": digests}


def _tree_digest(root: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            digest.update(sha256(path).encode())
    return digest.hexdigest()


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _win_fractions(path: str) -> dict:
    """Share of test matrices whose learned spectral radius beats each baseline."""
    radius: dict = {}
    for row in _read_csv(path):
        key = (row["matrix_id"], row["method"])
        radius[key] = max(radius.get(key, 0.0), abs(float(row["eigenvalue"])))
    ids = sorted({mid for mid, _ in radius})
    return {b: float(np.mean([radius[(m, "learned")] < radius[(m, b)] for m in ids]))
            for b in tr.BASELINES}


def _timed(tracer, on: bool) -> None:
    if tracer is not None:
        tracer.timed = on


# -- graph-network kernels and AMG against their references ----------------

class KernelChecks:
    """Each ``gnn_*`` kernel and the AMG steps on paper-scale FEM matrices.

    The Laplacian is instance 0 of ``fem.paper_jacobi_config`` (n = 1520). The
    diffusion matrix uses the paper config's largest grid, N = 100, so that the
    seed changes its coefficients but not its size. Reference calls, the dense
    eigensolve for the Chebyshev bounds and the AMG oracles run outside the
    timed phases.
    """

    JACOBI_SWEEPS = 50
    POWER_ITERS = 50
    CHEBYSHEV_ITERS = 20
    TWO_LEVEL_CYCLES = 60

    def setup(self, work: str, seed: int) -> None:
        paper = fem.paper_diffusion_config(seed)
        self.jacobi_cfg = fem.paper_jacobi_config(seed)
        self.diffusion_cfg = fem.DiffusionDataConfig(
            N_min=paper.N_max, N_max=paper.N_max, theta_max=paper.theta_max,
            counts=(1, 0, 0), seed=seed)
        rng = np.random.default_rng([seed, 2])
        self.inputs = {"x": rng.standard_normal(paper.N_max ** 2),
                       "b": rng.standard_normal(paper.N_max ** 2)}
        with open(os.path.join(work, "config.json"), "w") as fh:
            json.dump({"seed": seed, "jacobi": self.jacobi_cfg.__dict__,
                       "diffusion": self.diffusion_cfg.__dict__}, fh, indent=1)
        self.bounds: dict = {}

    def acceptance(self, ops: Ops) -> None:
        """Nothing beyond the per-round checks."""

    def run_round(self, k: int, ops: Ops, tracer) -> dict:
        t0 = time.perf_counter()
        _timed(tracer, True)
        L = fem.jacobi_instance(self.jacobi_cfg, 0).A
        D = fem.diffusion_instance(self.diffusion_cfg, 0).A
        _timed(tracer, False)
        gen_s = time.perf_counter() - t0

        key = hashlib.sha256(L.values.tobytes()).hexdigest()
        if key not in self.bounds:   # oracle, untimed and computed once
            w = np.linalg.eigvalsh(L.to_dense())
            self.bounds[key] = (float(w[0]), float(w[-1]))
        lam_min, lam_max = self.bounds[key]

        # (name, graph-network kernel, reference, arguments)
        calls = []
        for tag, M in (("L", L), ("D", D)):
            x, b, zero = self.inputs["x"][:M.n], self.inputs["b"][:M.n], np.zeros(M.n)
            calls += [
                (f"gnn_spmv {tag}", kernels.gnn_spmv, spmv_csr, (M, x)),
                (f"gnn_spmv no-self-edges {tag}",
                 functools.partial(kernels.gnn_spmv, self_edges=False), spmv_csr, (M, x)),
                (f"gnn_weighted_norm {tag}", kernels.gnn_weighted_norm,
                 kernels.weighted_norm_reference, (M, x)),
                (f"gnn_jacobi {tag}", kernels.gnn_jacobi, kernels.jacobi_reference,
                 (M, b, zero, 2 / 3, self.JACOBI_SWEEPS)),
                (f"gnn_power_method {tag}", kernels.gnn_power_method,
                 kernels.power_method_reference, (M, b, self.POWER_ITERS)),
            ]
        calls.append(("gnn_chebyshev L", kernels.gnn_chebyshev, kernels.chebyshev_reference,
                      (L, self.inputs["b"][:L.n], np.zeros(L.n), lam_min, lam_max,
                       self.CHEBYSHEV_ITERS)))

        results = {}
        t0 = time.perf_counter()
        _timed(tracer, True)
        for name, gn, _, args in calls:
            results[name] = gn(*args)
        S = amg.soc_classic(L)
        S_sa = amg.soc_sa(L)
        cf = amg.cf_split_greedy(S)
        _, P = amg.direct_interpolation(L, S, cf)
        x_amg, residuals = amg.two_level_solve(L, np.ones(L.n), iters=self.TWO_LEVEL_CYCLES,
                                               collect_residuals=True)
        _timed(tracer, False)
        eval_s = time.perf_counter() - t0

        for name, _, ref, args in calls:
            got, want = results[name], ref(*args)
            if isinstance(got, tuple):   # power method: (vector, eigenvalue)
                err = max(rel_error(got[0], want[0]), rel_error(got[1], want[1]))
            else:
                err = rel_error(got, want)
            ops.check(err <= KERNEL_TOL, f"{name}: relative error {err:.2e}")
        ops.check(np.array_equal(S.values, _soc_classic_oracle(L, 0.25))
                  and np.array_equal(S.col_idx, L.col_idx), "soc_classic differs from oracle")
        ops.check(rel_error(S_sa.values, _soc_sa_oracle(L)) <= KERNEL_TOL,
                  "soc_sa differs from oracle")
        ops.check(_is_maximal_independent(S, cf.labels == "C"),
                  "cf_split_greedy is not a maximal independent set")
        coarse = np.flatnonzero(cf.labels == "C")
        unit = np.zeros((len(coarse), P.shape[1]))
        unit[np.arange(len(coarse)), [cf.coarse_index[int(c)] for c in coarse]] = 1.0
        ops.check(np.array_equal(P[coarse], unit), "direct_interpolation C rows are not unit")
        ops.check(residuals[-1] < residuals[0], "two_level_solve did not reduce the residual")
        # cycles to a residual below 1e-8; the cycle cap plus one when not reached
        cycles = next((c for c, r in enumerate(residuals) if r < AMG_RESIDUAL),
                      self.TWO_LEVEL_CYCLES + 1)

        digest = hashlib.sha256()
        for got in results.values():
            for part in got if isinstance(got, tuple) else (got,):
                digest.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        for arr in (S.values, S_sa.values, P, x_amg):
            digest.update(np.ascontiguousarray(arr).tobytes())
        return {"wall_s": gen_s + eval_s, "timed_s": gen_s + eval_s, "gen_s": gen_s, "eval_s": eval_s, "gen_items": 2,
                "eval_items": len(calls) + 5, "digests": {"kernels": digest.hexdigest()},
                "counts": {"amg.two_level_solve.cycles": cycles}}


def _soc_classic_oracle(A, tau: float) -> np.ndarray:
    """S_ij = 1 where -A_ij / max_k(-A_ik) > tau over off-diagonal k, per stored entry."""
    rows = A.row_of_entry()
    neg = np.where(rows != A.col_idx, -A.values, -np.inf)
    row_max = np.full(A.n, -np.inf)
    np.maximum.at(row_max, rows, neg)
    return ((-A.values / row_max[rows] - tau) > 0).astype(np.float64)


def _soc_sa_oracle(A) -> np.ndarray:
    rows = A.row_of_entry()
    d = np.zeros(A.n)
    on = rows == A.col_idx
    d[rows[on]] = A.values[on]
    return A.values ** 2 / (d[rows] * d[A.col_idx])


def _is_maximal_independent(S, is_coarse: np.ndarray) -> bool:
    rows = S.row_of_entry()
    strong = (S.values != 0) & (rows != S.col_idx)
    i, j = rows[strong], S.col_idx[strong]
    if np.any(is_coarse[i] & is_coarse[j]):
        return False
    covered = is_coarse.copy()
    covered[i[is_coarse[j]]] = True
    covered[j[is_coarse[i]]] = True
    return bool(np.all(covered))


# -- workloads ---------------------------------------------------------------

def make_workload(name: str):
    if name == "jacobi-desk":
        cfg = tr.desk_jacobi_train_config()
        counts = list(fem.JacobiDataConfig().counts)
        return CliPipeline(
            "jacobi", {"N_y": fem.JacobiDataConfig().N_y, "counts": counts},
            {"epochs_max": cfg.epochs_max, "batch_size": cfg.batch_size, "lr": cfg.lr,
             "K": cfg.K, "m": cfg.m},
            [], counts[2], ("checkpoint.json", "loss_curve.csv", "eig_report.csv"))
    if name == "diffusion-desk":
        # desk grids with a smaller dataset and two epochs, so that several
        # rounds fit in a run; eval runs the criterion-8 sweep (11 x 11
        # frequencies on a 24 x 24 grid)
        counts = [24, 8, 8]
        desk = fem.DiffusionDataConfig()
        return CliPipeline(
            "diffusion", {"N_min": desk.N_min, "N_max": desk.N_max,
                          "theta_max": desk.theta_max, "counts": counts},
            {"epochs_max": 2, "batch_size": 10, "lr": tr.desk_diffusion_train_config().lr},
            ["--theta-grid-max", "10", "--sweep-n", "24"], counts[2] + 11 * 11,
            ("checkpoint.json", "loss_curve.csv", "freq_sweep.csv"))
    if name == "kernels-fem":
        return KernelChecks()
    raise SystemExit(f"unknown workload '{name}'")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:    # sysconf reports 0 under some hypervisors; sysfs has the size
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as fh:
            llc = fh.read().strip()
    except OSError:
        llc = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": THREADS, "nproc": len(os.sched_getaffinity(0)),
            "llc": llc, "gnla": gnla.__file__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--min-rounds", type=int, default=2)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    spawned = float(os.environ["PERFBENCH_SPAWN"])
    if not os.path.abspath(gnla.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"imported gnla from {gnla.__file__}, not from {ROOT}/src")

    os.makedirs(args.work, exist_ok=True)
    workload = make_workload(args.workload)
    workload.setup(args.work, args.seed)
    setup_s = time.monotonic() - spawned
    result = {"setup_s": setup_s, "environment": environment()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        ops, rounds = Ops(), []
        if not args.trace:
            workload.acceptance(ops)
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            r = workload.run_round(len(rounds), ops, tracer)
            if r is None:
                break
            if rounds:
                for name, digest in r["digests"].items():
                    ops.check(digest == rounds[0]["digests"][name],
                              f"{name} differs between round 0 and round {len(rounds)}")
                shutil.rmtree(os.path.join(args.work, f"round{len(rounds) - 1}"),
                              ignore_errors=True)
            rounds.append(r)
            last = time.perf_counter() - t0
            if len(rounds) >= args.min_rounds and \
                    time.perf_counter() - start + last > args.seconds:
                break
        result.update(rounds=rounds, attempted=ops.attempted, failures=ops.failures,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None and rounds:
            layers = tracer.summary(len(rounds))
            layers.update(rounds[0].get("counts", {}))
            result["layers"] = layers
            result["covered_s"] = tracer.covered_s
            spans = os.path.join(args.work, "spans.csv")
            tracer.write_spans(spans)
            result["spans"] = spans
    with open(os.path.join(args.work, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
