"""gnla benchmark: one workload, one seed, end-to-end or per-module metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gnla checkout; the program is imported from ``src/``.
Workloads and metric names are those of ``BENCHMARK.json``; why each layer
metric should move which end-to-end metric is in ``perfbench/layer_map.json``.

``--trace 0`` starts the workload process between set-up probes (processes
that stop at the first timed phase) and prints the end-to-end metrics.
``--trace 1`` runs the workload twice, in two processes for ``S/2`` seconds
each: without and with the per-module wrappers of ``perfbench/tracer.py``. It
prints the per-layer metrics of the traced process, the tracing overhead and
the share of the timed phases the wrappers cover; spans go to
``.perfbench/traces/``.

Every line but the last is informational (environment, checkpoint digest,
failures); the last is the result object. Scratch files live under
``.perfbench/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 10       # extra set-up-only processes; setup_s is their median with the run's
TIME_LIMIT = 170.0      # seconds for all processes of one invocation


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Runner:
    def __init__(self, args, work: str):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + TIME_LIMIT

    def spawn(self, tag: str, seconds: float, *flags: str) -> dict:
        """Run workload.py in a fresh process and return its result.json."""
        work = os.path.join(self.work, tag)
        cmd = [sys.executable, os.path.join(HERE, "workload.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", repr(seconds), "--work", work, *flags]
        env = dict(os.environ)
        with open(os.path.join(self.work, f"{tag}.log"), "w") as log:
            env["PERFBENCH_SPAWN"] = repr(time.monotonic())
            proc = subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT, timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            with open(os.path.join(self.work, f"{tag}.log")) as log:
                tail = log.read()[-4000:]
            raise RuntimeError(f"workload process '{tag}' exited {proc.returncode}:\n{tail}")
        with open(os.path.join(work, "result.json")) as fh:
            result = json.load(fh)
        if result.get("rounds") == []:
            raise RuntimeError(f"workload process '{tag}' completed no round: "
                               f"{result['failures']}")
        return result

    def setup_probe(self, k: int) -> float:
        return self.spawn(f"probe{k}", 0, "--setup-only")["setup_s"]


# Rates and times are pooled over a run's rounds, not medians of rounds: this
# host alternates between two speeds about 1.4x apart for seconds at a time,
# and a median of rounds snaps to one of them where a mean averages both.
def rate(rounds, items: str, seconds: str) -> float:
    return sum(r[items] for r in rounds) / sum(r[seconds] for r in rounds)


def mean_wall(rounds) -> float:
    return statistics.fmean(r["wall_s"] for r in rounds)


def git_sha() -> str | None:
    """Commit of the checkout, when it is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def end_to_end(res: dict, setups: list[float]) -> dict:
    rounds = res["rounds"]
    return {"setup_s": statistics.median(setups),
            "wall_s": mean_wall(rounds),
            "gen_inst_per_s": rate(rounds, "gen_items", "gen_s"),
            "eval_items_per_s": rate(rounds, "eval_items", "eval_s"),
            "peak_rss_mb": res["peak_rss_mb"]}


def untraced_training(res: dict) -> dict:
    rounds = res["rounds"]
    if "train_s" not in rounds[0]:
        return {}
    return {"train.samples_per_s": rate(rounds, "train_samples", "train_s"),
            **rounds[0]["quality"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="gnla benchmark (see BENCHMARK.json)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gnla", "__init__.py")):
        return fail(f"no gnla sources under {ROOT}/src; run from a gnla checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload '{args.workload}'")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(args, work)
    try:
        results, metrics = [], {}
        if args.trace:
            plain = runner.spawn("untraced", args.seconds / 2, "--min-rounds", "1")
            traced = runner.spawn("traced", args.seconds / 2, "--min-rounds", "1", "--trace")
            results = [plain, traced]
            plain_wall, traced_wall = mean_wall(plain["rounds"]), mean_wall(traced["rounds"])
            metrics.update(traced["layers"])
            metrics.update(untraced_training(plain))
            metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
            metrics["trace.coverage"] = traced["covered_s"] / sum(
                r["timed_s"] for r in traced["rounds"])
            traces = os.path.join(ROOT, ".perfbench", "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(traced["spans"], os.path.join(
                traces, f"{args.workload}-seed{args.seed}.csv"))
        else:
            # probes before and after the run, so they see more of the host's
            # slow and fast periods than back-to-back probes would
            setups = [runner.setup_probe(k) for k in range(SETUP_PROBES // 2)]
            res = runner.spawn("main", args.seconds)
            setups += [runner.setup_probe(k) for k in range(SETUP_PROBES // 2, SETUP_PROBES)]
            results = [res]
            metrics.update(end_to_end(res, setups + [res["setup_s"]]))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    if len(results) == 2:   # the traced process must reproduce the untraced one
        for name, digest in results[0]["rounds"][0]["digests"].items():
            attempted += 1
            if results[1]["rounds"][0]["digests"].get(name) != digest:
                failures.append(f"{name} differs between the untraced and traced runs")

    # a per-layer metric that the workload does not exercise reads 0
    out = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
           for m in wanted}
    digests = results[0]["rounds"][0]["digests"]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": {**results[0]["environment"], "git_sha": git_sha()},
                      "rounds": [len(r["rounds"]) for r in results],
                      "checkpoint_sha256": digests.get("checkpoint.json"),
                      "quality": results[0]["rounds"][0].get("quality"),
                      "output_sha256": digests,
                      "fail_frac": len(failures) / attempted, "failures": failures}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
