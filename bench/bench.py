#!/usr/bin/env python3
"""Sweep benchmark for gendisc: end-to-end and per-layer metrics of `gendisc run`.

    python3 bench/bench.py --workload snr_sweep --seed 1729 --seconds 30 --trace 0

runs one workload for about ``--seconds`` and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Without ``--workload`` it runs every workload both ways,
prints every metric and writes the run record to ``bench/records/``.

Each sweep is a fresh ``python3 bench/child.py`` process that imports gendisc
from ``src/`` of this checkout and calls ``gendisc.cli.main(["run", ...])``,
as the ``gendisc`` command does. The workload seed becomes the config's
master seed. See bench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_sweep, pool, read_results

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(BENCH_DIR, "child.py")
RECORDS = os.path.join(BENCH_DIR, "records")

DEFAULT_SEED = 1729
DEFAULT_SECONDS = 40
# Traced sweeps per round, on the first sub-seeds; per-layer metrics are their medians.
TRACED_SUB_SEEDS = 3
CHILD_TIMEOUT_S = 150.0
# A run stops starting sweeps once it has used this much time.
HARD_LIMIT_S = 120.0

# The paper's geometry and grids, as in the bundled mse_vs_snr / mse_vs_nt configs.
SNR_GRID = [10.0 ** (k / 2.0) for k in range(-4, 9)]
NT_GRID = [40, 60, 100, 200, 500, 1000, 5000]
LINEAR = {
    "n_x": 28,
    "n_y": 30,
    "prior_mode": "true_prior",
    "h_mode": "per_trial",
    "nonlinearity": {"kind": "linear"},
    "estimator_set": ["generative", "discriminative", "oracle_lmmse"],
    "ridge": 0.0,
}
WORKLOADS = {
    "snr_sweep": {
        "sweep": "snr",
        "sub_seeds": 20,
        "config": {**LINEAR, "snr_grid": SNR_GRID, "nt_grid": [100], "mc_trials": 50},
    },
    "nt_sweep": {
        "sweep": "nt",
        "sub_seeds": 16,
        "config": {**LINEAR, "snr_grid": [1.0 / 0.3**2], "nt_grid": NT_GRID, "mc_trials": 50},
    },
    "misspec_fixed_h": {
        "sweep": "snr",
        # Each sub-seed draws its own fixed H, so the precision is averaged over 20 of them.
        "sub_seeds": 20,
        "config": {
            **LINEAR,
            "snr_grid": SNR_GRID,
            "nt_grid": [100],
            "mc_trials": 40,
            "prior_mode": "identity_mismatch",
            "h_mode": "fixed_once",
            "nonlinearity": {"kind": "tanh", "scale": 1.0},
            "estimator_set": [
                "generative",
                "discriminative",
                "generative_high_snr",
                "discriminative_high_snr",
            ],
        },
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "trials/s",
    "time_to_1pct_s": "s",
    "peak_rss_mb": "MB",
}
# Per-function metrics of the traced run: (layer.function, statistic).
FUNCTION_METRICS = (
    ("synth.sample_pairs", "calls"),
    ("synth.sample_pairs", "us_per_call"),
    ("synth.sample_pairs", "rows"),
    ("synth.random_measurement_matrix", "calls"),
    ("synth.random_measurement_matrix", "us_per_call"),
    ("synth.exp_decay_prior", "calls"),
    ("synth.exp_decay_prior", "us_per_call"),
    ("synth.Seed.generator", "calls"),
    ("synth.Seed.generator", "us_per_call"),
    ("moments.compute_moments", "us_per_call"),
    ("moments.spd_solve", "calls"),
    ("moments.spd_solve", "self_us_per_call"),
    ("moments.condition_estimate", "calls"),
    ("moments.condition_estimate", "us_per_call"),
    ("moments.gain_direct", "self_us_per_call"),
    ("moments.gain_lemma", "self_us_per_call"),
    ("estimators.fit_ml", "self_us_per_call"),
    ("estimators.generative_estimator", "self_us_per_call"),
    ("estimators.discriminative_estimator", "self_us_per_call"),
    ("estimators.oracle_lmmse", "self_us_per_call"),
    ("estimators.generative_highsnr", "self_us_per_call"),
    ("estimators.discriminative_highsnr", "self_us_per_call"),
    ("estimators.AffineEstimator.estimate", "us_per_call"),
    ("harness.run_trial", "calls"),
    ("harness.run_trial", "self_us_per_call"),
    ("fileio.config_from_dict", "s"),
    ("fileio.write_results_csv", "s"),
    ("fileio.write_json_atomic", "s"),
)
STAT_UNITS = {"calls": "count", "rows": "count", "s": "s"}
LAYERS = ("synth", "moments", "estimators", "harness", "fileio", "cli")


def environment() -> dict:
    """Versions, BLAS build, CPUs and thread variables that the timings depend on."""
    import platform

    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        blas = " ".join(str(deps.get("blas", {}).get(k, "")) for k in ("name", "version"))
    except (TypeError, AttributeError):
        blas = "unknown"
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.strip(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "GENDISC_THREADS")},
        "git_commit": commit,
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # No thread override: the program's default parallelism is what is measured.
    env.pop("GENDISC_THREADS", None)
    return env


def sub_seed(seed: int, index: int) -> int:
    """The config master seed of sweep ``index`` of a run at workload seed ``seed``."""
    digest = hashlib.sha256(f"gendisc-bench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Workload:
    """One workload's sweeps in one run, and the metrics and checks made from them.

    A round is one plain sweep on each of the workload's sub-seeds. When
    tracing, it adds a traced sweep of each of the first TRACED_SUB_SEEDS
    sub-seeds and a second plain sweep of sub-seed 0. Every repeated sub-seed
    must reproduce its first results.csv byte for byte.
    """

    def __init__(self, name: str, seed: int, work_dir: str):
        spec = WORKLOADS[name]
        self.seed = seed
        self.spec = {**spec["config"], "sweep": spec["sweep"]}
        self.dir = os.path.join(work_dir, name)
        os.makedirs(self.dir)
        self.configs = []
        for i in range(spec["sub_seeds"]):
            path = os.path.join(self.dir, f"config_{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({**spec["config"], "seed": sub_seed(seed, i)}, fh)
            self.configs.append(path)
        grid = self.spec["snr_grid"] if self.spec["sweep"] == "snr" else self.spec["nt_grid"]
        self.trials = len(grid) * self.spec["mc_trials"]
        self.ops = self.trials * len(self.spec["estimator_set"])
        self.env = _child_env()
        self.launches = 0
        self.runs: dict[str, list] = {"plain": [], "traced": []}
        self.setups: list[float] = []
        self.results: dict[int, list] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def launch(self, mode: str, index: int):
        """Run one child in ``mode`` on sub-seed ``index``; keep its record unless it failed."""
        self.launches += 1
        out = os.path.join(self.dir, f"{self.launches}_{mode}_{index}")
        timing = out + ".timing.json"
        request = out + ".request.json"
        with open(request, "w", encoding="utf-8") as fh:
            json.dump({"src": SRC, "config": self.configs[index], "out": out,
                       "timing": timing, "mode": mode}, fh)
        launched = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, repr(launched), request],
                                env=self.env, cwd=self.dir, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        record = None
        if proc.returncode == 0 and os.path.exists(timing):
            with open(timing, encoding="utf-8") as fh:
                record = json.load(fh)
            if record["rc"] != 0:
                record = None
        if record is None:
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            self.problems.append(f"{mode} sweep exited {proc.returncode}: {' | '.join(tail)}")
        self.attempted += self.ops
        if record is None:
            self.failed += self.ops
            return
        self.setups.append(record["setup_s"])
        results = os.path.join(out, "results.csv")
        with open(results, "rb") as fh:
            self.results.setdefault(index, []).append(fh.read())
        rows = read_results(results)
        self.failed += sum(row["failed"] for row in rows.values())
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            cells = json.load(fh).get("cells", [])
        record["condition_warnings"] = sum(c.get("condition_warnings", 0) for c in cells)
        record["bytes_written"] = sum(os.path.getsize(p) for p in glob.glob(os.path.join(out, "*")))
        record["index"] = index
        record["rows"] = rows
        self.runs[mode].append(record)

    def measure(self, seconds: float, traced: bool) -> None:
        """Run whole rounds while another round fits in ``seconds``; at least one."""
        start = time.monotonic()
        sweeps = [("plain", i) for i in range(len(self.configs))]
        if traced:
            sweeps += [("traced", i) for i in range(TRACED_SUB_SEEDS)] + [("plain", 0)]
        while True:
            round_start = time.monotonic()
            for mode, index in sweeps:
                self.launch(mode, index)
            now = time.monotonic()
            if self.problems or now - start + (now - round_start) > min(seconds, HARD_LIMIT_S):
                break

    def pooled_rows(self) -> dict:
        """Results of all sub-seeds merged, as if one sweep had run all their trials."""
        first = {}
        for r in self.runs["plain"]:
            first.setdefault(r["index"], r["rows"])
        return pool([first[i] for i in sorted(first)])

    def check(self) -> None:
        """Determinism of every repeated sub-seed, then the independent correctness checks."""
        for index, results in self.results.items():
            if len(set(results)) > 1:
                self.problems.append(f"results.csv of sub-seed {index} differs between "
                                     f"its {len(results)} sweeps")
        if len(self.results) == len(self.configs):
            spec = {**self.spec, "mc_trials": self.spec["mc_trials"] * len(self.configs)}
            self.problems.extend(check_sweep(self.pooled_rows(), spec, self.seed))

    def end_to_end(self) -> dict:
        plain = self.runs["plain"]
        # Relative variance of one trial for a typical (sub-seed, cell, estimator):
        # the geometric mean of (SE / mean)^2 times the trials behind it. Sub-seeds
        # are not pooled first, because under a fixed H their MSE scales differ.
        per_trial = math.exp(statistics.fmean(math.log((r["se"] / r["mean"]) ** 2 * r["ok"])
                                              for p in plain for r in p["rows"].values()
                                              if r["ok"] > 1))
        # On a shared 2-CPU virtual machine, speed drifts between a fast and a slow
        # state for tens of seconds at a time, which moved a run's median sweep
        # time by 20% across runs. The 10th-percentile sweep time, measured in the least-disturbed
        # sweeps, moves about half as much.
        run_s = sorted(r["run_s"] for r in plain)[len(plain) // 10]
        seconds_per_trial = run_s / self.spec["mc_trials"]
        values = {
            "setup_s": statistics.median(self.setups),
            "trials_per_s": self.trials / run_s,
            # Trials for a 1% relative standard error, at the measured time per trial.
            "time_to_1pct_s": seconds_per_trial * per_trial / 0.01**2,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        self.notes = [
            f"setup_s: median of {len(self.setups)} set-ups",
            f"trials_per_s, time_to_1pct_s: 10th-percentile time of {len(plain)} sweeps of "
            f"{self.trials} trials ({run_s:.3f} s; median "
            f"{statistics.median(r['run_s'] for r in plain):.3f} s); peak_rss_mb: median",
            "sweep seconds " + " ".join(f"{r['run_s']:.3f}" for r in plain),
        ]
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    def per_layer(self) -> dict:
        traced = self.runs["traced"]
        samples = [layer_metrics(r) for r in traced]
        metrics = {k: {"value": statistics.median(s[k][0] for s in samples), "unit": v[1]}
                   for k, v in samples[0].items()}
        overhead = (statistics.median(r["run_s"] for r in traced)
                    - statistics.median(r["run_s"] for r in self.runs["plain"]
                                        if r["index"] < TRACED_SUB_SEEDS))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        return metrics


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced sweep, as name -> (value, unit)."""
    stats = record["stats"]

    def stat(key, what):
        s = stats.get(key)
        if not s or not s["calls"]:
            return 0.0
        if what in ("calls", "rows"):
            return s[what]
        if what == "s":
            return s["incl_s"]
        per = s["self_s"] if what == "self_us_per_call" else s["incl_s"]
        return per / s["calls"] * 1e6

    out = {}
    self_total = 0.0
    for layer in LAYERS:
        layer_self = sum(s["self_s"] for s in stats.values() if s["layer"] == layer)
        self_total += layer_self
        out[f"{layer}.self_s"] = (layer_self, "s")
    for key, what in FUNCTION_METRICS:
        out[f"{key}.{what}"] = (stat(key, what), STAT_UNITS.get(what, "us"))
    out["harness.aggregate_s"] = (record["sweep_s"] - stat("harness.run_trial", "s"), "s")
    out["moments.condition_warnings"] = (record["condition_warnings"], "count")
    out["fileio.bytes_written"] = (record["bytes_written"], "bytes")
    out["trace.wall_s"] = (record["main_s"], "s")
    out["trace.untraced_s"] = (record["main_s"] - self_total, "s")
    out["trace.absent"] = (len(record["absent"]), "count")
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool, work_dir: str) -> dict:
    w = Workload(name, seed, work_dir)
    w.measure(seconds, traced)
    w.check()
    result = {"correct": not w.problems, "attempted": w.attempted, "failed": w.failed,
              "problems": w.problems, "absent": [], "metrics": {}}
    if w.runs["plain"] and (w.runs["traced"] or not traced):
        result["metrics"] = w.per_layer() if traced else w.end_to_end()
        result["notes"] = w.notes
        if traced:
            result["absent"] = w.runs["traced"][0]["absent"]
            untraced = result["metrics"]["trace.untraced_s"]["value"]
            if untraced < -1e-3:
                w.problems.append(f"layer self times exceed the wall time by {-untraced:.4f} s")
                result["correct"] = False
    else:
        result["correct"] = False
    return result


def print_result(name: str, traced: bool, result: dict) -> None:
    print(f"== {name} ({'traced, per-layer' if traced else 'tracing off, end-to-end'})")
    print(f"   operations attempted {result['attempted']}, failed {result['failed']}")
    for key, m in result["metrics"].items():
        print(f"   {key:48s} {m['value']:14.6g} {m['unit']}")
    for note in result.get("notes", []):
        print(f"   {note}")
    for key in result["absent"]:
        print(f"   absent: {key} (no such function to wrap)")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")


def write_record(record: dict) -> str:
    """Write the run record as the next BENCH_<n>.json and print ratios to the previous one."""
    os.makedirs(RECORDS, exist_ok=True)
    numbers = [int(p[len("BENCH_"):-len(".json")]) for p in os.listdir(RECORDS)
               if p.startswith("BENCH_") and p[len("BENCH_"):-len(".json")].isdigit()]
    path = os.path.join(RECORDS, f"BENCH_{max(numbers, default=-1) + 1}.json")
    if numbers:
        with open(os.path.join(RECORDS, f"BENCH_{max(numbers)}.json"), encoding="utf-8") as fh:
            previous = json.load(fh)
        print(f"== change against BENCH_{max(numbers)}.json (new / old)")
        for name, wl in record["workloads"].items():
            old = previous.get("workloads", {}).get(name, {}).get("end_to_end", {})
            for key, m in wl["end_to_end"].items():
                if key in old and old[key]["value"]:
                    print(f"   {name:16s} {key:16s} {m['value'] / old[key]['value']:8.3f}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, traced and untraced)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload master seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time to spend sweeping per workload and mode")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced sweeps")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not os.path.isfile(os.path.join(SRC, "gendisc", "cli.py")):
        print(f"error: no gendisc sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    work_dir = os.path.join(BENCH_DIR, "_work", str(os.getpid()))
    os.makedirs(work_dir)
    try:
        if args.workload is not None:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                  work_dir)
            print_result(args.workload, bool(args.trace), result)
            if not result["metrics"]:
                return 1
            print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
            return 0

        record = {"environment": env, "seed": args.seed, "seconds": args.seconds,
                  "workloads": {}}
        ok = True
        for name in WORKLOADS:
            entry = record["workloads"][name] = {"attempted": 0, "failed": 0, "problems": []}
            for traced in (False, True):
                result = run_workload(name, args.seed, args.seconds, traced,
                                      os.path.join(work_dir, "traced" if traced else "plain"))
                print_result(name, traced, result)
                ok = ok and result["correct"] and bool(result["metrics"])
                entry["per_layer" if traced else "end_to_end"] = result["metrics"]
                for key in ("attempted", "failed", "problems"):
                    entry[key] += result[key]
        print(f"wrote {write_record(record)}")
        print(json.dumps({"correct": ok, "workloads": {
            n: {"attempted": e["attempted"], "failed": e["failed"]}
            for n, e in record["workloads"].items()}}))
        return 0 if ok else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
