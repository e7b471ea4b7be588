"""One `gendisc run` in a fresh interpreter, timed and optionally traced.

Started by bench.py as ``python3 child.py LAUNCH_T REQUEST_JSON``. LAUNCH_T is
the parent's ``time.monotonic()`` just before it started this process (the
clock is system-wide on Linux, so the two processes share it). The request
names the config, the output directory, the timing file to write, and the
mode: ``plain`` (tracing off) or ``traced`` (every wrapped function timed).

The sweep start is the first call from ``gendisc.cli`` into any function
defined in ``gendisc.harness``, whatever its name, so set-up time stays
measurable when the sweep entry points are renamed or merged.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
import types

# (layer, qualified name) of every function the traced run wraps. Each is
# replaced at every gendisc module attribute bound to it, which is where its
# callers look it up. A name missing from its module is reported as absent.
TRACED = (
    ("synth", "sample_pairs"),
    ("synth", "sample_targets"),
    ("synth", "random_measurement_matrix"),
    ("synth", "exp_decay_prior"),
    ("synth", "Seed.generator"),
    ("moments", "compute_moments"),
    ("moments", "spd_solve"),
    ("moments", "condition_estimate"),
    ("moments", "gain_direct"),
    ("moments", "gain_lemma"),
    ("moments", "woodbury_invert"),
    ("estimators", "fit_ml"),
    ("estimators", "generative_estimator"),
    ("estimators", "discriminative_estimator"),
    ("estimators", "oracle_lmmse"),
    ("estimators", "generative_highsnr"),
    ("estimators", "discriminative_highsnr"),
    ("estimators", "generative_asymptote"),
    ("estimators", "discriminative_asymptote"),
    ("estimators", "linear_population_moments"),
    ("estimators", "AffineEstimator.estimate"),
    ("harness", "sweep_snr"),
    ("harness", "sweep_nt"),
    ("harness", "run_trial"),
    ("harness", "compute_mse"),
    ("fileio", "config_from_dict"),
    ("fileio", "config_to_dict"),
    ("fileio", "write_results_csv"),
    ("fileio", "write_json_atomic"),
    ("fileio", "write_plot_script"),
    ("cli", "cmd_run"),
    ("cli", "_load_config_dict"),
)


class Tracer:
    """Call counts, inclusive time and self time of each wrapped function.

    Self time is a call's duration minus the durations of the wrapped calls
    it made. Each thread keeps its own stack of open calls.
    """

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.absent: list[str] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, key: str, layer: str, fn):
        stat = self.stats.setdefault(
            key, {"layer": layer, "calls": 0, "incl_s": 0.0, "self_s": 0.0, "rows": 0}
        )
        count_rows = key.endswith(".sample_pairs")
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat["calls"] += 1
                stat["incl_s"] += dt
                stat["self_s"] += dt - child
                if stack:
                    stack[-1] += dt
            if count_rows:
                stat["rows"] += int(getattr(result, "n_t", 0))
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        for layer, qualname in TRACED:
            key = f"{layer}.{qualname}"
            module = modules.get(layer)
            owner_name, _, attr = qualname.rpartition(".")
            owner = module
            if owner is not None and owner_name:
                owner = getattr(module, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(key)
                continue
            wrapped = self.wrap(key, layer, original)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)


def _gendisc_modules() -> dict:
    import importlib

    modules = {}
    for layer in ("synth", "moments", "estimators", "harness", "fileio", "cli"):
        try:
            modules[layer] = importlib.import_module(f"gendisc.{layer}")
        except ImportError:
            pass
    return modules


def _mark_sweep(cli, harness, marks: dict) -> None:
    """Wrap each harness function the CLI imports to stamp the sweep's start and end."""
    for name, value in list(vars(cli).items()):
        if not isinstance(value, types.FunctionType) or value.__module__ != harness.__name__:
            continue

        def stamped(*args, _fn=value, **kwargs):
            marks.setdefault("sweep_start", time.monotonic())
            try:
                return _fn(*args, **kwargs)
            finally:
                marks["sweep_end"] = time.monotonic()

        setattr(cli, name, stamped)


def _peak_rss_kb() -> float:
    """This process's own peak resident set.

    ``ru_maxrss`` is not used: across fork and exec it keeps the parent's
    peak, so it would report the benchmark's memory rather than gendisc's.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    launch = float(argv[1])
    with open(argv[2], encoding="utf-8") as fh:
        request = json.load(fh)
    src = os.path.realpath(request["src"])

    import gendisc

    if not os.path.realpath(gendisc.__file__).startswith(src + os.sep):
        print(f"gendisc imported from {gendisc.__file__}, not from {src}", file=sys.stderr)
        return 3
    modules = _gendisc_modules()
    cli, harness = modules.get("cli"), modules.get("harness")
    if cli is None or harness is None or not callable(getattr(cli, "main", None)):
        print("gendisc.cli.main or gendisc.harness is missing", file=sys.stderr)
        return 3

    tracer = None
    if request["mode"] == "traced":
        tracer = Tracer()
        tracer.install(modules)
    marks: dict = {}
    _mark_sweep(cli, harness, marks)

    t0 = time.monotonic()
    rc = cli.main(["run", request["config"], "--out", request["out"]])
    t1 = time.monotonic()
    if "sweep_start" not in marks:
        print("the CLI never called into gendisc.harness", file=sys.stderr)
        return 3

    record = {
        "rc": rc,
        "setup_s": marks["sweep_start"] - launch,
        "run_s": t1 - marks["sweep_start"],
        "sweep_s": marks.get("sweep_end", t1) - marks["sweep_start"],
        "main_s": t1 - t0,
        "peak_rss_mb": _peak_rss_kb() / 1024.0,
    }
    if tracer is not None:
        record["stats"] = tracer.stats
        record["absent"] = tracer.absent
    with open(request["timing"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
