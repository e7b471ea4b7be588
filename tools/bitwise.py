"""Print SHA-256 hashes of a fixed set of small sweeps, to compare two checkouts.

Each config is run by ``gendisc.harness.sweep`` in this process, with
warnings silenced. Each rule's rows of its report (every mean, standard
error and trial count, to the bit) are hashed as ``repr`` on a line of their
own, and the report's metadata (every failure reason and condition-warning
count) on one more, so that a diff names the rule and the config that moved.
Two more lines cover the file formats: the bytes of ``results.csv`` as
``gendisc.fileio.write_results_csv`` writes the report, and the config echo
of ``gendisc.fileio.config_to_dict`` as ``json.dumps`` writes it with sorted
keys. One more line, ``replay``, hashes what ``gendisc replay`` prints for
every (cell, trial) of the sweep, cells outer and trials inner, each run
through ``gendisc.cli.main`` on the config written as a JSON file: the
replayed errors, failure reasons, condition-warning counts and the cell's
``sweep_value``, so that a change in how a cell index names its grid entry
shows next to the sweep it replays. A config that the imported checkout
rejects prints one line instead,
``<config>: rejected: <violations>``, so that a diff across the removal of
a rule still names the config. The last lines hash what
``gendisc.compute_moments`` returns (the bytes of each moment and ``n_t``),
or the message it raises, for two fixed inputs, so that a change in the
library's reduction of pairs shows next to the sweeps:

- ``tanh-50-pairs``: 50 pairs of ``sample_pairs`` under ``tanh`` (4 x 5
  H from ``Seed(24)``, noise mean 1, noise variance 0.5, ``Seed(25)``);
- ``near-overflow``: ``xs = [1e154, -1e154, 0.5]``, ``ys = [1, 2, 3]``,
  whose sum of squared input deviations is out of the float range.

A change meant to keep the output bytes prints the same lines before and
after. ``python tools/bitwise.py [SRC]`` prints the lines of the source tree
``SRC`` (default: ``src/`` of this checkout). ``python tools/bitwise.py
--against OTHER/src [SRC]`` runs this tool on ``OTHER/src`` and on ``SRC``,
each in a subprocess of its own, prints the lines that differ as a unified
diff (``-`` for ``OTHER/src``, ``+`` for ``SRC``) and exits 1 on any
difference, 0 when every line is the same.
The set covers both orientations of a small geometry under every
measurement map, ``h_mode`` and ``prior_mode`` with every rule, an SNR grid
from 1e-308 to 1e300 under every map, sample counts down to 3, a ridge, a
sample-count sweep under a frozen H (``6x4-nt-fixed-h``), the paper's 28 x 30
SNR geometry, and, large enough that :func:`gendisc.harness.sweep`
splits their trials across processes, a sample-count sweep, a 5 x 3 SNR
sweep whose rules fail in some trials and not in others, and two 28 x 30
SNR sweeps (one linear, one tanh with a frozen H and a mismatched prior), and
integer SNRs and ridge and integral-float sample counts as JSON writes them.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
EVERY_RULE = [
    "generative",
    "discriminative",
    "oracle_lmmse",
    "generative_asymptote",
    "generative_high_snr",
    "discriminative_high_snr",
]
MAPS = {
    "linear": {"kind": "linear"},
    "tanh": {"kind": "tanh", "scale": 1.0},
    "cubic": {"kind": "cubic", "alpha": 0.1},
}


def configs() -> dict[str, dict]:
    """The configs by name, each a dict for ``gendisc.fileio.config_from_dict``."""
    out = {}
    for n_x, n_y in ((3, 5), (5, 3)):
        for map_name, nonlinearity in MAPS.items():
            for h_mode in ("per_trial", "fixed_once"):
                for prior_mode in ("true_prior", "identity_mismatch"):
                    out[f"{n_x}x{n_y}-{map_name}-{h_mode}-{prior_mode}"] = {
                        "n_x": n_x,
                        "n_y": n_y,
                        "snr_grid": [0.1, 1.0, 1e4, 1e12],
                        "nt_grid": [12],
                        "mc_trials": 4,
                        "seed": 1729,
                        "h_mode": h_mode,
                        "prior_mode": prior_mode,
                        "nonlinearity": nonlinearity,
                        "estimator_set": EVERY_RULE,
                    }
    for map_name, nonlinearity in MAPS.items():
        out[f"3x7-{map_name}-extreme-snr"] = {
            "n_x": 3,
            "n_y": 7,
            "snr_grid": [1e-308, 1e-12, 1.0, 1e15, 1e300],
            "nt_grid": [20],
            "mc_trials": 4,
            "seed": 1729,
            "nonlinearity": nonlinearity,
            "estimator_set": EVERY_RULE,
        }
    out["6x4-nt-3-to-30"] = {
        "n_x": 6,
        "n_y": 4,
        "snr_grid": [10.0],
        "nt_grid": [3, 4, 5, 6, 7, 10, 30],
        "mc_trials": 6,
        "seed": 1729,
        "estimator_set": EVERY_RULE,
    }
    out["6x4-nt-ridge"] = dict(out["6x4-nt-3-to-30"], ridge=0.05)
    # One frozen H for every trial and sample-count cell: the stream a trial
    # draws its own H from does not reach it.
    out["6x4-nt-fixed-h"] = dict(out["6x4-nt-3-to-30"], h_mode="fixed_once")
    # Enough work that a sweep splits it across processes when it has two CPUs
    # or more, so that chunks meet inside cells with failures to tally.
    out["6x4-nt-3-to-30-forked"] = dict(out["6x4-nt-3-to-30"], mc_trials=40)
    # Failures that interleave: at N_x > N_y and SNR 1e14 the discriminative
    # rule and the oracle fail in some trials and not in others, so chunks
    # meet inside stretches of trials that fail alike. The oracle first fails
    # in trial 21, in a worker's chunk when three processes or more split it.
    out["5x3-interleaved-failures-forked"] = {
        "n_x": 5,
        "n_y": 3,
        "snr_grid": [1e12, 1e14],
        "nt_grid": [6],
        "mc_trials": 60,
        "seed": 1729,
        "estimator_set": EVERY_RULE,
    }
    out["28x30-snr"] = {
        "n_x": 28,
        "n_y": 30,
        "snr_grid": [10.0 ** (k / 2.0) for k in range(-4, 9)],
        "nt_grid": [100],
        "mc_trials": 5,
        "seed": 1729,
    }
    # The same geometry with enough trials that an SNR sweep (a single
    # sample-count cell) is split across processes when it has two CPUs or
    # more, linear and under the misspecified tanh setting with a frozen H.
    out["28x30-snr-forked"] = dict(out["28x30-snr"], mc_trials=10)
    out["28x30-tanh-fixed-h-mismatch-forked"] = dict(
        out["28x30-snr-forked"],
        h_mode="fixed_once",
        prior_mode="identity_mismatch",
        nonlinearity=MAPS["tanh"],
        estimator_set=[
            "generative", "discriminative", "generative_high_snr", "discriminative_high_snr"
        ],
    )
    # JSON integers where the config keeps floats, and integral floats where
    # it keeps sample counts, so that a change in how a config's numbers are
    # normalized shows.
    out["4x5-int-snr-int-ridge"] = {
        "n_x": 4,
        "n_y": 5,
        "snr_grid": [1, 10],
        "nt_grid": [12],
        "mc_trials": 4,
        "seed": 1729,
        "ridge": 0,
    }
    out["4x5-nt-integral-floats"] = dict(
        out["4x5-int-snr-int-ridge"], snr_grid=[10], nt_grid=[12.0, 20]
    )
    return out


def moment_datasets() -> dict:
    """The ``compute_moments`` inputs by name, as ``gendisc.Dataset`` objects."""
    import numpy as np
    from gendisc import (
        Dataset, Seed, Tanh, TrueModel, exp_decay_prior, random_measurement_matrix, sample_pairs
    )

    model = TrueModel(
        H=random_measurement_matrix(4, 5, Seed(24)), mu_w=np.ones(4), sigma2=0.5,
        nonlinearity=Tanh(1.0),
    )
    return {
        "tanh-50-pairs": sample_pairs(exp_decay_prior(5), model, 50, Seed(25)),
        "near-overflow": Dataset(xs=[[1e154], [-1e154], [0.5]], ys=[[1.0], [2.0], [3.0]]),
    }


def replays(gendisc_main, raw: dict, cells: int, trials: int) -> bytes:
    """What ``gendisc replay`` prints for each of ``cells`` x ``trials`` of config ``raw``."""
    printed = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with warnings.catch_warnings(), contextlib.redirect_stdout(printed):
            warnings.simplefilter("ignore")
            for cell in range(cells):
                for trial in range(trials):
                    argv = ["replay", str(path), "--cell", str(cell), "--trial", str(trial)]
                    if gendisc_main(argv) != 0:
                        raise RuntimeError(f"gendisc {' '.join(argv)} failed")
    return printed.getvalue().encode()


def main(src: Path = SRC) -> int:
    sys.path.insert(0, str(src))
    from gendisc import compute_moments
    from gendisc.cli import main as gendisc_main
    from gendisc.fileio import config_from_dict, config_to_dict, write_results_csv
    from gendisc.harness import sweep

    for name, raw in configs().items():
        cfg = config_from_dict(raw)
        problems = cfg.violations()
        if problems:
            print(f"{name}: rejected: {'; '.join(problems)}")
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = sweep(cfg)
        rules = cfg.estimator_set
        parts = {
            rule: repr([row for row in report.rows if row.estimator == rule]).encode()
            for rule in rules
        }
        parts["metadata"] = repr(report.metadata).encode()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "results.csv"
            write_results_csv(path, report)
            parts["results.csv"] = path.read_bytes()
        parts["config_echo"] = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
        parts["replay"] = replays(gendisc_main, raw, len(report.metadata["cells"]), cfg.mc_trials)
        for part, data in parts.items():
            print(f"{hashlib.sha256(data).hexdigest()}  {name}  {part}")
    for name, data in moment_datasets().items():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                m = compute_moments(data)
            fields = (m.x_bar, m.y_bar, m.C_yx, m.C_yy, m.C_xx)
            digest = b"".join(f.tobytes() for f in fields) + repr(m.n_t).encode()
        except ValueError as exc:
            digest = str(exc).encode()
        print(f"{hashlib.sha256(digest).hexdigest()}  compute_moments  {name}")
    return 0


def against(other: Path, src: Path) -> int:
    """Print the lines that differ between this tool's output on ``other`` and on ``src``."""
    before, after = (
        subprocess.run(
            [sys.executable, __file__, str(tree)], stdout=subprocess.PIPE, text=True, check=True
        ).stdout.splitlines()
        for tree in (other, src)
    )
    diff = list(difflib.unified_diff(before, after, str(other), str(src), lineterm="", n=0))
    print("\n".join(diff) if diff else f"{len(after)} lines, no difference")
    return 1 if diff else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("src", nargs="?", type=Path, default=SRC, help="source tree to hash")
    parser.add_argument("--against", type=Path, help="source tree to compare SRC with")
    args = parser.parse_args()
    src = args.src.resolve()
    sys.exit(against(args.against.resolve(), src) if args.against else main(src))
