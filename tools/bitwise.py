"""Print SHA-256 hashes of a fixed set of small sweeps, to compare two checkouts.

Each config is run by ``gendisc.harness.sweep`` in this process, with
warnings silenced. Each rule's rows of its report (every mean, standard
error and trial count, to the bit) are hashed as ``repr`` on a line of their
own, and the report's metadata (every failure reason and condition-warning
count) on one more, so that a diff names the rule and the config that moved.
A change meant to keep the output bytes prints the same lines before and
after::

    python tools/bitwise.py > after.txt
    python tools/bitwise.py OTHER/src > before.txt
    diff before.txt after.txt

``SRC`` (default: ``src/`` of this checkout) is the source tree imported.
The set covers both orientations of a small geometry under every
measurement map, ``h_mode`` and ``prior_mode`` with every rule, an SNR grid
from 1e-308 to 1e300 under every map, sample counts down to 3, a ridge, the paper's
28 x 30 SNR geometry, and, large enough that :func:`gendisc.harness.sweep`
splits their trials across processes, a sample-count sweep, a 5 x 3 SNR
sweep whose rules fail in some trials and not in others, and two 28 x 30
SNR sweeps (one linear, one tanh with a frozen H and a mismatched prior), and
integer SNRs and ridge and integral-float sample counts as JSON writes them.
"""

from __future__ import annotations

import hashlib
import sys
import warnings
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
EVERY_RULE = [
    "generative",
    "discriminative",
    "oracle_lmmse",
    "generative_asymptote",
    "discriminative_asymptote",
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


def main(src: Path = SRC) -> int:
    sys.path.insert(0, str(src))
    from gendisc.fileio import config_from_dict
    from gendisc.harness import sweep

    for name, raw in configs().items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = config_from_dict(raw)
            report = sweep(cfg)
        rules = cfg.estimator_set
        parts = {rule: [row for row in report.rows if row.estimator == rule] for rule in rules}
        parts["metadata"] = report.metadata
        for part, value in parts.items():
            print(f"{hashlib.sha256(repr(value).encode()).hexdigest()}  {name}  {part}")
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else SRC))
