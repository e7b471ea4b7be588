import errno
import importlib.util
import json
import os
import pickle
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from gendisc import harness
from gendisc.cli import main
from gendisc.fileio import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    read_results_csv,
    write_json_atomic,
)
from gendisc.harness import ExperimentConfig, compute_mse, sweep

TINY_CONFIG = {
    "n_x": 4,
    "n_y": 5,
    "snr_grid": [1.0, 10.0],
    "nt_grid": [50],
    "mc_trials": 15,
    "seed": 5,
}


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigIO:
    def test_defaults_fill_missing_fields(self):
        cfg = config_from_dict({})
        assert cfg.n_x == 28 and cfg.n_y == 30
        assert len(cfg.snr_grid) == 13
        assert cfg.mc_trials == 10_000
        assert cfg == ExperimentConfig()

    def test_round_trip(self):
        cfg = config_from_dict(TINY_CONFIG)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="snr_gird"):
            config_from_dict({"snr_gird": [1.0]})

    def test_bad_type_named(self, tmp_path, capsys):
        # A field of the wrong type is one of the violations, as a bad value is.
        (problem,) = config_from_dict({"mc_trials": "many"}).violations()
        assert "mc_trials" in problem
        path = _write(tmp_path / "c.json", json.dumps({"mc_trials": "many"}))
        assert main(["validate", path]) == 1
        assert "mc_trials" in capsys.readouterr().err
        problems = config_from_dict({"nonlinearity": {"kind": "sigmoid"}}).violations()
        assert any(p.startswith("nonlinearity: unknown kind 'sigmoid'") for p in problems)

    def test_nonlinearity_round_trip(self):
        for spec in ({"kind": "linear"}, {"kind": "tanh", "scale": 2.0}, {"kind": "cubic", "alpha": 0.3}):
            cfg = config_from_dict(dict(TINY_CONFIG, nonlinearity=spec))
            assert config_to_dict(cfg)["nonlinearity"] == spec


# Malformed JSON values, written as JSON text; 1e400 parses as an infinite float.
BAD_JSON_VALUES = ["null", "true", '"1"', "1.5", "-1", "1e400", "[]", "{}", "[true]", '["a"]']


class TestBadConfigValues:
    @pytest.mark.parametrize("text", BAD_JSON_VALUES)
    @pytest.mark.parametrize("field", sorted(config_to_dict(ExperimentConfig())))
    def test_reported_never_raised(self, tmp_path, capsys, field, text):
        value = json.loads(text)
        try:
            cfg = config_from_dict(dict(TINY_CONFIG, **{field: value}))
        except ConfigError:
            cfg = None
        problems = None if cfg is None else cfg.violations()
        # The file holds the value as written, not as json.dumps would write it back.
        path = _write(
            tmp_path / "c.json", json.dumps(dict(TINY_CONFIG, **{field: "@"})).replace('"@"', text)
        )
        assert main(["validate", path]) == (0 if problems == [] else 1)
        assert "Traceback" not in capsys.readouterr().err
        # From Python, the same value is one of the violations that sweep raises as ValueError.
        direct = ExperimentConfig(**dict(TINY_CONFIG, **{field: value}))
        if cfg is not None:
            assert direct == cfg
        if direct.violations():
            with pytest.raises(ValueError, match="invalid experiment config"):
                sweep(direct)
        else:
            assert sweep(direct).rows

    def test_every_problem_named_in_one_run(self, tmp_path, capsys):
        bad = {"snr_grid": ["10"], "ridge": "0.5", "mc_trials": "many", "n_x": 2.0}
        path = _write(tmp_path / "c.json", json.dumps(bad))
        assert main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert all(f"error: {field} must be" in err for field in bad)

    def test_malformed_nonlinearity_named_with_every_other_problem(self, tmp_path, capsys):
        path = _write(
            tmp_path / "c.json", json.dumps({"nonlinearity": "foo", "mc_trials": 0, "n_x": -1})
        )
        assert main(["validate", path]) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 3 and all(line.startswith("error: ") for line in errors)
        for message in (
            "nonlinearity: unknown kind 'foo'", "mc_trials must be >= 1", "n_x must be >= 1"
        ):
            assert any(message in line for line in errors)

    @pytest.mark.parametrize(
        "override",
        [
            {"snr_grid": [True]},
            {"snr_grid": [1.0, "10"]},
            {"ridge": "0.5"},
            {"nt_grid": [40.7]},
            {"mc_trials": True},
            {"mc_trials": 2.5},
            {"seed": 7.0},
            {"seed": "7"},
            {"estimator_set": "generative"},
            {"nonlinearity": {"kind": "tanh", "scale": True}},
            {"nonlinearity": {"kind": "cubic", "alpha": "0.1"}},
        ],
    )
    def test_value_that_a_cast_would_accept_rejected(self, tmp_path, capsys, override):
        path = _write(tmp_path / "c.json", json.dumps(dict(TINY_CONFIG, **override)))
        assert main(["validate", path]) == 1
        (field,) = override
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"n_x": 10**400}, "budget"),
            ({"nt_grid": [10**400]}, "budget"),
            ({"snr_grid": [10**400]}, "snr_grid must be"),
            ({"ridge": 10**400}, "ridge must be"),
            ({"seed": 10**400}, "seed must be"),
            ({"nonlinearity": {"kind": "tanh", "scale": 10**400}}, "tanh scale must be"),
        ],
    )
    def test_integer_past_the_float_range_reported(self, tmp_path, capsys, override, message):
        path = _write(tmp_path / "c.json", json.dumps(dict(TINY_CONFIG, **override)))
        assert main(["validate", path]) == 1
        assert message in capsys.readouterr().err

    def test_seed_out_of_range_named_once(self, tmp_path, capsys):
        path = _write(tmp_path / "c.json", json.dumps(dict(TINY_CONFIG, seed=1e30)))
        assert main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert err.count("seed") == 1 and "1e+30" in err

    def test_integral_numbers_normalized(self, tmp_path, capsys):
        config = dict(TINY_CONFIG, snr_grid=[1, 10], nt_grid=[1e3], ridge=0)
        path = _write(tmp_path / "c.json", json.dumps(config))
        assert main(["validate", path]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["snr_grid"] == [1.0, 10.0] and type(echoed["snr_grid"][0]) is float
        assert echoed["nt_grid"] == [1000] and type(echoed["nt_grid"][0]) is int
        assert type(echoed["ridge"]) is float


class TestValidateCommand:
    def test_zero_trials_rejected(self, tmp_path, capsys):
        path = _write(tmp_path / "c.json", json.dumps(dict(TINY_CONFIG, mc_trials=0)))
        assert main(["validate", path]) == 1
        assert "mc_trials must be >= 1" in capsys.readouterr().err

    def test_negative_ridge_rejected(self, tmp_path, capsys):
        path = _write(tmp_path / "c.json", json.dumps(dict(TINY_CONFIG, ridge=-0.5)))
        assert main(["validate", path]) == 1
        assert "ridge" in capsys.readouterr().err

    def test_two_multi_grids_rejected(self, tmp_path, capsys):
        path = _write(
            tmp_path / "c.json",
            json.dumps(dict(TINY_CONFIG, snr_grid=[1.0, 2.0], nt_grid=[10, 20])),
        )
        assert main(["validate", path]) == 1
        assert "one grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"snr_grid": [1.0, 2.0], "nt_grid": [10, 20]}, "one grid"),
            ({"nt_grid": [0]}, "nt_grid entries"),
            ({"snr_grid": [1e-320, 1.0]}, "1/snr"),
            ({"nt_grid": [10**12]}, "budget"),
            ({"n_x": 10**8}, "budget"),
            ({"mc_trials": 10**8}, "budget"),
            # 0.72 GB of scores per SNR cell fits the 1 GiB budget; two cells held together do not.
            ({"mc_trials": 30_000_000, "snr_grid": [1.0, 10.0]}, "budget"),
            ({"estimator_set": ["generative", "generative"]}, "estimator_set contains duplicates"),
            # The discriminative rule's large-sample limit is the oracle, so its retired
            # duplicate's name points there.
            ({"estimator_set": ["generative", "discriminative_asymptote"]},
             "error: discriminative_asymptote is retired: list oracle_lmmse, the same rule"),
            ({"snr_grid": [0.0]}, "snr_grid entries must be finite and positive"),
            ({"snr_grid": [-1.0]}, "snr_grid entries must be finite and positive"),
            ({"snr_grid": [float("inf")]}, "snr_grid entries must be finite and positive"),
            ({"snr_grid": [float("nan")]}, "snr_grid entries must be finite and positive"),
            # A repeated entry would write two rows of one sweep_value, with
            # different means for sample counts: each cell draws its own stream.
            ({"snr_grid": [10.0, 10]}, "snr_grid contains duplicates"),
            ({"snr_grid": [10.0], "nt_grid": [20, 20.0]}, "nt_grid contains duplicates"),
        ],
    )
    def test_validate_and_run_agree_on_unrunnable_config(self, tmp_path, capsys, override, message):
        path = _write(tmp_path / "c.json", json.dumps(dict(TINY_CONFIG, **override)))
        assert main(["validate", path]) == 1
        assert message in capsys.readouterr().err
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            # 1e400 parses as an infinite float, which no JSON echo could write back.
            ('{"kind": "tanh", "scale": 1e400}', "tanh scale must be a finite positive number"),
            ('{"kind": "linear", "scale": 2}', "linear takes no ['scale']"),
            ('{"kind": "tanh", "alpha": 0.1}', "tanh takes no ['alpha']"),
            ('{"kind": "tanh", "bogus": 1}', "unknown keys ['bogus']"),
        ],
    )
    def test_nonlinearity_parameter_that_would_be_lost_rejected(
        self, tmp_path, capsys, text, message
    ):
        config = json.dumps(dict(TINY_CONFIG, nonlinearity="@")).replace('"@"', text)
        path = _write(tmp_path / "c.json", config)
        assert main(["validate", path]) == 1
        assert f"error: nonlinearity: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "nonlinearity", [{"kind": "tanh", "scale": 1.0}, {"kind": "cubic", "alpha": 0.2}]
    )
    def test_distorted_config_with_oracle_and_asymptotes_runs(self, tmp_path, nonlinearity):
        config = dict(
            TINY_CONFIG, mc_trials=2, nonlinearity=nonlinearity,
            estimator_set=["oracle_lmmse", "generative_asymptote"],
        )
        path = _write(tmp_path / "c.json", json.dumps(config))
        assert main(["validate", path]) == 0
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        rows = read_results_csv(tmp_path / "out" / "results.csv")
        assert rows and all(int(row["trials_ok"]) == 2 for row in rows)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_moments_are_per_cell_failures(self, tmp_path):
        # alpha = 1e200 is finite, so validate accepts it; the cubic map then
        # overflows, and every rule of every trial fails for a named reason.
        config = {
            "n_x": 4, "n_y": 5, "snr_grid": [1, 10], "nt_grid": [20], "mc_trials": 3,
            "nonlinearity": {"kind": "cubic", "alpha": 1e200},
        }
        path = _write(tmp_path / "c.json", json.dumps(config))
        assert main(["validate", path]) == 0
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        rows = read_results_csv(tmp_path / "out" / "results.csv")
        assert len(rows) == 6
        assert all((row["mean_mse"], row["trials_failed"]) == ("", "3") for row in rows)
        cells = json.loads((tmp_path / "out" / "manifest.json").read_text())["cells"]
        reason = {"non-finite measurement moments": {"count": 3, "first_trial": 0}}
        for cell in cells:
            assert cell["failure_reasons"] == {
                name: reason for name in ("generative", "discriminative", "oracle_lmmse")
            }

    def test_valid_config_prints_resolved_json(self, tmp_path, capsys):
        path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        assert main(["validate", path]) == 0
        resolved = json.loads(capsys.readouterr().out)
        assert resolved["mc_trials"] == 15
        assert resolved["prior_mode"] == "true_prior"  # default filled

    def test_bundled_configs_are_valid(self, capsys):
        for name in ("mse_vs_snr", "mse_vs_nt"):
            assert main(["validate", name]) == 0
            resolved = json.loads(capsys.readouterr().out)
            assert resolved["n_x"] == 28 and resolved["n_y"] == 30
            assert resolved["mc_trials"] == 10_000

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["validate", "no_such_config"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["[1, 2]", "5"])
    @pytest.mark.parametrize(
        "command, flags",
        [
            ("validate", []),
            ("run", ["--trials", "3"]),
            ("run", ["--seed", "6"]),
            ("replay", ["--cell", "0", "--trial", "0", "--trials", "3"]),
            ("replay", ["--cell", "0", "--trial", "0", "--seed", "6"]),
        ],
    )
    def test_config_that_is_not_a_json_object_is_invalid(
        self, tmp_path, capsys, command, flags, text
    ):
        # The overrides are applied to a JSON object only, so any other value
        # is reported as the invalid config it is.
        path = _write(tmp_path / "c.json", text)
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, path, *flags, *out]) == 1
        assert "error: config must be a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flags",
        [("validate", []), ("run", ["--trials", "3"]), ("replay", ["--cell", "0", "--trial", "0"])],
    )
    def test_config_that_is_not_utf8_is_usage_error(self, tmp_path, capsys, command, flags):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"n_x": "\xff"}')
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(path), *flags, *out]) == 2
        assert "error: cannot read config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRunCommand:
    def test_output_path_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        out = _write(tmp_path / "out", "")
        assert main(["run", cfg_path, "--out", out]) == 2
        assert "error: cannot create output directory" in capsys.readouterr().err

    def test_unwritable_results_file_is_usage_error(self, tmp_path, capsys):
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        (tmp_path / "out" / "results.csv").mkdir(parents=True)
        assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert "error: cannot write outputs" in capsys.readouterr().err

    def test_unserializable_json_leaves_the_target_and_no_temp_file(self, tmp_path):
        target = tmp_path / "manifest.json"
        target.write_text("old\n", encoding="utf-8")
        with pytest.raises(TypeError):
            write_json_atomic(target, {"value": object()})
        assert target.read_text(encoding="utf-8") == "old\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_smoke_run_outputs(self, tmp_path, capsys):
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        out_dir = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out_dir)]) == 0

        rows = read_results_csv(out_dir / "results.csv")
        assert list(rows[0].keys()) == [
            "sweep_name",
            "sweep_value",
            "estimator",
            "mean_mse",
            "std_err",
            "trials_ok",
            "trials_failed",
        ]
        assert len(rows) == 2 * 3  # two SNR cells, three estimators

        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["mc_trials"] == 15
        assert manifest["master_seed"] == 5
        assert manifest["sweep"] == "snr"
        assert manifest["duration_seconds"] > 0.0
        assert len(manifest["cells"]) == 2
        assert (out_dir / "plot_results.py").exists()

    def test_manifest_records_environment(self, tmp_path):
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 0
        env = json.loads((tmp_path / "out" / "manifest.json").read_text())["environment"]
        assert set(env) == {
            "python", "numpy", "scipy", "blas", "cpu_count", "workers", "thread_env"
        }
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["cpu_count"] >= 1
        assert env["workers"] >= 1
        assert set(env["thread_env"]) == {
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"
        }

    def test_trials_override_keeps_schema(self, tmp_path):
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        main(["run", cfg_path, "--out", str(tmp_path / "a")])
        main(["run", cfg_path, "--trials", "7", "--out", str(tmp_path / "b")])
        rows_a = read_results_csv(tmp_path / "a" / "results.csv")
        rows_b = read_results_csv(tmp_path / "b" / "results.csv")
        assert list(rows_a[0].keys()) == list(rows_b[0].keys())
        assert all(row["trials_ok"] == "7" for row in rows_b)

    def test_byte_identical_across_worker_counts_and_reruns(self, tmp_path, monkeypatch):
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        for i, workers in enumerate((1, 3, 1)):
            monkeypatch.setattr(harness, "_worker_count", lambda cfg, n=workers: n)
            assert main(["run", cfg_path, "--out", str(tmp_path / f"r{i}")]) == 0
        blobs = [(tmp_path / f"r{i}" / "results.csv").read_bytes() for i in range(3)]
        assert blobs[0] == blobs[1] == blobs[2]
        manifest = json.loads((tmp_path / "r1" / "manifest.json").read_text())
        assert manifest["environment"]["workers"] == 3

    def test_a_run_enters_the_harness_once_through_sweep(self, tmp_path, monkeypatch):
        # A benchmark of `gendisc run` stamps the sweep's start at the first
        # call from the CLI into any function defined in the harness, so the
        # first such call is the sweep, made once.
        from gendisc import cli

        calls = []
        for name, value in list(vars(cli).items()):
            if isinstance(value, types.FunctionType) and value.__module__ == harness.__name__:

                def recorded(*args, _name=name, _fn=value, **kwargs):
                    calls.append(_name)
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(cli, name, recorded)
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 0
        assert calls[0] == "sweep"
        assert calls.count("sweep") == 1

    def test_threads_is_not_an_option(self, tmp_path, capsys):
        # Trials split across one process per usable CPU; no flag sets a count.
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        with pytest.raises(SystemExit) as exc:
            main(["run", cfg_path, "--threads", "2", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_forked_run_counts_condition_warnings_without_printing_them(self, tmp_path):
        # The workers inherit the sweep's filter, so even under -W always the
        # ill-conditioned factors are counted in the manifest, not printed.
        config = {
            "n_x": 6, "n_y": 3, "snr_grid": [1e10, 1e12, 1e14], "nt_grid": [8],
            "mc_trials": 12, "seed": 3, "estimator_set": ["generative", "discriminative"],
        }
        cfg_path = _write(tmp_path / "c.json", json.dumps(config))
        out_dir = tmp_path / "out"
        script = (
            "import sys\n"
            "from gendisc import harness\n"
            "from gendisc.cli import main\n"
            "harness._worker_count = lambda cfg: 2\n"
            "sys.exit(main(['run', sys.argv[1], '--out', sys.argv[2]]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")
        ])))
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-c", script, cfg_path, str(out_dir)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "IllConditionedWarning" not in proc.stderr
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["environment"]["workers"] == 2
        assert sum(cell["condition_warnings"] for cell in manifest["cells"]) > 0

    def test_forked_run_writes_and_prints_once(self, tmp_path):
        # Three worker processes inherit the parent's unflushed stdout buffer
        # (a pipe is block-buffered); none may flush it, print, or write files.
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        out_dir = tmp_path / "out"
        script = (
            "import sys\n"
            "from gendisc import harness\n"
            "from gendisc.cli import main\n"
            "harness._worker_count = lambda cfg: 3\n"
            "print('started')\n"
            "sys.exit(main(['run', sys.argv[1], '--out', sys.argv[2]]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")
        ])))
        proc = subprocess.run(
            [sys.executable, "-c", script, cfg_path, str(out_dir)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "started",
            f"wrote 6 rows to {out_dir / 'results.csv'}",
            f"wrote {out_dir / 'manifest.json'} and {out_dir / 'plot_results.py'}",
        ]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["environment"]["workers"] == 3
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "manifest.json", "plot_results.py", "results.csv"
        ]
        serial = tmp_path / "serial"
        assert main(["run", cfg_path, "--out", str(serial)]) == 0
        assert (serial / "results.csv").read_bytes() == (out_dir / "results.csv").read_bytes()

    def test_results_are_the_same_bytes_for_one_or_two_blas_threads(self, tmp_path):
        # At n_t = 2000 OpenBLAS splits a product across its threads, so a
        # reduction whose summation order followed the split (such as a
        # general product for the cross covariance) gave other bits at 2
        # threads than at 1. Every covariance comes from one symmetric product.
        config = {
            "n_x": 28, "n_y": 30, "snr_grid": [10.0], "nt_grid": [2000], "mc_trials": 2,
            "seed": 1729, "nonlinearity": {"kind": "tanh", "scale": 0.5},
        }
        cfg_path = _write(tmp_path / "c.json", json.dumps(config))
        script = "import sys\nfrom gendisc.cli import main\nsys.exit(main(sys.argv[1:]))\n"
        src = str(Path(__file__).resolve().parent.parent / "src")
        csv = {}
        for threads in ("1", "2"):
            env = dict(
                os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            out_dir = tmp_path / threads
            proc = subprocess.run(
                [sys.executable, "-c", script, "run", cfg_path, "--out", str(out_dir)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            manifest = json.loads((out_dir / "manifest.json").read_text())
            assert manifest["environment"]["thread_env"]["OPENBLAS_NUM_THREADS"] == threads
            csv[threads] = (out_dir / "results.csv").read_bytes()
        assert csv["1"] == csv["2"]

    def test_a_run_imports_no_module_the_cli_did_not(self, tmp_path):
        # A module first imported during a run is charged to the sweep's
        # timing, so importing gendisc.cli must bring in all that a forked
        # linear sweep, a tanh sweep with a fixed H and the mismatched-prior
        # sweep with the vanishing-noise estimators use.
        linear = _write(tmp_path / "linear.json", json.dumps(TINY_CONFIG))
        tanh_fixed = dict(
            TINY_CONFIG, nonlinearity={"kind": "tanh", "scale": 1.0}, h_mode="fixed_once"
        )
        tanh = _write(tmp_path / "tanh.json", json.dumps(tanh_fixed))
        misspec = _write(tmp_path / "misspec.json", json.dumps(dict(
            tanh_fixed,
            prior_mode="identity_mismatch",
            estimator_set=[
                "generative", "discriminative", "generative_high_snr", "discriminative_high_snr"
            ],
        )))
        script = (
            "import sys\n"
            "from gendisc import cli, harness\n"
            "before = set(sys.modules)\n"
            "harness._worker_count = lambda cfg: 2\n"
            "for config, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    assert cli.main(['run', config, '--out', out]) == 0\n"
            "    print('added', sorted(set(sys.modules) - before))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")
        ])))
        proc = subprocess.run(
            [
                sys.executable, "-c", script, linear, str(tmp_path / "a"),
                tanh, str(tmp_path / "b"), misspec, str(tmp_path / "c"),
            ],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        added = [line for line in proc.stdout.splitlines() if line.startswith("added")]
        assert added == ["added []"] * 3
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["environment"]["workers"] == 2

    def test_manifest_config_reproduces_csv(self, tmp_path):
        # The manifest's config echo, fed back as a config file, must
        # reproduce results.csv byte for byte.
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        main(["run", cfg_path, "--trials", "9", "--out", str(tmp_path / "a")])
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        echo_path = _write(tmp_path / "echo.json", json.dumps(manifest["config"]))
        main(["run", echo_path, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        main(["run", cfg_path, "--out", str(tmp_path / "a")])
        main(["run", cfg_path, "--seed", "6", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "results.csv").read_bytes() != (
            tmp_path / "b" / "results.csv"
        ).read_bytes()
        manifest_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert manifest_b["master_seed"] == 6

    def test_failed_worker_is_an_error_not_a_traceback(self, tmp_path, capsys, monkeypatch):
        # A worker process that raises fails the run with exit code 2 and a
        # message naming its chunk of trials, and no results are written.
        score_trials = harness._score_trials

        def failing(*args, parent=None, **kwargs):
            if parent is not None:
                raise MemoryError("no room for the training draw")
            return score_trials(*args, **kwargs)

        monkeypatch.setattr(harness, "_worker_count", lambda cfg: 2)
        monkeypatch.setattr(harness, "_score_trials", failing)
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: sweep worker for trials 7 to 14 of sample-count cell 0 failed" in err
        assert "MemoryError: no room for the training draw" in err
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "fault, message",
        [
            (
                "fork fails",
                f"could not start: [Errno {errno.EAGAIN}] Resource temporarily unavailable",
            ),
            ("message truncated", "failed: it exited without a result"),
        ],
        ids=["fork fails", "message truncated"],
    )
    def test_a_worker_that_cannot_report_is_an_error_not_a_traceback(
        self, tmp_path, capsys, monkeypatch, fault, message
    ):
        # A fork refused at a process limit, or a worker's message cut short,
        # fails the run with exit code 2 and a message naming the chunk.
        def fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        def truncated(obj, pipe):
            pipe.write(pickle.dumps(obj)[:5])

        if fault == "fork fails":
            monkeypatch.setattr(os, "fork", fork)
        else:
            monkeypatch.setattr(pickle, "dump", truncated)
        monkeypatch.setattr(harness, "_worker_count", lambda cfg: 2)
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: sweep worker for trials 7 to 14 {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "results.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_invalid_config_fails_with_diagnostic(self, tmp_path, capsys):
        cfg_path = _write(tmp_path / "c.json", json.dumps(dict(TINY_CONFIG, n_x=0)))
        assert main(["run", cfg_path, "--out", str(tmp_path / "out")]) == 1
        assert "n_x" in capsys.readouterr().err

    def test_plot_script_curves_without_matplotlib(self, tmp_path, monkeypatch):
        # n_t = 3 leaves both sample covariances singular, so the learned
        # estimators fail in every trial of that cell; the grid is unsorted.
        config = dict(TINY_CONFIG, snr_grid=[1.0], nt_grid=[50, 3, 20], mc_trials=4)
        cfg_path = _write(tmp_path / "c.json", json.dumps(config))
        out_dir = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out_dir)]) == 0

        monkeypatch.setitem(sys.modules, "matplotlib", None)  # any import of it fails
        spec = importlib.util.spec_from_file_location("plot_results", out_dir / "plot_results.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        sweep_name, curves = script.load_curves(str(out_dir / "results.csv"))

        assert sweep_name == "nt"
        assert sorted(curves) == ["discriminative", "generative", "oracle_lmmse"]
        assert [p[0] for p in curves["oracle_lmmse"]] == [3.0, 20.0, 50.0]
        assert [p[0] for p in curves["generative"]] == [20.0, 50.0]
        assert [p[0] for p in curves["discriminative"]] == [20.0, 50.0]
        for row in read_results_csv(out_dir / "results.csv"):
            if row["mean_mse"]:
                point = (float(row["sweep_value"]), float(row["mean_mse"]), float(row["std_err"]))
                assert point in curves[row["estimator"]]

    def test_plot_script_renders(self, tmp_path):
        # Rendering needs matplotlib, which is not a package dependency; the
        # CSV-to-curves step is covered without it above.
        pytest.importorskip("matplotlib")
        cfg_path = _write(tmp_path / "c.json", json.dumps(dict(TINY_CONFIG, mc_trials=5)))
        out_dir = tmp_path / "out"
        main(["run", cfg_path, "--out", str(out_dir)])
        proc = subprocess.run(
            [sys.executable, str(out_dir / "plot_results.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out_dir / "mse_curves.png").stat().st_size > 0


class TestReplayCommand:
    def test_replayed_trials_give_the_sweep_rows_and_failure_reasons(self, tmp_path, capsys):
        # At n_t = 5 the 5 x 5 target sample covariance has rank 4, so the
        # generative rule fails in every trial of every cell.
        config = dict(TINY_CONFIG, snr_grid=[0.5, 5.0, 50.0], nt_grid=[5], mc_trials=4)
        cfg_path = _write(tmp_path / "c.json", json.dumps(config))
        out_dir = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out_dir)]) == 0
        capsys.readouterr()
        rows = read_results_csv(out_dir / "results.csv")
        cells = json.loads((out_dir / "manifest.json").read_text())["cells"]
        assert cells[0]["failures"] == {"generative": 4}

        for i, cell in enumerate(cells):
            replays = []
            for k in range(4):
                assert main(["replay", cfg_path, "--cell", str(i), "--trial", str(k)]) == 0
                replays.append(json.loads(capsys.readouterr().out))
            assert {(r["sweep"], r["cell"], r["sweep_value"]) for r in replays} == {
                ("snr", i, cell["sweep_value"])
            }
            assert [r["trial"] for r in replays] == [0, 1, 2, 3]
            reasons: dict = {}
            for k, r in enumerate(replays):
                for name, reason in r["failures"].items():
                    entry = reasons.setdefault(name, {}).setdefault(
                        reason, {"count": 0, "first_trial": k}
                    )
                    entry["count"] += 1
            assert reasons == cell["failure_reasons"]
            assert sum(r["condition_warnings"] for r in replays) == cell["condition_warnings"]
            cell_rows = [row for row in rows if float(row["sweep_value"]) == cell["sweep_value"]]
            assert [row["estimator"] for row in cell_rows] == [
                "generative", "discriminative", "oracle_lmmse"
            ]
            for row in cell_rows:
                name = row["estimator"]
                errs = [r["errors"][name] for r in replays if name in r["errors"]]
                stat = compute_mse(errs)
                assert int(row["trials_ok"]) == len(errs)
                assert (row["mean_mse"], row["std_err"]) == (
                    ("", "") if stat is None else (repr(stat[0]), repr(stat[1]))
                )

    def test_out_of_range_cell_or_trial_is_usage_error(self, tmp_path, capsys):
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        assert main(["replay", cfg_path, "--cell", "2", "--trial", "0"]) == 2
        assert capsys.readouterr().err == "error: cell must be an integer in [0, 2), got 2\n"
        assert main(["replay", cfg_path, "--cell", "0", "--trial", "15"]) == 2
        assert capsys.readouterr().err == "error: trial must be an integer in [0, 15), got 15\n"

    def test_invalid_config_is_rejected_as_by_run(self, tmp_path, capsys):
        cfg_path = _write(tmp_path / "c.json", json.dumps(dict(TINY_CONFIG, mc_trials=0)))
        assert main(["replay", cfg_path, "--cell", "0", "--trial", "0"]) == 1
        assert "mc_trials must be >= 1" in capsys.readouterr().err


class TestCommands:
    def test_only_run_validate_and_replay_are_commands(self, capsys):
        # Fitting on one's own data is done through the library, so the
        # parser rejects `estimate` like any unknown command.
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--data", "d.csv", "--method", "discriminative"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "{run,validate,replay}" in err
        assert "invalid choice" in err and "estimate" in err
        listed = err.split("choose from", 1)[1]
        assert all(command in listed for command in ("run", "validate", "replay"))
