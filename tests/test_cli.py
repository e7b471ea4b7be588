import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gendisc import harness
from gendisc.cli import main
from gendisc.fileio import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    read_dataset_csv,
    read_results_csv,
    write_dataset_csv,
)
from gendisc.harness import ExperimentConfig, compute_mse, sweep
from gendisc.moments import Dataset

TINY_CONFIG = {
    "n_x": 4,
    "n_y": 5,
    "snr_grid": [1.0, 10.0],
    "nt_grid": [50],
    "mc_trials": 15,
    "seed": 5,
}

WORKED_CSV = "3,1,1\n3.0,1.0\n5.0,2.0\n7.0,3.0\n"
PRIOR_JSON = '{"mu_y": [0.0], "C_yy": [[1.0]], "sigma2": 1.0}'


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _parse_printed(name, out):
    """Grab the numbers printed under a `name =` block."""
    lines = out.splitlines()
    start = lines.index(f"{name} =") + 1
    rows = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        rows.append([float(tok) for tok in line.split(",")])
    return np.array(rows)


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
        with pytest.raises(ConfigError, match="nonlinearity"):
            config_from_dict({"nonlinearity": {"kind": "sigmoid"}})

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


class TestMatrixAndDatasetFiles:
    def test_dataset_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        data = Dataset(xs=rng.standard_normal((6, 2)), ys=rng.standard_normal((6, 3)))
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data)
        back = read_dataset_csv(path)
        assert np.array_equal(back.xs, data.xs)
        assert np.array_equal(back.ys, data.ys)

    def test_dataset_bad_column_count_rejected(self, tmp_path):
        path = _write(tmp_path / "bad.csv", "1,2,1\n1.0,2.0\n")
        with pytest.raises(ValueError, match="columns"):
            read_dataset_csv(path)


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
            estimator_set=["oracle_lmmse", "generative_asymptote", "discriminative_asymptote"],
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

    def test_byte_identical_across_threads_and_reruns(self, tmp_path):
        cfg_path = _write(tmp_path / "c.json", json.dumps(TINY_CONFIG))
        for i, threads in enumerate(("1", "3", "1")):
            main(["run", cfg_path, "--threads", threads, "--out", str(tmp_path / f"r{i}")])
        blobs = [(tmp_path / f"r{i}" / "results.csv").read_bytes() for i in range(3)]
        assert blobs[0] == blobs[1] == blobs[2]
        # --threads is accepted and ignored: the manifest records no thread count.
        manifest = json.loads((tmp_path / "r1" / "manifest.json").read_text())
        assert "threads" not in manifest

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
        assert "--cell" in capsys.readouterr().err
        assert main(["replay", cfg_path, "--cell", "0", "--trial", "15"]) == 2
        assert "--trial" in capsys.readouterr().err

    def test_invalid_config_is_rejected_as_by_run(self, tmp_path, capsys):
        cfg_path = _write(tmp_path / "c.json", json.dumps(dict(TINY_CONFIG, mc_trials=0)))
        assert main(["replay", cfg_path, "--cell", "0", "--trial", "0"]) == 1
        assert "mc_trials must be >= 1" in capsys.readouterr().err


class TestEstimateCommand:
    def test_discriminative_worked_example(self, tmp_path, capsys):
        data = _write(tmp_path / "d.csv", WORKED_CSV)
        assert main(["estimate", "--data", data, "--method", "discriminative"]) == 0
        out = capsys.readouterr().out
        assert _parse_printed("A", out)[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert _parse_printed("b", out)[0, 0] == pytest.approx(-0.5, abs=1e-12)

    def test_generative_worked_example(self, tmp_path, capsys):
        data = _write(tmp_path / "d.csv", WORKED_CSV)
        prior = _write(tmp_path / "p.json", PRIOR_JSON)
        assert main(
            ["estimate", "--data", data, "--prior", prior, "--method", "generative"]
        ) == 0
        out = capsys.readouterr().out
        assert _parse_printed("H_hat", out)[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert _parse_printed("mu_hat", out)[0, 0] == pytest.approx(1.0, abs=1e-12)
        # Gain under the unit prior: 2 / (4 + 1); offset -G (x_bar - H y_bar).
        assert _parse_printed("A", out)[0, 0] == pytest.approx(0.4, abs=1e-12)
        assert _parse_printed("b", out)[0, 0] == pytest.approx(-0.4, abs=1e-12)

    @pytest.mark.parametrize("ridge", ["nan", "inf"])
    def test_non_finite_ridge_is_usage_error(self, tmp_path, capsys, ridge):
        data = _write(tmp_path / "d.csv", WORKED_CSV)
        argv = ["estimate", "--data", data, "--method", "discriminative", "--ridge", ridge]
        assert main(argv) == 2
        assert "--ridge must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["0,2,1", "3,0,1", "3,1,0"])
    def test_empty_dimension_is_a_data_file_error(self, tmp_path, capsys, header):
        # The rows agree with the header, so only its zero count is at fault.
        n_t, n_x, n_y = (int(tok) for tok in header.split(","))
        rows = "".join(",".join(["1.0"] * (n_x + n_y)) + "\n" for _ in range(n_t))
        data = _write(tmp_path / "d.csv", header + "\n" + rows)
        assert main(["estimate", "--data", data, "--method", "discriminative"]) == 2
        assert "error: data file:" in capsys.readouterr().err

    def test_generative_requires_prior(self, tmp_path, capsys):
        data = _write(tmp_path / "d.csv", WORKED_CSV)
        assert main(["estimate", "--data", data, "--method", "generative"]) == 2
        assert "--prior" in capsys.readouterr().err

    def test_prior_dimension_mismatch_names_fields(self, tmp_path, capsys):
        data = _write(tmp_path / "d.csv", WORKED_CSV)
        prior = _write(
            tmp_path / "p.json",
            '{"mu_y": [0.0, 0.0], "C_yy": [[1.0, 0.0], [0.0, 1.0]], "sigma2": 1.0}',
        )
        assert main(
            ["estimate", "--data", data, "--prior", prior, "--method", "generative"]
        ) == 1
        err = capsys.readouterr().err
        assert "C_yy" in err and "ys" in err

    @pytest.mark.parametrize("text", ["5", "null", "[0.0]"])
    def test_prior_that_is_not_a_json_object_is_a_prior_file_error(self, tmp_path, capsys, text):
        data = _write(tmp_path / "d.csv", WORKED_CSV)
        prior = _write(tmp_path / "p.json", text)
        assert main(
            ["estimate", "--data", data, "--prior", prior, "--method", "generative"]
        ) == 2
        err = capsys.readouterr().err
        assert "error: prior file:" in err and "must hold a JSON object" in err

    @pytest.mark.parametrize("field", ["mu_y", "C_yy"])
    def test_prior_field_that_is_a_json_object_is_a_prior_file_error(self, tmp_path, capsys, field):
        data = _write(tmp_path / "d.csv", WORKED_CSV)
        fields = dict(json.loads(PRIOR_JSON), **{field: {"a": 1.0}})
        prior = _write(tmp_path / "p.json", json.dumps(fields))
        assert main(
            ["estimate", "--data", data, "--prior", prior, "--method", "generative"]
        ) == 2
        assert "error: prior file:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            {"sigma2": "0.5"},
            {"sigma2": True},
            {"sigma2": [1.0]},
            {"mu_y": ["0"]},
            {"C_yy": [[True]]},
            # Read as [1, 0] and 1.0 before the check, a prior of the wrong dimension.
            {"mu_y": [True, False], "C_yy": [[1.0, 0.0], [0.0, 1.0]], "sigma2": True},
        ],
    )
    def test_prior_value_that_is_not_a_json_number_is_a_prior_file_error(
        self, tmp_path, capsys, override
    ):
        data = _write(tmp_path / "d.csv", WORKED_CSV)
        prior = _write(tmp_path / "p.json", json.dumps(dict(json.loads(PRIOR_JSON), **override)))
        assert main(
            ["estimate", "--data", data, "--prior", prior, "--method", "generative"]
        ) == 2
        err = capsys.readouterr().err
        assert "error: prior file:" in err and "JSON numbers" in err

    def test_prior_of_json_integers_reads_as_floats(self, tmp_path, capsys):
        data = _write(tmp_path / "d.csv", WORKED_CSV)
        argv = ["estimate", "--data", data, "--method", "generative", "--prior"]
        assert main(argv + [_write(tmp_path / "p.json", PRIOR_JSON)]) == 0
        as_floats = capsys.readouterr().out
        integers = '{"mu_y": [0], "C_yy": [[1]], "sigma2": 1}'
        assert main(argv + [_write(tmp_path / "q.json", integers)]) == 0
        assert capsys.readouterr().out == as_floats

    def test_singular_moment_is_named(self, tmp_path, capsys):
        constant_targets = "3,1,1\n1.0,5.0\n2.0,5.0\n3.0,5.0\n"
        data = _write(tmp_path / "d.csv", constant_targets)
        prior = _write(tmp_path / "p.json", PRIOR_JSON)
        assert main(
            ["estimate", "--data", data, "--prior", prior, "--method", "generative"]
        ) == 1
        assert "target sample covariance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, method, moment",
        [
            ("1e308,2\n-1e308,3\n", "discriminative", "C_xx"),
            ("1,1e308\n3,-1e308\n", "generative", "C_yx"),
        ],
        ids=["C_xx", "C_yx"],
    )
    def test_finite_data_whose_moments_overflow_is_named(
        self, tmp_path, capsys, rows, method, moment
    ):
        data = _write(tmp_path / "d.csv", "2,1,1\n" + rows)
        prior = _write(tmp_path / "p.json", PRIOR_JSON)
        assert main(["estimate", "--data", data, "--prior", prior, "--method", method]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and moment in err and "non-finite" in err
        assert "Traceback" not in err

    def test_degenerate_input_covariance_suggests_fix(self, tmp_path, capsys):
        two_samples = "2,2,1\n1.0,0.0,1.0\n0.0,1.0,2.0\n"
        data = _write(tmp_path / "d.csv", two_samples)
        assert main(["estimate", "--data", data, "--method", "discriminative"]) == 1
        err = capsys.readouterr().err
        assert "input sample covariance" in err
        assert "ridge" in err
