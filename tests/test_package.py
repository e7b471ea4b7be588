import os
import subprocess
import sys
from pathlib import Path

import gendisc

SRC = str(Path(__file__).resolve().parent.parent / "src")

# Asserts that gendisc's four LAPACK/BLAS routines are scipy's own objects.
_SCIPYS_ROUTINES = (
    "import scipy.linalg.blas, scipy.linalg.lapack\n"
    "from gendisc import moments\n"
    "lapack, blas = scipy.linalg.lapack, scipy.linalg.blas\n"
    "assert moments.dpotrf is lapack.dpotrf and moments.dpotrs is lapack.dpotrs\n"
    "assert moments.dpocon is lapack.dpocon and moments.dnrm2 is blas.dnrm2\n"
)


def _python(script: str, *args: str) -> None:
    """Run ``script`` in a fresh interpreter that imports gendisc from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        SRC, os.environ.get("PYTHONPATH")
    ])))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_all_names_resolve_once():
    # Every name the package exports exists, and none is listed twice.
    missing = [name for name in gendisc.__all__ if not hasattr(gendisc, name)]
    assert missing == []
    assert len(set(gendisc.__all__)) == len(gendisc.__all__)


def test_cli_import_leaves_out_scipy_linalg_and_binds_scipys_routines():
    _python(
        "import sys\n"
        "import gendisc.cli\n"
        "loaded = {'scipy.linalg', 'numpy.f2py', 'numpy.testing', 'numpy.ma'} & set(sys.modules)\n"
        "assert not loaded, loaded\n" + _SCIPYS_ROUTINES
    )


def test_routines_are_scipys_when_scipy_linalg_is_imported_first():
    _python("import scipy.linalg\nimport gendisc.cli\n" + _SCIPYS_ROUTINES)


def test_missing_extension_files_fall_back_to_scipy_linalg(tmp_path):
    # With no compiled module where the loader looks (and none imported),
    # the routines come from scipy.linalg.lapack and scipy.linalg.blas, and a
    # sweep scored with them writes the same results.csv bytes.
    empty = tmp_path / "empty"
    empty.mkdir()
    _python(
        "import sys\n"
        "from gendisc import fileio, harness, moments\n"
        "cfg = harness.ExperimentConfig(n_x=4, n_y=5, snr_grid=(1.0, 10.0), nt_grid=(12,),\n"
        "                               mc_trials=9)\n"
        "fileio.write_results_csv(sys.argv[2] + '/direct.csv', harness.sweep(cfg))\n"
        "del sys.modules['scipy.linalg._flapack'], sys.modules['scipy.linalg._fblas']\n"
        "routines = moments._linalg_routines(sys.argv[1])\n"
        "assert 'scipy.linalg.lapack' in sys.modules  # imported by the fallback\n"
        "import scipy.linalg.blas, scipy.linalg.lapack\n"
        "lapack, blas = scipy.linalg.lapack, scipy.linalg.blas\n"
        "expected = (lapack.dpotrf, lapack.dpotrs, lapack.dpocon, blas.dnrm2)\n"
        "assert all(a is b for a, b in zip(routines, expected, strict=True))\n"
        "moments.dpotrf, moments.dpotrs, moments.dpocon, moments.dnrm2 = routines\n"
        "fileio.write_results_csv(sys.argv[2] + '/fallback.csv', harness.sweep(cfg))\n",
        str(empty), str(tmp_path),
    )
    assert (tmp_path / "fallback.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()
