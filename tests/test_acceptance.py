"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run `pytest tests/test_acceptance.py -v -s` to see them).

The two sweep-based criteria run the bundled configs at 2000 Monte Carlo
trials, a desk-scale stand-in for the full 1e4-trial study; ordinal claims
are asserted with explicit standard-error slack.
"""

import dataclasses
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

import gendisc as g
from gendisc.cli import main as cli_main
from gendisc.fileio import read_results_csv
from gendisc.moments import compute_moments, woodbury_invert

from conftest import affine_rel_diff, random_spd

SEED = g.Seed(1729)


@contextmanager
def criterion(num, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL [{time.perf_counter() - start:.1f}s]")
        raise
    print(f"criterion {num} ({label}): PASS [{time.perf_counter() - start:.1f}s]")


def _study_setup(sigma2, nonlinearity=None, h_seed=SEED.child(0)):
    """The numerical study's geometry: 28 observations of 30 correlated targets."""
    prior = g.exp_decay_prior(30)
    H = g.random_measurement_matrix(28, 30, h_seed)
    model = g.TrueModel(
        H=H,
        mu_w=np.zeros(28),
        sigma2=sigma2,
        nonlinearity=nonlinearity if nonlinearity is not None else g.Linear(),
    )
    return prior, H, model


def _cells(rows):
    """results.csv rows grouped as {sweep_value: {estimator: (mean, se)}}."""
    table = {}
    for row in rows:
        table.setdefault(float(row["sweep_value"]), {})[row["estimator"]] = (
            float(row["mean_mse"]),
            float(row["std_err"]),
        )
    return table


@pytest.fixture(scope="module")
def snr_runs(tmp_path_factory):
    """Criterion 5/8 runs: the SNR-sweep config, same seed, two thread counts."""
    base = tmp_path_factory.mktemp("snr_runs")
    runs = {}
    for label, threads in (("a", 2), ("b", 1)):
        out = base / label
        start = time.perf_counter()
        rc = cli_main(
            ["run", "mse_vs_snr", "--trials", "2000", "--out", str(out), "--threads", str(threads)]
        )
        duration = time.perf_counter() - start
        assert rc == 0
        runs[label] = (out, duration)
    return runs


@pytest.fixture(scope="module")
def nt_reports():
    """Criterion 6 runs: the sample-size sweep under both prior modes."""
    reports = {}
    start = time.perf_counter()
    for mode in ("true_prior", "identity_mismatch"):
        cfg = g.ExperimentConfig(
            snr_grid=(1.0 / 0.09,),
            nt_grid=(40, 60, 100, 200, 500, 1000, 5000),
            mc_trials=2000,
            seed=SEED,
            prior_mode=mode,
        )
        reports[mode] = g.sweep(cfg)
    return reports, time.perf_counter() - start


def test_criterion_1_hand_oracle_exactness():
    with criterion(1, "hand-oracle exactness"):
        start = time.perf_counter()
        data = g.Dataset(xs=[3.0, 5.0, 7.0], ys=[1.0, 2.0, 3.0])
        fit = g.fit_ml(data)
        assert abs(fit.H_hat[0, 0] - 2.0) <= 1e-12
        assert abs(fit.mu_hat[0] - 1.0) <= 1e-12
        disc = g.discriminative_estimator(compute_moments(data))
        assert abs(disc.A[0, 0] - 0.5) <= 1e-12
        assert abs(disc.b[0] + 0.5) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_woodbury_equivalence():
    with criterion(2, "woodbury equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(1729)
        for _ in range(200):
            n_x = int(rng.integers(1, 41))
            n_y = int(rng.integers(1, 41))
            H = rng.standard_normal((n_x, n_y))
            C = random_spd(rng, n_y)
            sigma2 = float(rng.uniform(0.1, 3.0))
            form_a, form_b = woodbury_invert(H, C, sigma2)
            assert np.linalg.norm(form_a - form_b) / np.linalg.norm(form_a) <= 1e-8
        assert time.perf_counter() - start < 10.0


def test_criterion_3_asymptotic_coincidence():
    with criterion(3, "asymptotic coincidence"):
        start = time.perf_counter()
        sigma2 = 0.3**2
        prior, H, model = _study_setup(sigma2)
        oracle = g.oracle_lmmse(prior, model)

        moments = compute_moments(g.sample_pairs(prior, model, 100_000, SEED.child(1)))
        known = g.KnownStatistics(prior=prior, sigma2=sigma2)
        gen = g.generative_estimator(g.fit_ml(moments), known, moments)
        disc = g.discriminative_estimator(moments)
        for learned in (gen, disc):
            rel = np.linalg.norm(learned.A - oracle.A) / np.linalg.norm(oracle.A)
            assert rel <= 0.05

        pop = g.linear_population_moments(prior, model)
        asym = g.generative_asymptote(prior, pop, sigma2)
        assert affine_rel_diff(asym, oracle) <= 1e-8
        assert time.perf_counter() - start < 30.0


def test_criterion_4_high_snr_limits():
    with criterion(4, "high-SNR limits"):
        start = time.perf_counter()
        sigma2 = 1e-10
        prior, H, model = _study_setup(sigma2)
        moments = compute_moments(g.sample_pairs(prior, model, 500, SEED.child(2)))

        known = g.KnownStatistics(prior=prior, sigma2=sigma2)
        gen = g.generative_estimator(g.fit_ml(moments), known, moments)
        gen_limit = g.generative_highsnr(prior, H, moments)
        assert affine_rel_diff(gen, gen_limit) <= 1e-5

        disc = g.discriminative_estimator(moments)
        disc_limit = g.discriminative_highsnr(H, moments)
        assert affine_rel_diff(disc, disc_limit) <= 1e-5

        pinned = dataclasses.replace(moments, y_bar=prior.mu_y, C_yy=prior.C_yy)
        assert (
            affine_rel_diff(
                g.generative_highsnr(prior, H, pinned), g.discriminative_highsnr(H, pinned)
            )
            <= 1e-6
        )
        assert time.perf_counter() - start < 30.0


def test_criterion_5_mse_vs_snr_ordering(request):
    with criterion(5, "MSE-vs-SNR ordering"):
        snr_runs = request.getfixturevalue("snr_runs")
        out_dir, duration = snr_runs["a"]
        assert duration < 600.0
        cells = _cells(read_results_csv(out_dir / "results.csv"))
        assert len(cells) == 13
        for snr, cell in cells.items():
            gen_mean, gen_se = cell["generative"]
            disc_mean, disc_se = cell["discriminative"]
            slack = 2.0 * np.hypot(gen_se, disc_se)
            assert gen_mean <= disc_mean + slack, f"generative worse at snr={snr}"
        top = cells[max(cells)]
        oracle_mean = top["oracle_lmmse"][0]
        assert top["generative"][0] - oracle_mean < top["discriminative"][0] - oracle_mean


def test_criterion_6_mse_vs_nt_gaps(request):
    with criterion(6, "MSE-vs-sample-count gaps"):
        reports, duration = request.getfixturevalue("nt_reports")
        assert duration < 900.0

        def cells(report):
            table = {}
            for row in report.rows:
                table.setdefault(row.sweep_value, {})[row.estimator] = row
            return table

        true_cells = cells(reports["true_prior"])
        nts = sorted(true_cells)
        # Gap to oracle shrinks along the grid, with 2-SE slack on each step.
        for name in ("generative", "discriminative"):
            for nt_prev, nt_next in zip(nts, nts[1:]):
                prev_est, prev_o = true_cells[nt_prev][name], true_cells[nt_prev]["oracle_lmmse"]
                next_est, next_o = true_cells[nt_next][name], true_cells[nt_next]["oracle_lmmse"]
                gap_prev = prev_est.mean_mse - prev_o.mean_mse
                gap_next = next_est.mean_mse - next_o.mean_mse
                slack = 2.0 * np.sqrt(
                    prev_est.std_err**2
                    + prev_o.std_err**2
                    + next_est.std_err**2
                    + next_o.std_err**2
                )
                assert gap_next <= gap_prev + slack, f"{name} gap rose at n_t={nt_next}"

        # The mismatched-prior generative keeps a gap above 5 SE at the
        # largest sample count.
        mis_cells = cells(reports["identity_mismatch"])
        largest = mis_cells[max(mis_cells)]
        gap = largest["generative"].mean_mse - largest["oracle_lmmse"].mean_mse
        floor = 5.0 * np.hypot(largest["generative"].std_err, largest["oracle_lmmse"].std_err)
        assert gap > floor


def test_criterion_7_misspecification_prefers_discriminative():
    with criterion(7, "misspecification prefers discriminative"):
        start = time.perf_counter()
        sigma2 = 0.3**2
        prior, H, model = _study_setup(sigma2, nonlinearity=g.Tanh(scale=1.0))
        moments = compute_moments(g.sample_pairs(prior, model, 100_000, SEED.child(3)))
        known = g.KnownStatistics(prior=prior, sigma2=sigma2)
        gen = g.generative_estimator(g.fit_ml(moments), known, moments)
        disc = g.discriminative_estimator(moments)

        test = g.sample_pairs(prior, model, 20_000, SEED.child(4))
        err_gen = np.sum((test.ys - test.xs @ gen.A.T - gen.b) ** 2, axis=1)
        err_disc = np.sum((test.ys - test.xs @ disc.A.T - disc.b) ** 2, axis=1)
        # Paired comparison over shared test points: the generative excess
        # error must exceed 3 standard errors of the mean difference.
        diff = err_gen - err_disc
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        assert diff.mean() > 3.0 * se
        assert time.perf_counter() - start < 120.0


def test_criterion_7_exact_risk_prefers_discriminative():
    # Criterion 7's rules scored by their exact risk under the tanh map, in
    # place of a finite test set: the generative rule is strictly worse.
    with criterion(7, "misspecification prefers discriminative, exact risk"):
        start = time.perf_counter()
        sigma2 = 0.3**2
        prior, H, model = _study_setup(sigma2, nonlinearity=g.Tanh(scale=1.0))
        moments = compute_moments(g.sample_pairs(prior, model, 100_000, SEED.child(3)))
        known = g.KnownStatistics(prior=prior, sigma2=sigma2)
        gen = g.generative_estimator(g.fit_ml(moments), known, moments)
        disc = g.discriminative_estimator(moments)
        measurement = g.measurement_moments(prior, H, model.nonlinearity)
        risk_gen = g.affine_risk(gen, prior, model, measurement)
        risk_disc = g.affine_risk(disc, prior, model, measurement)
        assert risk_gen > risk_disc
        oracle = g.affine_risk(g.oracle_lmmse(prior, model, measurement), prior, model, measurement)
        assert oracle <= risk_disc
        assert time.perf_counter() - start < 120.0


def test_criterion_8_determinism_across_thread_counts(snr_runs):
    with criterion(8, "byte-identical reruns across thread counts"):
        (dir_a, dur_a), (dir_b, dur_b) = snr_runs["a"], snr_runs["b"]
        assert dur_a + dur_b < 600.0
        bytes_a = (dir_a / "results.csv").read_bytes()
        bytes_b = (dir_b / "results.csv").read_bytes()
        assert bytes_a == bytes_b
        # Manifests agree on everything except wall-clock and file paths.
        man_a = json.loads((dir_a / "manifest.json").read_text())
        man_b = json.loads((dir_b / "manifest.json").read_text())
        assert man_a["config"] == man_b["config"]
        assert man_a["cells"] == man_b["cells"]


def test_criterion_9_property_suites():
    with criterion(9, "randomized property suites"):
        start = time.perf_counter()
        rng = np.random.default_rng(90)

        # Sample covariances are PSD.
        for _ in range(100):
            n = int(rng.integers(1, 25))
            dx, dy = (int(d) for d in rng.integers(1, 7, size=2))
            m = compute_moments(
                g.Dataset(xs=rng.standard_normal((n, dx)), ys=rng.standard_normal((n, dy)))
            )
            v = rng.standard_normal(dx)
            w = rng.standard_normal(dy)
            assert v @ m.C_xx @ v >= -1e-10 * (v @ v)
            assert w @ m.C_yy @ w >= -1e-10 * (w @ w)

        # Moments are invariant to sample order.
        for _ in range(100):
            n = int(rng.integers(2, 30))
            xs = rng.standard_normal((n, 4))
            ys = rng.standard_normal((n, 3))
            perm = rng.permutation(n)
            m1 = compute_moments(g.Dataset(xs=xs, ys=ys))
            m2 = compute_moments(g.Dataset(xs=xs[perm], ys=ys[perm]))
            assert np.allclose(m1.C_yx, m2.C_yx, rtol=1e-12, atol=1e-12)
            assert np.allclose(m1.C_xx, m2.C_xx, rtol=1e-12, atol=1e-12)
            assert np.allclose(m1.C_yy, m2.C_yy, rtol=1e-12, atol=1e-12)

        # The discriminative estimator is bit-invariant to the claimed prior.
        data = g.Dataset(xs=rng.standard_normal((60, 4)), ys=rng.standard_normal((60, 3)))
        moments = compute_moments(data)
        reference = g.discriminative_estimator(moments)
        for k in range(100):
            prior = g.GaussianPrior(
                mu_y=rng.standard_normal(3), C_yy=random_spd(rng, 3)
            )
            g.KnownStatistics(prior=prior, sigma2=float(rng.uniform(0.01, 10.0)))
            rebuilt = g.discriminative_estimator(moments)
            assert np.array_equal(rebuilt.A, reference.A)
            assert np.array_equal(rebuilt.b, reference.b)

        # The fitted rule is a local minimum of the empirical risk.
        for k in range(5):
            data = g.Dataset(
                xs=rng.standard_normal((50, 3)), ys=rng.standard_normal((50, 2))
            )
            est = g.discriminative_estimator(compute_moments(data))

            def risk(A, b):
                residual = data.ys - data.xs @ A.T - b
                return float(np.mean(np.sum(residual**2, axis=1)))

            base = risk(est.A, est.b)
            for _ in range(20):
                dA = rng.standard_normal(est.A.shape)
                db = rng.standard_normal(est.b.shape)
                norm = np.sqrt(np.sum(dA**2) + np.sum(db**2))
                assert risk(est.A + 1e-3 * dA / norm, est.b + 1e-3 * db / norm) >= base

        assert time.perf_counter() - start < 60.0
