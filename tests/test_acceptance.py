"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance here is fixed; nothing is calibrated at runtime.
"""

import json
import time

import numpy as np
import pytest

from salsa_opt.cli import main as cli_main
from salsa_opt.core import seeded_rng
from salsa_opt.frequency import FreqState, FrequencyController, \
    compute_interval
from salsa_opt.harness import (final_smoothed_loss, frequency_ablation,
                               batch_scaling_experiment, replay_verify,
                               run_single)
from salsa_opt.problems import (finite_diff_grad, make_logreg,
                                make_matrix_factorization, make_mlp,
                                make_quadratic)
from salsa_opt.salsa import smooth_update


def _report(criterion, body):
    try:
        detail = body()
    except AssertionError as e:
        print(f"\n[acceptance] criterion {criterion}: FAIL - {e}")
        raise
    print(f"\n[acceptance] criterion {criterion}: PASS"
          + (f" ({detail})" if detail else ""))


def test_criterion_1_accepted_steps_satisfy_their_criterion():
    """All accepted searches re-verify from replayed traces, 1e-9 slack."""

    def body():
        t0 = time.monotonic()
        problems = [
            (make_quadratic(dim=8, cond=50, seed=101), 300, 1),
            (make_logreg(n=512, dim=16, seed=7, label_noise=0.1), 100, 32),
            (make_mlp(n=400, in_dim=6, hidden=5, seed=7), 70, 32),
            (make_matrix_factorization(rows=10, cols=8, rank=2, seed=7), 140, 16),
        ]
        total_searched = total_checked = 0
        violations = []
        for kind in ("sgd_sls", "adam_sls", "sgd_salsa", "adam_salsa"):
            for problem, epochs, batch in problems:
                opt = {"kind": kind}
                result = run_single(problem, opt, seed=0, epochs=epochs,
                                    batch_size=batch)
                report = replay_verify(problem, opt, 0, epochs, batch,
                                       result.trace)
                total_searched += report.n_searched
                total_checked += report.n_checked
                violations.extend(
                    (problem.name, kind, v) for v in report.violations)
        elapsed = time.monotonic() - t0
        assert total_searched >= 10000, \
            f"only {total_searched} searched steps"
        assert not violations, f"criterion violations: {violations[:5]}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        return (f"{total_checked} accepted steps verified of "
                f"{total_searched} searched, {elapsed:.1f}s")

    _report(1, body)


def test_criterion_2_nondecrease_mode_convergence():
    """SaLSa-SGD with the non-decrease mode: monotone loss, tiny gradient."""

    def body():
        t0 = time.monotonic()
        problem = make_quadratic(dim=10, cond=100, seed=7)
        opt = {"kind": "sgd_salsa", "enforce_nondecrease": True}
        for seed in range(5):
            result = run_single(problem, opt, seed=seed, epochs=10000,
                                batch_size=1)
            losses = np.array([r.loss for r in result.trace.records])
            assert np.all(np.diff(losses) <= 0.0), \
                f"seed {seed}: loss increased"
            gninf = np.sqrt(min(r.grad_norm_sq
                                for r in result.trace.records))
            assert gninf <= 1e-6, f"seed {seed}: min |grad| {gninf:.2e}"
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        return f"5 seeds monotone, |grad| <= 1e-6, {elapsed:.1f}s"

    _report(2, body)


def test_criterion_3_gradient_oracle():
    """Analytic vs central finite differences, rel err <= 1e-4, 10 points."""

    def body():
        t0 = time.monotonic()
        problems = [
            make_quadratic(dim=8, cond=100, seed=3),
            make_logreg(n=300, dim=10, seed=3, label_noise=0.1),
            make_mlp(n=240, in_dim=6, hidden=4, seed=3),
            make_matrix_factorization(rows=8, cols=6, rank=2, seed=3),
        ]
        worst = 0.0
        for problem in problems:
            for i in range(10):
                w = problem.init_params(600 + i) \
                    + 0.1 * seeded_rng(700 + i).standard_normal(problem.dim)
                analytic = problem.loss_grad(w, problem.full_indices()).grad
                fd = finite_diff_grad(problem, w, h=1e-5)
                err = np.linalg.norm(analytic - fd) / \
                    max(np.linalg.norm(fd), 1e-12)
                worst = max(worst, err)
                assert err <= 1e-4, f"{problem.name} point {i}: {err:.2e}"
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"
        return f"worst rel err {worst:.2e} over 4 problems x 10 points"

    _report(3, body)


def test_criterion_4_ema_exactness():
    """Recursive smoothing equals the closed-form unrolled sum, 1e-12 rel."""

    def body():
        rng = seeded_rng(404)
        worst = 0.0
        for trial in range(1000):
            k = int(rng.integers(1, 61))
            beta = float(rng.uniform(0.5, 0.999))
            # half the sequences nonnegative (gradient-norm style), half
            # signed (loss-decrease style)
            xs = rng.standard_normal(k)
            if trial % 2 == 0:
                xs = np.abs(xs)
            recursive = smooth_update(0.0, xs[0], beta, initialized=False)
            for x in xs[1:]:
                recursive = smooth_update(recursive, x, beta, initialized=True)
            closed = beta ** (k - 1) * xs[0] + (1.0 - beta) * sum(
                beta ** (k - 1 - i) * xs[i] for i in range(1, k))
            scale = max(abs(closed), 1e-13)
            worst = max(worst, abs(recursive - closed) / scale)
            assert abs(recursive - closed) <= 1e-12 * scale + 1e-13, \
                f"trial {trial}: {recursive} vs {closed}"
        return f"1000 sequences, worst rel dev {worst:.2e}"

    _report(4, body)


def test_criterion_5_frequency_controller():
    """Interval saturation, exact mid-range value, plateau search fraction."""

    def body():
        # constant step-size stream saturates at the maximum interval
        controller = FrequencyController()
        for _ in range(25):
            controller.record_search(0.3)
            assert compute_interval(controller.state) == 10
        # fast/slow = 1.2 maps exactly to 5
        assert compute_interval(FreqState(ema_fast=1.2, ema_slow=1.0,
                                          seeded=True)) == 5
        # plateaued real run: the clamp pins the accepted step size, so the
        # controller must settle at one search per ten steps
        problem = make_logreg(n=4096, dim=8, seed=0, label_noise=0.1)
        opt = {"kind": "sgd_salsa", "eta_init": 0.02, "eta_max": 0.02}
        bpe = -(-round(0.8 * 4096) // 32)
        epochs = -(-5000 // bpe)
        result = run_single(problem, opt, seed=0, epochs=epochs,
                            batch_size=32, frequency_controller=True)
        records = result.trace.records[:5000]
        fraction = float(np.mean([r.searched for r in records]))
        assert 0.09 <= fraction <= 0.12, f"searched fraction {fraction:.4f}"
        return f"L=10 on plateau, L(1.2)=5, searched fraction {fraction:.4f}"

    _report(5, body)


def test_criterion_6_stability_versus_raw_search():
    """Smoothed search: lower step-size spread, no collapse to eta_min."""

    def body():
        t0 = time.monotonic()
        problem = make_logreg(n=10000, dim=100, seed=0, label_noise=0.1)
        spreads = {}
        min_eta = {}
        for kind in ("adam_sls", "adam_salsa"):
            mids = []
            lows = []
            for seed in range(5):
                result = run_single(problem, {"kind": kind}, seed=seed,
                                    epochs=2, batch_size=32)
                etas = np.array([r.eta for r in result.trace.records])
                n = len(etas)
                window = etas[int(0.45 * n):int(0.55 * n)]
                mids.append(float(np.mean(np.log10(window))))
                lows.append(float(etas.min()))
            spreads[kind] = float(np.var(mids, ddof=1))
            min_eta[kind] = min(lows)
        elapsed = time.monotonic() - t0
        assert spreads["adam_salsa"] < spreads["adam_sls"], \
            f"variances {spreads}"
        assert min_eta["adam_salsa"] > 1e-10, \
            f"smoothed run collapsed to {min_eta['adam_salsa']:.2e}"
        assert elapsed < 300.0, f"took {elapsed:.1f}s"
        return (f"var log10(eta): salsa {spreads['adam_salsa']:.2e} < "
                f"sls {spreads['adam_sls']:.2e}; min eta "
                f"{min_eta['adam_salsa']:.2e}")

    _report(6, body)


GRID = (1e-1, 1e-2, 1e-3, 1e-4)


def _grid_tuned_adam(problem, epochs, batch_size, seeds):
    best = None
    for lr in GRID:
        finals = [final_smoothed_loss(
            run_single(problem, {"kind": "adam", "lr": lr}, s, epochs,
                       batch_size).trace) for s in seeds]
        if best is None or np.mean(finals) < np.mean(best):
            best = finals
    return best


def _pooled_se(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b)))


def test_criterion_7_desk_scale_performance_ordering():
    """Adam+SaLSa final loss <= grid-tuned fixed Adam + 1 pooled SE."""

    def body():
        t0 = time.monotonic()
        seeds = range(5)
        arms = [
            (make_logreg(n=2000, dim=100, seed=0, label_noise=0.0), 12, 256),
            (make_mlp(n=2000, in_dim=10, hidden=8, seed=0, separation=4.0),
             20, 32),
        ]
        details = []
        for problem, epochs, batch in arms:
            salsa = [final_smoothed_loss(
                run_single(problem, {"kind": "adam_salsa"}, s, epochs,
                           batch).trace) for s in seeds]
            tuned = _grid_tuned_adam(problem, epochs, batch, seeds)
            se = _pooled_se(salsa, tuned)
            assert np.mean(salsa) <= np.mean(tuned) + se, \
                (f"{problem.name}: salsa {np.mean(salsa):.5f} vs tuned "
                 f"{np.mean(tuned):.5f} + se {se:.5f}")
            details.append(f"{problem.name}: {np.mean(salsa):.4f} vs "
                           f"{np.mean(tuned):.4f}+{se:.4f}")
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0, f"took {elapsed:.1f}s"
        return "; ".join(details)

    _report(7, body)


def test_criterion_8_batch_size_scaling():
    """Step-size doubling ratios in [1.1, 1.7], strictly increasing means."""

    def body():
        t0 = time.monotonic()
        problem = make_logreg(n=20000, dim=4, seed=0, label_noise=0.0)
        report = batch_scaling_experiment(problem, batch_sizes=(4, 8, 16, 32),
                                          seeds=(0, 1, 2, 3, 4), epochs=1)
        means = [report.mean_mid_eta[b] for b in (4, 8, 16, 32)]
        ratios = [r for _, _, r in report.ratios]
        for (a, b, ratio) in report.ratios:
            assert 1.1 <= ratio <= 1.7, \
                f"{a}->{b} ratio {ratio:.3f} outside [1.1, 1.7]"
        assert all(x < y for x, y in zip(means, means[1:])), \
            f"means not increasing: {means}"
        elapsed = time.monotonic() - t0
        assert elapsed < 600.0, f"took {elapsed:.1f}s"
        return ("ratios " + "/".join(f"{r:.3f}" for r in ratios)
                + f" bracket sqrt(2)~1.414, {elapsed:.1f}s")

    _report(8, body)


def test_criterion_9_frequency_controller_ablation():
    """Controller on/off: final losses within two pooled standard errors."""

    def body():
        problem = make_logreg(n=2000, dim=20, seed=0, label_noise=0.1)
        report = frequency_ablation(problem, seeds=(0, 1, 2, 3, 4),
                                    epochs=3, batch_size=32)
        assert abs(report.mean_delta) <= 2.0 * report.pooled_se, \
            (f"delta {report.mean_delta:.4e} exceeds "
             f"2 x {report.pooled_se:.4e}")
        assert report.searched_fraction_off == 1.0
        assert report.searched_fraction_on < 0.5
        return (f"|delta| {abs(report.mean_delta):.2e} <= "
                f"2se {2 * report.pooled_se:.2e}; searched fraction "
                f"{report.searched_fraction_on:.3f} vs 1.0")

    _report(9, body)


def test_criterion_10_cli_run_determinism(tmp_path):
    """Repeated `run` invocations produce byte-identical CSV output."""

    def body():
        config = {
            "problem": {"kind": "logreg", "n": 300, "dim": 6, "seed": 2,
                        "label_noise": 0.1},
            "optimizer": {"kind": "adam_salsa"},
            "seeds": [0, 1],
            "epochs": 3,
            "batch_size": 16,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        outputs = []
        for rep in range(2):
            out = tmp_path / f"rep{rep}.csv"
            code = cli_main(["run", "--config", str(cfg_path),
                             "--out", str(out)])
            assert code == 0
            outputs.append(tuple(
                (tmp_path / f"rep{rep}_seed{s}.csv").read_bytes()
                for s in (0, 1)))
        assert outputs[0] == outputs[1], "reruns differ"
        assert len(outputs[0][0]) > 100
        return "2 seeds x 2 invocations byte-identical"

    _report(10, body)
