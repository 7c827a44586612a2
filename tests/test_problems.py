"""Objectives: analytic gradients vs finite differences, batching, symmetry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from salsa_opt import problems as problems_module
from salsa_opt.core import EvalResult, seeded_rng, stream_key
from salsa_opt.harness import run_single
from salsa_opt.problems import (BatchObjective, BatchSampler, Problem,
                                finite_diff_grad, load_csv_dataset,
                                make_logreg, make_matrix_factorization,
                                make_mlp, make_quadratic, problem_from_csv)

ALL_PROBLEMS = [
    make_quadratic(dim=6, cond=50, seed=1),
    make_logreg(n=300, dim=8, seed=1, label_noise=0.1),
    make_mlp(n=240, in_dim=5, hidden=4, seed=1),
    make_matrix_factorization(rows=8, cols=6, rank=2, seed=1),
]


def _random_point(problem, i):
    w = problem.init_params(500 + i)
    return w + 0.1 * seeded_rng(900 + i).standard_normal(problem.dim)


def _write_csv(tmp_path, header):
    rng = seeded_rng(13)
    X = rng.standard_normal((40, 3))
    y = (X @ np.array([1.0, -2.0, 0.5]) > 0).astype(float)
    path = tmp_path / "data.csv"
    lines = ["f0,f1,f2,label"] if header else []
    lines += [",".join(repr(float(v)) for v in row) + f",{int(label)}"
              for row, label in zip(X, y)]
    path.write_text("\n".join(lines) + "\n")
    return path, X, y


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.name)
def test_gradient_matches_finite_differences(problem):
    for i in range(3):
        w = _random_point(problem, i)
        analytic = problem.loss_grad(w, problem.full_indices()).grad
        fd = finite_diff_grad(problem, w, h=1e-5)
        err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        assert err <= 1e-4, f"{problem.name}: rel err {err:.2e}"


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.name)
def test_full_batch_loss_equals_full_loss(problem):
    w = _random_point(problem, 7)
    batch_loss = problem.loss_grad(w, problem.full_indices()).loss
    assert batch_loss == problem.full_loss(w)


def test_loss_only_is_bit_identical(tmp_path):
    path, _, _ = _write_csv(tmp_path, header=True)
    problems = ALL_PROBLEMS + [
        problem_from_csv(str(path), kind="logreg"),
        problem_from_csv(str(path), kind="mlp", hidden=3),
    ]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def check(data):
        prob = data.draw(st.sampled_from(problems), label="problem")
        w = data.draw(arrays(np.float64, prob.dim,
                             elements=st.floats(-5.0, 5.0)), label="w")
        idx = data.draw(arrays(np.int64, st.integers(1, 12),
                               elements=st.integers(0, prob.dataset_size - 1)),
                        label="indices")
        loss_only = prob.loss_grad(w, idx, grad=False)
        assert loss_only.grad is None
        assert loss_only.loss == prob.loss_grad(w, idx).loss

    check()


def _mlp_unpack(w, in_dim):
    """[W1 (in x h), b1 (h), w2 (h), b2 (1)] from the flat vector."""
    hidden = (len(w) - 1) // (in_dim + 2)
    n_w1 = in_dim * hidden
    return (w[:n_w1].reshape(in_dim, hidden), w[n_w1:n_w1 + hidden],
            w[n_w1 + hidden:n_w1 + 2 * hidden], w[-1])


def _matfac_unpack(w, rows, cols):
    """U (rows x rank) and V (cols x rank) from the flat vector."""
    rank = len(w) // (rows + cols)
    n_u = rows * rank
    return w[:n_u].reshape(rows, rank), w[n_u:].reshape(cols, rank)


def _wrapper_losses(prob, w, idx):
    """Batch and full-data loss of each factory written with the
    ``np.sum``/``np.mean`` wrappers, over the data in ``prob.extras`` and
    with ``w`` split by the problem's shapes.

    The full-data loss is the batch loss over every index, so matrix
    factorization's is the per-entry residual over all entries, not
    ``U @ V.T - M``, which rounds differently in the last bits."""
    env = prob.extras
    if prob.name.startswith("quadratic"):
        r = np.asarray(w) - env["w_star"]
        loss = float(0.5 * np.sum(env["eigs"] * r * r))
        return loss, loss
    if prob.name.startswith("logreg"):
        # the stored rows hold their labels folded in; a second product
        # with the +-1 label gives the features back exactly
        ytr = env["ytr"]
        Xtr = ytr[:, None] * env["Xy"]
        reg = problems_module._L2_REG * (w @ w)
        margins = ytr[idx] * (Xtr[idx] @ w)
        full_margins = ytr * (Xtr @ w)
        return (float(np.mean(np.logaddexp(0.0, -margins)) + reg),
                float(np.mean(np.logaddexp(0.0, -full_margins)) + reg))
    if prob.name.startswith("mlp"):
        Xtr, ytr = env["Xtr"], env["ytr"]
        W1, b1, w2, b2 = _mlp_unpack(w, Xtr.shape[1])

        def bce(X, y):
            z = np.tanh(X @ W1 + b1) @ w2 + b2
            return float(np.mean(np.logaddexp(0.0, z) - y * z))

        return bce(Xtr[idx], ytr[idx]), bce(Xtr, ytr)
    M = env["M"]
    rows, cols = M.shape
    U, V = _matfac_unpack(w, rows, cols)

    def half_mse(indices):
        i, j = np.divmod(np.asarray(indices), cols)
        r = np.einsum("bk,bk->b", U[i], V[j]) - M[i, j]
        return float(0.5 * np.mean(r * r))

    return half_mse(idx), half_mse(np.arange(prob.dataset_size))


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_losses_bit_equal_the_wrapper_reductions(data):
    prob = data.draw(st.sampled_from(ALL_PROBLEMS), label="problem")
    w = data.draw(arrays(np.float64, prob.dim, elements=st.floats(-5.0, 5.0)),
                  label="w")
    idx = data.draw(arrays(np.int64, st.integers(1, 12),
                           elements=st.integers(0, prob.dataset_size - 1)),
                    label="indices")
    batch, full = _wrapper_losses(prob, w, idx)

    def same(a, b):
        return np.float64(a).tobytes() == np.float64(b).tobytes()

    assert same(prob.loss_grad(w, idx).loss, batch)
    assert same(prob.loss_grad(w, idx, grad=False).loss, batch)
    assert same(prob.full_loss(w), full)


def test_batch_loss_is_one_loss_only_eval():
    calls = []

    def loss_grad(w, indices, grad=True):
        calls.append(grad)
        return EvalResult(loss=float(np.sum(w)),
                          grad=np.ones_like(w) if grad else None)

    prob = Problem(name="recording", dim=2, dataset_size=1,
                   loss_grad=loss_grad, init_params=lambda seed: np.zeros(2))
    batch = BatchObjective(prob, np.arange(1), key=0)
    assert batch.loss(np.array([1.0, 2.0])) == 3.0
    assert batch.n_evals == 1
    assert calls == [False]
    batch.eval(np.zeros(2))
    assert batch.n_evals == 2
    assert calls == [False, True]


def test_full_loss_is_one_loss_only_eval_over_every_index():
    calls = []

    def loss_grad(w, indices, grad=True):
        calls.append((list(indices), grad))
        return EvalResult(loss=float(np.sum(w)), grad=None)

    prob = Problem(name="recording", dim=2, dataset_size=3,
                   loss_grad=loss_grad, init_params=lambda seed: np.zeros(2))
    assert prob.full_loss(np.array([1.0, 2.0])) == 3.0
    assert calls == [([0, 1, 2], False)]


class TestQuadratic:
    def test_minimum_is_exact_zero(self):
        prob = make_quadratic(dim=4, cond=10, seed=3)
        w_star = prob.extras["w_star"]
        assert prob.full_loss(w_star) == 0.0
        np.testing.assert_array_equal(
            prob.loss_grad(w_star, prob.full_indices()).grad, np.zeros(4))

    def test_dim1_cond1_is_half_square(self):
        prob = make_quadratic(dim=1, cond=1, seed=2)
        w_star = prob.extras["w_star"]
        w = w_star + 3.0
        assert prob.full_loss(w) == pytest.approx(4.5, rel=1e-12)

    def test_fd_exact_on_quadratic(self):
        # central differences are exact for quadratics at any h
        prob = make_quadratic(dim=3, cond=5, seed=4)
        w = _random_point(prob, 0)
        fd = finite_diff_grad(prob, w, h=0.25)
        analytic = prob.loss_grad(w, prob.full_indices()).grad
        np.testing.assert_allclose(fd, analytic, rtol=1e-9)


class TestLinearFiniteDiff:
    def test_exact_for_any_h(self):
        from conftest import make_linear
        prob = make_linear(dim=4, slope=2.5)
        w = seeded_rng(11).standard_normal(4)
        for h in (1e-6, 1e-2, 1.0):
            np.testing.assert_allclose(finite_diff_grad(prob, w, h),
                                       np.full(4, 2.5), rtol=1e-9)

    @pytest.mark.parametrize("h", [0.0, -1e-5])
    def test_non_positive_h_rejected(self, h):
        from conftest import make_linear
        with pytest.raises(ValueError, match=f"h must be > 0, got {h}"):
            finite_diff_grad(make_linear(), np.zeros(2), h)


class TestLogreg:
    def test_separable_loss_approaches_regularizer(self):
        prob = make_logreg(n=200, dim=5, seed=9, label_noise=0.0)
        w = 1e4 * prob.extras["w_true"]
        reg_term = 1e-4 * float(w @ w)
        assert prob.full_loss(w) == pytest.approx(reg_term, rel=1e-6)

    def test_full_loss_is_mean_of_per_sample(self):
        prob = make_logreg(n=100, dim=4, seed=3, label_noise=0.1)
        w = _random_point(prob, 1)
        per_sample = [
            prob.loss_grad(w, np.array([i])).loss - 1e-4 * float(w @ w)
            for i in range(prob.dataset_size)
        ]
        expected = np.mean(per_sample) + 1e-4 * float(w @ w)
        assert prob.full_loss(w) == pytest.approx(expected, rel=1e-12)

    def test_val_accuracy_available(self):
        prob = make_logreg(n=100, dim=4, seed=3)
        acc = prob.val_accuracy(prob.init_params(0))
        assert 0.0 <= acc <= 1.0


class TestMlp:
    def test_val_accuracy_of_one_class_predictors(self):
        # only the output bias set: every held-out row gets one class, so
        # the two signs' accuracies are the two class shares
        prob = make_mlp(n=100, in_dim=4, hidden=3, seed=3)
        w = np.zeros(prob.dim)
        w[-1] = 1.0
        ones = prob.val_accuracy(w)
        assert 0.0 < ones < 1.0
        assert ones + prob.val_accuracy(-w) == pytest.approx(1.0)

    def test_zero_weights_give_ln2(self):
        prob = make_mlp(n=200, in_dim=5, hidden=3, seed=2)
        assert prob.full_loss(np.zeros(prob.dim)) == \
            pytest.approx(np.log(2.0), rel=1e-12)

    def test_hidden_unit_permutation_invariance(self):
        prob = make_mlp(n=150, in_dim=4, hidden=5, seed=6)
        in_dim, hidden = 4, 5
        w = _random_point(prob, 2)
        W1 = w[:in_dim * hidden].reshape(in_dim, hidden)
        b1 = w[in_dim * hidden:in_dim * hidden + hidden]
        w2 = w[in_dim * hidden + hidden:in_dim * hidden + 2 * hidden]
        b2 = w[-1:]
        perm = seeded_rng(77).permutation(hidden)
        w_perm = np.concatenate([W1[:, perm].ravel(), b1[perm], w2[perm], b2])
        assert prob.full_loss(w_perm) == pytest.approx(prob.full_loss(w),
                                                       rel=1e-12)


class TestMatrixFactorization:
    def test_ground_truth_zero_loss_without_noise(self):
        prob = make_matrix_factorization(rows=7, cols=5, rank=2, seed=8,
                                         noise=0.0)
        assert prob.full_loss(prob.extras["ground_truth"]) <= 1e-20

    def test_gauge_symmetry(self):
        prob = make_matrix_factorization(rows=6, cols=4, rank=2, seed=5)
        rows, cols, rank = 6, 4, 2
        w = _random_point(prob, 3)
        U = w[:rows * rank].reshape(rows, rank)
        V = w[rows * rank:].reshape(cols, rank)
        alpha = 1.7
        w_scaled = np.concatenate([(U * alpha).ravel(), (V / alpha).ravel()])
        assert prob.full_loss(w_scaled) == pytest.approx(prob.full_loss(w),
                                                         rel=1e-12)

    def test_rank_validated(self):
        with pytest.raises(ValueError):
            make_matrix_factorization(rows=3, cols=3, rank=4, seed=0)


class TestBatchSampler:
    def test_deterministic_given_seed_and_step(self):
        a = BatchSampler(seed=5, batch_size=8, dataset_size=50)
        b = BatchSampler(seed=5, batch_size=8, dataset_size=50)
        for k in (0, 3, 17):
            np.testing.assert_array_equal(a.sample(k), b.sample(k))

    def test_epoch_is_a_partition(self):
        sampler = BatchSampler(seed=2, batch_size=8, dataset_size=40)
        seen = np.concatenate([sampler.sample(k)
                               for k in range(sampler.batches_per_epoch)])
        assert sorted(seen) == list(range(40))

    def test_batch_size_clamped_to_dataset(self):
        sampler = BatchSampler(seed=0, batch_size=32, dataset_size=1)
        np.testing.assert_array_equal(sampler.sample(5), [0])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), batch_size=st.integers(1, 64),
           ks=st.lists(st.integers(0, 10**6), min_size=1, max_size=5))
    def test_one_row_sampler_matches_fresh_permutation(self, seed, batch_size,
                                                       ks):
        # one sampler across several steps, so the reused permutation of a
        # one-row dataset is checked against a fresh build at every step
        sampler = BatchSampler(seed=seed, batch_size=batch_size,
                               dataset_size=1)
        for k in ks:
            got = sampler.sample(k)
            want = seeded_rng(seed, k, 0xBA7C).permutation(1)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32), dataset_size=st.integers(1, 12),
           batch_size=st.integers(1, 16),
           ks=st.lists(st.integers(0, 60), min_size=1, max_size=12))
    def test_a_reused_sampler_matches_a_fresh_one(self, seed, dataset_size,
                                                  batch_size, ks):
        # steps in any order, across epochs and back: the permutation a
        # sampler holds from an earlier step never leaks into another's
        sampler = BatchSampler(seed=seed, batch_size=batch_size,
                               dataset_size=dataset_size)
        for k in ks:
            fresh = BatchSampler(seed=seed, batch_size=batch_size,
                                 dataset_size=dataset_size)
            got, want = sampler.sample(k), fresh.sample(k)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        assert sampler.batches_per_epoch == -(-dataset_size // min(
            batch_size, dataset_size))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.one_of(st.integers(-2**70, 0), st.integers(0, 2**70)),
           ks=st.lists(st.one_of(st.integers(-2**70, 0),
                                 st.integers(2**64 - 2, 2**70),
                                 st.integers(0, 10**6)),
                       min_size=1, max_size=4))
    def test_step_key_is_the_stream_key(self, seed, ks):
        # the sampler folds its seed into the hash once; every key it hands
        # out must still be the full stream_key, masked the same way
        sampler = BatchSampler(seed=seed, batch_size=3, dataset_size=10)
        for k in ks:
            assert sampler.step_key(k) == stream_key(seed, k, 0xBA7C)

    def test_one_row_run_builds_one_permutation(self, monkeypatch):
        prob = make_quadratic(dim=5, cond=100, seed=2)
        calls = []

        def counting_rng(*keys):
            calls.append(keys)
            return seeded_rng(*keys)

        monkeypatch.setattr(problems_module, "seeded_rng", counting_rng)
        result = run_single(prob, {"kind": "adam_sls"}, seed=4, epochs=300,
                            batch_size=1)
        assert len(result.trace.records) == 300
        # init_params, then the permutation of epoch 0
        assert len(calls) <= 2

    def test_epoch_mean_equals_full_loss(self):
        prob = make_logreg(n=125, dim=4, seed=1, label_noise=0.1)
        # train split is 100 points; 10 equal batches partition it
        sampler = BatchSampler(seed=3, batch_size=10,
                               dataset_size=prob.dataset_size)
        w = _random_point(prob, 4)
        reg = 1e-4 * float(w @ w)
        batch_losses = [prob.loss_grad(w, sampler.sample(k)).loss - reg
                        for k in range(sampler.batches_per_epoch)]
        assert np.mean(batch_losses) + reg == \
            pytest.approx(prob.full_loss(w), rel=1e-10)

    def test_identical_eval_bits_for_same_step(self):
        prob = make_logreg(n=64, dim=3, seed=6, label_noise=0.2)
        sampler = BatchSampler(seed=9, batch_size=4,
                               dataset_size=prob.dataset_size)
        w = prob.init_params(1)
        a = prob.loss_grad(w, sampler.sample(11))
        b = prob.loss_grad(w, sampler.sample(11))
        assert a.loss == b.loss
        np.testing.assert_array_equal(a.grad, b.grad)


class TestCsvIngestion:
    def test_roundtrip_without_header(self, tmp_path):
        path, X, y = _write_csv(tmp_path, header=False)
        X2, y2 = load_csv_dataset(str(path))
        np.testing.assert_allclose(X2, X)
        np.testing.assert_allclose(y2, y)

    def test_header_skipped(self, tmp_path):
        path, X, _ = _write_csv(tmp_path, header=True)
        X2, _ = load_csv_dataset(str(path))
        np.testing.assert_allclose(X2, X)

    def test_logreg_problem_from_csv(self, tmp_path):
        path, _, _ = _write_csv(tmp_path, header=True)
        prob = problem_from_csv(str(path), kind="logreg")
        assert prob.dim == 3
        w = prob.init_params(0)
        analytic = prob.loss_grad(w, prob.full_indices()).grad
        fd = finite_diff_grad(prob, w, h=1e-5)
        np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-10)

    def test_mlp_problem_from_csv(self, tmp_path):
        path, _, _ = _write_csv(tmp_path, header=False)
        prob = problem_from_csv(str(path), kind="mlp", hidden=3)
        assert prob.full_loss(np.zeros(prob.dim)) == \
            pytest.approx(np.log(2.0), rel=1e-12)

    def test_one_column_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("1\n0\n1\n")
        with pytest.raises(ValueError, match="at least one feature column"):
            load_csv_dataset(str(path))

    def test_bad_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,3.5\n")
        with pytest.raises(ValueError):
            problem_from_csv(str(path), kind="logreg")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,1\n0.5,1.5,0\n"
                        f"3.0,{value},1\n{value},1.0,0\n")
        with pytest.raises(ValueError, match=r"^data row 3 holds a non-finite"):
            load_csv_dataset(str(path))

    @pytest.mark.parametrize("kind", ["logreg", "mlp"])
    def test_three_label_values_rejected(self, tmp_path, kind):
        # -1, 0 and 1 are three classes; either mapping would merge two
        path = tmp_path / "three.csv"
        path.write_text("".join(f"{i}.0,{label}\n"
                                for i, label in enumerate([1, 0, -1, 1, 0])))
        with pytest.raises(ValueError, match=r"\[-1\.0, 0\.0, 1\.0\]"):
            problem_from_csv(str(path), kind=kind)
