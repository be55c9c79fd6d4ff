import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import talentrank
from talentrank.fileio import LineReader
from talentrank.neural import (
    Layer,
    MlpModel,
    ModelGrads,
    NeuralError,
    TrainConfig,
    add_grads,
    gradient_check,
    init_mlp,
    mlp_backward,
    mlp_forward,
    mlp_forward_batch,
    mlp_from_lines,
    mlp_to_lines,
    pairwise_loss,
    pointwise_loss,
    sgd_step,
)


def zero_model(input_width=3, hidden=(4,), activation="relu"):
    layers = []
    fan_in = input_width
    for w in hidden:
        layers.append(Layer(np.zeros((w, fan_in)), np.zeros(w), activation))
        fan_in = w
    return MlpModel(layers, np.zeros(fan_in))


def score_one(model, x):
    return float(mlp_forward(model, np.asarray(x)[None, :])[0])


def score_diff(model, x_pos, x_neg):
    """score(x_pos) - score(x_neg), both rows scored in one call."""
    sp, sn = mlp_forward(model, np.stack([x_pos, x_neg]))
    return sp - sn


class TestForward:
    def test_zero_parameters_score_zero(self):
        model = zero_model()
        scores = mlp_forward(model, np.array([np.zeros(3), np.ones(3), [-2.0, 5.0, 0.1]]))
        assert scores.shape == (3,)
        assert not scores.any()

    def test_identity_single_layer_closed_form(self):
        rng = np.random.RandomState(0)
        W = rng.randn(4, 3)
        b = rng.randn(4)
        w = rng.randn(4)
        model = MlpModel([Layer(W, b, "identity")], w)
        x = rng.randn(3)
        assert score_one(model, x) == pytest.approx(float(w @ (W @ x + b)), rel=1e-12)

    def test_relu_all_negative_preactivations(self):
        model = MlpModel([Layer(-np.ones((2, 2)), np.array([-1.0, -1.0]), "relu")],
                         np.array([3.0, 4.0]))
        assert score_one(model, np.array([1.0, 1.0])) == 0.0

    def test_shape_mismatch_errors(self):
        with pytest.raises(NeuralError):
            mlp_forward(zero_model(input_width=3), np.zeros((1, 5)))
        with pytest.raises(NeuralError):
            mlp_forward(zero_model(input_width=3), np.zeros(3))

    def test_deterministic_without_dropout(self):
        model = init_mlp(4, (8, 8), "relu", seed=1)
        x = np.random.RandomState(2).randn(4)
        assert score_one(model, x) == score_one(model, x)


class TestBatchInvariance:
    @pytest.mark.parametrize("width", [1, 7, 13, 41])
    def test_row_scores_independent_of_batch(self, width):
        rng = np.random.RandomState(width)
        model = init_mlp(width, (100, 100, 100), "relu", seed=width)
        X = rng.randn(1000, width)
        alone = np.array([score_one(model, x) for x in X])
        for n in (1, 2, 3, 8, 17, 64, 333, 999, 1000):
            rows = rng.permutation(1000)[:n]
            assert mlp_forward(model, X[rows]).tobytes() == alone[rows].tobytes()

    def test_tanh_and_identity_layers(self):
        rng = np.random.RandomState(5)
        for activation in ("tanh", "identity"):
            model = init_mlp(9, (11, 5), activation, seed=3)
            X = rng.randn(257, 9)
            alone = np.array([score_one(model, x) for x in X])
            assert mlp_forward(model, X).tobytes() == alone.tobytes()

    def test_block_edges_permutations_and_blas_threads(self):
        """Rows either side of the blockings 64 and 256, permuted batches and
        inner widths 300 and 500 score as their one-row calls, at one and two
        BLAS threads, and the two thread counts give the same bits. Each
        count runs in its own interpreter, because OpenBLAS reads it when it
        loads."""
        script = ("import json; from helpers import forward_invariance; print(json.dumps("
                  "[forward_invariance(w, hidden, seed=w) for w, hidden in "
                  "((13, (100, 100, 100)), (41, (300, 500)), (500, (300,)))]))")
        tests_dir = os.path.dirname(os.path.abspath(__file__))
        path = os.pathsep.join([os.path.dirname(os.path.dirname(talentrank.__file__)), tests_dir])
        digests = {}
        for threads in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                       OMP_NUM_THREADS=str(threads), PYTHONPATH=path)
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, timeout=300).stdout
            nets = json.loads(out)
            assert [failures for failures, _ in nets] == [[], [], []], threads
            digests[threads] = [digest for _, digest in nets]
        assert digests[1] == digests[2]


class TestPointwiseLoss:
    def test_score_zero_positive_label(self):
        loss, grads = pointwise_loss([0.0], [1.0])
        assert abs(loss - math.log(2.0)) <= 1e-9
        assert abs(grads[0] - (-0.5)) <= 1e-9

    def test_large_score_positive_label(self):
        loss, _ = pointwise_loss([30.0], [1.0])
        assert abs(loss) <= 1e-9

    def test_sum_over_examples(self):
        loss, _ = pointwise_loss([0.0, 0.0], [1.0, 0.0])
        assert abs(loss - 2 * math.log(2.0)) <= 1e-12

    def test_empty_errors(self):
        with pytest.raises(NeuralError):
            pointwise_loss([], [])

    def test_convex_in_score(self):
        rng = np.random.RandomState(5)
        for _ in range(50):
            s1, s2 = rng.randn(2) * 3
            y = float(rng.randint(2))
            l1, _ = pointwise_loss([s1], [y])
            l2, _ = pointwise_loss([s2], [y])
            lm, _ = pointwise_loss([(s1 + s2) / 2], [y])
            assert lm <= (l1 + l2) / 2 + 1e-12


class TestPairwiseLoss:
    def test_hinge_values(self):
        assert pairwise_loss(2.0, "hinge")[0] == 0.0
        assert pairwise_loss(0.0, "hinge")[0] == 1.0
        f, df = pairwise_loss(-1.0, "hinge")
        assert f == 2.0 and df == -1.0

    def test_hinge_subgradient_at_kink(self):
        _, df = pairwise_loss(1.0, "hinge")
        assert df == 0.0

    def test_logistic_values(self):
        assert abs(pairwise_loss(0.0, "logistic")[0] - math.log(2.0)) <= 1e-9

    def test_nonincreasing_in_d(self):
        ds = np.linspace(-4, 4, 101)
        for kind in ("hinge", "logistic"):
            f, _ = pairwise_loss(ds, kind)
            assert all(f[i + 1] <= f[i] + 1e-12 for i in range(len(ds) - 1))

    def test_logistic_symmetry_bound(self):
        for d in np.linspace(-3, 3, 31):
            total = pairwise_loss(d, "logistic")[0] + pairwise_loss(-d, "logistic")[0]
            assert total >= 2 * math.log(2.0) - 1e-12
        at_zero = 2 * pairwise_loss(0.0, "logistic")[0]
        assert abs(at_zero - 2 * math.log(2.0)) <= 1e-12


class TestPairwiseForward:
    def test_equal_inputs_give_zero(self):
        model = init_mlp(3, (5,), "tanh", seed=0)
        x = np.array([0.5, -0.2, 1.0])
        assert score_diff(model, x, x) == 0.0

    def test_swap_negates(self):
        model = init_mlp(3, (5,), "tanh", seed=0)
        rng = np.random.RandomState(1)
        a, b = rng.randn(3), rng.randn(3)
        assert score_diff(model, a, b) == pytest.approx(-score_diff(model, b, a), rel=1e-12)

    def test_identity_network_closed_form(self):
        W = np.eye(3)
        model = MlpModel([Layer(W, np.zeros(3), "identity")], np.array([1.0, 2.0, 3.0]))
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert score_diff(model, a, b) == pytest.approx(float(model.final_w @ (a - b)), rel=1e-12)


class TestSgdStep:
    def test_zero_gradient_no_change(self):
        model = init_mlp(2, (3,), "relu", seed=0)
        before = model.copy()
        grads = ModelGrads([(np.zeros((3, 2)), np.zeros(3))], np.zeros(3))
        sgd_step(model, grads, learning_rate=0.5, l2_penalty=0.0)
        assert np.array_equal(model.final_w, before.final_w)
        assert np.array_equal(model.layers[0].weight, before.layers[0].weight)

    def test_l2_decay_on_scalar_parameter(self):
        model = MlpModel([], np.array([1.0]))
        grads = ModelGrads([], np.array([0.0]))
        sgd_step(model, grads, learning_rate=1.0, l2_penalty=0.1)
        assert model.final_w[0] == pytest.approx(0.9, abs=1e-15)

    def test_zero_learning_rate_no_change(self):
        model = init_mlp(2, (3,), "relu", seed=0)
        before = model.copy()
        grads = ModelGrads([(np.ones((3, 2)), np.ones(3))], np.ones(3))
        sgd_step(model, grads, learning_rate=0.0, l2_penalty=0.3)
        assert np.array_equal(model.layers[0].weight, before.layers[0].weight)

    def test_l2_not_applied_to_biases(self):
        model = MlpModel([Layer(np.zeros((1, 1)), np.array([2.0]), "identity")], np.array([0.0]))
        grads = ModelGrads([(np.zeros((1, 1)), np.zeros(1))], np.zeros(1))
        sgd_step(model, grads, learning_rate=1.0, l2_penalty=0.5)
        assert model.layers[0].bias[0] == 2.0

    def test_nonfinite_gradient_errors(self):
        model = init_mlp(2, (3,), "relu", seed=0)
        grads = ModelGrads([(np.full((3, 2), np.nan), np.zeros(3))], np.zeros(3))
        with pytest.raises(NeuralError):
            sgd_step(model, grads, learning_rate=0.1)


def pointwise_objective(X, y):
    def objective(model):
        scores, cache = mlp_forward_batch(model, X)
        loss, grads = pointwise_loss(scores, y)
        return loss, mlp_backward(model, cache, grads)

    return objective


def pairwise_hinge_objective(x_pos, x_neg):
    def objective(model):
        sp, cache_p = mlp_forward_batch(model, x_pos[None, :])
        sn, cache_n = mlp_forward_batch(model, x_neg[None, :])
        f, df = pairwise_loss(float(sp[0] - sn[0]), "hinge")
        grads = add_grads(
            mlp_backward(model, cache_p, np.array([df])),
            mlp_backward(model, cache_n, np.array([-df])),
        )
        return f, grads

    return objective


class TestGradientCheck:
    def test_linear_model_pointwise(self):
        rng = np.random.RandomState(0)
        model = MlpModel([], rng.randn(4))
        X = rng.randn(6, 4)
        y = rng.randint(0, 2, size=6).astype(float)
        assert gradient_check(model, pointwise_objective(X, y)) < 1e-7

    def test_two_layer_relu_away_from_kinks(self):
        # rejection-sample probes with |preactivation| > 1e-3 everywhere
        for seed in range(20):
            rng = np.random.RandomState(seed)
            model = init_mlp(4, (6, 5), "relu", seed=seed)
            X = rng.randn(3, 4)
            margins = []
            h = X
            for layer in model.layers:
                z = h @ layer.weight.T + layer.bias
                margins.append(np.min(np.abs(z)))
                h = np.maximum(0.0, z)
            if min(margins) > 1e-3:
                break
        else:
            pytest.fail("no kink-free probe found")
        y = rng.randint(0, 2, size=3).astype(float)
        assert gradient_check(model, pointwise_objective(X, y)) < 1e-4

    def test_three_layer_tanh_pairwise_hinge(self):
        for seed in range(30):
            rng = np.random.RandomState(100 + seed)
            model = init_mlp(4, (6, 6, 6), "tanh", seed=seed)
            x_pos, x_neg = rng.randn(4), rng.randn(4)
            d = score_diff(model, x_pos, x_neg)
            if abs(d - 1.0) > 1e-3:
                break
        else:
            pytest.fail("no probe away from the hinge kink found")
        assert gradient_check(model, pairwise_hinge_objective(x_pos, x_neg)) < 1e-4


class TestDropout:
    def test_requires_rng(self):
        model = init_mlp(3, (4,), "relu", seed=0)
        with pytest.raises(NeuralError):
            mlp_forward_batch(model, np.zeros((1, 3)), training=True, dropout_rate=0.5)

    def test_inference_ignores_dropout_rate(self):
        model = init_mlp(3, (4,), "relu", seed=0)
        X = np.array([[1.0, -1.0, 0.5]])
        a, _ = mlp_forward_batch(model, X)
        b, _ = mlp_forward_batch(model, X, training=False, dropout_rate=0.9)
        assert a[0] == b[0]
        assert a[0] == pytest.approx(score_one(model, X[0]), rel=1e-12)

    def test_mask_expectation_matches_deterministic_score(self):
        # single hidden layer: the score is linear in the dropped activations
        model = init_mlp(4, (16,), "relu", seed=3)
        x = np.random.RandomState(0).randn(4)
        base = score_one(model, x)
        rng = np.random.RandomState(42)
        samples = np.array([
            mlp_forward_batch(model, x[None, :], training=True, dropout_rate=0.3, rng=rng)[0][0]
            for _ in range(10_000)
        ])
        se = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(samples.mean() - base) <= 3 * se

    def test_multilayer_identity_expectation(self):
        model = init_mlp(3, (8, 8, 8), "identity", seed=7)
        x = np.random.RandomState(1).randn(3)
        base = score_one(model, x)
        rng = np.random.RandomState(9)
        samples = np.array([
            mlp_forward_batch(model, x[None, :], training=True, dropout_rate=0.25, rng=rng)[0][0]
            for _ in range(10_000)
        ])
        se = samples.std(ddof=1) / np.sqrt(len(samples))
        assert abs(samples.mean() - base) <= 3 * se


class TestBatchLinearity:
    def test_batch_gradient_equals_sum_of_examples(self):
        rng = np.random.RandomState(4)
        model = init_mlp(5, (7, 6), "tanh", seed=2)
        X = rng.randn(6, 5)
        y = rng.randint(0, 2, size=6).astype(float)
        scores, cache = mlp_forward_batch(model, X)
        _, dscores = pointwise_loss(scores, y)
        batch = mlp_backward(model, cache, dscores)
        total = None
        for i in range(len(y)):
            s, c = mlp_forward_batch(model, X[i : i + 1])
            _, d = pointwise_loss(s, y[i : i + 1])
            g = mlp_backward(model, c, d)
            total = g if total is None else add_grads(total, g)
        assert np.allclose(batch.final_w, total.final_w, rtol=0, atol=1e-12)
        for (bw, bb), (tw, tb) in zip(batch.layers, total.layers):
            assert np.allclose(bw, tw, rtol=0, atol=1e-12)
            assert np.allclose(bb, tb, rtol=0, atol=1e-12)


class TestSerialization:
    def test_round_trip_structure_and_bytes(self):
        model = init_mlp(3, (4, 2), "relu", seed=11)
        lines = mlp_to_lines(model)
        loaded = mlp_from_lines(LineReader(lines), 3)
        assert [l.activation for l in loaded.layers] == ["relu", "relu"]
        assert loaded.layers[0].weight.shape == (4, 3)
        # quantization is idempotent: second serialization is identical
        assert mlp_to_lines(loaded) == lines


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(NeuralError):
            TrainConfig(objective="listwise")
        with pytest.raises(NeuralError):
            TrainConfig(dropout_rate=1.0)
        with pytest.raises(NeuralError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("l2_penalty", math.nan), ("l2_penalty", math.inf),
    ])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(NeuralError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})

    def test_hidden_widths_below_one_rejected(self):
        for widths in ((0,), (-3,), (4, 0)):
            with pytest.raises(NeuralError, match="hidden layer widths must be >= 1"):
                TrainConfig(hidden_layers=widths)
        assert TrainConfig(hidden_layers=()).hidden_layers == ()  # a linear model

    def test_pairwise_kind(self):
        assert TrainConfig(objective="pointwise").pairwise_kind is None
        assert TrainConfig(objective="pairwise_hinge").pairwise_kind == "hinge"
        assert TrainConfig(objective="pairwise_logistic").pairwise_kind == "logistic"
