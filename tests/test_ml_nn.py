"""Neural-network framework: gradient correctness and training."""

import numpy as np
import pytest

from repro.ml import (
    Adam,
    Conv1D,
    Dense,
    Flatten,
    MSELoss,
    ReLU,
    Sequential,
    Sigmoid,
    fit,
)
from repro.ml.nn import PREDICT_BATCH_ROWS


def numeric_gradient(f, x, epsilon=1e-6):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + epsilon
        up = f()
        flat[i] = original - epsilon
        down = f()
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * epsilon)
    return grad


class TestGradients:
    def test_dense_weight_gradient_matches_numeric(self):
        rng = np.random.default_rng(0)
        layer = Dense(4, 3, rng)
        x = rng.standard_normal((5, 4))
        target = rng.standard_normal((5, 3))
        loss_fn = MSELoss()

        def loss():
            return loss_fn.forward(layer.forward(x), target)

        loss()
        layer.backward(loss_fn.backward())
        numeric = numeric_gradient(loss, layer.weight.value)
        np.testing.assert_allclose(layer.weight.grad, numeric, atol=1e-5)

    def test_dense_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(1)
        layer = Dense(4, 2, rng)
        x = rng.standard_normal((3, 4))
        target = rng.standard_normal((3, 2))
        loss_fn = MSELoss()

        def loss():
            return loss_fn.forward(layer.forward(x), target)

        loss()
        grad_in = layer.backward(loss_fn.backward())
        numeric = numeric_gradient(loss, x)
        np.testing.assert_allclose(grad_in, numeric, atol=1e-5)

    def test_conv1d_weight_gradient_matches_numeric(self):
        rng = np.random.default_rng(2)
        layer = Conv1D(2, 3, 3, rng)
        x = rng.standard_normal((4, 6, 2))
        target = rng.standard_normal((4, 6, 3))
        loss_fn = MSELoss()

        def loss():
            return loss_fn.forward(layer.forward(x), target)

        loss()
        layer.backward(loss_fn.backward())
        numeric = numeric_gradient(loss, layer.weight.value)
        np.testing.assert_allclose(layer.weight.grad, numeric, atol=1e-5)

    def test_conv1d_input_gradient_matches_numeric(self):
        rng = np.random.default_rng(3)
        layer = Conv1D(2, 2, 3, rng)
        x = rng.standard_normal((2, 5, 2))
        target = rng.standard_normal((2, 5, 2))
        loss_fn = MSELoss()

        def loss():
            return loss_fn.forward(layer.forward(x), target)

        loss()
        grad_in = layer.backward(loss_fn.backward())
        numeric = numeric_gradient(loss, x)
        np.testing.assert_allclose(grad_in, numeric, atol=1e-5)

    def test_full_network_gradient_matches_numeric(self):
        rng = np.random.default_rng(4)
        model = Sequential(
            Conv1D(1, 2, 3, rng),
            ReLU(),
            Flatten(),
            Dense(10, 4, rng),
            Sigmoid(),
            Dense(4, 1, rng),
        )
        x = rng.standard_normal((3, 5, 1))
        target = rng.standard_normal((3, 1))
        loss_fn = MSELoss()

        def loss():
            return loss_fn.forward(model.forward(x), target)

        loss()
        model.backward(loss_fn.backward())
        first_dense = model.layers[3]
        numeric = numeric_gradient(loss, first_dense.weight.value)
        np.testing.assert_allclose(first_dense.weight.grad, numeric, atol=1e-5)


class TestLayers:
    def test_relu_zeroes_negatives(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_sigmoid_range_and_stability(self):
        layer = Sigmoid()
        out = layer.forward(np.array([[-1000.0, 0.0, 1000.0]]))
        assert np.all((out >= 0) & (out <= 1))
        assert out[0, 1] == pytest.approx(0.5)

    def test_flatten_round_trip(self):
        layer = Flatten()
        x = np.arange(24, dtype=float).reshape(2, 3, 4)
        flat = layer.forward(x)
        assert flat.shape == (2, 12)
        assert layer.backward(flat).shape == (2, 3, 4)

    def test_conv1d_same_padding_preserves_length(self):
        rng = np.random.default_rng(5)
        layer = Conv1D(3, 7, 3, rng)
        out = layer.forward(rng.standard_normal((2, 13, 3)))
        assert out.shape == (2, 13, 7)

    def test_conv1d_rejects_even_kernel(self):
        with pytest.raises(ValueError, match="odd kernel"):
            Conv1D(1, 1, 2, np.random.default_rng(0))

    def test_sequential_predict_batches(self):
        # 1,000 rows: three full PREDICT_BATCH_ROWS batches and a short
        # fourth; batching must change no bit of the result.
        rng = np.random.default_rng(6)
        model = Sequential(
            Conv1D(1, 8, 3, rng), ReLU(), Flatten(), Dense(13 * 8, 1, rng), Sigmoid()
        ).astype(np.float32)
        x = rng.standard_normal((1000, 13, 1)).astype(np.float32)
        assert 1000 > 3 * PREDICT_BATCH_ROWS and 1000 % PREDICT_BATCH_ROWS
        batched = model.predict(x)
        assert np.array_equal(batched, model.forward(x))
        assert model.predict(x[:0]).shape == (0,)


class TestTraining:
    def test_fit_reduces_loss(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((200, 5))
        true_w = rng.standard_normal((5, 1))
        y = 1.0 / (1.0 + np.exp(-(x @ true_w)))
        model = Sequential(Dense(5, 8, rng), ReLU(), Dense(8, 1, rng), Sigmoid())
        history = fit(model, x, y, epochs=60, learning_rate=0.01, seed=0)
        assert history[-1] < history[0] * 0.5

    def test_fit_rejects_mismatched_shapes(self):
        rng = np.random.default_rng(8)
        model = Sequential(Dense(3, 1, rng))
        with pytest.raises(ValueError, match="same number"):
            fit(model, np.zeros((4, 3)), np.zeros((5, 1)), epochs=1)

    def test_adam_moves_parameters(self):
        rng = np.random.default_rng(9)
        layer = Dense(2, 1, rng)
        before = layer.weight.value.copy()
        layer.weight.grad[:] = 1.0
        Adam([layer.weight]).step()
        assert not np.allclose(layer.weight.value, before)

    def test_training_is_deterministic_given_seed(self):
        def run():
            rng = np.random.default_rng(10)
            model = Sequential(Dense(3, 4, rng), ReLU(), Dense(4, 1, rng))
            x = np.random.default_rng(1).standard_normal((50, 3))
            y = x.sum(axis=1, keepdims=True)
            return fit(model, x, y, epochs=5, seed=3)

        assert run() == run()


def reference_fit(model, x, y, epochs, batch_size, learning_rate, seed):
    """The unweighted training loop, with the plain-mean MSE spelled out:
    what ``fit`` computes when it is given no ``weight``."""
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), learning_rate=learning_rate)
    history = []
    for _ in range(epochs):
        order = rng.permutation(x.shape[0])
        total, batches = 0.0, 0
        for start in range(0, x.shape[0], batch_size):
            idx = order[start : start + batch_size]
            diff = model.forward(x[idx]) - y[idx]
            total += float(np.mean(diff**2))
            model.backward(2.0 * diff / diff.size)
            optimizer.step()
            batches += 1
        history.append(total / max(batches, 1))
    return history


def small_cnn(seed):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv1D(1, 4, 3, rng),
        ReLU(),
        Flatten(),
        Dense(13 * 4, 8, rng),
        ReLU(),
        Dense(8, 1, rng, scale=0.1),
        Sigmoid(),
    )


class TestWeightedLoss:
    """``fit``/``MSELoss`` with per-sample weights (§4.3 row table)."""

    def data(self, n=150):
        rng = np.random.default_rng(11)
        x = rng.random((n, 13, 1))
        y = 1.0 / (1.0 + np.exp(6.5 - x.sum(axis=(1, 2))))
        return x, y[:, None]

    def test_fit_without_weight_is_the_unweighted_loop(self):
        x, y = self.data()
        model = small_cnn(0)
        history = fit(model, x, y, epochs=3, batch_size=32, seed=5, dtype=np.float32)
        reference = small_cnn(0).astype(np.float32)
        expected = reference_fit(
            reference, x.astype(np.float32), y.astype(np.float32), 3, 32, 0.001, 5
        )
        assert history == expected
        for got, want in zip(model.parameters(), reference.parameters()):
            assert got.value.dtype == want.value.dtype == np.float32
            assert np.array_equal(got.value, want.value)

    def test_weighted_loss_value_and_unit_weights(self):
        rng = np.random.default_rng(12)
        prediction, target = rng.random((6, 1)), rng.random((6, 1))
        weight = np.array([1.0, 3.0, 2.0, 1.0, 5.0, 1.0])
        loss_fn = MSELoss()
        expected = np.sum(weight * (prediction - target)[:, 0] ** 2) / weight.sum()
        assert loss_fn.forward(prediction, target, weight) == pytest.approx(expected)
        unit = loss_fn.forward(prediction, target, np.ones(6))
        unit_grad = loss_fn.backward()
        assert unit == pytest.approx(loss_fn.forward(prediction, target))
        np.testing.assert_allclose(unit_grad, loss_fn.backward(), rtol=1e-12)

    def test_weighted_gradient_matches_numeric(self):
        rng = np.random.default_rng(13)
        model = Sequential(Dense(4, 5, rng), ReLU(), Dense(5, 1, rng), Sigmoid())
        x = rng.standard_normal((7, 4))
        target = rng.random((7, 1))
        weight = rng.integers(1, 9, size=7).astype(float)
        loss_fn = MSELoss()

        def loss():
            return loss_fn.forward(model.forward(x), target, weight)

        loss()
        model.backward(loss_fn.backward())
        for layer in (model.layers[0], model.layers[2]):
            numeric = numeric_gradient(loss, layer.weight.value)
            np.testing.assert_allclose(layer.weight.grad, numeric, atol=1e-6)

    def test_integer_weights_count_as_copies(self):
        # One batch holding every sample: weight k is k copies of it.
        rng = np.random.default_rng(14)
        x = rng.standard_normal((5, 3))
        y = rng.random((5, 1))
        weight = np.array([1, 4, 2, 1, 3])
        copies = np.repeat(np.arange(5), weight)
        weighted = Sequential(Dense(3, 1, np.random.default_rng(1)))
        repeated = Sequential(Dense(3, 1, np.random.default_rng(1)))
        got = fit(weighted, x, y, epochs=4, batch_size=64, weight=weight)
        want = fit(repeated, x[copies], y[copies], epochs=4, batch_size=64)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        np.testing.assert_allclose(
            weighted.layers[0].weight.value, repeated.layers[0].weight.value, rtol=1e-9
        )

    @pytest.mark.parametrize("length", [4, 6])
    def test_weight_length_must_match_x(self, length):
        model = Sequential(Dense(3, 1, np.random.default_rng(15)))
        with pytest.raises(ValueError, match="one value per sample"):
            fit(model, np.zeros((5, 3)), np.zeros((5, 1)), epochs=1, weight=np.ones(length))


class TestSerialization:
    """Sequential.save/load restores bit-identical forward passes."""

    def _cnn(self, rng):
        return Sequential(
            Conv1D(1, 4, 3, rng),
            ReLU(),
            Conv1D(4, 4, 3, rng),
            ReLU(),
            Flatten(),
            Dense(13 * 4, 8, rng),
            ReLU(),
            Dense(8, 1, rng),
            Sigmoid(),
        )

    def test_cnn_round_trip_after_training(self, tmp_path):
        rng = np.random.default_rng(0)
        model = self._cnn(rng)
        x = rng.standard_normal((32, 13, 1))
        y = rng.uniform(0, 1, (32, 1))
        fit(model, x, y, epochs=2, dtype=np.float32)
        loaded = Sequential.load(model.save(tmp_path / "cnn.npz"))
        batch = x.astype(np.float32)
        assert np.array_equal(model.predict(batch), loaded.predict(batch))
        assert loaded.predict(batch).dtype == np.float32

    def test_dense_round_trip_untrained(self, tmp_path):
        rng = np.random.default_rng(1)
        model = Sequential(Dense(5, 7, rng), ReLU(), Dense(7, 1, rng), Sigmoid())
        loaded = Sequential.load(model.save(tmp_path / "dnn.npz"))
        x = rng.standard_normal((10, 5))
        assert np.array_equal(model.predict(x), loaded.predict(x))

    def test_loaded_model_can_keep_training(self, tmp_path):
        rng = np.random.default_rng(2)
        model = Sequential(Dense(4, 6, rng), ReLU(), Dense(6, 1, rng))
        x = rng.standard_normal((16, 4))
        y = rng.standard_normal((16, 1))
        loaded = Sequential.load(model.save(tmp_path / "net.npz"))
        history = fit(loaded, x, y, epochs=3)
        assert len(history) == 3 and history[-1] <= history[0]

    def test_load_draws_nothing_from_the_rng(self, tmp_path, monkeypatch):
        """Layers are built from the stored arrays, not drawn and then
        overwritten."""
        rng = np.random.default_rng(4)
        model = self._cnn(rng)
        path = model.save(tmp_path / "cnn.npz")

        def no_rng(*args, **kwargs):
            raise AssertionError("Sequential.load asked for a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded = Sequential.load(path)
        x = rng.standard_normal((16, 13, 1))
        assert np.array_equal(model.predict(x), loaded.predict(x))

    def test_load_rejects_weights_that_disagree_with_the_spec(self, tmp_path):
        import json

        rng = np.random.default_rng(5)
        path = tmp_path / "foreign.npz"
        with open(path, "wb") as handle:
            np.savez(
                handle,
                arch=json.dumps(
                    [{"type": "Dense", "in_features": 3, "out_features": 2}]
                ),
                param_0=rng.standard_normal((4, 2)),
                param_1=np.zeros(2),
            )
        with pytest.raises(ValueError, match="spec"):
            Sequential.load(path)

    def test_load_rejects_unknown_layer(self, tmp_path):
        import json

        path = tmp_path / "bad.npz"
        with open(path, "wb") as handle:
            np.savez(handle, arch=json.dumps([{"type": "Transformer"}]))
        with pytest.raises(ValueError, match="unknown layer type"):
            Sequential.load(path)

    def test_load_rejects_parameter_mismatch(self, tmp_path):
        import json

        rng = np.random.default_rng(3)
        path = tmp_path / "trunc.npz"
        with open(path, "wb") as handle:
            np.savez(
                handle,
                arch=json.dumps(
                    [{"type": "Dense", "in_features": 3, "out_features": 2}]
                ),
                param_0=rng.standard_normal((3, 2)),
            )
        with pytest.raises(ValueError, match="parameters"):
            Sequential.load(path)
