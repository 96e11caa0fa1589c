"""Equivalence tests for the vectorized hot paths.

Each optimized implementation (Conv1D GEMM gradients, fused Adam,
batched sentence encoding, SVR training/prediction, single-pass
snapshot indices) is checked against a straightforward reference
implementation — the pre-refactor code — to within 1e-9.  Training
with flat-buffer Adam and write-once gradients is checked bit for bit
against the per-parameter, accumulate-and-zero loop it replaced.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.vendors import apply_vendor_mapping
from repro.ml import (
    Adam,
    Conv1D,
    Dense,
    Flatten,
    HashingSentenceEncoder,
    MSELoss,
    ReLU,
    Sequential,
    Sigmoid,
    SupportVectorRegressor,
    fit,
)
from repro.ml.nn import ADAM_BLOCK, Parameter
from repro.nvd import NvdSnapshot
from repro.text import preprocess

TOL = 1e-9

# -- reference implementations (pre-refactor) --------------------------------


def conv1d_forward_reference(layer: Conv1D, x: np.ndarray) -> np.ndarray:
    pad = layer.kernel_size // 2
    padded = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    length = x.shape[1]
    out = np.broadcast_to(
        layer.bias.value, (x.shape[0], length, layer.bias.value.shape[0])
    ).copy()
    for offset in range(layer.kernel_size):
        out += padded[:, offset : offset + length, :] @ layer.weight.value[offset]
    return out


def conv1d_backward_reference(
    layer: Conv1D, x: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (grad_in, weight_grad, bias_grad) via the einsum path."""
    pad = layer.kernel_size // 2
    padded = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    length = x.shape[1]
    weight_grad = np.zeros_like(layer.weight.value)
    grad_padded = np.zeros_like(padded)
    for offset in range(layer.kernel_size):
        window = padded[:, offset : offset + length, :]
        weight_grad[offset] += np.einsum("nlc,nlo->co", window, grad)
        grad_padded[:, offset : offset + length, :] += (
            grad @ layer.weight.value[offset].T
        )
    bias_grad = grad.sum(axis=(0, 1))
    return grad_padded[:, pad : pad + length, :], weight_grad, bias_grad


def encode_reference(encoder: HashingSentenceEncoder, text: str) -> np.ndarray:
    """The original per-text bag + projection."""
    tokens = preprocess(text)
    features = list(tokens)
    if encoder.use_bigrams:
        features.extend(
            f"{first}_{second}" for first, second in zip(tokens, tokens[1:])
        )
    bag = np.zeros(encoder.hash_dim)
    for feature in features:
        digest = hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest()
        value = int.from_bytes(digest, "little")
        bag[value % encoder.hash_dim] += 1.0 if (value >> 63) & 1 else -1.0
    norm = np.linalg.norm(bag)
    bag = bag / norm if norm > 0 else bag
    return bag @ encoder._projection


class ReferenceSVR:
    """The pre-refactor epsilon-SVR (per-sample numpy scalar loop)."""

    def __init__(self, c=2.0, gamma=0.1, epsilon=0.1, epochs=20, max_support=2000, seed=0):
        self.c, self.gamma, self.epsilon = c, gamma, epsilon
        self.epochs, self.max_support, self.seed = epochs, max_support, seed
        self.support_vectors = None
        self.alphas = None
        self.intercept = 0.0

    def _kernel(self, a, b):
        sq_a = np.sum(a**2, axis=1)[:, None]
        sq_b = np.sum(b**2, axis=1)[None, :]
        distances = np.maximum(sq_a + sq_b - 2.0 * (a @ b.T), 0.0)
        return np.exp(-self.gamma * distances)

    def fit(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        rng = np.random.default_rng(self.seed)
        if x.shape[0] > self.max_support:
            chosen = rng.choice(x.shape[0], size=self.max_support, replace=False)
            x, y = x[chosen], y[chosen]
        n = x.shape[0]
        kernel = self._kernel(x, x)
        alphas = np.zeros(n)
        intercept = float(np.mean(y))
        learning_rate = 1.0 / (self.c * n)
        for epoch in range(self.epochs):
            order = rng.permutation(n)
            step = self.c * learning_rate * (0.5 ** (epoch / max(self.epochs, 1)))
            for i in order:
                residual = kernel[i] @ alphas + intercept - y[i]
                if residual > self.epsilon:
                    alphas[i] -= step * self.c
                elif residual < -self.epsilon:
                    alphas[i] += step * self.c
                else:
                    alphas[i] *= 1.0 - step
                alphas[i] = float(np.clip(alphas[i], -self.c, self.c))
            predictions = kernel @ alphas + intercept
            intercept += float(np.mean(y - predictions))
        keep = np.abs(alphas) > 1e-8
        self.support_vectors = x[keep]
        self.alphas = alphas[keep]
        self.intercept = intercept
        return self

    def predict(self, x):
        kernel = self._kernel(np.asarray(x, dtype=float), self.support_vectors)
        return kernel @ self.alphas + self.intercept


def adam_step_reference(values, grads, ms, vs, step, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """One textbook Adam step over copies; returns updated values/moments."""
    out_v, out_m, out_s = [], [], []
    bias1 = 1.0 - b1**step
    bias2 = 1.0 - b2**step
    for value, grad, m, v in zip(values, grads, ms, vs):
        m = b1 * m + (1 - b1) * grad
        v = b2 * v + (1 - b2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        value = value - lr * m_hat / (np.sqrt(v_hat) + eps)
        out_v.append(value)
        out_m.append(m)
        out_s.append(v)
    return out_v, out_m, out_s


class AccumulatingDense(Dense):
    """Dense whose backward adds its parameter gradients, as before."""

    def backward(self, grad):
        self.weight.grad += np.matmul(self._input.T, grad)
        self.bias.grad += grad.sum(axis=0)
        return grad @ self.weight.value.T


class AccumulatingConv1D(Conv1D):
    """Conv1D whose backward adds its parameter gradients, as before.

    The input gradient is unchanged, so it comes from ``Conv1D.backward``
    with the parameter gradients that call writes set aside.
    """

    def backward(self, grad):
        out_channels = grad.shape[2]
        flat_grad = np.ascontiguousarray(grad).reshape(-1, out_channels)
        wgrad = np.matmul(self._columns.T, flat_grad)
        self.weight.grad += wgrad.reshape(self.weight.value.shape)
        self.bias.grad += flat_grad.sum(axis=0)
        kept = self.weight.grad, self.bias.grad
        self.weight.grad = np.empty_like(kept[0])
        self.bias.grad = np.empty_like(kept[1])
        grad_in = Conv1D.backward(self, grad)
        self.weight.grad, self.bias.grad = kept
        return grad_in


class PerParameterAdam:
    """The fused Adam step as it ran per parameter, with ``zero_grad``."""

    def __init__(self, parameters, learning_rate=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.parameters = parameters
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self._step = 0
        self._m = [np.zeros_like(p.value) for p in parameters]
        self._v = [np.zeros_like(p.value) for p in parameters]
        self._scratch = [np.empty_like(p.value) for p in parameters]
        self._scratch2 = [np.empty_like(p.value) for p in parameters]

    def zero_grad(self):
        for param in self.parameters:
            param.grad[...] = 0.0

    def step(self):
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        step_scale = self.learning_rate / bias1
        inv_sqrt_bias2 = 1.0 / np.sqrt(bias2)
        beta1, beta2 = self.beta1, self.beta2
        for param, m, v, scratch, scratch2 in zip(
            self.parameters, self._m, self._v, self._scratch, self._scratch2
        ):
            grad = param.grad
            np.multiply(m, beta1, out=m)
            np.multiply(grad, 1.0 - beta1, out=scratch)
            m += scratch
            np.multiply(v, beta2, out=v)
            np.multiply(grad, grad, out=scratch)
            scratch *= 1.0 - beta2
            v += scratch
            np.sqrt(v, out=scratch)
            scratch *= inv_sqrt_bias2
            scratch += self.epsilon
            np.multiply(m, step_scale, out=scratch2)
            scratch2 /= scratch
            param.value -= scratch2


def fit_accumulating(model, x, y, epochs, batch_size, learning_rate, seed, dtype):
    """``fit`` as it ran with per-parameter Adam and ``zero_grad``."""
    model.astype(dtype)
    x = np.asarray(x, dtype=dtype)
    y = np.asarray(y, dtype=dtype)
    rng = np.random.default_rng(seed)
    optimizer = PerParameterAdam(model.parameters(), learning_rate=learning_rate)
    loss_fn = MSELoss()
    history = []
    n = x.shape[0]
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            optimizer.zero_grad()
            prediction = model.forward(x[idx])
            total += loss_fn.forward(prediction, y[idx])
            model.backward(loss_fn.backward())
            optimizer.step()
            batches += 1
        history.append(total / max(batches, 1))
    return history


def small_cnn(seed, conv=Conv1D, dense=Dense):
    rng = np.random.default_rng(seed)
    return Sequential(
        conv(1, 4, 3, rng), ReLU(), Flatten(), dense(13 * 4, 1, rng), Sigmoid()
    )


# -- Conv1D ------------------------------------------------------------------


class TestConv1DEquivalence:
    @pytest.mark.parametrize("channels", [(1, 64), (64, 128), (3, 5)])
    def test_forward_matches_reference(self, channels):
        in_c, out_c = channels
        layer = Conv1D(in_c, out_c, 3, np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((4, 13, in_c))
        got = layer.forward(x)
        want = conv1d_forward_reference(layer, x)
        assert np.max(np.abs(got - want)) < TOL

    @pytest.mark.parametrize("channels", [(1, 64), (64, 128), (3, 5)])
    def test_backward_matches_reference(self, channels):
        in_c, out_c = channels
        layer = Conv1D(in_c, out_c, 3, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 13, in_c))
        grad = rng.standard_normal((4, 13, out_c))
        layer.forward(x)
        grad_in = layer.backward(grad)
        want_in, want_w, want_b = conv1d_backward_reference(layer, x, grad)
        assert np.max(np.abs(grad_in - want_in)) < TOL
        assert np.max(np.abs(layer.weight.grad - want_w)) < TOL
        assert np.max(np.abs(layer.bias.grad - want_b)) < TOL

    def test_wider_kernel(self):
        layer = Conv1D(2, 3, 5, np.random.default_rng(0))
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 9, 2))
        grad = rng.standard_normal((2, 9, 3))
        assert np.max(np.abs(layer.forward(x) - conv1d_forward_reference(layer, x))) < TOL
        grad_in = layer.backward(grad)
        want_in, want_w, _ = conv1d_backward_reference(layer, x, grad)
        assert np.max(np.abs(grad_in - want_in)) < TOL
        assert np.max(np.abs(layer.weight.grad - want_w)) < TOL


# -- Adam --------------------------------------------------------------------


class TestAdamEquivalence:
    def test_fused_step_matches_textbook(self):
        rng = np.random.default_rng(3)
        params = [Parameter(rng.standard_normal((7, 5))), Parameter(rng.standard_normal(5))]
        optimizer = Adam(params, learning_rate=0.01)
        ref_values = [p.value.copy() for p in params]
        ref_m = [np.zeros_like(p.value) for p in params]
        ref_v = [np.zeros_like(p.value) for p in params]
        for step in range(1, 6):
            grads = [rng.standard_normal(p.value.shape) for p in params]
            for param, grad in zip(params, grads):
                param.grad[...] = grad
            optimizer.step()
            ref_values, ref_m, ref_v = adam_step_reference(
                ref_values, grads, ref_m, ref_v, step, lr=0.01
            )
            for param, want in zip(params, ref_values):
                assert np.max(np.abs(param.value - want)) < TOL


class TestFlatAdamBitIdentity:
    def _data(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((150, 13, 1))  # 150 rows: a short last batch
        y = rng.uniform(0.0, 1.0, (150, 1))
        return x, y

    def test_fit_matches_per_parameter_accumulating_loop(self):
        x, y = self._data()
        kwargs = dict(epochs=3, batch_size=32, learning_rate=0.01, seed=4, dtype=np.float32)
        model = small_cnn(21)
        history = fit(model, x, y, **kwargs)
        reference = small_cnn(21, conv=AccumulatingConv1D, dense=AccumulatingDense)
        want_history = fit_accumulating(reference, x, y, **kwargs)
        assert history == want_history
        for got, want in zip(model.parameters(), reference.parameters(), strict=True):
            assert got.value.dtype == want.value.dtype == np.float32
            assert np.array_equal(got.value, want.value)
        sample = np.asarray(x[:20], dtype=np.float32)
        assert np.array_equal(model.predict(sample), reference.predict(sample))

    def test_backward_overwrites_stale_gradients(self):
        x, y = self._data()
        loss_fn = MSELoss()

        def gradients(model):
            loss_fn.forward(model.forward(x[:16]), y[:16])
            model.backward(loss_fn.backward())
            return [param.grad.copy() for param in model.parameters()]

        clean = gradients(small_cnn(5))
        stale = small_cnn(5)
        for param in stale.parameters():
            param.grad[...] = np.nan
        for got, want in zip(gradients(stale), clean, strict=True):
            assert np.array_equal(got, want)

    def test_construction_keeps_preset_values_and_gradients(self):
        rng = np.random.default_rng(6)
        params = [Parameter(rng.standard_normal((3, 2))), Parameter(rng.standard_normal(2))]
        values = [p.value.copy() for p in params]
        grads = [rng.standard_normal(p.value.shape) for p in params]
        for param, grad in zip(params, grads):
            param.grad[...] = grad
        Adam(params)
        for param, value, grad in zip(params, values, grads):
            assert np.array_equal(param.value, value)
            assert np.array_equal(param.grad, grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocked_step_matches_per_parameter_step(self, dtype):
        # 75,131 elements: one full ADAM_BLOCK plus a short tail block.
        shapes = [(300, 250), (131,)]
        assert sum(int(np.prod(s)) for s in shapes) % ADAM_BLOCK != 0
        assert sum(int(np.prod(s)) for s in shapes) > ADAM_BLOCK
        rng = np.random.default_rng(8)
        values = [rng.standard_normal(s).astype(dtype) for s in shapes]
        params = [Parameter(v.copy()) for v in values]
        reference = [Parameter(v.copy()) for v in values]
        optimizer = Adam(params, learning_rate=0.01)
        want = PerParameterAdam(reference, learning_rate=0.01)
        for _ in range(20):
            for got_p, want_p in zip(params, reference):
                grad = rng.standard_normal(got_p.value.shape).astype(dtype)
                got_p.grad[...] = grad
                want_p.grad[...] = grad
            optimizer.step()
            want.step()
        assert np.array_equal(optimizer._m, np.concatenate([m.ravel() for m in want._m]))
        assert np.array_equal(optimizer._v, np.concatenate([v.ravel() for v in want._v]))
        for got_p, want_p in zip(params, reference):
            assert np.array_equal(got_p.value, want_p.value)

    def test_rejects_mixed_dtypes(self):
        params = [
            Parameter(np.zeros(3, dtype=np.float32)),
            Parameter(np.zeros(3, dtype=np.float64)),
        ]
        with pytest.raises(ValueError, match="one dtype"):
            Adam(params)


# -- sentence encoder --------------------------------------------------------


class TestEncoderEquivalence:
    TEXTS = [
        "A buffer overflow in the Acme Widget 2.4.1 allows remote attackers",
        "SQL injection in login.php of Globex CMS before 1.2 was used",
        "Cross-site scripting (XSS) vulnerability in the search field",
        "",
        "denial of service via crafted packets",
    ]

    def test_encode_batch_matches_reference(self):
        encoder = HashingSentenceEncoder()
        got = encoder.encode_batch(self.TEXTS)
        for row, text in enumerate(self.TEXTS):
            want = encode_reference(encoder, text)
            assert np.max(np.abs(got[row] - want)) < TOL

    def test_encode_matches_encode_batch(self):
        encoder = HashingSentenceEncoder(output_dim=64, hash_dim=256)
        batch = encoder.encode_batch(self.TEXTS)
        for row, text in enumerate(self.TEXTS):
            assert np.max(np.abs(encoder.encode(text) - batch[row])) < TOL

    def test_chunking_is_invisible(self):
        encoder = HashingSentenceEncoder(output_dim=32, hash_dim=128)
        texts = self.TEXTS * 5
        whole = encoder.encode_batch(texts, chunk_size=1024)
        chunked = encoder.encode_batch(texts, chunk_size=3)
        assert np.max(np.abs(whole - chunked)) < TOL

    def test_empty_batch(self):
        encoder = HashingSentenceEncoder(output_dim=16, hash_dim=64)
        assert encoder.encode_batch([]).shape == (0, 16)


# -- SVR ---------------------------------------------------------------------


class TestSvrEquivalence:
    def _data(self, n=120, d=7, seed=5):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d))
        y = np.sin(x[:, 0]) + 0.1 * rng.standard_normal(n) + x[:, 1] ** 2
        return x, y

    def test_fit_predict_matches_reference(self):
        x, y = self._data()
        new = SupportVectorRegressor(epochs=8, seed=0).fit(x, y)
        ref = ReferenceSVR(epochs=8, seed=0).fit(x, y)
        assert new.support_vectors.shape == ref.support_vectors.shape
        assert np.max(np.abs(new.alphas - ref.alphas)) < TOL
        assert abs(new.intercept - ref.intercept) < TOL
        queries = np.random.default_rng(9).standard_normal((33, x.shape[1]))
        assert np.max(np.abs(new.predict(queries) - ref.predict(queries))) < TOL

    def test_subsampling_path_matches_reference(self):
        x, y = self._data(n=80)
        new = SupportVectorRegressor(epochs=4, max_support=50, seed=3).fit(x, y)
        ref = ReferenceSVR(epochs=4, max_support=50, seed=3).fit(x, y)
        assert np.max(np.abs(new.predict(x) - ref.predict(x))) < TOL

    def test_prediction_chunking_is_invisible(self):
        x, y = self._data()
        model = SupportVectorRegressor(epochs=4, seed=0).fit(x, y)
        assert (
            np.max(np.abs(model.predict(x, chunk_size=7) - model.predict(x))) < TOL
        )


# -- snapshot indices --------------------------------------------------------


class TestSnapshotIndexEquivalence:
    def test_stats_match_bruteforce(self, snapshot):
        stats = snapshot.stats()
        entries = list(snapshot)
        assert stats.n_cves == len(entries)
        assert stats.n_vendors == len({v for e in entries for v in e.vendors})
        assert stats.n_products == len({p for e in entries for p in e.products})
        assert stats.n_with_v3 == sum(1 for e in entries if e.has_v3)
        assert stats.n_with_v2 == sum(1 for e in entries if e.cvss_v2 is not None)
        assert stats.n_references == sum(len(e.references) for e in entries)
        years = [e.published.year for e in entries]
        assert stats.year_range == (min(years), max(years))

    def test_counts_match_bruteforce(self, snapshot):
        vendor_counts: dict[str, int] = {}
        pair_counts: dict[tuple[str, str], int] = {}
        vendor_products: dict[str, set[str]] = {}
        for entry in snapshot:
            for vendor in entry.vendors:
                vendor_counts[vendor] = vendor_counts.get(vendor, 0) + 1
            for pair in entry.vendor_products():
                pair_counts[pair] = pair_counts.get(pair, 0) + 1
                vendor_products.setdefault(pair[0], set()).add(pair[1])
        assert snapshot.vendor_cve_counts() == vendor_counts
        assert snapshot.product_cve_counts() == pair_counts
        assert snapshot.vendor_product_counts() == {
            vendor: len(products) for vendor, products in vendor_products.items()
        }
        assert snapshot.vendor_products() == vendor_products

    def test_entries_list_is_cached_and_stable(self, snapshot):
        first = snapshot.entries
        assert snapshot.entries is first
        assert [e.cve_id for e in first] == [e.cve_id for e in snapshot]

    def test_names_only_remap_preserves_queries(self, snapshot):
        vendors = snapshot.vendors()
        mapping = {vendors[0]: vendors[1]}
        fast = apply_vendor_mapping(snapshot, mapping)
        # Rebuild the same snapshot from its entries, indices fresh.
        slow = NvdSnapshot(list(fast))
        assert fast.stats() == slow.stats()
        assert fast.vendor_cve_counts() == slow.vendor_cve_counts()
        assert fast.product_cve_counts() == slow.product_cve_counts()
        for year in range(*slow.stats().year_range):
            assert [e.cve_id for e in fast.by_publication_year(year)] == [
                e.cve_id for e in slow.by_publication_year(year)
            ]
        assert vendors[0] not in fast.vendor_cve_counts()
