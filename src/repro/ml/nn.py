"""A minimal neural-network framework on numpy.

Provides exactly what the paper's models need: dense and 1-D
convolutional layers, ReLU/sigmoid activations, flattening, mean
squared error, the Adam optimizer, and a mini-batch training loop.
Backpropagation is hand-derived per layer; all state lives in
:class:`Parameter` objects so optimizers are layer-agnostic.

The paper's CNN applies 3x3 filters to (reshaped) feature vectors; with
13-dimensional inputs a 1-D convolution of width 3 is the faithful
equivalent, and the layer widths (64/64/128/128 conv + 512 dense, DNN
128/128/256/256) are kept as published.

Hot-path notes: every contraction routes through BLAS matmuls (the
convolution gradients fold their batch and length axes into one GEMM
instead of an ``einsum`` that numpy cannot dispatch to BLAS), layers
reuse persistent scratch buffers instead of reallocating per batch,
and the whole stack runs in float32 when asked (``Sequential.astype``
/ ``fit(dtype=...)``) for another ~2x on memory-bound layers.  Each
backward pass writes a layer's weight and bias gradients once, straight
into ``Parameter.grad`` (no accumulation, so no zeroing pass), and
:class:`Adam` keeps values, gradients and moments in one flat buffer
per role, so a step is a handful of ufunc passes over cache-sized
slices of those buffers.
Training is a plain serial minibatch loop.
"""

from __future__ import annotations

import json
import os
import pathlib

import numpy as np

__all__ = [
    "Parameter",
    "Layer",
    "Dense",
    "Conv1D",
    "Flatten",
    "ReLU",
    "Sigmoid",
    "Sequential",
    "MSELoss",
    "Adam",
    "fit",
]


#: rows per forward in :meth:`Sequential.predict`.
PREDICT_BATCH_ROWS = 256

#: elements per slice in :meth:`Adam.step`: six float32 slices of this
#: size (1.5 MiB) stay cache-resident across the step's 13 passes.
ADAM_BLOCK = 65_536


class Parameter:
    """A trainable tensor with the gradient of the last backward pass.

    The gradient buffer is allocated (zeroed) on first use, so a model
    that only predicts, such as a loaded one, never pays for it.
    """

    __slots__ = ("value", "_grad")

    def __init__(self, value: np.ndarray) -> None:
        self.value = value
        self._grad: np.ndarray | None = None

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        return self._grad

    @grad.setter
    def grad(self, grad: np.ndarray) -> None:
        self._grad = grad

    def astype(self, dtype: np.dtype | type) -> None:
        """Cast the value and gradient buffers in place."""
        self.value = np.asarray(self.value, dtype=dtype)
        if self._grad is not None:
            self._grad = np.asarray(self._grad, dtype=dtype)


class Layer:
    """Base class: forward caches what backward needs."""

    def parameters(self) -> list[Parameter]:
        return []

    def spec(self) -> dict[str, object]:
        """JSON-serialisable constructor description.

        :meth:`Sequential.save` persists one spec per layer so
        :meth:`Sequential.load` can rebuild the architecture before
        restoring the weights.  Stateless layers need only their type.
        """
        return {"type": type(self).__name__}

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``.

    Weights use He-uniform initialisation, suitable for the ReLU
    activations that follow most layers here.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        scale: float = 1.0,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        limit = scale * np.sqrt(6.0 / in_features)
        self._set_weights(
            rng.uniform(-limit, limit, size=(in_features, out_features)).astype(
                dtype, copy=False
            ),
            np.zeros(out_features, dtype=dtype),
        )

    def _set_weights(self, weight: np.ndarray, bias: np.ndarray) -> None:
        self.weight = Parameter(weight)
        self.bias = Parameter(bias)
        self._input: np.ndarray | None = None

    @classmethod
    def from_arrays(cls, weight: np.ndarray, bias: np.ndarray) -> "Dense":
        """A layer holding ``weight`` and ``bias`` as given, drawing no
        initial weights (:meth:`Sequential.load` builds through this)."""
        layer = cls.__new__(cls)
        layer._set_weights(weight, bias)
        return layer

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def spec(self) -> dict[str, object]:
        in_features, out_features = self.weight.value.shape
        return {
            "type": "Dense",
            "in_features": int(in_features),
            "out_features": int(out_features),
        }

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        out = x @ self.weight.value
        out += self.bias.value
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._input is not None, "backward called before forward"
        np.matmul(self._input.T, grad, out=self.weight.grad)
        np.sum(grad, axis=0, out=self.bias.grad)
        return grad @ self.weight.value.T


class Conv1D(Layer):
    """1-D convolution with 'same' zero padding and stride 1.

    Input shape ``(batch, length, in_channels)``; kernel shape
    ``(kernel_size, in_channels, out_channels)``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        dtype: np.dtype | type = np.float64,
    ) -> None:
        if kernel_size % 2 != 1:
            raise ValueError("Conv1D requires an odd kernel size for 'same' padding")
        fan_in = kernel_size * in_channels
        limit = np.sqrt(6.0 / fan_in)
        self._set_weights(
            rng.uniform(
                -limit, limit, size=(kernel_size, in_channels, out_channels)
            ).astype(dtype, copy=False),
            np.zeros(out_channels, dtype=dtype),
        )

    def _set_weights(self, weight: np.ndarray, bias: np.ndarray) -> None:
        """Take ``weight`` (``(kernel_size, in_channels, out_channels)``)
        and ``bias``; the layer's shape is read off the kernel."""
        self.kernel_size, self._in_channels, _ = weight.shape
        self.weight = Parameter(weight)
        self.bias = Parameter(bias)
        # Persistent scratch, reallocated only when the batch shape or
        # dtype changes (in training: twice per epoch, for the final
        # short batch).  The padded buffers are written only in their
        # interior, so their zero borders survive across batches.
        self._columns: np.ndarray | None = None
        self._padded: np.ndarray | None = None
        self._grad_columns: np.ndarray | None = None
        self._grad_padded: np.ndarray | None = None
        self._batch = 0
        self._input_length = 0

    @classmethod
    def from_arrays(cls, weight: np.ndarray, bias: np.ndarray) -> "Conv1D":
        """A layer holding ``weight`` and ``bias`` as given, drawing no
        initial weights (:meth:`Sequential.load` builds through this)."""
        if weight.ndim != 3 or weight.shape[0] % 2 != 1:
            raise ValueError(
                f"Conv1D kernel of shape {weight.shape} is not (odd, in, out)"
            )
        layer = cls.__new__(cls)
        layer._set_weights(weight, bias)
        return layer

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def spec(self) -> dict[str, object]:
        return {
            "type": "Conv1D",
            "in_channels": int(self._in_channels),
            "out_channels": int(self.bias.value.shape[0]),
            "kernel_size": int(self.kernel_size),
        }

    def _scratch(self, name: str, shape: tuple[int, ...], dtype: np.dtype, zero: bool = False) -> np.ndarray:
        buffer = getattr(self, name)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.zeros(shape, dtype=dtype)
            setattr(self, name, buffer)
        elif zero:
            buffer[...] = 0.0
        return buffer

    def forward(self, x: np.ndarray) -> np.ndarray:
        # im2col: gather the kernel_size shifted views of the padded
        # input into one (batch*length, kernel_size*in_channels) matrix
        # so the convolution — and both of its gradients — are single
        # BLAS GEMMs.  numpy's einsum or per-tap batched matmuls run the
        # same contraction orders of magnitude slower.
        pad = self.kernel_size // 2
        batch, length, in_channels = x.shape
        dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.dtype(float)
        padded = self._scratch("_padded", (batch, length + 2 * pad, in_channels), dtype)
        padded[:, pad : pad + length, :] = x  # borders stay zero
        columns = self._scratch(
            "_columns", (batch * length, self.kernel_size * in_channels), dtype
        )
        shaped = columns.reshape(batch, length, self.kernel_size * in_channels)
        for offset in range(self.kernel_size):
            shaped[:, :, offset * in_channels : (offset + 1) * in_channels] = padded[
                :, offset : offset + length, :
            ]
        self._batch = batch
        self._input_length = length
        out_channels = self.bias.value.shape[0]
        flat_weight = self.weight.value.reshape(-1, out_channels)
        out = columns @ flat_weight
        out += self.bias.value
        return out.reshape(batch, length, out_channels)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._columns is not None, "backward called before forward"
        pad = self.kernel_size // 2
        batch, length = self._batch, self._input_length
        in_channels = self._in_channels
        out_channels = grad.shape[2]
        flat_grad = np.ascontiguousarray(grad).reshape(batch * length, out_channels)
        # ``Parameter.grad`` is contiguous, so this reshape is a view.
        np.matmul(
            self._columns.T, flat_grad, out=self.weight.grad.reshape(-1, out_channels)
        )
        np.sum(flat_grad, axis=0, out=self.bias.grad)
        flat_weight = self.weight.value.reshape(-1, out_channels)
        grad_columns = self._scratch(
            "_grad_columns",
            (batch * length, self.kernel_size * in_channels),
            flat_grad.dtype,
        )
        np.matmul(flat_grad, flat_weight.T, out=grad_columns)
        shaped = grad_columns.reshape(batch, length, self.kernel_size, in_channels)
        grad_padded = self._scratch(
            "_grad_padded",
            (batch, length + 2 * pad, in_channels),
            flat_grad.dtype,
            zero=True,
        )
        for offset in range(self.kernel_size):
            grad_padded[:, offset : offset + length, :] += shaped[:, :, offset, :]
        # NOTE: a view into persistent scratch — valid until the next
        # backward() on this layer, which is all Sequential needs.
        return grad_padded[:, pad : pad + length, :]


class Flatten(Layer):
    """Collapse all non-batch dimensions."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._shape is not None, "backward called before forward"
        return grad.reshape(self._shape)


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._mask is not None, "backward called before forward"
        # One fused in-place pass (multiplying by the boolean mask)
        # instead of np.where's allocation.  Mutating ``grad`` is safe:
        # upstream layers hand over freshly computed gradient arrays
        # and never read them again.
        if grad.flags.writeable:
            return np.multiply(grad, self._mask, out=grad)
        return grad * self._mask


class Sigmoid(Layer):
    """Logistic activation, f(x) = 1 / (1 + e^-x) (§4.3)."""

    def __init__(self) -> None:
        self._output: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.float64
        out = np.empty_like(x, dtype=dtype)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        exp_x = np.exp(x[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        self._output = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        assert self._output is not None, "backward called before forward"
        return grad * self._output * (1.0 - self._output)


class Sequential(Layer):
    """A stack of layers applied in order."""

    def __init__(self, *layers: Layer) -> None:
        self.layers = list(layers)

    def parameters(self) -> list[Parameter]:
        return [param for layer in self.layers for param in layer.parameters()]

    def astype(self, dtype: np.dtype | type) -> "Sequential":
        """Cast every parameter (values and gradients) to ``dtype``."""
        for param in self.parameters():
            param.astype(dtype)
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | os.PathLike[str]) -> pathlib.Path:
        """Serialise the architecture and weights to one ``.npz`` file.

        The file stores a JSON layer-spec list plus every parameter
        array verbatim, so :meth:`load` rebuilds a model whose forward
        pass is **bit-identical** to this one — numpy's npz container
        round-trips array bytes exactly.  Optimizer state is not
        persisted; a loaded model predicts, or trains from step 0.
        """
        path = pathlib.Path(path)
        arch = json.dumps([layer.spec() for layer in self.layers])
        arrays = {
            f"param_{i}": param.value for i, param in enumerate(self.parameters())
        }
        with open(path, "wb") as handle:
            np.savez(handle, arch=arch, **arrays)
        return path

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "Sequential":
        """Rebuild a model saved by :meth:`save`.

        Each weighted layer is built straight from its stored arrays
        (``from_arrays``), so a load draws no initial weights.  Raises
        :class:`ValueError` for unknown layer types, a parameter count
        that does not match the stored architecture (a truncated or
        foreign file), or a kernel whose shape disagrees with its spec.
        """
        with np.load(path, allow_pickle=False) as data:
            specs = json.loads(str(data["arch"][()]))
            stored = sum(1 for name in data.files if name.startswith("param_"))
            declared = 2 * sum(
                1 for spec in specs if spec.get("type") in ("Dense", "Conv1D")
            )
            if stored != declared:
                raise ValueError(
                    f"{path} stores {stored} parameters but the architecture "
                    f"declares {declared}"
                )
            arrays = (np.ascontiguousarray(data[f"param_{i}"]) for i in range(stored))
            layers: list[Layer] = []
            for spec in specs:
                kind = spec.get("type")
                if kind == "Dense":
                    layer = Dense.from_arrays(next(arrays), next(arrays))
                elif kind == "Conv1D":
                    layer = Conv1D.from_arrays(next(arrays), next(arrays))
                elif kind == "Flatten":
                    layer = Flatten()
                elif kind == "ReLU":
                    layer = ReLU()
                elif kind == "Sigmoid":
                    layer = Sigmoid()
                else:
                    raise ValueError(f"unknown layer type {kind!r} in {path}")
                if layer.spec() != spec:
                    raise ValueError(
                        f"{path}: weights of {layer.spec()} under a {spec} spec"
                    )
                layers.append(layer)
        return cls(*layers)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass in :data:`PREDICT_BATCH_ROWS`-row batches.

        Batching changes no bit of the result (every batch but the last
        is a whole number of BLAS row groups) and bounds the persistent
        Conv1D scratch a large predict leaves behind.
        """
        chunks = [
            self.forward(x[start : start + PREDICT_BATCH_ROWS])
            for start in range(0, x.shape[0], PREDICT_BATCH_ROWS)
        ]
        return np.concatenate(chunks, axis=0) if chunks else np.empty((0,))


class MSELoss:
    """Mean squared error, 1/N * sum (y - f(x))^2 (§4.3)."""

    def __init__(self) -> None:
        self._diff: np.ndarray | None = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        self._diff = prediction - target
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        assert self._diff is not None, "backward called before forward"
        return 2.0 * self._diff / self._diff.size


class Adam:
    """Adam optimizer (Kingma & Ba), lr=0.001 as in the paper.

    Construction packs the parameters into one flat buffer per role —
    values, gradients, both moments and two scratch arrays — copying in
    each parameter's current value and gradient and rebinding its
    ``value``/``grad`` to a view of the packed buffers.  Layers write
    each gradient once per backward pass straight into those views, so
    a step is 13 ufunc passes over each :data:`ADAM_BLOCK`-element
    slice of the buffers, with no per-parameter loop, no zeroing pass
    and no heap allocation.  The arithmetic matches the
    textbook formulation term for term; the parameters must share one
    dtype.
    """

    def __init__(
        self,
        parameters: list[Parameter],
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        self.parameters = parameters
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step = 0
        dtypes = {p.value.dtype for p in parameters} | {p.grad.dtype for p in parameters}
        if len(dtypes) > 1:
            raise ValueError(
                f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}"
            )
        dtype = dtypes.pop() if dtypes else np.dtype(np.float64)
        total = sum(p.value.size for p in parameters)
        self._values = np.empty(total, dtype=dtype)
        self._grads = np.empty(total, dtype=dtype)
        offset = 0
        for param in parameters:
            end = offset + param.value.size
            value = self._values[offset:end].reshape(param.value.shape)
            grad = self._grads[offset:end].reshape(param.value.shape)
            value[...] = param.value
            grad[...] = param.grad
            param.value, param.grad = value, grad
            offset = end
        self._m = np.zeros(total, dtype=dtype)
        self._v = np.zeros(total, dtype=dtype)
        width = min(total, ADAM_BLOCK)
        scratch = np.empty(width, dtype=dtype)
        scratch2 = np.empty(width, dtype=dtype)
        self._blocks = []
        for start in range(0, total, ADAM_BLOCK):
            end = min(start + ADAM_BLOCK, total)
            self._blocks.append(
                (
                    self._values[start:end],
                    self._grads[start:end],
                    self._m[start:end],
                    self._v[start:end],
                    scratch[: end - start],
                    scratch2[: end - start],
                )
            )

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        # Scalar folding: (m / bias1) * lr == m * (lr / bias1) and
        # sqrt(v / bias2) == sqrt(v) / sqrt(bias2), each saving a full
        # memory pass over every parameter — the step is memory-bound.
        step_scale = self.learning_rate / bias1
        inv_sqrt_bias2 = 1.0 / np.sqrt(bias2)
        beta1, beta2, epsilon = self.beta1, self.beta2, self.epsilon
        # The same 13 passes, run block by block so each block's six
        # slices stay in cache between passes; every element sees the
        # same arithmetic in the same order, so the bits do not change.
        for value, grad, m, v, scratch, scratch2 in self._blocks:
            # m = beta1 * m + (1 - beta1) * grad
            np.multiply(m, beta1, out=m)
            np.multiply(grad, 1.0 - beta1, out=scratch)
            m += scratch
            # v = beta2 * v + (1 - beta2) * grad**2
            np.multiply(v, beta2, out=v)
            np.multiply(grad, grad, out=scratch)
            scratch *= 1.0 - beta2
            v += scratch
            # param -= learning_rate * (m / bias1) / (sqrt(v / bias2) + eps)
            np.sqrt(v, out=scratch)
            scratch *= inv_sqrt_bias2
            scratch += epsilon
            np.multiply(m, step_scale, out=scratch2)
            scratch2 /= scratch
            value -= scratch2


def fit(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int = 100,
    batch_size: int = 64,
    learning_rate: float = 0.001,
    seed: int = 0,
    verbose: bool = False,
    dtype: np.dtype | type | None = None,
) -> list[float]:
    """Train ``model`` with MSE + Adam; returns the per-epoch losses.

    ``dtype`` optionally casts the model parameters and the data before
    training (``np.float32`` halves the memory traffic of every layer).
    """
    if x.shape[0] != y.shape[0]:
        raise ValueError("x and y must have the same number of samples")
    if dtype is not None:
        model.astype(dtype)
        x = np.asarray(x, dtype=dtype)
        y = np.asarray(y, dtype=dtype)
    rng = np.random.default_rng(seed)
    optimizer = Adam(model.parameters(), learning_rate=learning_rate)
    loss_fn = MSELoss()
    history: list[float] = []
    n = x.shape[0]
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        batches = 0
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            prediction = model.forward(x[idx])
            total += loss_fn.forward(prediction, y[idx])
            model.backward(loss_fn.backward())
            optimizer.step()
            batches += 1
        history.append(total / max(batches, 1))
        if verbose:  # pragma: no cover - diagnostic output
            print(f"epoch {epoch + 1}/{epochs}: loss={history[-1]:.5f}")
    return history
