"""RBF-kernel epsilon-insensitive Support Vector Regression.

The paper's best SVR configuration is "kernel type = rbf, kernel
coefficient = 0.1, and penalty parameter = 2" (§4.3).  We train the
kernel machine in the primal with Pegasos-style stochastic subgradient
descent over the dual coefficients, which converges to a good
approximate solution without a QP solver.  Training cost is bounded by
subsampling at most ``max_support`` candidate support vectors.

Kernel evaluations are fully vectorised: the Gram matrix comes from
one GEMM plus broadcast squared norms, prediction streams the kernel
in bounded-size chunks (memory stays O(chunk × n_support) however
many rows are scored), and the training loop
keeps its per-sample scalar updates in plain Python floats — same
IEEE-754 arithmetic, none of the numpy scalar boxing overhead.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np

__all__ = ["SupportVectorRegressor"]


class SupportVectorRegressor:
    """Epsilon-SVR with a radial basis function kernel."""

    def __init__(
        self,
        c: float = 2.0,
        gamma: float = 0.1,
        epsilon: float = 0.1,
        epochs: int = 20,
        max_support: int = 2000,
        seed: int = 0,
    ) -> None:
        if c <= 0 or gamma <= 0 or epsilon < 0:
            raise ValueError("c and gamma must be positive, epsilon non-negative")
        self.c = c
        self.gamma = gamma
        self.epsilon = epsilon
        self.epochs = epochs
        self.max_support = max_support
        self.seed = seed
        self.support_vectors: np.ndarray | None = None
        self.alphas: np.ndarray | None = None
        self.intercept: float = 0.0
        self._support_sq: np.ndarray | None = None

    def _kernel(
        self,
        a: np.ndarray,
        b: np.ndarray,
        sq_b: np.ndarray | None = None,
    ) -> np.ndarray:
        """RBF kernel matrix between row sets ``a`` and ``b``.

        ``sq_b`` optionally carries precomputed squared norms of ``b``
        so repeated calls against the support set skip the reduction.
        """
        sq_a = np.sum(a**2, axis=1)[:, None]
        if sq_b is None:
            sq_b = np.sum(b**2, axis=1)
        gram = a @ b.T
        distances = np.maximum(sq_a + sq_b[None, :] - 2.0 * gram, 0.0)
        return np.exp(-self.gamma * distances)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "SupportVectorRegressor":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have the same number of samples")
        rng = np.random.default_rng(self.seed)
        if x.shape[0] > self.max_support:
            chosen = rng.choice(x.shape[0], size=self.max_support, replace=False)
            x, y = x[chosen], y[chosen]
        n = x.shape[0]
        kernel = self._kernel(x, x)
        alphas = np.zeros(n)
        intercept = float(np.mean(y))
        y_list = y.tolist()
        c = self.c
        epsilon = self.epsilon
        # Pegasos-style pass: for each sample, move its dual coefficient
        # along the epsilon-insensitive subgradient, clipped to [-C, C].
        learning_rate = 1.0 / (c * n)
        for epoch in range(self.epochs):
            order = rng.permutation(n)
            step = c * learning_rate * (0.5 ** (epoch / max(self.epochs, 1)))
            step_c = step * c
            shrink = 1.0 - step
            for i in order:
                alpha = alphas[i]
                residual = kernel[i].dot(alphas) + intercept - y_list[i]
                if residual > epsilon:
                    alpha -= step_c
                elif residual < -epsilon:
                    alpha += step_c
                else:
                    alpha *= shrink  # shrink inside the tube
                alphas[i] = min(max(alpha, -c), c)
            predictions = kernel @ alphas + intercept
            intercept += float(np.mean(y - predictions))
        keep = np.abs(alphas) > 1e-8
        self.support_vectors = np.ascontiguousarray(x[keep])
        self.alphas = alphas[keep]
        self.intercept = intercept
        self._support_sq = (
            np.sum(self.support_vectors**2, axis=1)
            if self.support_vectors.size
            else None
        )
        return self

    def save(self, path: str | os.PathLike[str]) -> pathlib.Path:
        """Serialise the fitted machine to one ``.npz`` file.

        Support vectors, dual coefficients and the intercept are stored
        verbatim, so :meth:`load` restores **bit-identical**
        predictions (the cached squared norms are recomputed with the
        same expression :meth:`fit` uses, on the same bytes).
        """
        if self.support_vectors is None or self.alphas is None:
            raise RuntimeError("model is not fitted")
        path = pathlib.Path(path)
        with open(path, "wb") as handle:
            np.savez(
                handle,
                support_vectors=self.support_vectors,
                alphas=self.alphas,
                intercept=np.float64(self.intercept),
                hyper=np.array([self.c, self.gamma, self.epsilon], dtype=np.float64),
                meta=np.array(
                    [self.epochs, self.max_support, self.seed], dtype=np.int64
                ),
            )
        return path

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "SupportVectorRegressor":
        """Restore a machine saved by :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            hyper = data["hyper"]
            meta = data["meta"]
            model = cls(
                c=float(hyper[0]),
                gamma=float(hyper[1]),
                epsilon=float(hyper[2]),
                epochs=int(meta[0]),
                max_support=int(meta[1]),
                seed=int(meta[2]),
            )
            model.support_vectors = np.ascontiguousarray(data["support_vectors"])
            model.alphas = np.ascontiguousarray(data["alphas"])
            model.intercept = float(data["intercept"])
        model._support_sq = (
            np.sum(model.support_vectors**2, axis=1)
            if model.support_vectors.size
            else None
        )
        return model

    def _predict_chunk(self, chunk: np.ndarray) -> np.ndarray:
        kernel = self._kernel(chunk, self.support_vectors, self._support_sq)
        return kernel @ self.alphas

    def predict(self, x: np.ndarray, chunk_size: int = 4096) -> np.ndarray:
        """Predicted targets for ``x``, streamed in ``chunk_size`` rows."""
        if self.support_vectors is None or self.alphas is None:
            raise RuntimeError("model is not fitted")
        x = np.asarray(x, dtype=float)
        if self.support_vectors.shape[0] == 0:
            return np.full(x.shape[0], self.intercept)
        results = [
            self._predict_chunk(x[start : start + chunk_size])
            for start in range(0, x.shape[0], chunk_size)
        ]
        out = np.concatenate(results) if results else np.empty(0)
        out += self.intercept
        return out
