"""Linear (ridge) regression with a closed-form solution.

"Linear regression finds the linear relationship between a target and
one or more features" (§4.3).  A tiny L2 penalty keeps the normal
equations well conditioned when one-hot CWE features are collinear.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np

__all__ = ["LinearRegression"]


class LinearRegression:
    """Ordinary least squares with optional L2 regularisation."""

    def __init__(self, l2: float = 1e-6) -> None:
        if l2 < 0:
            raise ValueError("l2 penalty must be non-negative")
        self.l2 = l2
        self.coefficients: np.ndarray | None = None
        self.intercept: float = 0.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> "LinearRegression":
        """Solve ``min ||Xw + b - y||^2 + l2 ||w||^2``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float).reshape(-1)
        if x.ndim != 2:
            raise ValueError("x must be 2-D (samples, features)")
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must have the same number of samples")
        x_mean = x.mean(axis=0)
        y_mean = y.mean()
        x_centered = x - x_mean
        y_centered = y - y_mean
        gram = x_centered.T @ x_centered
        gram[np.diag_indices_from(gram)] += self.l2
        self.coefficients = np.linalg.solve(gram, x_centered.T @ y_centered)
        self.intercept = float(y_mean - x_mean @ self.coefficients)
        return self

    def save(self, path: str | os.PathLike[str]) -> pathlib.Path:
        """Serialise the fitted coefficients to one ``.npz`` file.

        :meth:`load` restores bit-identical predictions — the arrays
        round-trip byte-for-byte through the npz container.
        """
        if self.coefficients is None:
            raise RuntimeError("model is not fitted")
        path = pathlib.Path(path)
        with open(path, "wb") as handle:
            np.savez(
                handle,
                coefficients=self.coefficients,
                intercept=np.float64(self.intercept),
                l2=np.float64(self.l2),
            )
        return path

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "LinearRegression":
        """Restore a model saved by :meth:`save`."""
        with np.load(path, allow_pickle=False) as data:
            model = cls(l2=float(data["l2"]))
            model.coefficients = np.ascontiguousarray(data["coefficients"])
            model.intercept = float(data["intercept"])
        return model

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.coefficients is None:
            raise RuntimeError("model is not fitted")
        return np.asarray(x, dtype=float) @ self.coefficients + self.intercept
