"""Machine-learning substrate built on numpy.

The paper trains Linear Regression, Support Vector Regression,
Convolutional and Deep Neural Networks (§4.3), a k-NN description
classifier over Universal-Sentence-Encoder embeddings (§4.4), and uses
PCA for feature-pattern visualisation (Appendix A.1).  None of the
usual libraries (sklearn, TensorFlow) are available offline, so this
package implements the full stack from scratch:

- :mod:`repro.ml.nn` — layers (Dense, Conv1D, Flatten, activations),
  MSE loss, Adam optimizer, and a mini-batch training loop;
- :mod:`repro.ml.backend` — pins the BLAS threadpool to one thread,
  once, when this package is imported, so results do not depend on
  the core count;
- :mod:`repro.ml.linear` — closed-form ridge/linear regression;
- :mod:`repro.ml.svr` — RBF-kernel epsilon-SVR trained by
  Pegasos-style stochastic subgradient descent;
- :mod:`repro.ml.knn` — k-nearest-neighbour classification;
- :mod:`repro.ml.pca` — PCA via singular value decomposition;
- :mod:`repro.ml.encode` — a deterministic hashing sentence encoder
  standing in for the pre-trained Universal Sentence Encoder;
- :mod:`repro.ml.metrics` — AE/AER (the paper's error measures),
  accuracy, confusion matrices and stratified splitting.
"""

from repro.ml.backend import pin as _pin_blas
from repro.ml.encode import HashingSentenceEncoder
from repro.ml.knn import KNeighborsClassifier
from repro.ml.linear import LinearRegression
from repro.ml.metrics import (
    accuracy,
    average_error,
    average_error_rate,
    confusion_matrix,
    per_class_accuracy,
    stratified_split,
)
from repro.ml.nn import (
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
from repro.ml.pca import PCA
from repro.ml.svr import SupportVectorRegressor

# One BLAS thread for the life of the process (see repro.ml.backend).
_pin_blas()

__all__ = [
    "Adam",
    "Conv1D",
    "Dense",
    "Flatten",
    "HashingSentenceEncoder",
    "KNeighborsClassifier",
    "LinearRegression",
    "MSELoss",
    "PCA",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "SupportVectorRegressor",
    "accuracy",
    "average_error",
    "average_error_rate",
    "confusion_matrix",
    "fit",
    "per_class_accuracy",
    "stratified_split",
]
