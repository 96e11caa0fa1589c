"""CVSS v2 → v3 severity prediction engine (§4.3).

Only a third of the paper's NVD snapshot carries CVSS v3 scores.  The
fix trains regression models — Linear Regression, RBF-kernel SVR, a
CNN, and a DNN (the paper's line-up, with its layer widths) — to
predict the v3 *base score* from v2-derived features plus the CWE id,
then backports v3 severity labels across the whole database.

Features (13 dimensions, as reduced by PCA in Appendix A.1):
access vector / access complexity / authentication weights, the three
impact weights, the v2 base / impact / exploitability subscores, the
three privilege-obtained flags, and the CWE id.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

import numpy as np

from repro import perf
from repro.cvss import Severity, severity_v3
from repro.cvss.v2 import (
    ACCESS_COMPLEXITY,
    ACCESS_VECTOR,
    AUTHENTICATION,
    IMPACT,
    score_v2,
    v2_vector_string,
)
from repro.cwe import CWE_LABEL
from repro.ml import (
    Conv1D,
    Dense,
    Flatten,
    LinearRegression,
    ReLU,
    Sequential,
    Sigmoid,
    SupportVectorRegressor,
    accuracy,
    average_error,
    average_error_rate,
    fit,
    per_class_accuracy,
    stratified_split,
)
from repro.nvd import CveEntry

__all__ = [
    "EngineConfig",
    "ModelScores",
    "RowKey",
    "SUPPORTED_MODELS",
    "SeverityPredictionEngine",
    "row_key",
    "transition_table",
    "v2_features",
]

#: the §4.3 model line-up — the single allowlist shared by training,
#: restore-from-artifacts, and the artifact store's loader table.
SUPPORTED_MODELS = ("lr", "svr", "cnn", "dnn")

#: CWE families whose exploitation yields user/other privileges (used
#: for the privilege-flag features, mirroring NVD's baseMetricV2
#: obtainUserPrivilege / obtainOtherPrivilege booleans).
_PRIVILEGE_CWES = frozenset(
    {"CWE-264", "CWE-265", "CWE-269", "CWE-284", "CWE-285", "CWE-274", "CWE-275"}
)

#: Every model's last step is a matrix-vector product (LR's weights,
#: SVR's dual coefficients, the networks' one-unit output layer).
#: OpenBLAS's gemv runs rows in groups (4 on Haswell) and sends the
#: last ``rows % group`` through a remainder loop that can round
#: differently, so a row's score could depend on where it sits.
#: ``predict_scores`` pads its rows to a multiple of this, a multiple of
#: the group, so every row takes the grouped path.  A lone row is left
#: alone: numpy scores one row with a dot product, not a gemv.
GEMV_ROW_GROUP = 16

#: numpy dtype the neural networks train and predict in.  float32
#: halves the memory traffic of every layer and optimizer step (~2x
#: wall time at paper scale) and is far above the precision the
#: 13-feature regression needs.
NN_DTYPE = np.dtype(np.float32)

FEATURE_NAMES = (
    "access_vector",
    "access_complexity",
    "authentication",
    "confidentiality",
    "integrity",
    "availability",
    "base_score",
    "impact_subscore",
    "exploitability_subscore",
    "obtain_all_privilege",
    "obtain_user_privilege",
    "obtain_other_privilege",
    "cwe_id",
)


def _concrete_cwe(entry: CveEntry) -> str | None:
    """The entry's first well-formed concrete CWE label, if any.

    Sentinels (``NVD-CWE-Other``) and malformed labels (``CWE-abc``, a
    bare ``CWE-``, a digit run past ``repro.cwe.MAX_CWE_DIGITS``) are
    skipped, so a bad feed label degrades to "no CWE" instead of
    crashing the feature build.
    """
    return next((cwe for cwe in entry.cwe_ids if CWE_LABEL.fullmatch(cwe)), None)


#: one feature row: the v2 base vector string and the first concrete
#: CWE label (None without one).  :func:`v2_features` reads nothing
#: else, so every entry with the same key scores the same.
RowKey = tuple[str, str | None]


def row_key(entry: CveEntry) -> RowKey:
    """The feature row ``entry`` scores as.

    Raises :class:`ValueError` when the entry has no v2 vector, as
    :func:`v2_features` does.
    """
    if entry.cvss_v2 is None:
        raise ValueError(f"{entry.cve_id} has no CVSS v2 vector")
    return v2_vector_string(entry.cvss_v2), _concrete_cwe(entry)


def v2_features(entry: CveEntry) -> np.ndarray:
    """The 13-dimensional feature vector for one CVE.

    Raises :class:`ValueError` when the entry has no v2 vector — the
    engine only operates on scored CVEs.
    """
    v2 = entry.cvss_v2
    if v2 is None:
        raise ValueError(f"{entry.cve_id} has no CVSS v2 vector")
    scores = score_v2(v2)
    impacts = (v2.confidentiality, v2.integrity, v2.availability)
    all_privilege = impacts == ("C", "C", "C")
    concrete_cwe = _concrete_cwe(entry)
    privilege_type = concrete_cwe in _PRIVILEGE_CWES
    user_privilege = privilege_type and not all_privilege
    other_privilege = privilege_type and "P" in impacts
    cwe_number = int(concrete_cwe.split("-")[1]) if concrete_cwe else 0
    return np.array(
        [
            ACCESS_VECTOR[v2.access_vector],
            ACCESS_COMPLEXITY[v2.access_complexity],
            AUTHENTICATION[v2.authentication],
            IMPACT[v2.confidentiality],
            IMPACT[v2.integrity],
            IMPACT[v2.availability],
            scores.base / 10.0,
            scores.impact / 10.41,
            scores.exploitability / 10.0,
            float(all_privilege),
            float(user_privilege),
            float(other_privilege),
            cwe_number / 1200.0,
        ]
    )


def feature_matrix(entries: list[CveEntry]) -> np.ndarray:
    """Stack feature vectors for many entries."""
    if not entries:
        return np.empty((0, len(FEATURE_NAMES)))
    return np.stack([v2_features(entry) for entry in entries])


@dataclasses.dataclass(frozen=True, slots=True)
class EngineConfig:
    """Training configuration (paper defaults, §4.3)."""

    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 0.001
    seed: int = 0
    test_fraction: float = 0.2
    svr_c: float = 2.0
    svr_gamma: float = 0.1
    svr_max_support: int = 1500
    models: tuple[str, ...] = ("lr", "svr", "cnn", "dnn")


@dataclasses.dataclass(frozen=True, slots=True)
class ModelScores:
    """Table 5 + Table 7 measurements for one model."""

    name: str
    average_error: float
    average_error_rate: float
    accuracy: float
    per_class_accuracy: dict[str, float]


def _build_cnn(rng: np.random.Generator, n_features: int) -> Sequential:
    """The paper's CNN: 64/64/128/128 convolutions + 512-wide head."""
    return Sequential(
        Conv1D(1, 64, 3, rng),
        ReLU(),
        Conv1D(64, 64, 3, rng),
        ReLU(),
        Conv1D(64, 128, 3, rng),
        ReLU(),
        Conv1D(128, 128, 3, rng),
        ReLU(),
        Flatten(),
        # Deep convolutional stacks feeding a sigmoid need a small
        # output head, or the pre-activation saturates and kills the
        # gradient on the very first step.
        Dense(n_features * 128, 512, rng, scale=0.2),
        ReLU(),
        Dense(512, 1, rng, scale=0.1),
        Sigmoid(),
    )


def _build_dnn(rng: np.random.Generator, n_features: int) -> Sequential:
    """The paper's DNN: fully connected 128/128/256/256 + sigmoid."""
    return Sequential(
        Dense(n_features, 128, rng),
        ReLU(),
        Dense(128, 128, rng),
        ReLU(),
        Dense(128, 256, rng),
        ReLU(),
        Dense(256, 256, rng),
        ReLU(),
        Dense(256, 1, rng, scale=0.2),
        Sigmoid(),
    )


class SeverityPredictionEngine:
    """Train on dual-scored CVEs, predict v3 scores for the rest."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()
        self._models: Mapping[str, object] = {}
        self._train_idx: np.ndarray | None = None
        self._test_idx: np.ndarray | None = None
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._entries: list[CveEntry] = []

    @classmethod
    def from_models(
        cls,
        config: EngineConfig,
        models: Mapping[str, object],
    ) -> "SeverityPredictionEngine":
        """An engine restored from persisted models — no training data.

        The serving layer cold-starts through this: prediction works
        immediately with the restored weights, while the evaluation
        surface (:meth:`evaluate`, :meth:`best_model`,
        :meth:`test_entries`) needs the training split and keeps
        raising until :meth:`fit` runs.
        """
        unknown = [name for name in models if name not in SUPPORTED_MODELS]
        if unknown:
            raise ValueError(f"unknown model {unknown[0]!r}")
        engine = cls(config)
        # Kept, not copied: a store's mapping reads each model file on
        # first access, so a model nothing scores with is never read.
        engine._models = models
        return engine

    @property
    def model_names(self) -> tuple[str, ...]:
        """The names of the trained models, reading none of them."""
        return tuple(self._models)

    @property
    def models(self) -> dict[str, object]:
        """The trained models by name (a copy, reading every model not
        yet read; used for persistence)."""
        return dict(self._models)

    # -- training ----------------------------------------------------------

    def fit(self, entries: list[CveEntry]) -> "SeverityPredictionEngine":
        """Train all configured models on CVEs carrying both scores.

        Both networks are built from one seeded rng before any model
        trains, so their initial weights depend only on the config.
        """
        usable = [e for e in entries if e.cvss_v2 is not None and e.has_v3]
        if len(usable) < 10:
            raise ValueError(
                f"need at least 10 dual-scored CVEs to train, got {len(usable)}"
            )
        unknown = [n for n in self.config.models if n not in SUPPORTED_MODELS]
        if unknown:
            raise ValueError(f"unknown model {unknown[0]!r}")
        self._entries = usable
        self._x = feature_matrix(usable)
        self._y = np.array([entry.v3_score for entry in usable], dtype=float)
        labels = [entry.v2_severity.value for entry in usable]
        self._train_idx, self._test_idx = stratified_split(
            labels, test_fraction=self.config.test_fraction, seed=self.config.seed
        )
        x_train = self._x[self._train_idx]
        y_train = self._y[self._train_idx]
        rng = np.random.default_rng(self.config.seed)

        models: dict[str, object] = {}
        networks: dict[str, Sequential] = {}
        for name in self.config.models:
            if name == "cnn":
                networks[name] = _build_cnn(rng, self._x.shape[1])
            elif name == "dnn":
                networks[name] = _build_dnn(rng, self._x.shape[1])
        config = self.config
        for name in config.models:
            if name == "lr":
                models[name] = LinearRegression().fit(x_train, y_train)
            elif name == "svr":
                models[name] = SupportVectorRegressor(
                    c=config.svr_c,
                    gamma=config.svr_gamma,
                    max_support=config.svr_max_support,
                    seed=config.seed,
                ).fit(x_train, y_train)
            else:
                model = networks[name]
                fit(
                    model,
                    x_train[:, :, None] if name == "cnn" else x_train,
                    (y_train / 10.0)[:, None],
                    epochs=config.epochs,
                    batch_size=config.batch_size,
                    learning_rate=config.learning_rate,
                    seed=config.seed,
                    dtype=NN_DTYPE,
                )
                models[name] = model
        self._models = models
        return self

    # -- prediction ----------------------------------------------------------

    def model(self, name: str) -> object:
        """The trained model ``name`` (read now if it was not yet)."""
        model = self._models.get(name)
        if model is None:
            raise RuntimeError(f"model {name!r} is not trained")
        return model

    def _predict_matrix(self, x: np.ndarray, model_name: str) -> np.ndarray:
        model = self.model(model_name)
        if model_name in ("cnn", "dnn"):
            # Match the training precision so prediction runs the
            # same all-float32 path instead of upcasting every layer.
            x = np.asarray(x, dtype=NN_DTYPE)
            batched = x[:, :, None] if model_name == "cnn" else x
            raw = model.predict(batched).reshape(-1).astype(float) * 10.0
        else:
            raw = model.predict(x)
        return np.clip(raw, 0.0, 10.0)

    def predict_scores(
        self,
        entries: list[CveEntry],
        model: str = "cnn",
        *,
        known: Mapping[RowKey, float] | None = None,
        scored: dict[RowKey, float] | None = None,
    ) -> np.ndarray:
        """Predicted v3 base scores for arbitrary v2-scored entries.

        The features are a function of the entry's :func:`row_key`
        only, so each distinct row is built and scored once, and the
        scores are scattered back in entry order.  At paper scale
        107,200 entries hold ~4,600 distinct rows.

        ``known`` maps rows to the scores ``model`` gave them before (a
        store's row table): those rows are not scored again, and when
        every row is known no model is read.  ``scored``, when given,
        receives the score of every row this call computed.

        Padding the rows to a whole number of :data:`GEMV_ROW_GROUP`
        rows makes each score a function of its row alone: bit-identical
        to a full pass over every entry whose row count is a whole number
        of BLAS row groups, and so to a ``known`` score.  Only a call on
        one distinct row goes unpadded (a lone row scores through a dot
        product); a lone unknown row among known ones is padded, as it
        would be without the table.
        """
        known = known if known is not None else {}
        rows: dict[RowKey, int] = {}
        values: list[float] = []  # per distinct row; 0.0 until scored
        fresh: dict[RowKey, CveEntry] = {}  # one entry per row ``known`` lacks
        index: list[int] = []
        for entry in entries:
            key = row_key(entry)
            row = rows.get(key)
            if row is None:
                row = rows[key] = len(values)
                value = known.get(key)
                if value is None:
                    fresh[key] = entry
                values.append(0.0 if value is None else value)
            index.append(row)
        perf.add_counter("severity.rows_reused", len(rows) - len(fresh))
        perf.add_counter("severity.rows_scored", len(fresh))
        scores = np.array(values, dtype=float)
        if fresh:
            x = feature_matrix(list(fresh.values()))
            if len(rows) > 1:
                pad = -len(fresh) % GEMV_ROW_GROUP
                x = np.concatenate([x, np.repeat(x[-1:], pad, axis=0)])
            fresh_scores = self._predict_matrix(x, model)[: len(fresh)]
            scores[[rows[key] for key in fresh]] = fresh_scores
            if scored is not None:
                scored.update(zip(fresh, fresh_scores.tolist()))
        return scores[np.array(index, dtype=np.intp)]

    def predict_severities(
        self, entries: list[CveEntry], model: str = "cnn"
    ) -> list[Severity]:
        """Predicted v3 severity labels (Table 1 banding)."""
        return [severity_v3(s) for s in self.predict_scores(entries, model)]

    # -- evaluation ----------------------------------------------------------

    def test_entries(self) -> list[CveEntry]:
        """The held-out 20% (ground truth for Tables 14/15)."""
        assert self._test_idx is not None, "engine is not fitted"
        return [self._entries[i] for i in self._test_idx]

    def evaluate(self) -> dict[str, ModelScores]:
        """Score every model on the held-out split (Tables 5 and 7)."""
        if self._x is None or self._y is None or self._test_idx is None:
            raise RuntimeError("engine is not fitted")
        x_test = self._x[self._test_idx]
        y_test = self._y[self._test_idx]
        test_entries = self.test_entries()
        v2_labels = [entry.v2_severity.value for entry in test_entries]
        v3_labels = [entry.v3_severity.value for entry in test_entries]
        results: dict[str, ModelScores] = {}
        for name in self._models:
            predicted = self._predict_matrix(x_test, name)
            predicted_labels = [severity_v3(s).value for s in predicted]
            results[name] = ModelScores(
                name=name,
                average_error=average_error(y_test, predicted),
                average_error_rate=average_error_rate(y_test, predicted),
                accuracy=accuracy(v3_labels, predicted_labels),
                per_class_accuracy=per_class_accuracy(
                    v2_labels, v3_labels, predicted_labels
                ),
            )
        return results

    def best_model(self) -> str:
        """The model with the highest held-out accuracy (paper: CNN)."""
        scores = self.evaluate()
        return max(scores.values(), key=lambda s: s.accuracy).name

    def feature_importance(
        self, model: str = "cnn", n_repeats: int = 3
    ) -> dict[str, float]:
        """Permutation importance on the held-out split.

        §4.3: "the confidentiality, base score, and integrity are
        important features that impact the performance of our
        prediction model."  Importance = mean increase in absolute
        error when a feature column is shuffled.
        """
        if self._x is None or self._y is None or self._test_idx is None:
            raise RuntimeError("engine is not fitted")
        rng = np.random.default_rng(self.config.seed)
        x_test = self._x[self._test_idx]
        y_test = self._y[self._test_idx]
        baseline = average_error(y_test, self._predict_matrix(x_test, model))
        importance: dict[str, float] = {}
        for column, feature in enumerate(FEATURE_NAMES):
            increases = []
            for _ in range(n_repeats):
                shuffled = x_test.copy()
                rng.shuffle(shuffled[:, column])
                error = average_error(y_test, self._predict_matrix(shuffled, model))
                increases.append(error - baseline)
            importance[feature] = float(np.mean(increases))
        return importance


def transition_table(
    v2_severities: list[Severity], v3_severities: list[Severity]
) -> dict[tuple[str, str], int]:
    """Severity transition counts (the Table 4/6/13-15 layout).

    Keys are ``(v2 label, v3 label)`` over v2 rows L/M/H and v3 columns
    L/M/H/C.
    """
    if len(v2_severities) != len(v3_severities):
        raise ValueError("severity lists must have the same length")
    table: dict[tuple[str, str], int] = {}
    for v2, v3 in zip(v2_severities, v3_severities):
        key = (v2.value, v3.value)
        table[key] = table.get(key, 0) + 1
    return table
