"""Vulnerability-type (CWE) fixes (§4.4).

Two tools:

1. **Regex recovery** — the CWE id often appears verbatim in a CVE's
   evaluator description even when the CWE field holds a sentinel
   (``NVD-CWE-Other``/``NVD-CWE-noinfo``) or nothing.  Applying
   ``CWE-[0-9]*`` to all description strings recovers those labels
   (the paper corrects 2,456 CVEs this way, 1,732 of them
   NVD-CWE-Other).

2. **Description classifier** — descriptions are encoded with a
   sentence encoder and classified into CWE types with k-NN (k=1; the
   paper's best, 65.60% over 151 classes), for the CVEs whose
   descriptions embed no explicit id.  The paper deems this accuracy
   too low to auto-apply, and so do we: the classifier is reported,
   not folded into the rectified snapshot.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import perf
from repro.cwe import CWE_LABEL, extract_cwe_ids, is_sentinel
from repro.ml import (
    Dense,
    HashingSentenceEncoder,
    KNeighborsClassifier,
    ReLU,
    Sequential,
    Sigmoid,
    accuracy,
    fit,
    stratified_split,
)
from repro.nvd import CveEntry, NvdSnapshot

__all__ = ["CweFixResult", "DescriptionClassifier", "extract_cwe_fixes"]


@dataclasses.dataclass
class CweFixResult:
    """Outcome of the regex-based CWE recovery."""

    #: CVE id → CWE ids recovered from descriptions (new information).
    fixes: dict[str, tuple[str, ...]]
    #: how many of the fixed CVEs previously held each sentinel state.
    fixed_other: int
    fixed_noinfo: int
    fixed_unassigned: int
    fixed_already_labeled: int
    #: sentinel-population sizes before fixing (the ≈31% figure).
    total_other: int
    total_noinfo: int
    total_unassigned: int

    @property
    def n_fixed(self) -> int:
        return len(self.fixes)


def extract_cwe_fixes(snapshot: NvdSnapshot) -> CweFixResult:
    """Scan descriptions for CWE ids and compute the field corrections.

    A fix is recorded when a description mentions a concrete CWE id
    that the CWE field does not already carry.  Sentinel values are
    never treated as information, and an id :data:`repro.cwe.CWE_LABEL`
    rejects (a digit run past ``MAX_CWE_DIGITS``) is skipped and counted
    under ``cwefix.malformed_label``.
    """
    fixes: dict[str, tuple[str, ...]] = {}
    fixed_other = fixed_noinfo = fixed_unassigned = fixed_labeled = 0
    total_other = total_noinfo = total_unassigned = 0
    for entry in snapshot:
        labels = entry.cwe_ids
        has_other = "NVD-CWE-Other" in labels
        has_noinfo = "NVD-CWE-noinfo" in labels
        concrete = {label for label in labels if not is_sentinel(label)}
        unassigned = not labels
        if has_other:
            total_other += 1
        if has_noinfo:
            total_noinfo += 1
        if unassigned:
            total_unassigned += 1
        found = []
        for cwe_id in extract_cwe_ids(entry.all_description_text()):
            if not CWE_LABEL.fullmatch(cwe_id):  # no CWE has such an id
                perf.add_counter("cwefix.malformed_label")
            elif cwe_id not in concrete:
                found.append(cwe_id)
        if not found:
            continue
        fixes[entry.cve_id] = tuple(found)
        if has_other:
            fixed_other += 1
        elif has_noinfo:
            fixed_noinfo += 1
        elif unassigned:
            fixed_unassigned += 1
        else:
            fixed_labeled += 1
    return CweFixResult(
        fixes=fixes,
        fixed_other=fixed_other,
        fixed_noinfo=fixed_noinfo,
        fixed_unassigned=fixed_unassigned,
        fixed_already_labeled=fixed_labeled,
        total_other=total_other,
        total_noinfo=total_noinfo,
        total_unassigned=total_unassigned,
    )


def apply_cwe_fixes(snapshot: NvdSnapshot, result: CweFixResult) -> NvdSnapshot:
    """Fold recovered CWE ids into the CWE field.

    Recovered ids replace sentinel labels and extend concrete ones.
    """

    def remap(entry: CveEntry) -> CveEntry:
        found = result.fixes.get(entry.cve_id)
        if not found:
            return entry
        concrete = [label for label in entry.cwe_ids if not is_sentinel(label)]
        merged = tuple(dict.fromkeys([*concrete, *found]))
        return entry.replace(cwe_ids=merged)

    return snapshot.map_entries(remap)


class DescriptionClassifier:
    """CWE-type prediction from description text (§4.4's second half).

    ``algorithm`` selects k-NN (the paper's winner), or a small DNN /
    "CNN"-style network over the encoder embedding for comparison.
    Neural classifiers here are one-vs-rest sigmoid scorers over the
    encoded vector, matching the paper's setup of reusing its §4.3
    architectures on text embeddings.
    """

    def __init__(
        self,
        algorithm: str = "knn",
        k: int = 1,
        encoder: HashingSentenceEncoder | None = None,
        epochs: int = 15,
        seed: int = 0,
    ) -> None:
        if algorithm not in ("knn", "dnn"):
            raise ValueError(f"unsupported algorithm {algorithm!r}")
        self.algorithm = algorithm
        self.k = k
        self.encoder = encoder or HashingSentenceEncoder()
        self.epochs = epochs
        self.seed = seed
        self._knn: KNeighborsClassifier | None = None
        self._net: Sequential | None = None
        self._classes: np.ndarray | None = None

    def fit(self, texts: list[str], labels: list[str]) -> "DescriptionClassifier":
        if len(texts) != len(labels):
            raise ValueError("texts and labels must have the same length")
        embeddings = self.encoder.encode_batch(texts)
        if self.algorithm == "knn":
            self._knn = KNeighborsClassifier(k=self.k).fit(
                embeddings, np.array(labels)
            )
            return self
        self._classes, encoded = np.unique(labels, return_inverse=True)
        one_hot = np.zeros((len(labels), self._classes.size))
        one_hot[np.arange(len(labels)), encoded] = 1.0
        rng = np.random.default_rng(self.seed)
        self._net = Sequential(
            Dense(embeddings.shape[1], 256, rng),
            ReLU(),
            Dense(256, 256, rng),
            ReLU(),
            Dense(256, self._classes.size, rng),
            Sigmoid(),
        )
        fit(
            self._net,
            embeddings,
            one_hot,
            epochs=self.epochs,
            batch_size=64,
            seed=self.seed,
        )
        return self

    def predict(self, texts: list[str]) -> list[str]:
        embeddings = self.encoder.encode_batch(texts)
        if self.algorithm == "knn":
            if self._knn is None:
                raise RuntimeError("classifier is not fitted")
            return list(self._knn.predict(embeddings))
        if self._net is None or self._classes is None:
            raise RuntimeError("classifier is not fitted")
        scores = self._net.predict(embeddings)
        return list(self._classes[np.argmax(scores, axis=1)])

    def evaluate_on_snapshot(
        self, snapshot: NvdSnapshot, test_fraction: float = 0.2
    ) -> tuple[float, int]:
        """Train/test on the concretely-labelled CVEs.

        Returns (accuracy, number of distinct classes) — the paper's
        headline is 65.60% over 151 classes with k-NN.
        """
        labeled = [
            (entry.description, entry.cwe_ids[0])
            for entry in snapshot
            if entry.cwe_ids and not is_sentinel(entry.cwe_ids[0])
        ]
        if len(labeled) < 10:
            raise ValueError("not enough labelled CVEs to evaluate")
        texts = [text for text, _ in labeled]
        labels = [label for _, label in labeled]
        train_idx, test_idx = stratified_split(
            labels, test_fraction=test_fraction, seed=self.seed
        )
        self.fit([texts[i] for i in train_idx], [labels[i] for i in train_idx])
        predicted = self.predict([texts[i] for i in test_idx])
        actual = [labels[i] for i in test_idx]
        return accuracy(actual, predicted), len(set(labels))
