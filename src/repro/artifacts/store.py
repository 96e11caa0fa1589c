"""Versioned on-disk store for completed cleaning runs.

A cleaning run (``repro.core.clean``) is expensive — at paper scale it
crawls half a million URLs and trains four models.  The artifact store
persists everything a serving front end needs so the run happens once:

- the cleaned snapshot (NVD JSON feed format, gzip level 6, written
  and read by the streaming :func:`repro.nvd.save_feed` /
  :func:`repro.nvd.load_feed`),
- the trained severity models (``save``/``load`` weight serialization
  on each ``ml/`` model, bit-identical on round-trip),
- the vendor/product alias maps and per-CVE disclosure estimates,
- the backported v3 scores/severities and the cleaning report,
- the engine config plus its fingerprint, in a schema-checked manifest.

Layout — one immutable directory per version, plus an atomic pointer::

    ROOT/
      CURRENT            # text file naming the live version
      v0001/
        manifest.json    # schema, fingerprint, per-file sha256
        snapshot.json.gz
        models/cnn.npz …
        engine.json
        maps.json
        estimates.json.gz
        predictions.json.gz
        report.json

Writers stage into a temp directory and ``os.rename`` it into place,
then rewrite ``CURRENT`` via temp-file + ``os.replace`` — a reader (or
a crash) never observes a half-written version, and a running server
hot-swaps by re-reading the pointer.  Loaders verify the manifest
schema and every file hash; corruption raises :class:`ArtifactError`
instead of serving wrong answers.
"""

from __future__ import annotations

import dataclasses
import datetime
import gzip
import hashlib
import json
import os
import pathlib
import re
import shutil
import tempfile
import time
from typing import Any

from repro.core.dates import DisclosureEstimate
from repro.core.severity import (
    SUPPORTED_MODELS,
    EngineConfig,
    SeverityPredictionEngine,
)
from repro.cvss import Severity
from repro.ml import LinearRegression, Sequential, SupportVectorRegressor
from repro.nvd import NvdSnapshot, load_feed, save_feed
from repro.nvd.feed import open_text_writer

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactError",
    "LoadedArtifacts",
    "config_fingerprint",
    "export_run",
    "list_versions",
    "load_artifacts",
    "read_current",
]

ARTIFACT_SCHEMA = "repro-artifacts/1"
CURRENT_POINTER = "CURRENT"

_VERSION_RE = re.compile(r"v(\d{4,})")

#: loader for each persisted model file (``models/<name>.npz``); keys
#: must cover :data:`repro.core.severity.SUPPORTED_MODELS` exactly.
_MODEL_LOADERS = {
    "lr": LinearRegression.load,
    "svr": SupportVectorRegressor.load,
    "cnn": Sequential.load,
    "dnn": Sequential.load,
}
assert set(_MODEL_LOADERS) == set(SUPPORTED_MODELS)

#: engine-config keys older stores persisted for settings that no
#: longer exist; dropped on load so those stores stay loadable.
_RETIRED_CONFIG_KEYS = ("numeric_backend", "data_parallel", "workers", "backend")


class ArtifactError(RuntimeError):
    """A missing, foreign-schema, or corrupt artifact store."""


def config_fingerprint(config: EngineConfig) -> str:
    """A stable hex fingerprint of an engine configuration.

    Persisted in the manifest so a serving layer can tell which
    training settings produced the artifacts it cold-starts from.
    """
    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# -- low-level helpers --------------------------------------------------------


def _sha256(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _write_json(path: pathlib.Path, payload: Any) -> None:
    with open_text_writer(path) as handle:
        handle.write(json.dumps(payload, indent=1, sort_keys=True))


def _read_json(path: pathlib.Path) -> Any:
    try:
        if path.suffix == ".gz":
            with gzip.open(path, "rt", encoding="utf-8") as handle:
                return json.load(handle)
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, gzip.BadGzipFile) as error:
        raise ArtifactError(f"unreadable artifact file {path}: {error}") from None


# -- version bookkeeping ------------------------------------------------------


def list_versions(root: str | os.PathLike[str]) -> list[str]:
    """All version directories under ``root``, oldest first."""
    root = pathlib.Path(root)
    if not root.is_dir():
        return []
    versions = [
        child.name
        for child in root.iterdir()
        if child.is_dir() and _VERSION_RE.fullmatch(child.name)
    ]
    return sorted(versions, key=lambda name: int(name[1:]))


def read_current(root: str | os.PathLike[str]) -> str | None:
    """The version named by the ``CURRENT`` pointer (None when absent)."""
    pointer = pathlib.Path(root) / CURRENT_POINTER
    try:
        name = pointer.read_text(encoding="utf-8").strip()
    except OSError:
        return None
    return name or None


def _resolve_version(root: pathlib.Path, version: str | None) -> str:
    if version is not None:
        return version
    current = read_current(root)
    if current is not None:
        return current
    versions = list_versions(root)
    if versions:  # pointer lost (e.g. crash between rename and rewrite)
        return versions[-1]
    raise ArtifactError(f"no artifact versions under {root}")


# -- export -------------------------------------------------------------------


def export_run(
    root: str | os.PathLike[str],
    *,
    snapshot: NvdSnapshot,
    engine: SeverityPredictionEngine,
    model_used: str,
    vendor_map: dict[str, str],
    product_map: dict[tuple[str, str], str],
    estimates: dict[str, DisclosureEstimate],
    pv3_scores: dict[str, float],
    pv3_severity: dict[str, Severity | str],
    report: Any,
    source: str = "clean",
    parent: str | None = None,
) -> str:
    """Persist one cleaning run as a new artifact version.

    Returns the new version name (``v0001``, …) after atomically
    renaming the staged directory into place and repointing
    ``CURRENT``.  ``report`` may be a :class:`CleaningReport` or a
    plain dict (the ingest path re-exports the loaded dict).
    """
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    staging = pathlib.Path(
        tempfile.mkdtemp(dir=root, prefix=".stage-", suffix=".tmp")
    )
    try:
        save_feed(snapshot.entries, staging / "snapshot.json.gz")

        models_dir = staging / "models"
        models_dir.mkdir()
        models = engine.models
        for name, model in sorted(models.items()):
            model.save(models_dir / f"{name}.npz")

        config = engine.config
        if model_used not in models:
            raise ArtifactError(
                f"model_used {model_used!r} is not among the trained models "
                f"{sorted(models)}"
            )
        _write_json(
            staging / "engine.json",
            {
                "config": dataclasses.asdict(config),
                "fingerprint": config_fingerprint(config),
                "model_used": model_used,
                "models": sorted(models),
            },
        )
        _write_json(
            staging / "maps.json",
            {
                "vendor": vendor_map,
                "product": [
                    [vendor, product, canonical]
                    for (vendor, product), canonical in sorted(product_map.items())
                ],
            },
        )
        _write_json(
            staging / "estimates.json.gz",
            {
                cve_id: [
                    estimate.published.isoformat(),
                    estimate.estimated_disclosure.isoformat(),
                    estimate.n_reference_dates,
                ]
                for cve_id, estimate in estimates.items()
            },
        )
        _write_json(
            staging / "predictions.json.gz",
            {
                "scores": pv3_scores,
                "severities": {
                    cve_id: getattr(severity, "value", severity)
                    for cve_id, severity in pv3_severity.items()
                },
            },
        )
        report_dict = (
            dict(report)
            if isinstance(report, dict)
            else dataclasses.asdict(report)
        )
        _write_json(staging / "report.json", report_dict)

        files = {
            str(path.relative_to(staging)): {
                "sha256": _sha256(path),
                "bytes": path.stat().st_size,
            }
            for path in sorted(staging.rglob("*"))
            if path.is_file()
        }

        # Rename-race loop: a concurrent exporter may claim the next
        # number first; os.rename onto an existing directory fails, so
        # we recompute and retry instead of clobbering.
        for _ in range(100):
            versions = list_versions(root)
            next_number = int(versions[-1][1:]) + 1 if versions else 1
            version = f"v{next_number:04d}"
            manifest = {
                "schema": ARTIFACT_SCHEMA,
                "version": version,
                "source": source,
                "parent": parent,
                "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "fingerprint": config_fingerprint(config),
                "n_cves": len(snapshot),
                "model_used": model_used,
                "files": files,
            }
            _write_json(staging / "manifest.json", manifest)
            try:
                os.rename(staging, root / version)
                break
            except OSError:
                continue
        else:  # pragma: no cover - requires 100 concurrent exporters
            raise ArtifactError(f"could not claim a version directory under {root}")
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    _atomic_write_text(root / CURRENT_POINTER, version + "\n")
    return version


# -- load ---------------------------------------------------------------------


@dataclasses.dataclass
class LoadedArtifacts:
    """One artifact version, rehydrated for serving — no retraining.

    ``pv3_severity`` holds label strings (``"HIGH"``, …), the shape the
    service responds with; the ingest path converts fresh predictions
    to the same shape before merging.
    """

    root: pathlib.Path
    version: str
    manifest: dict[str, Any]
    snapshot: NvdSnapshot
    engine: SeverityPredictionEngine
    model_used: str
    vendor_map: dict[str, str]
    product_map: dict[tuple[str, str], str]
    estimates: dict[str, DisclosureEstimate]
    pv3_scores: dict[str, float]
    pv3_severity: dict[str, str]
    report: dict[str, Any]

    @property
    def config(self) -> EngineConfig:
        return self.engine.config

    @property
    def fingerprint(self) -> str:
        return self.manifest["fingerprint"]


def _verify_manifest(
    version_dir: pathlib.Path, version: str, verify_hashes: bool
) -> dict[str, Any]:
    manifest_path = version_dir / "manifest.json"
    if not manifest_path.is_file():
        raise ArtifactError(f"{version_dir} has no manifest.json")
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise ArtifactError(f"{manifest_path}: manifest must be a JSON object")
    schema = manifest.get("schema")
    if schema != ARTIFACT_SCHEMA:
        raise ArtifactError(
            f"{manifest_path}: schema {schema!r} is not {ARTIFACT_SCHEMA!r}"
        )
    if manifest.get("version") != version:
        raise ArtifactError(
            f"{manifest_path}: manifest names version "
            f"{manifest.get('version')!r}, directory is {version!r}"
        )
    files = manifest.get("files")
    if not isinstance(files, dict) or not files:
        raise ArtifactError(f"{manifest_path}: manifest lists no files")
    for relpath, meta in files.items():
        path = version_dir / relpath
        if not path.is_file():
            raise ArtifactError(f"{version_dir}: missing artifact file {relpath}")
        if verify_hashes and _sha256(path) != meta.get("sha256"):
            raise ArtifactError(
                f"{version_dir}: checksum mismatch for {relpath} "
                "(corrupt or tampered artifact)"
            )
    return manifest


def load_artifacts(
    root: str | os.PathLike[str],
    version: str | None = None,
    *,
    verify: bool = True,
) -> LoadedArtifacts:
    """Rehydrate one artifact version (default: the ``CURRENT`` one).

    This is the serving cold-start path: the snapshot, alias maps,
    estimates, predictions and trained models are all read from disk —
    no crawling, no pair scoring, no training.  ``verify=True`` (the
    default) checks every file against its manifest sha256 first.
    """
    root = pathlib.Path(root)
    version = _resolve_version(root, version)
    version_dir = root / version
    if not version_dir.is_dir():
        raise ArtifactError(f"artifact version {version!r} not found under {root}")
    manifest = _verify_manifest(version_dir, version, verify)

    engine_doc = _read_json(version_dir / "engine.json")
    config_doc = dict(engine_doc["config"])
    config_doc["models"] = tuple(config_doc.get("models", ()))
    for retired in _RETIRED_CONFIG_KEYS:
        config_doc.pop(retired, None)
    try:
        config = EngineConfig(**config_doc)
    except TypeError as error:
        raise ArtifactError(f"{version_dir}: bad engine config: {error}") from None
    models: dict[str, object] = {}
    for name in engine_doc["models"]:
        loader = _MODEL_LOADERS.get(name)
        if loader is None:
            raise ArtifactError(f"{version_dir}: unknown persisted model {name!r}")
        try:
            models[name] = loader(version_dir / "models" / f"{name}.npz")
        except (OSError, ValueError, KeyError) as error:
            raise ArtifactError(
                f"{version_dir}: cannot load model {name!r}: {error}"
            ) from None
    engine = SeverityPredictionEngine.from_models(config, models)
    model_used = engine_doc["model_used"]
    if model_used not in models:
        raise ArtifactError(
            f"{version_dir}: model_used {model_used!r} has no persisted weights"
        )

    maps_doc = _read_json(version_dir / "maps.json")
    vendor_map = dict(maps_doc.get("vendor", {}))
    product_map = {
        (vendor, product): canonical
        for vendor, product, canonical in maps_doc.get("product", ())
    }

    estimates_doc = _read_json(version_dir / "estimates.json.gz")
    try:
        estimates = {
            cve_id: DisclosureEstimate(
                cve_id=cve_id,
                published=datetime.date.fromisoformat(published),
                estimated_disclosure=datetime.date.fromisoformat(estimated),
                n_reference_dates=int(n_dates),
            )
            for cve_id, (published, estimated, n_dates) in estimates_doc.items()
        }
    except (TypeError, ValueError) as error:
        raise ArtifactError(f"{version_dir}: bad estimates: {error}") from None

    predictions = _read_json(version_dir / "predictions.json.gz")
    pv3_scores = {
        cve_id: float(score) for cve_id, score in predictions.get("scores", {}).items()
    }
    pv3_severity = {
        cve_id: str(label)
        for cve_id, label in predictions.get("severities", {}).items()
    }

    snapshot = NvdSnapshot(load_feed(version_dir / "snapshot.json.gz"))
    report = _read_json(version_dir / "report.json")

    return LoadedArtifacts(
        root=root,
        version=version,
        manifest=manifest,
        snapshot=snapshot,
        engine=engine,
        model_used=model_used,
        vendor_map=vendor_map,
        product_map=product_map,
        estimates=estimates,
        pv3_scores=pv3_scores,
        pv3_severity=pv3_severity,
        report=report,
    )
