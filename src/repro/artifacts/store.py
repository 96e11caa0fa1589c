"""Versioned on-disk store for completed cleaning runs.

A cleaning run (``repro.core.clean``) is expensive — at paper scale it
crawls half a million URLs and trains four models.  The artifact store
persists everything a serving front end needs so the run happens once:

- the cleaned snapshot (NVD JSON feed format, gzip level 6, written
  by the streaming :func:`repro.nvd.save_feed` and read by
  :func:`repro.nvd.feed.load_feeds`),
- the trained severity models (``save``/``load`` weight serialization
  on each ``ml/`` model, bit-identical on round-trip),
- the vendor/product alias maps and per-CVE disclosure estimates,
- the cleaning report,
- a per-CVE id index: whether the CVE's v3 score is predicted (v2
  scored, no v3 vector) and its CWE labels,
- the row table: every feature row (v2 vector, first concrete CWE)
  the version's prediction scored, with its score: the only stored
  §4.3 score.  A CVE is served its row's score, and a later ingest or
  predict on that row looks the score up instead of running a model,
- the engine config plus its fingerprint, in a schema-checked manifest,
- in a base, the serving image (:mod:`repro.artifacts.image`): every
  CVE's exact ``/v1/cve`` body and the per-CVE rows the name index and
  ``/v1/stats`` aggregate, so a server never decodes the snapshot.

The JSON files (``manifest.json``, ``engine.json``, ``maps.json``,
``report.json`` and the gzip-compressed ``estimates``/``index``/
``row_scores``) are written compact, with sorted keys and no
indentation, so ``json``'s C encoder writes them; any JSON text loads,
so stores written indented by earlier versions still load.

Layout — one immutable directory per version, plus an atomic pointer.
:func:`export_run` writes either kind.  A **base** version (from
``clean()``, or when an ingest rebases) holds everything.  A
**segment** version (``segment_of=`` the loaded parent, one per ingest)
holds only the rectified delta and its per-CVE rows, plus the new
report::

    ROOT/
      CURRENT            # text file naming the live version
      v0001/             # base
        manifest.json    # schema, fingerprint, chain, per-file sha256
        snapshot.json.gz
        models/cnn.npz …
        engine.json
        maps.json
        estimates.json.gz
        index.json.gz
        row_scores.json.gz  # [[v2 vector, CWE label or null, score], …]
        report.json
        image/            # the serving image: bodies.bin, dictionary.bin,
                          # offsets.bin, rows.jsonl.gz
      v0002/             # segment on v0001
        manifest.json
        delta.json.gz    # the delta's items, same encoder as snapshot
        estimates.json.gz
        index.json.gz
        row_scores.json.gz  # only the rows this ingest scored
        report.json

A manifest's ``chain`` names the versions it builds on: its base, then
the segments before it, in order (empty for a base).  ``files`` lists
only the bytes the version wrote; ``inherited`` lists every file it
reads from its chain (``v0001/snapshot.json.gz`` …) with the sha256
copied from the parent's manifest.  :func:`load_artifacts` replays the
chain as an upsert by CVE id — base entries, then each segment's — the
order :meth:`repro.nvd.NvdSnapshot.merge` gives, decoding only each
id's newest item (:func:`repro.nvd.feed.load_feeds`); it decodes the
per-CVE files only when a caller first reads them.  The row tables
upsert the same way, by row, so a version's table holds every row it
serves.  A load checks every model file's hash but reads a model only
when something first scores with it (or a rebase writes it again).  An
ingest onto a chain of :data:`repro.artifacts.ingest.MAX_SEGMENTS`
segments writes a fresh base instead, so no chain grows past that.
Recovery (:mod:`repro.artifacts.recovery`) treats a version as valid
only when every file of its chain is, and its GC never deletes a
version a kept version's chain names.

A segment writes no image: a server overlays the segments' entries on
the base's image (:meth:`LoadedArtifacts.segment_entries`), so an
ingest's writes follow the delta.

This layout is the only one a load accepts: the manifest names its
``chain``, every link of it lists ``index.json.gz`` and
``row_scores.json.gz``, none lists a per-CVE ``predictions.json.gz``,
and the base lists its serving image.  A version written in an older
layout raises :class:`ArtifactError` naming the version and the file,
and saying to re-export the store; recovery does not quarantine it.

Writers stage into a temp directory and ``os.rename`` it into place,
then rewrite ``CURRENT`` via temp-file + ``os.replace`` — a reader (or
a crash) never observes a half-written version, and a running server
hot-swaps by re-reading the pointer.  Loaders verify the manifest
schema and every file hash of the chain; corruption raises
:class:`ArtifactError` instead of serving wrong answers.
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import gzip
import hashlib
import json
import os
import pathlib
import re
import shutil
import tempfile
import time
from collections.abc import Iterable, Iterator, Mapping
from typing import Any

from repro.artifacts.image import IMAGE_FILES, write_image
from repro.core.dates import DisclosureEstimate
from repro.core.severity import (
    SUPPORTED_MODELS,
    EngineConfig,
    RowKey,
    SeverityPredictionEngine,
)
from repro.ml import LinearRegression, Sequential, SupportVectorRegressor
from repro.nvd import CveEntry, NvdSnapshot, save_feed
from repro.nvd.feed import (
    gc_paused,
    load_feeds,
    open_text_writer,
    read_document,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactError",
    "LoadedArtifacts",
    "config_fingerprint",
    "export_run",
    "index_row",
    "list_versions",
    "load_artifacts",
    "read_current",
]

ARTIFACT_SCHEMA = "repro-artifacts/1"
CURRENT_POINTER = "CURRENT"

_VERSION_RE = re.compile(r"v(\d{4,})")

#: the entries file of a base version and of a segment version.
BASE_ITEMS = "snapshot.json.gz"
SEGMENT_ITEMS = "delta.json.gz"
#: the feature rows a version's prediction scored, with their scores.
ROW_SCORES = "row_scores.json.gz"

#: loader for each persisted model file (``models/<name>.npz``); keys
#: must cover :data:`repro.core.severity.SUPPORTED_MODELS` exactly.
_MODEL_LOADERS = {
    "lr": LinearRegression.load,
    "svr": SupportVectorRegressor.load,
    "cnn": Sequential.load,
    "dnn": Sequential.load,
}
assert set(_MODEL_LOADERS) == set(SUPPORTED_MODELS)


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
    # Reading into one reused buffer (as ``hashlib.file_digest`` does on
    # Python 3.11+) hashes a base about 20% faster than a new 1 MiB
    # bytes object per read.
    digest = hashlib.sha256()
    buffer = bytearray(1 << 18)
    view = memoryview(buffer)
    with path.open("rb", buffering=0) as handle:
        while size := handle.readinto(buffer):
            digest.update(view[:size])
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
        handle.write(json.dumps(payload, sort_keys=True))


def _read_json(path: pathlib.Path) -> Any:
    try:
        return read_document(path)
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
    """The version named by the ``CURRENT`` pointer (None when absent or
    not UTF-8 text: an undecodable pointer is as lost as a missing one)."""
    pointer = pathlib.Path(root) / CURRENT_POINTER
    try:
        name = pointer.read_text(encoding="utf-8").strip()
    except (OSError, UnicodeDecodeError):
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


def index_row(entry: CveEntry) -> list[Any]:
    """One CVE's id-index row: ``[predicted, cwe_ids]``, where
    ``predicted`` is 1 when its v3 score is predicted (v2 scored, no v3
    vector).  An ingest counts from these rows instead of the entries."""
    return [int(entry.cvss_v2 is not None and not entry.has_v3), list(entry.cwe_ids)]


def _write_entries(
    staging: pathlib.Path,
    items_name: str,
    entries: list[CveEntry],
    estimates: dict[str, DisclosureEstimate],
    row_scores: Mapping[RowKey, float],
) -> None:
    """The per-CVE files of one base or segment: entries, estimates and
    the id index, plus the scored feature rows."""
    # One new container per CVE; the collector would rescan every
    # object the caller holds (a whole loaded store, on a rebase).
    with gc_paused():
        save_feed(entries, staging / items_name)
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
            staging / "index.json.gz",
            {entry.cve_id: index_row(entry) for entry in entries},
        )
        _write_json(
            staging / ROW_SCORES,
            [[vector, cwe, score] for (vector, cwe), score in row_scores.items()],
        )


def _chain_files(version: str, manifest: dict[str, Any]) -> dict[str, Any]:
    """Every file ``version`` reads, by path under the store root: its
    own ``files`` and the ``inherited`` ones of its chain."""
    files = {f"{version}/{relpath}": meta for relpath, meta in manifest["files"].items()}
    files.update(manifest.get("inherited", {}))
    return files


def export_run(
    root: str | os.PathLike[str],
    *,
    snapshot: NvdSnapshot,
    engine: SeverityPredictionEngine,
    model_used: str,
    vendor_map: dict[str, str],
    product_map: dict[tuple[str, str], str],
    estimates: dict[str, DisclosureEstimate],
    row_scores: Mapping[RowKey, float],
    report: Any,
    source: str = "clean",
    parent: str | None = None,
    segment_of: LoadedArtifacts | None = None,
) -> str:
    """Persist one cleaning run as a new artifact version.

    Returns the new version name (``v0001``, …) after atomically
    renaming the staged directory into place and repointing
    ``CURRENT``.  ``report`` may be a :class:`CleaningReport` or a
    plain dict (the ingest path passes the loaded dict, updated).

    ``row_scores`` maps each feature row ``model_used`` scored to its
    score (:meth:`SeverityPredictionEngine.predict_scores`'s
    ``scored``); it is the only §4.3 output persisted.

    By default the version is a full base.  With ``segment_of`` (the
    loaded parent version) it is one segment on the parent's chain:
    ``snapshot``, ``estimates`` and ``row_scores`` hold only the
    delta's rows, and the parent's models and maps —
    which ``engine``, ``vendor_map`` and ``product_map`` must be — are
    inherited, not written, so no model is read.
    """
    root = pathlib.Path(root)
    if model_used not in engine.model_names:
        raise ArtifactError(
            f"model_used {model_used!r} is not among the trained models "
            f"{sorted(engine.model_names)}"
        )
    config = engine.config
    report_dict = dict(report) if isinstance(report, dict) else dataclasses.asdict(report)
    fields: dict[str, Any] = {
        "source": source,
        "parent": parent,
        "fingerprint": config_fingerprint(config),
        "model_used": model_used,
    }
    root.mkdir(parents=True, exist_ok=True)
    staging = pathlib.Path(
        tempfile.mkdtemp(dir=root, prefix=".stage-", suffix=".tmp")
    )
    try:
        if segment_of is None:
            _write_entries(staging, BASE_ITEMS, snapshot.entries, estimates, row_scores)
            write_image(staging, snapshot.entries, estimates, row_scores)
            models_dir = staging / "models"
            models_dir.mkdir()
            for name, model in sorted(engine.models.items()):
                model.save(models_dir / f"{name}.npz")
            _write_json(
                staging / "engine.json",
                {
                    "config": dataclasses.asdict(config),
                    "fingerprint": config_fingerprint(config),
                    "model_used": model_used,
                    "models": sorted(engine.model_names),
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
            fields.update(n_cves=len(snapshot), chain=[])
        else:
            _write_entries(
                staging, SEGMENT_ITEMS, snapshot.entries, estimates, row_scores
            )
            inherited = _chain_files(segment_of.version, segment_of.manifest)
            del inherited[f"{segment_of.version}/report.json"]  # superseded
            fields.update(
                n_cves=report_dict["n_cves"],
                chain=[*segment_of.manifest["chain"], segment_of.version],
                inherited=inherited,
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
                "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                **fields,
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


def _estimate(version_dir: pathlib.Path, cve_id: str, row: Any) -> DisclosureEstimate:
    try:
        published, estimated, n_dates = row
        return DisclosureEstimate(
            cve_id=cve_id,
            published=datetime.date.fromisoformat(published),
            estimated_disclosure=datetime.date.fromisoformat(estimated),
            n_reference_dates=int(n_dates),
        )
    except (TypeError, ValueError) as error:
        raise ArtifactError(f"{version_dir}: bad estimates: {error}") from None


class _StoredModels(Mapping[str, object]):
    """A base's persisted models by name, each read from its
    ``models/<name>.npz`` the first time it is looked up."""

    def __init__(self, base_dir: pathlib.Path, names: Iterable[str]) -> None:
        self._base_dir = base_dir
        self._names = tuple(names)
        self._read: dict[str, object] = {}

    def __getitem__(self, name: str) -> object:
        model = self._read.get(name)
        if model is None:
            if name not in self._names:
                raise KeyError(name)
            try:
                model = _MODEL_LOADERS[name](self._base_dir / "models" / f"{name}.npz")
            except (OSError, ValueError, KeyError) as error:
                raise ArtifactError(
                    f"{self._base_dir}: cannot load model {name!r}: {error}"
                ) from None
            self._read[name] = model
        return model

    def __contains__(self, name: object) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


@dataclasses.dataclass
class LoadedArtifacts:
    """One artifact version, rehydrated for serving — no retraining.

    :func:`load_artifacts` reads the manifest, maps and report.  The
    engine reads each model on first use, and the per-CVE data of the
    chain — ``snapshot``, ``estimates``, the id ``index`` and the
    ``row_scores`` table — is decoded on first use,
    so a caller pays only for what it reads: an ingest never decodes
    the snapshot, and reads a model only for rows the table lacks.
    Version directories are immutable, so a later read sees the bytes
    the load verified.
    """

    root: pathlib.Path
    version: str
    manifest: dict[str, Any]
    engine: SeverityPredictionEngine
    model_used: str
    vendor_map: dict[str, str]
    product_map: dict[tuple[str, str], str]
    report: dict[str, Any]
    #: the directory of the base, then of each segment, oldest first.
    chain_dirs: list[pathlib.Path] = dataclasses.field(repr=False)

    @property
    def config(self) -> EngineConfig:
        return self.engine.config

    @property
    def fingerprint(self) -> str:
        return self.manifest["fingerprint"]

    @property
    def n_segments(self) -> int:
        """Segments in this version's chain (0 for a base)."""
        return len(self.manifest["chain"])

    def _upserted(self, name: str, first: int = 0) -> dict[str, Any]:
        """The JSON object ``name`` of every chain link from ``first``
        on, later ones winning."""
        merged: dict[str, Any] = {}
        with gc_paused():
            for link_dir in self.chain_dirs[first:]:
                merged.update(_read_json(link_dir / name))
        return merged

    @functools.cached_property
    def snapshot(self) -> NvdSnapshot:
        base_dir, *segment_dirs = self.chain_dirs
        return NvdSnapshot(
            load_feeds([base_dir / BASE_ITEMS, *(d / SEGMENT_ITEMS for d in segment_dirs)])
        )

    @functools.cached_property
    def estimates(self) -> dict[str, DisclosureEstimate]:
        rows = self._upserted("estimates.json.gz")
        version_dir = self.root / self.version
        with gc_paused():
            return {
                cve_id: _estimate(version_dir, cve_id, row) for cve_id, row in rows.items()
            }

    def estimates_of(self, cve_ids: Iterable[str]) -> dict[str, DisclosureEstimate]:
        """The stored estimates of those ``cve_ids`` that have one,
        decoding only their rows."""
        rows = self._upserted("estimates.json.gz")
        version_dir = self.root / self.version
        return {
            cve_id: _estimate(version_dir, cve_id, rows[cve_id])
            for cve_id in cve_ids
            if cve_id in rows
        }

    def segment_entries(self) -> tuple[list[CveEntry], dict[str, DisclosureEstimate]]:
        """What the chain's segments hold, decoding none of the base:
        each CVE id's newest entry, in upsert order, and its estimate.
        A server overlays them on the base's serving image."""
        segment_dirs = self.chain_dirs[1:]
        if not segment_dirs:
            return [], {}
        entries = load_feeds(d / SEGMENT_ITEMS for d in segment_dirs)
        rows = self._upserted("estimates.json.gz", first=1)
        version_dir = self.root / self.version
        return entries, {
            cve_id: _estimate(version_dir, cve_id, row) for cve_id, row in rows.items()
        }

    @functools.cached_property
    def index(self) -> dict[str, list[Any]]:
        """CVE id → :func:`index_row` over the whole chain."""
        return self._upserted("index.json.gz")

    @functools.cached_property
    def row_scores(self) -> dict[RowKey, float]:
        """Feature row → the score ``model_used`` gave it, over every
        row the chain's predictions scored."""
        table: dict[RowKey, float] = {}
        for link_dir in self.chain_dirs:
            try:
                table.update(
                    ((vector, cwe), float(score))
                    for vector, cwe, score in _read_json(link_dir / ROW_SCORES)
                )
            except (TypeError, ValueError) as error:
                raise ArtifactError(f"{link_dir}: bad row scores: {error}") from None
        return table


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
    chain = manifest.get("chain", [])
    if not (
        isinstance(chain, list)
        and all(isinstance(link, str) and _VERSION_RE.fullmatch(link) for link in chain)
        and isinstance(manifest.get("inherited", {}), dict)
    ):
        raise ArtifactError(f"{manifest_path}: malformed chain")
    root = version_dir.parent
    for relpath, meta in _chain_files(version, manifest).items():
        path = root / relpath
        if not path.is_file():
            raise ArtifactError(f"{version_dir}: missing artifact file {relpath}")
        if verify_hashes and _sha256(path) != meta.get("sha256"):
            raise ArtifactError(
                f"{version_dir}: checksum mismatch for {relpath} "
                "(corrupt or tampered artifact)"
            )
    return manifest


def _check_layout(version_dir: pathlib.Path, version: str, manifest: dict[str, Any]) -> None:
    """Reject a version written in a layout this code no longer reads:
    a manifest without ``chain``, a chain link that lacks the id index
    or the row table, or lists a per-CVE ``predictions.json.gz``, or a
    base without the serving image."""
    if "chain" not in manifest:
        raise ArtifactError(
            f"{version_dir}: version {version} has no chain in manifest.json "
            "(an older store layout); re-export the store"
        )
    listed = _chain_files(version, manifest)
    expected = (("index.json.gz", True), (ROW_SCORES, True), ("predictions.json.gz", False))
    links = (*manifest["chain"], version)
    checks = [(link, name, wanted) for link in links for name, wanted in expected]
    checks += [(links[0], name, True) for name in IMAGE_FILES]
    for link, name, wanted in checks:
        if (f"{link}/{name}" in listed) != wanted:
            raise ArtifactError(
                f"{version_dir}: version {link} "
                f"{'lacks' if wanted else 'lists'} {name} "
                "(an older store layout); re-export the store"
            )


def load_artifacts(
    root: str | os.PathLike[str], version: str | None = None
) -> LoadedArtifacts:
    """Rehydrate one artifact version (default: the ``CURRENT`` one).

    This is the serving cold-start path: the snapshot, alias maps,
    estimates, row scores and trained models are all read from disk —
    no crawling, no pair scoring, no training — each when first used.
    A segment version's chain replays as an upsert by CVE id, base
    first.  Every file of the chain, model files included, is checked
    against its manifest sha256 first, and a version in an older layout
    (see the module docstring) is rejected before anything is decoded.
    """
    root = pathlib.Path(root)
    version = _resolve_version(root, version)
    version_dir = root / version
    if not version_dir.is_dir():
        raise ArtifactError(f"artifact version {version!r} not found under {root}")
    manifest = _verify_manifest(version_dir, version, verify_hashes=True)
    _check_layout(version_dir, version, manifest)
    chain_dirs = [root / link for link in (*manifest["chain"], version)]
    base_dir = chain_dirs[0]

    engine_doc = _read_json(base_dir / "engine.json")
    config_doc = dict(engine_doc["config"])
    config_doc["models"] = tuple(config_doc.get("models", ()))
    try:
        config = EngineConfig(**config_doc)
    except TypeError as error:
        raise ArtifactError(f"{base_dir}: bad engine config: {error}") from None
    unknown = [name for name in engine_doc["models"] if name not in _MODEL_LOADERS]
    if unknown:
        raise ArtifactError(f"{base_dir}: unknown persisted model {unknown[0]!r}")
    models = _StoredModels(base_dir, engine_doc["models"])
    engine = SeverityPredictionEngine.from_models(config, models)
    model_used = engine_doc["model_used"]
    if model_used not in models:
        raise ArtifactError(
            f"{base_dir}: model_used {model_used!r} has no persisted weights"
        )

    maps_doc = _read_json(base_dir / "maps.json")
    return LoadedArtifacts(
        root=root,
        version=version,
        manifest=manifest,
        engine=engine,
        model_used=model_used,
        vendor_map=dict(maps_doc.get("vendor", {})),
        product_map={
            (vendor, product): canonical
            for vendor, product, canonical in maps_doc.get("product", ())
        },
        report=_read_json(version_dir / "report.json"),
        chain_dirs=chain_dirs,
    )
