"""Persisted cleaning artifacts: the batch→serving bridge.

``repro.core.clean`` is a batch pipeline; this package makes its
output durable and incrementally updatable:

- :mod:`repro.artifacts.store` — the versioned on-disk store: full
  base versions and ingest segments on them (`export_run`),
  `load_artifacts` replaying a version's chain, atomic ``CURRENT``
  pointer, schema-checked manifest with per-file hashes;
- :mod:`repro.artifacts.ingest` — `ingest_delta`, which cleans only
  new/changed CVEs with the persisted models and maps, then writes
  them as one segment version for a running server to hot-swap onto;
- :mod:`repro.artifacts.recovery` — `recover_store`, the crash-recovery
  sweep (quarantine torn versions and the segments on them, repair
  ``CURRENT``, GC stale versions no kept chain reads).

The serving front end lives in :mod:`repro.service`.
"""

from repro.artifacts.ingest import IngestResult, ingest_delta
from repro.artifacts.recovery import RecoveryReport, recover_store
from repro.artifacts.store import (
    ARTIFACT_SCHEMA,
    ArtifactError,
    LoadedArtifacts,
    config_fingerprint,
    export_run,
    list_versions,
    load_artifacts,
    read_current,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactError",
    "IngestResult",
    "LoadedArtifacts",
    "RecoveryReport",
    "config_fingerprint",
    "export_run",
    "ingest_delta",
    "list_versions",
    "load_artifacts",
    "read_current",
    "recover_store",
]
