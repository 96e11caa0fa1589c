"""Crash-recovery sweep for the versioned artifact store.

A writer can die at any point: staging directories (`.stage-*.tmp`)
leak when a crash precedes the rename, a torn version directory
appears when the crash lands mid-publish, and the ``CURRENT`` pointer
can be lost or left naming a version that never finished.  The store's
atomic-rename protocol guarantees readers never observe a half-written
*live* version, but the debris still accumulates and — if ``CURRENT``
is lost — the newest-version fallback could land on a torn directory.

:func:`recover_store` makes the store self-healing:

1. **staging cleanup** — leftover ``.stage-*.tmp`` directories are
   deleted (they were never visible to readers);
2. **quarantine** — every version directory is validated, oldest
   first, against its manifest: every file of its chain — its own and
   those it inherits from its base and earlier segments — must be
   present (and match its hash with ``verify_hashes=True``).  Invalid
   ones are *moved* to ``ROOT/.quarantine/`` rather than deleted, so a
   forensic look at what went wrong stays possible; a segment version
   whose base was quarantined loses inherited files and follows it;
3. **pointer repair** — if ``CURRENT`` is missing or names a version
   that did not survive validation, it is rewritten to the newest
   valid version (or removed when none survive);
4. **GC** — with ``keep=N``, valid versions beyond the newest ``N``
   are deleted, except the ``CURRENT`` target and every version the
   chain of a kept version names.

The sweep is idempotent and cheap enough to run on every ingest entry;
``repro recover`` exposes it on the command line.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import shutil

from repro.artifacts.store import (
    ArtifactError,
    CURRENT_POINTER,
    _atomic_write_text,
    _verify_manifest,
    list_versions,
    read_current,
)

__all__ = ["RecoveryReport", "recover_store"]


@dataclasses.dataclass(frozen=True, slots=True)
class RecoveryReport:
    """What one recovery sweep found and fixed."""

    root: str
    staging_removed: tuple[str, ...]
    quarantined: tuple[str, ...]
    gc_removed: tuple[str, ...]
    valid_versions: tuple[str, ...]
    current_before: str | None
    current_after: str | None

    @property
    def acted(self) -> bool:
        """True when the sweep changed anything on disk."""
        return bool(
            self.staging_removed
            or self.quarantined
            or self.gc_removed
            or self.current_before != self.current_after
        )

    def summary(self) -> str:
        """A one-line human summary (the CLI prints this)."""
        if not self.acted:
            return f"{self.root}: clean ({len(self.valid_versions)} valid versions)"
        parts = []
        if self.staging_removed:
            parts.append(f"removed {len(self.staging_removed)} staging dirs")
        if self.quarantined:
            parts.append(f"quarantined {', '.join(self.quarantined)}")
        if self.current_before != self.current_after:
            parts.append(
                f"repaired CURRENT {self.current_before or '<missing>'} -> "
                f"{self.current_after or '<none>'}"
            )
        if self.gc_removed:
            parts.append(f"gc'd {', '.join(self.gc_removed)}")
        return f"{self.root}: " + "; ".join(parts)


def _quarantine(root: pathlib.Path, version_dir: pathlib.Path) -> None:
    pen = root / ".quarantine"
    pen.mkdir(exist_ok=True)
    target = pen / version_dir.name
    suffix = 1
    while target.exists():
        suffix += 1
        target = pen / f"{version_dir.name}-{suffix}"
    os.rename(version_dir, target)


def recover_store(
    root: str | os.PathLike[str],
    *,
    keep: int | None = None,
    verify_hashes: bool = False,
) -> RecoveryReport:
    """Sweep ``root`` for crash debris and repair the ``CURRENT`` pointer.

    Safe on a missing or empty store (reports nothing to do).  With
    ``keep=N`` the sweep also garbage-collects valid versions beyond
    the newest ``N``; neither the ``CURRENT`` target nor a version
    whose files a kept version reads is ever collected.
    """
    root = pathlib.Path(root)
    current_before = read_current(root)
    if not root.is_dir():
        return RecoveryReport(
            root=str(root),
            staging_removed=(),
            quarantined=(),
            gc_removed=(),
            valid_versions=(),
            current_before=current_before,
            current_after=current_before,
        )

    staging_removed = []
    for child in sorted(root.iterdir()):
        if child.is_dir() and child.name.startswith(".stage-"):
            shutil.rmtree(child, ignore_errors=True)
            staging_removed.append(child.name)

    quarantined = []
    chains: dict[str, list[str]] = {}  # valid version -> versions it reads
    for version in list_versions(root):
        version_dir = root / version
        try:
            manifest = _verify_manifest(version_dir, version, verify_hashes)
        except ArtifactError:
            _quarantine(root, version_dir)
            quarantined.append(version)
        else:
            chains[version] = manifest.get("chain", [])
    valid = list(chains)

    current_after = current_before
    if current_before not in valid:
        if valid:
            current_after = valid[-1]
            _atomic_write_text(root / CURRENT_POINTER, current_after + "\n")
        else:
            current_after = None
            (root / CURRENT_POINTER).unlink(missing_ok=True)

    gc_removed = []
    if keep is not None and keep >= 1 and len(valid) > keep:
        kept = set(valid[-keep:])
        if current_after is not None:
            kept.add(current_after)
        protected = kept.union(*(chains[version] for version in kept))
        for version in valid:
            if version not in protected:
                shutil.rmtree(root / version, ignore_errors=True)
                gc_removed.append(version)
        valid = [version for version in valid if version not in gc_removed]

    return RecoveryReport(
        root=str(root),
        staging_removed=tuple(staging_removed),
        quarantined=tuple(quarantined),
        gc_removed=tuple(gc_removed),
        valid_versions=tuple(valid),
        current_before=current_before,
        current_after=current_after,
    )
