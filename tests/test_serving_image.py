"""The serving image: a server answers every GET from a base's image
(plus its segments' entries) byte for byte as the decoded snapshot
would, and never decodes the snapshot to do it."""

import dataclasses
import json
import shutil
import urllib.parse

import pytest

from repro.artifacts import (
    ArtifactError,
    LoadedArtifacts,
    ingest_delta,
    list_versions,
    load_artifacts,
    read_current,
)
from repro.artifacts import ingest as ingest_module
from repro.artifacts import store as store_module
from repro.artifacts.image import cve_body
from repro.cli import main
from repro.core.severity import row_key
from repro.cwe import is_sentinel
from repro.service import NvdService
from repro.service.cursor import encode_cursor

LIMIT = 7


@pytest.fixture()
def store(artifact_root, tmp_path):
    """A private, mutable copy of the shared artifact store."""
    root = tmp_path / "store"
    shutil.copytree(artifact_root, root)
    return root


def _build_delta(entries, n_new, n_mutate, seed):
    """``tools/make_delta_feed.build_delta``."""
    import importlib.util
    import pathlib

    tool = pathlib.Path(__file__).parent.parent / "tools" / "make_delta_feed.py"
    spec = importlib.util.spec_from_file_location("make_delta_feed", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_delta(entries, n_new, n_mutate, seed)


def _chain_of(root, version):
    return json.loads((root / version / "manifest.json").read_text())["chain"]


def _quote(name: str) -> str:
    return urllib.parse.quote(name, safe="")


def _body(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _page(ids, offset, limit, version):
    window = ids[offset : offset + limit]
    next_offset = offset + limit if offset + limit < len(ids) else None
    return {
        "n_cves": len(ids),
        "cve_ids": window,
        "offset": offset,
        "limit": limit,
        "next_offset": next_offset,
        "next_cursor": None if next_offset is None else encode_cursor(version, next_offset),
        "truncated": len(window) < len(ids),
    }


class Oracle:
    """Every GET answer of a version, rendered from its decoded snapshot
    and estimates with plain scans."""

    def __init__(self, root):
        loaded = load_artifacts(root)
        self.version = loaded.version
        self.vendor_map = loaded.vendor_map
        self.product_map = loaded.product_map
        entries = loaded.snapshot.entries
        self.entries = entries
        self.cves = {
            entry.cve_id: cve_body(
                entry,
                loaded.estimates.get(entry.cve_id),
                None if entry.cvss_v2 is None else loaded.row_scores[row_key(entry)],
            )
            for entry in entries
        }
        self.vendor_ids: dict[str, list[str]] = {}
        self.pair_ids: dict[tuple[str, str], list[str]] = {}
        for entry in entries:
            for vendor in entry.vendors:
                self.vendor_ids.setdefault(vendor, []).append(entry.cve_id)
            for pair in entry.vendor_products():
                self.pair_ids.setdefault(pair, []).append(entry.cve_id)
        years = [entry.published.year for entry in entries]
        self.stats = _body({
            "n_cves": len(entries),
            "n_vendors": len(self.vendor_ids),
            "n_products": len({p for entry in entries for p in entry.products}),
            "n_cwe_types": len({
                label for entry in entries for label in entry.cwe_ids
                if not is_sentinel(label)
            }),
            "n_with_v3": sum(entry.cvss_v3 is not None for entry in entries),
            "n_with_v2": sum(entry.cvss_v2 is not None for entry in entries),
            "n_references": sum(len(entry.references) for entry in entries),
            "year_range": [min(years), max(years)],
        })

    def vendor(self, name, offset, limit):
        canonical = self.vendor_map.get(name, name)
        ids = self.vendor_ids.get(canonical)
        if not ids:
            return 404, _body({"error": f"unknown vendor {name!r}"})
        return 200, _body({
            "vendor": canonical,
            "queried": name,
            "aliases": sorted(a for a, c in self.vendor_map.items() if c == canonical),
            **_page(ids, offset, limit, self.version),
            "products": sorted({p for v, p in self.pair_ids if v == canonical}),
        })

    def product(self, vendor, product, offset, limit):
        canonical_vendor = self.vendor_map.get(vendor, vendor)
        canonical = self.product_map.get((canonical_vendor, product), product)
        ids = self.pair_ids.get((canonical_vendor, canonical))
        if not ids:
            return 404, _body({"error": f"unknown product {vendor!r}/{product!r}"})
        return 200, _body({
            "vendor": canonical_vendor,
            "product": canonical,
            "queried": [vendor, product],
            **_page(ids, offset, limit, self.version),
        })


def _assert_walks(service, path, expected_at):
    """The default page, then a ``limit=7`` cursor walk, of one view."""
    response = service.handle("GET", path, None)
    assert (response.status, response.body) == expected_at(0, 500), path
    offset, cursor = 0, ""
    while True:
        response = service.handle("GET", f"{path}?limit={LIMIT}{cursor}", None)
        assert (response.status, response.body) == expected_at(offset, LIMIT), path
        if response.status != 200:
            return
        next_cursor = json.loads(response.body)["next_cursor"]
        if next_cursor is None:
            return
        offset, cursor = offset + LIMIT, f"&cursor={next_cursor}"


def _assert_serves_like(service, oracle):
    assert service.state.version == oracle.version
    assert service.handle("GET", "/v1/stats", None).body == oracle.stats
    for cve_id, body in oracle.cves.items():
        response = service.handle("GET", f"/v1/cve/{cve_id}", None)
        assert (response.status, response.body) == (200, body), cve_id
    assert service.handle("GET", "/v1/cve/CVE-1999-99999", None).status == 404
    names = {*oracle.vendor_ids, *oracle.vendor_map, "no-such-vendor"}
    for name in sorted(names):
        _assert_walks(
            service,
            f"/v1/vendor/{_quote(name)}",
            lambda offset, limit: oracle.vendor(name, offset, limit),
        )
    aliases_of: dict[str, list[str]] = {}
    for alias, canonical in oracle.vendor_map.items():
        aliases_of.setdefault(canonical, []).append(alias)
    queries = {*oracle.pair_ids, *oracle.product_map, ("no", "such")}
    for vendor, product in oracle.pair_ids:  # each pair through a vendor alias
        queries.update((alias, product) for alias in aliases_of.get(vendor, ()))
    assert len(queries) > len(oracle.pair_ids) + 1  # alias queries were made
    for vendor, product in sorted(queries):
        _assert_walks(
            service,
            f"/v1/product/{_quote(vendor)}/{_quote(product)}",
            lambda offset, limit: oracle.product(vendor, product, offset, limit),
        )


def _revised_vendor(entry, vendor):
    return entry.replace(
        cpes=tuple(
            dataclasses.replace(cpe, vendor=vendor) if isinstance(cpe.vendor, str) else cpe
            for cpe in entry.cpes
        )
    )


def _chain(root):
    """Three segments on the session store: one revision moves a CVE to
    another vendor, one drops a CVE's v2 vector, and the third revises
    the first's CVE again."""
    entries = load_artifacts(root).snapshot.entries
    vendors = sorted({v for e in entries for v in e.vendors})
    moved = next(e for e in entries if e.vendors and e.vendors[0] != vendors[0])
    dropped = next(e for e in entries if e.cvss_v2 is not None and e is not moved)
    revisions = [
        [_revised_vendor(moved, vendors[0])],
        [dropped.replace(cvss_v2=None)],
        [_revised_vendor(moved, vendors[0]).replace(descriptions=("Revised twice.",))],
    ]
    for seed, revision in enumerate(revisions, start=1):
        current = load_artifacts(root).snapshot.entries
        delta = _build_delta(current, 6, 4, seed)
        revised = {e.cve_id for e in revision}
        ingest_delta(root, [*(e for e in delta if e.cve_id not in revised), *revision])
    assert _chain_of(root, read_current(root)) == ["v0001", "v0002", "v0003"]
    served = load_artifacts(root).snapshot
    assert vendors[0] in served[moved.cve_id].vendors
    assert served[dropped.cve_id].cvss_v2 is None


def _rebased(root, monkeypatch):
    entries = load_artifacts(root).snapshot.entries
    with monkeypatch.context() as patch:
        patch.setattr(ingest_module, "MAX_SEGMENTS", 0)
        ingest_delta(root, _build_delta(entries, 6, 4, seed=4))
    assert read_current(root) == "v0002"
    assert _chain_of(root, "v0002") == []


@pytest.mark.parametrize("kind", ["session", "chain", "rebased"])
def test_served_bodies_equal_the_snapshot_oracle(kind, store, monkeypatch):
    root = store
    if kind == "chain":
        _chain(root)
    elif kind == "rebased":
        _rebased(root, monkeypatch)
    oracle = Oracle(root)

    feeds: list[list[str]] = []
    real_load_feeds = store_module.load_feeds

    def recording_load_feeds(paths):
        paths = list(paths)
        feeds.append([f"{p.parent.name}/{p.name}" for p in paths])
        return real_load_feeds(paths)

    def forbidden(self):
        raise AssertionError("the server read the decoded snapshot or estimates")

    with monkeypatch.context() as patch:
        patch.setattr(store_module, "load_feeds", recording_load_feeds)
        patch.setattr(LoadedArtifacts, "snapshot", property(forbidden))
        patch.setattr(LoadedArtifacts, "estimates", property(forbidden))
        service = NvdService(root, reload_interval=0.0)
        try:
            _assert_serves_like(service, oracle)
        finally:
            service.close()
    if kind == "chain":  # only the segments' feeds, once
        assert feeds == [["v0002/delta.json.gz", "v0003/delta.json.gz", "v0004/delta.json.gz"]]
    else:
        assert feeds == []


def test_flipped_body_byte_fails_the_load_and_is_quarantined(store, capsys):
    path = store / "v0001" / "image" / "bodies.bin"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(
        ArtifactError, match=r"checksum mismatch for v0001/image/bodies\.bin"
    ):
        load_artifacts(store)
    assert main(["recover", "--artifacts", str(store), "--verify-hashes"]) == 0
    assert "quarantined v0001" in capsys.readouterr().out
    assert list_versions(store) == []
    assert (store / ".quarantine" / "v0001" / "image" / "bodies.bin").is_file()

