"""Shared fixtures: one small synthetic bundle per test session."""

from __future__ import annotations

import pytest

from repro.synth import GeneratorConfig, generate


@pytest.fixture(scope="session")
def bundle():
    """A small, fully generated synthetic NVD bundle."""
    return generate(GeneratorConfig(n_cves=1500, seed=42))


@pytest.fixture(scope="session")
def small_rectified(bundle):
    """One fast cleaning run shared by the artifact/service suites."""
    from repro.core import (
        EngineConfig,
        clean,
        from_ground_truth,
        product_oracle_from_truth,
    )

    return clean(
        bundle.snapshot,
        bundle.web,
        from_ground_truth(bundle.truth.vendor_map),
        product_oracle_from_truth(bundle.truth.product_map),
        engine_config=EngineConfig(epochs=4, models=("lr", "dnn"), seed=2),
    )


@pytest.fixture(scope="session")
def artifact_root(tmp_path_factory, small_rectified):
    """A read-only artifact store holding the shared cleaning run.

    Tests that mutate a store (ingest, corruption) must copy this tree
    into their own tmp dir first.
    """
    root = tmp_path_factory.mktemp("artifacts")
    small_rectified.export_artifacts(root)
    return root


@pytest.fixture(scope="session")
def service(artifact_root):
    """An in-process query service over the read-only store."""
    from repro.service import NvdService

    service = NvdService(artifact_root, reload_interval=0.0)
    yield service
    service.close()


@pytest.fixture(scope="session")
def snapshot(bundle):
    return bundle.snapshot


@pytest.fixture(scope="session")
def truth(bundle):
    return bundle.truth


@pytest.fixture(scope="session")
def web(bundle):
    return bundle.web
