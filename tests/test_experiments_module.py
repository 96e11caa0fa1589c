"""The shared experiment-setup module."""

import pytest

import repro.experiments as experiments


class TestScale:
    def test_paper_scale_constant(self):
        assert experiments.PAPER_SCALE_CVES == 107_200

    def test_scale_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert experiments.scale() == 0.5

    def test_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert 0.0 < experiments.scale() <= 1.0


class TestBundleCaching:
    def test_same_arguments_same_object(self):
        a = experiments.default_bundle(n_cves=2000, seed=1)
        b = experiments.default_bundle(n_cves=2000, seed=1)
        assert a is b

    def test_explicit_size_respected(self):
        bundle = experiments.default_bundle(n_cves=2000, seed=1)
        assert len(bundle.snapshot) == 2000
