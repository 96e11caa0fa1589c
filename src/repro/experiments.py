"""Shared experiment setup for benchmarks and examples.

All of the paper's tables and figures are measured against the same
snapshot, so benchmarks share one generated bundle and one cleaning
run.  ``REPRO_SCALE`` scales the CVE population (1.0 = the paper's
107.2K CVEs; the default 0.075 ≈ 8K keeps a full benchmark run in
minutes on a laptop).
"""

from __future__ import annotations

import functools
import math
import os

from repro.core import (
    EngineConfig,
    RectifiedNvd,
    clean,
    from_ground_truth,
    product_oracle_from_truth,
)
from repro.synth import GeneratorConfig, SyntheticNvd, generate

__all__ = [
    "MAX_SCALE",
    "PAPER_SCALE_CVES",
    "default_bundle",
    "default_rectified",
    "scale",
]

#: The paper's snapshot size (§3).
PAPER_SCALE_CVES = 107_200

#: Ceiling on the experiment scale — the same 4x bound the scenario
#: engine's ``scale`` parameter declares (`repro.synth.scenario`'s
#: ``MAX_N_CVES`` = 4 x 107.2K).  Generator and pipeline memory grow
#: linearly with the population, so scales past this are an accidental
#: OOM, not an experiment.
MAX_SCALE = 4.0


def scale() -> float:
    """The configured experiment scale (``REPRO_SCALE`` env var).

    1.0 reproduces the paper's 107.2K-CVE snapshot; the default 0.075
    keeps a laptop benchmark run in minutes.  Raises :class:`ValueError`
    for values that are not positive finite numbers — or exceed
    :data:`MAX_SCALE` — so a typo in the environment fails loudly
    instead of producing an empty, absurd, or memory-exhausting
    snapshot.
    """
    raw = os.environ.get("REPRO_SCALE", "0.075")
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(
            f"REPRO_SCALE must be a number, got {raw!r}"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise ValueError(
            f"REPRO_SCALE must be a positive finite number, got {raw!r}"
        )
    if value > MAX_SCALE:
        raise ValueError(
            f"REPRO_SCALE={raw} exceeds the {MAX_SCALE} ceiling "
            f"({int(PAPER_SCALE_CVES * MAX_SCALE)} CVEs): memory grows "
            "linearly with the population.  Use the scenario engine's "
            "'scale' parameter (bounded by the same schema) for "
            "populations past the paper's snapshot."
        )
    return value


@functools.lru_cache(maxsize=2)
def default_bundle(n_cves: int | None = None, seed: int = 2018) -> SyntheticNvd:
    """The shared synthetic bundle at the configured scale."""
    if n_cves is None:
        n_cves = max(2000, int(PAPER_SCALE_CVES * scale()))
    return generate(GeneratorConfig(n_cves=n_cves, seed=seed))


@functools.lru_cache(maxsize=2)
def default_rectified(
    n_cves: int | None = None,
    seed: int = 2018,
    epochs: int | None = None,
) -> RectifiedNvd:
    """The shared cleaning run over :func:`default_bundle`."""
    bundle = default_bundle(n_cves, seed)
    if epochs is None:
        epochs = int(os.environ.get("REPRO_EPOCHS", "40"))
    return clean(
        bundle.snapshot,
        bundle.web,
        from_ground_truth(bundle.truth.vendor_map),
        product_oracle_from_truth(bundle.truth.product_map),
        engine_config=EngineConfig(epochs=epochs),
    )
