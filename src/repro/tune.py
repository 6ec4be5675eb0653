"""Input-adaptive format and parameter selection.

The paper frames format choice as data-dependent ("the best choice of
format depends on the sparsity pattern of a tensor, operations applied,
and the time required to translate between them") and cites input-adaptive
selection (SMAT, PLDI'13; model-driven CPD, IPDPS'17).  This module turns
the suite's cost models into a recommender: given a tensor's features and
the kernel mix, score each format's storage and modeled execution and pick
the winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.types import (
    BPTR_BYTES,
    DEFAULT_RANK,
    EINDEX_BYTES,
    INDEX_BYTES,
    VALUE_BYTES,
    Format,
    Kernel,
)
from repro.bench.cpumodel import modeled_cpu_time
from repro.roofline.oi import TensorFeatures, extract_features
from repro.roofline.platform import BLUESKY, PlatformSpec
from repro.sptensor.coo import COOTensor
from repro.sptensor.hicoo import HiCOOTensor


@dataclass(frozen=True)
class FormatScore:
    """One candidate format's storage and modeled runtime."""

    fmt: Format
    storage_bytes: float
    modeled_seconds: float
    notes: str = ""


@dataclass(frozen=True)
class Recommendation:
    """The tuner's verdict."""

    fmt: Format
    block_size: int
    scores: tuple[FormatScore, ...]
    alpha: float  # mean nnz per HiCOO block at the chosen block size

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        lines = [f"recommended format: {self.fmt.value} (B={self.block_size})"]
        for s in self.scores:
            lines.append(
                f"  {s.fmt.value:7s} storage {s.storage_bytes / 1e6:8.3f} MB  "
                f"modeled {s.modeled_seconds * 1e3:8.3f} ms  {s.notes}"
            )
        return "\n".join(lines)


def storage_bytes(features: TensorFeatures, fmt: Format) -> float:
    """Paper storage models per format from the feature vector."""
    n = features.order
    m = features.nnz
    if fmt is Format.COO:
        return float((n * INDEX_BYTES + VALUE_BYTES) * m)
    if fmt is Format.HICOO:
        return float(
            features.nb * (BPTR_BYTES + n * INDEX_BYTES)
            + m * (n * EINDEX_BYTES + VALUE_BYTES)
        )
    raise ValueError(f"no storage model for {fmt}")


def score_formats(
    features: TensorFeatures,
    kernels: Sequence[Kernel] = (Kernel.MTTKRP,),
    platform: PlatformSpec = BLUESKY,
    r: int = DEFAULT_RANK,
) -> list[FormatScore]:
    """Modeled total runtime of the kernel mix in each candidate format."""
    scores = []
    for fmt in (Format.COO, Format.HICOO):
        total = sum(
            modeled_cpu_time(platform, k, fmt, features, r).total_s
            for k in kernels
        )
        alpha = features.nnz / max(features.nb, 1)
        note = ""
        if fmt is Format.HICOO and alpha < 1.5:
            note = "hypersparse: ~1 nnz/block, HiCOO metadata dominates"
        scores.append(
            FormatScore(fmt, storage_bytes(features, fmt), total, note)
        )
    return scores


def recommend_block_size(
    tensor: COOTensor,
    candidates: Sequence[int] = (32, 64, 128, 256),
    min_alpha: float = 1.5,
) -> tuple[int, float]:
    """Smallest candidate block size reaching ``min_alpha`` occupancy
    (small blocks localize best, but under-full blocks waste metadata);
    falls back to the largest candidate."""
    best_b, best_alpha = max(candidates), 0.0
    for b in sorted(candidates):
        h = HiCOOTensor.from_coo(tensor, b)
        alpha = tensor.nnz / max(h.nblocks, 1)
        if alpha >= min_alpha:
            return b, alpha
        best_alpha = alpha
    return best_b, best_alpha


def recommend_format(
    tensor: COOTensor,
    kernels: Sequence["Kernel | str"] = (Kernel.MTTKRP,),
    platform: PlatformSpec = BLUESKY,
    r: int = DEFAULT_RANK,
    block_size: int | None = None,
    storage_weight: float = 0.3,
) -> Recommendation:
    """Pick COO or HiCOO for this tensor and kernel mix.

    The score blends modeled runtime with storage (normalized to the COO
    baseline, weighted by ``storage_weight``) — mirroring the paper's
    framing that format choice trades space against kernel speed.
    """
    kernels = [Kernel.coerce(k) for k in kernels]
    if block_size is None:
        block_size, _ = recommend_block_size(tensor)
    hicoo = HiCOOTensor.from_coo(tensor, block_size)
    features = extract_features(tensor, "tune", block_size, hicoo)
    scores = score_formats(features, kernels, platform, r)
    coo_score = next(s for s in scores if s.fmt is Format.COO)

    def blended(s: FormatScore) -> float:
        t = s.modeled_seconds / max(coo_score.modeled_seconds, 1e-30)
        b = s.storage_bytes / max(coo_score.storage_bytes, 1.0)
        return (1 - storage_weight) * t + storage_weight * b

    winner = min(scores, key=blended)
    return Recommendation(
        fmt=winner.fmt,
        block_size=block_size,
        scores=tuple(scores),
        alpha=features.nnz / max(features.nb, 1),
    )
