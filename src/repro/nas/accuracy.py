"""Analytical ImageNet-accuracy predictor for the OFA ResNet space.

The real NAAS queries a trained Once-For-All supernet; the search only
needs a black-box ``arch -> top-1`` oracle that is monotone in capacity
and saturates. This predictor is a calibrated log-linear capacity model:

- anchored at ResNet-50 (w=1.0, depths 3-4-6-3, e=0.25, 224px) = 76.1%,
  the published torchvision/OFA reference;
- the largest subnet (w=1.0, 18 blocks, e=0.35, 256px) lands at ~79.1%,
  matching the ~79% OFA-large / NAAS Fig 10 top point;
- a deterministic per-architecture jitter (+-0.1%) stands in for subnet
  variance so equal-capacity architectures are not exactly tied.

Accuracy is clamped to a plausible [55, 82] band. Substituting any other
monotone saturating oracle exercises identical search code paths (see
DESIGN.md).
"""

from __future__ import annotations

import hashlib
import math

from repro.nas.ofa_space import ResNetArch
from repro.utils.mathutils import fold_sum

_ANCHOR_ACC = 76.1  # ResNet-50 top-1
_W_COEF = 4.8
_D_COEF = 3.5
_R_COEF = 10.0
_E_COEF = 4.5
_JITTER = 0.1
_FLOOR, _CEIL = 55.0, 82.0
_REFERENCE_BLOCKS = 16  # ResNet-50 depth (3+4+6+3)
_REFERENCE_EXPAND = 0.25
_REFERENCE_IMAGE = 224


class AccuracyPredictor:
    """Deterministic ``ResNetArch -> top-1 accuracy (%)`` oracle."""

    def predict(self, arch: ResNetArch) -> float:
        """Top-1 ImageNet accuracy estimate in percent."""
        expands = arch.active_expand_ratios()
        mean_expand = fold_sum(expands) / len(expands)
        raw = (_ANCHOR_ACC
               + _W_COEF * math.log(arch.width_mult)
               + _D_COEF * math.log(arch.total_blocks / _REFERENCE_BLOCKS)
               + _R_COEF * math.log(arch.image_size / _REFERENCE_IMAGE)
               + _E_COEF * math.log(mean_expand / _REFERENCE_EXPAND))
        raw += self._jitter(arch)
        # Soft saturation toward the ceiling: gains shrink near the top.
        if raw > _ANCHOR_ACC:
            headroom = _CEIL - _ANCHOR_ACC
            raw = _ANCHOR_ACC + headroom * math.tanh(
                (raw - _ANCHOR_ACC) / headroom)
        return min(_CEIL, max(_FLOOR, raw))

    def _jitter(self, arch: ResNetArch) -> float:
        """Deterministic pseudo-random offset in [-_JITTER, +_JITTER]."""
        payload = (f"{arch.width_mult}|{arch.image_size}|"
                   f"{arch.blocks_per_stage}|{arch.expand_ratios}")
        digest = hashlib.sha256(payload.encode()).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        return (2 * unit - 1) * _JITTER

    def __call__(self, arch: ResNetArch) -> float:
        return self.predict(arch)


def reference_accuracy() -> float:
    """The predictor's anchor: ResNet-50 top-1 (%)."""
    return _ANCHOR_ACC
