"""The five training objectives and their weighted aggregation.

Sign conventions for the adversarial terms: the discriminator loss is the
standard -[log s(real) + log(1 - s(fake))], and the generator loss is
the non-saturating -log s(fake).  Everything is computed through
softplus so no logit magnitude can overflow.

The content-preservation term compares activations of a frozen
random-weight conv pyramid (an established perceptual-distance proxy)
instead of a pretrained classifier, keeping the build hermetic: the
discriminators' conv trunk, its weights drawn once from a fixed published seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import discriminator as D
from . import tensor as T
from .errors import ContractError, DimensionError, DivergenceError
from .tensor import Tensor

# Fixed seed for the frozen feature extractor: the bytes "MSATR" read as a
# big-endian integer, so any implementation can reproduce the weights.
FEATURE_EXTRACTOR_SEED = int.from_bytes(b"MSATR", "big")


@dataclass(frozen=True)
class LossWeights:
    w_adv_global: float = 1.0
    w_adv_local: float = 1.0
    w_sfp: float = 1.0
    w_identity: float = 0.5
    w_luminance: float = 1.0

    def __post_init__(self):
        for name, v in self.to_dict().items():
            if not T._is_real(v) or v < 0:
                raise ContractError(f"loss weight {name} must be a finite real >= 0, got {v!r}")

    def to_dict(self) -> dict:
        return {f.name.removeprefix("w_"): getattr(self, f.name) for f in fields(self)}


LOSS_TERMS = tuple(LossWeights().to_dict())


class FeatureExtractor:
    """The discriminators' conv trunk, 3->8->16->32, frozen, with relu as leaky_relu slope 0.

    Weights are drawn once from FEATURE_EXTRACTOR_SEED and never trained;
    calling the extractor returns the three post-relu feature maps.
    """

    CHANNELS = (8, 16, 32)

    def __init__(self):
        rng = np.random.default_rng(FEATURE_EXTRACTOR_SEED)
        self.convs = [(w.detach(), b.detach()) for w, b in D.init_trunk(rng, self.CHANNELS)]

    def __call__(self, x: Tensor) -> list[Tensor]:
        return D.trunk(x, self.convs, 0.0)


def luminance_consistency_loss(i: Tensor, k: Tensor, region: tuple[int, int, int, int]) -> Tensor:
    """Mean squared difference between the two enhancements over one region.

    i is the second-pass (re-enhanced) image, k the first-pass enhanced
    image; region is (top, left, height, width) in ints.  The normalizer is
    the region's element count.
    """
    T._need_same_shape(i, k, "luminance_consistency_loss")
    if not isinstance(region, (tuple, list)) or len(region) != 4:
        raise ContractError(f"luminance loss region must be (top, left, height, width), got {region!r}")
    top, left, h, w = region
    # An int height or width below 1 is empty; crop names every other bad value.
    if any(T._is_int(v, -math.inf) and v < 1 for v in (h, w)):
        raise ContractError(f"luminance loss region {region} is empty")
    diff = T.sub(T.crop(i, top, left, h, w), T.crop(k, top, left, h, w))
    return T.mean(T.square(diff))


def adversarial_losses(logits_real: Tensor, logits_fake: Tensor) -> tuple[Tensor, Tensor]:
    """(discriminator loss, generator loss) from raw logits of any non-empty shape.

    d_loss = mean -[log s(real) + log(1 - s(fake))]
    g_loss = mean -log s(fake)
    """
    d_loss = T.add(T.mean(T.softplus(T.scale(logits_real, -1.0))), T.mean(T.softplus(logits_fake)))
    g_loss = T.mean(T.softplus(T.scale(logits_fake, -1.0)))
    return d_loss, g_loss


def self_feature_preserving_loss(x_low: Tensor, x_enh: Tensor, fe: FeatureExtractor) -> Tensor:
    """Mean over extractor layers of the RMS distance between feature maps.

    Symmetric in its image arguments; zero iff the features coincide.
    Not differentiable exactly at zero feature distance (the norm's kink),
    which training never hits for distinct images.
    """
    T._need_type(fe, FeatureExtractor, "self_feature_preserving_loss: fe")
    T._need_same_shape(x_low, x_enh, "self_feature_preserving_loss")
    feats_low = fe(x_low)
    feats_enh = fe(x_enh)
    total = None
    for fl, fen in zip(feats_low, feats_enh):
        term = T.sqrt(T.mean(T.square(T.sub(fen, fl))))
        total = term if total is None else T.add(total, term)
    return T.scale(total, 1.0 / len(fe.convs))


def identity_invariant_loss(x_r: Tensor, g_out: Tensor) -> Tensor:
    """Penalty for changing an already-normal image: count-normalized MSE."""
    T._need_same_shape(x_r, g_out, "identity_invariant_loss")
    return T.mean(T.square(T.sub(g_out, x_r)))


def total_generator_loss(parts: dict[str, Tensor], w: LossWeights) -> tuple[Tensor, dict[str, float]]:
    """Weighted sum of the loss terms plus a per-term breakdown.

    parts maps every name in LOSS_TERMS, and no other, to a scalar tensor;
    a zero weight turns a term off.  The breakdown holds each weighted
    contribution and sums to the total.  A non-finite part raises
    DivergenceError naming the term.
    """
    T._need_type(parts, dict, "total_generator_loss: parts")
    T._need_type(w, LossWeights, "total_generator_loss: w")
    weights = w.to_dict()
    missing = [name for name in LOSS_TERMS if name not in parts]
    unknown = sorted(set(parts) - set(LOSS_TERMS))
    if missing or unknown:
        raise ContractError(f"loss terms must be exactly {LOSS_TERMS}: missing {missing}, unknown {unknown}")
    total = None
    breakdown: dict[str, float] = {}
    for name in LOSS_TERMS:
        part = parts[name]
        T._need_type(part, Tensor, f"loss term {name!r}")
        if part.shape != ():
            raise DimensionError(f"loss term {name!r} must be a scalar, got shape {part.shape}")
        value = float(part.data)
        if not np.isfinite(value):
            raise DivergenceError(f"loss term {name!r} is non-finite ({value})")
        weighted = T.scale(part, weights[name])
        breakdown[name] = float(weighted.data)
        total = weighted if total is None else T.add(total, weighted)
    breakdown["total"] = float(total.data)
    return total, breakdown
