"""The operations the benchmark times, composed from relight's public functions.

Importing this module imports numpy and relight; the benchmark counts that
import in its set-up time.  Every relight function is looked up on its
module at call time (``G.forward``, never a name bound at import), so the
tracer in ``spans.py`` sees each call once it has patched the module.
"""

from __future__ import annotations

import numpy as np

import reference
from relight import discriminator as D
from relight import generator as G
from relight import losses as L
from relight import tensor as T
from relight.tensor import Tensor

GEN_SEED, D_GLOBAL_SEED, D_PATCH_SEED = 0, 1, 2
IMAGE_ATOL = 1e-9  # largest |output - reference| per pixel; outputs lie in (0,1)
LOSS_RTOL = 1e-9  # relative tolerance on each loss term


def _arrays(weights) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in G.named_parameters(weights)}


class Enhance:
    """One ``generator.forward`` on a low-light image, no tape."""

    def __init__(self, size: int):
        self.size = size
        self.cfg = G.GeneratorConfig(height=size, width=size)
        self.gen = G.init_weights(self.cfg, GEN_SEED)

    def run(self, pair) -> np.ndarray:
        return G.forward(Tensor(pair.low), self.gen).data

    def reference(self, pair) -> np.ndarray:
        return reference.enhance(pair.low, _arrays(self.gen), self.cfg.local_heads, self.cfg.global_heads)

    def check(self, out, expected) -> bool:
        return (
            isinstance(out, np.ndarray)
            and out.shape == (3, self.size, self.size)
            and bool(np.isfinite(out).all())
            and bool((out > 0.0).all() and (out < 1.0).all())
            and float(np.abs(out - expected).max()) <= IMAGE_ATOL
        )


class TrainStep:
    """One adversarial gradient step: generator losses and backward, then the
    discriminator loss on real vs detached fake and its backward.

    There is no optimizer, so no parameter changes and every step does the
    same work.  One tape records the step; ``backward`` runs on it twice.
    """

    TERMS = ("adv_global", "adv_local", "sfp", "identity", "luminance", "total", "d_loss")

    def __init__(self, size: int):
        self.size = size
        self.cfg = G.GeneratorConfig(height=size, width=size)
        self.gen = G.init_weights(self.cfg, GEN_SEED)
        self.d_global = D.init_discriminator(size, D_GLOBAL_SEED)
        self.d_patch = D.init_discriminator(reference.DISC_PATCH, D_PATCH_SEED)
        self.fe = L.FeatureExtractor()
        self.loss_weights = L.LossWeights()
        self.g_params = list(G.parameters(self.gen).values())
        self.d_params = list(G.parameters(self.d_global).values()) + list(G.parameters(self.d_patch).values())

    def _patch_logits(self, x: Tensor, crop_seed: int) -> Tensor:
        pairs = D.discriminate_local(x, self.d_patch, np.random.default_rng(crop_seed), reference.N_PATCHES)
        return T.concat([T.reshape(logit, (1,)) for _, logit in pairs], axis=0)

    def run(self, pair) -> dict[str, float]:
        T.zero_grad(self.g_params + self.d_params)
        low, normal = Tensor(pair.low), Tensor(pair.normal)
        with T.Tape() as tape:
            enh = G.forward(low, self.gen)
            enh2 = G.forward(T.scale(low, pair.alpha), self.gen)
            idt = G.forward(normal, self.gen)
            real_g = D.discriminate(normal, self.d_global)
            real_p = self._patch_logits(normal, pair.crop_seed + 1)
            _, adv_global = L.adversarial_losses(real_g, D.discriminate(enh, self.d_global))
            _, adv_local = L.adversarial_losses(real_p, self._patch_logits(enh, pair.crop_seed))
            parts = {
                "adv_global": adv_global,
                "adv_local": adv_local,
                "sfp": L.self_feature_preserving_loss(low, enh, self.fe),
                "identity": L.identity_invariant_loss(normal, idt),
                "luminance": L.luminance_consistency_loss(enh2, enh, pair.region),
            }
            total, _ = L.total_generator_loss(parts, self.loss_weights)
            fake = enh.detach()
            d_glob, _ = L.adversarial_losses(real_g, D.discriminate(fake, self.d_global))
            d_patch, _ = L.adversarial_losses(real_p, self._patch_logits(fake, pair.crop_seed))
            d_loss = T.add(d_glob, d_patch)
        tape.backward(total)
        T.zero_grad(self.d_params)  # the discriminator step sees only its own loss
        tape.backward(d_loss)
        terms = {name: float(t.data) for name, t in parts.items()}
        terms["total"] = float(total.data)
        terms["d_loss"] = float(d_loss.data)
        return terms

    def reference(self, pair) -> dict[str, float]:
        return reference.train_terms(
            pair,
            _arrays(self.gen),
            self.cfg.local_heads,
            self.cfg.global_heads,
            _arrays(self.d_global),
            _arrays(self.d_patch),
            [(w.data, b.data) for w, b in self.fe.convs],
            self.loss_weights.to_dict(),
        )

    def check(self, terms, expected) -> bool:
        if not isinstance(terms, dict) or set(terms) != set(self.TERMS):
            return False
        for name in self.TERMS:
            got, want = terms[name], expected[name]
            if not np.isfinite(got) or abs(got - want) > LOSS_RTOL * abs(want):
                return False
        return all(p.grad is not None and bool(np.isfinite(p.grad).all()) for p in self.g_params + self.d_params)
