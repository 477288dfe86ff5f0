"""Same-seed weights are pinned by digest, so a refactor cannot move them.

Each digest is a sha256 over the name, shape and little-endian float64
bytes of every array, in order.  The arrays come only from numpy's
seeded generator (no BLAS), so the digests are the same on every machine.
"""

import hashlib

import numpy as np
import pytest

from relight import discriminator as D
from relight import generator as G
from relight import losses as L


def digest(named_arrays):
    h = hashlib.sha256()
    for name, a in named_arrays:
        h.update(name.encode())
        h.update(repr(tuple(a.shape)).encode())
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def generator_arrays():
    return [(n, t.data) for n, t in G.init_weights(G.GeneratorConfig(), 0).params.items()]


def discriminator_arrays(size, seed):
    return [(n, t.data) for n, t in D.init_discriminator(size, seed).params.items()]


def extractor_arrays():
    fe = L.FeatureExtractor()
    return [(f"convs.{i}.{j}", t.data) for i, conv in enumerate(fe.convs) for j, t in enumerate(conv)]


@pytest.mark.parametrize(
    "arrays, expected",
    [
        (generator_arrays, "78348bc79b7ac44edf7b3313f114bbef0b917e7f9fec680b7773ead9645946ae"),
        (lambda: discriminator_arrays(64, 1), "0a84f87ea96242e7812e2309974a45809ed423642aed8ee10f62ae0b4d125f32"),
        (lambda: discriminator_arrays(32, 2), "861ada1c6cd29f4cad237fbbb63c6c80bf745457329bf8774eca8e91838e0934"),
        (extractor_arrays, "a84e40d1673d478e7b1580dea1ceffa04cdd027e25ecacae7f459517a60d6444"),
    ],
    ids=["generator", "discriminator-64", "discriminator-32", "feature-extractor"],
)
def test_same_seed_weights_digest(arrays, expected):
    assert digest(arrays()) == expected
