import dataclasses
import re

import numpy as np
import pytest

from finite_diff import finite_diff
from relight import generator as G
from relight import tensor as T
from relight.errors import ConfigError, ContractError
from relight.tensor import Tape, Tensor

SMALL = G.GeneratorConfig(height=16, width=16)


def test_forward_shape_and_range():
    w = G.init_weights(G.GeneratorConfig(), seed=0)
    rng = np.random.default_rng(0)
    out = G.forward(Tensor(rng.uniform(size=(3, 64, 64))), w)
    assert out.shape == (3, 64, 64)
    assert (out.data > 0.0).all() and (out.data < 1.0).all()


def test_forward_is_pure():
    w = G.init_weights(SMALL, seed=1)
    x = Tensor(np.random.default_rng(1).uniform(size=(3, 16, 16)))
    a = G.forward(x, w).data
    b = G.forward(x, w).data
    assert np.array_equal(a, b)


def test_backward_smoke_all_grads_finite():
    w = G.init_weights(SMALL, seed=2)
    x = Tensor(np.random.default_rng(2).uniform(size=(3, 16, 16)))
    params = G.parameters(w)
    with Tape() as tape:
        tape.backward(T.mean(G.forward(x, w)))
    for name, p in params.items():
        assert p.grad is not None, f"no grad for {name}"
        assert np.isfinite(p.grad).all(), f"non-finite grad for {name}"
        assert p.grad.shape == p.shape


def test_resolution_mismatch():
    w = G.init_weights(SMALL, seed=3)
    with pytest.raises(ConfigError):
        G.forward(Tensor(np.zeros((3, 24, 24))), w)


def test_non_finite_input_rejected():
    w = G.init_weights(SMALL, seed=3)
    x = Tensor(np.zeros((3, 16, 16)))
    x.data[0, 0, 0] = np.inf  # bypass constructor check to probe forward's guard
    with pytest.raises(ContractError):
        G.forward(x, w)


class TestInitWeights:
    def test_same_seed_identical(self):
        w1, w2 = G.init_weights(SMALL, seed=7), G.init_weights(SMALL, seed=7)
        p1, p2 = G.parameters(w1), G.parameters(w2)
        assert p1.keys() == p2.keys()
        for k in p1:
            assert np.array_equal(p1[k].data, p2[k].data)

    def test_different_seeds_differ(self):
        w1, w2 = G.init_weights(SMALL, seed=7), G.init_weights(SMALL, seed=8)
        assert not np.array_equal(w1.params["fuse1_w"].data, w2.params["fuse1_w"].data)

    def test_no_saturation_at_init(self):
        w = G.init_weights(G.GeneratorConfig(), seed=9)
        out = G.forward(Tensor(np.full((3, 64, 64), 0.5)), w)
        assert (out.data > 0.05).all() and (out.data < 0.95).all()

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            G.GeneratorConfig(height=60)  # not divisible by 8

    @pytest.mark.parametrize("size", [0, -8, 64.0])
    def test_bad_resolution_rejected(self, size):
        for kwargs in ({"height": size, "width": size}, {"height": size}, {"width": size}):
            with pytest.raises(ConfigError, match=re.escape(repr(size))):
                G.GeneratorConfig(**kwargs)

    def test_only_the_resolution_is_configurable(self):
        assert [f.name for f in dataclasses.fields(G.GeneratorConfig)] == ["height", "width"]
        with pytest.raises(TypeError):
            G.GeneratorConfig(local_dim=8)


def test_gradient_check_random_parameter_subset():
    w = G.init_weights(G.GeneratorConfig(height=32, width=32), seed=10)
    rng = np.random.default_rng(10)
    x = Tensor(rng.uniform(0.2, 0.8, size=(3, 32, 32)))
    params = list(G.parameters(w).values())
    entries = []
    for _ in range(10):
        k = int(rng.integers(len(params)))
        entries.append((k, int(rng.integers(params[k].size))))
    assert finite_diff(lambda: G.forward(x, w), params, entries) < 1e-3


def test_named_parameters_deterministic_order():
    w = G.init_weights(SMALL, seed=11)
    names1 = [n for n, _ in G.named_parameters(w)]
    names2 = [n for n, _ in G.named_parameters(w)]
    assert names1 == names2
    assert len(names1) == len(set(names1))
    assert any("local.blocks.0.mhsa.w_q" == n for n in names1)
