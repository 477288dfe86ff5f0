import numpy as np
import pytest

from finite_diff import discriminator_convs, finite_diff, trunk_preactivations
from relight import discriminator as D
from relight import generator as G
from relight import tensor as T
from relight.errors import ContractError
from relight.tensor import Tape, Tensor
from test_contracts import reject


def test_parameter_names_and_shapes():
    d = D.init_discriminator(16, seed=0)
    shapes = {name: t.shape for name, t in G.named_parameters(d)}
    assert shapes == {
        "convs.0.0": (16, 3, 3, 3), "convs.0.1": (16,),
        "convs.1.0": (32, 16, 3, 3), "convs.1.1": (32,),
        "convs.2.0": (64, 32, 3, 3), "convs.2.1": (64,),
        "linear_w": (64 * 2 * 2, 1), "linear_b": (1,),
    }
    assert all(t.requires_grad for t in G.parameters(d).values())


def test_linear_rows_match_the_trunk_output_for_every_side():
    for side in range(8, 71):
        d = D.init_discriminator(side, seed=0)
        last = D.trunk(Tensor(np.zeros((3, side, side))), discriminator_convs(d), 0.2)[-1]
        assert d.params["linear_w"].shape == (last.size, 1), side


def test_same_seed_same_weights():
    a, b = G.parameters(D.init_discriminator(8, seed=3)), G.parameters(D.init_discriminator(8, seed=3))
    assert all(np.array_equal(a[k].data, b[k].data) for k in a)
    c = G.parameters(D.init_discriminator(8, seed=4))
    assert not np.array_equal(a["convs.0.0"].data, c["convs.0.0"].data)


@pytest.mark.parametrize("side", [64.0, "64", None])
def test_non_int_input_side_rejected(side):
    reject("init_discriminator-input_size", side)


def test_logit_is_scalar_and_matches_manual_stack():
    rng = np.random.default_rng(1)
    d = D.init_discriminator(16, seed=1)
    p = {k: t.data for k, t in d.params.items()}
    x = rng.uniform(size=(3, 16, 16))
    logit = D.discriminate(Tensor(x), d)
    assert logit.shape == ()
    feat = Tensor(x)
    for i in range(3):
        feat = T.leaky_relu(T.conv2d(feat, Tensor(p[f"convs.{i}.0"]), Tensor(p[f"convs.{i}.1"]), stride=2, pad=1))
    assert logit.data == pytest.approx(feat.data.reshape(-1) @ p["linear_w"][:, 0] + p["linear_b"][0], rel=1e-12)


def test_input_gradient():
    rng = np.random.default_rng(2)
    d = D.init_discriminator(8, seed=2)
    x = Tensor(rng.uniform(size=(3, 8, 8)))
    assert min(np.abs(p).min() for p in trunk_preactivations(x, discriminator_convs(d), 0.2)) > 1e-4
    assert finite_diff(lambda: D.discriminate(x, d), [x]) < 1e-5


def test_discriminate_local_repeats_crops_for_a_seed():
    d = D.init_discriminator(8, seed=5)
    x = Tensor(np.random.default_rng(5).uniform(size=(3, 20, 20)))
    first = D.discriminate_local(x, d, np.random.default_rng(11), 3)
    again = D.discriminate_local(x, d, np.random.default_rng(11), 3)
    other = D.discriminate_local(x, d, np.random.default_rng(12), 3)
    assert len(first) == 3
    for (p, logit), (p2, logit2) in zip(first, again):
        assert p.shape == (3, 8, 8)
        assert np.array_equal(p.data, p2.data) and logit.data == logit2.data
    assert any(not np.array_equal(p.data, q.data) for (p, _), (q, _) in zip(first, other))


def test_discriminate_local_gradient_reaches_x_only_inside_crops():
    d = D.init_discriminator(8, seed=6)
    x = Tensor(np.random.default_rng(6).uniform(size=(3, 20, 20)), requires_grad=True)
    with Tape() as tape:
        pairs = D.discriminate_local(x, d, np.random.default_rng(13), 2)
        tape.backward(T.add(pairs[0][1], pairs[1][1]))
    inside = np.zeros((20, 20), dtype=bool)
    rng = np.random.default_rng(13)
    for _ in range(2):  # the crops' draws: top, then left, each uniform over the 13 valid offsets
        top, left = int(rng.integers(0, 13)), int(rng.integers(0, 13))
        inside[top : top + 8, left : left + 8] = True
    assert np.abs(x.grad[:, inside]).sum() > 0.0
    assert np.array_equal(x.grad[:, ~inside], np.zeros((3, int((~inside).sum()))))


@pytest.mark.parametrize("n", [0, -1, 2.0, None])
def test_bad_patch_count_rejected_naming_the_value(n):
    reject("discriminate_local-n_patches", n)


def test_discriminate_local_checks_the_weights_before_drawing_a_crop():
    # On a 32x32 x the generator's 16x16 weights leave room for crops, so a draw before the check would show.
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ContractError, match="discriminate_local: w has no parameter 'convs.0.0'"):
        D.discriminate_local(Tensor(np.zeros((3, 32, 32))), G.init_weights(G.GeneratorConfig(16, 16), 0), rng, 2)
    assert rng.bit_generator.state == state
