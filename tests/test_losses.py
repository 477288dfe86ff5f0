import re

import numpy as np
import pytest

from finite_diff import finite_diff
from relight import losses as L
from relight import tensor as T
from relight.errors import ContractError, DivergenceError
from relight.tensor import Tape, Tensor


def extractor_preactivations(x, fe):
    """Pre-relu maps of every extractor layer, for keeping FD probes off the kinks."""
    pre, feat = [], x
    for w, b in fe.convs:
        p = T.conv2d(feat, w, b, stride=2, pad=1)
        pre.append(p.data)
        feat = T.leaky_relu(p, 0.0)
    return pre


@pytest.fixture(scope="module")
def fe():
    return L.FeatureExtractor()


def test_sfp_gradient(fe):
    rng = np.random.default_rng(6)
    low = Tensor(rng.uniform(0.0, 0.3, size=(3, 8, 8)))
    enh = Tensor(rng.uniform(0.2, 0.9, size=(3, 8, 8)))
    assert min(np.abs(p).min() for p in extractor_preactivations(enh, fe)) > 1e-4
    assert finite_diff(lambda: L.self_feature_preserving_loss(low, enh, fe), [enh]) < 1e-5


def test_sfp_symmetric_and_zero_on_identical_inputs(fe):
    rng = np.random.default_rng(1)
    a, b = Tensor(rng.uniform(size=(3, 16, 16))), Tensor(rng.uniform(size=(3, 16, 16)))
    ab = L.self_feature_preserving_loss(a, b, fe).data
    assert ab > 0.0
    assert ab == L.self_feature_preserving_loss(b, a, fe).data
    assert L.self_feature_preserving_loss(a, a, fe).data == 0.0


def test_sfp_shape_mismatch(fe):
    with pytest.raises(ContractError):
        L.self_feature_preserving_loss(Tensor(np.zeros((3, 8, 8))), Tensor(np.zeros((3, 16, 16))), fe)


def test_feature_extractor_is_fixed_and_halves_resolution(fe):
    again = L.FeatureExtractor()
    for (w, b), (w2, b2) in zip(fe.convs, again.convs):
        assert np.array_equal(w.data, w2.data) and np.array_equal(b.data, b2.data)
        assert not w.requires_grad
    feats = fe(Tensor(np.random.default_rng(2).uniform(size=(3, 16, 16))))
    assert [f.shape for f in feats] == [(8, 8, 8), (16, 4, 4), (32, 2, 2)]


def test_identity_gradient_and_value():
    rng = np.random.default_rng(3)
    normal, out = rng.uniform(size=(3, 8, 8)), rng.uniform(size=(3, 8, 8))
    loss = L.identity_invariant_loss(Tensor(normal), Tensor(out))
    assert loss.data == pytest.approx(((out - normal) ** 2).mean(), rel=1e-12)
    g_out = Tensor(out)
    assert finite_diff(lambda: L.identity_invariant_loss(Tensor(normal), g_out), [g_out]) < 1e-6


def test_identity_shape_mismatch():
    with pytest.raises(ContractError):
        L.identity_invariant_loss(Tensor(np.zeros((3, 8, 8))), Tensor(np.zeros((3, 8, 4))))


def test_luminance_gradient_and_region():
    rng = np.random.default_rng(4)
    i, k = rng.uniform(size=(3, 8, 8)), rng.uniform(size=(3, 8, 8))
    region = (1, 2, 4, 3)
    loss = L.luminance_consistency_loss(Tensor(i), Tensor(k), region)
    assert loss.data == pytest.approx(((i - k)[:, 1:5, 2:5] ** 2).mean(), rel=1e-12)
    i, k = Tensor(i), Tensor(k)
    assert finite_diff(lambda: L.luminance_consistency_loss(i, k, region), [i]) < 1e-6
    assert finite_diff(lambda: L.luminance_consistency_loss(i, k, region), [k]) < 1e-6


def test_luminance_rejects_empty_region_and_shape_mismatch():
    x = Tensor(np.zeros((3, 8, 8)))
    for region in ((0, 0, 0, 4), (0, 0, 4, 0), (2, 2, -1, 3)):
        with pytest.raises(ContractError, match="empty"):
            L.luminance_consistency_loss(x, x, region)
    with pytest.raises(ContractError, match=r"\(3, 8, 8\).*\(3, 4, 4\)"):
        L.luminance_consistency_loss(x, Tensor(np.zeros((3, 4, 4))), (0, 0, 2, 2))


@pytest.mark.parametrize(
    "region, named",
    [
        ((1.0, 0, 2, 2), "crop: top must be an int >= 0, got 1.0"),
        ((0, 0, 2.0, 2), "crop: height must be an int >= 1, got 2.0"),
        ((0, 0, 2), "got (0, 0, 2)"),
        (4, "got 4"),
    ],
    ids=["float-top", "float-height", "three-values", "int"],
)
def test_luminance_rejects_a_non_int_or_short_region(region, named):
    x = Tensor(np.zeros((3, 8, 8)))
    with pytest.raises(ContractError, match=re.escape(named)):
        L.luminance_consistency_loss(x, x, region)


def test_adversarial_gradients():
    rng = np.random.default_rng(5)
    real, fake = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
    assert finite_diff(lambda: L.adversarial_losses(real, fake)[0], [real]) < 1e-6
    assert finite_diff(lambda: L.adversarial_losses(real, fake)[0], [fake]) < 1e-6
    assert finite_diff(lambda: L.adversarial_losses(real, fake)[1], [fake]) < 1e-6


def test_adversarial_values_match_log_sigmoid():
    real, fake = np.array([0.3, -1.2]), np.array([2.0, -0.5])
    d_loss, g_loss = L.adversarial_losses(Tensor(real), Tensor(fake))
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    assert d_loss.data == pytest.approx(-np.log(sig(real)).mean() - np.log(1.0 - sig(fake)).mean(), rel=1e-12)
    assert g_loss.data == pytest.approx(-np.log(sig(fake)).mean(), rel=1e-12)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_adversarial_stable_at_extreme_logits(sign):
    # sign=+1: the discriminator is perfectly right, so d_loss -> 0 and g_loss -> |logit|
    real = Tensor(np.array([sign * 1e3]), requires_grad=True)
    fake = Tensor(np.array([-sign * 1e3]), requires_grad=True)
    with Tape() as tape:
        d_loss, g_loss = L.adversarial_losses(real, fake)
        tape.backward(T.add(d_loss, g_loss))
    right, wrong = (0.0, 1e3) if sign > 0 else (2e3, 0.0)
    assert d_loss.data == pytest.approx(right, abs=1e-12)
    assert g_loss.data == pytest.approx(wrong, abs=1e-12)
    assert np.isfinite(real.grad).all() and np.isfinite(fake.grad).all()
    # d/dreal of softplus(-real) is -sigmoid(-real); d/dfake of softplus(f) + softplus(-f) is 2*sigmoid(f) - 1
    assert real.grad[0] == pytest.approx(0.0 if sign > 0 else -1.0, abs=1e-12)
    assert fake.grad[0] == pytest.approx(-sign, abs=1e-12)


def _scalar(v):
    return Tensor(np.array(v))


def _all_terms(**values):
    return {name: _scalar(values.get(name, 0.25)) for name in L.LOSS_TERMS}


def test_loss_terms_follow_the_weight_fields():
    assert L.LOSS_TERMS == ("adv_global", "adv_local", "sfp", "identity", "luminance")
    assert L.LossWeights(w_sfp=3.0).to_dict() == {
        "adv_global": 1.0, "adv_local": 1.0, "sfp": 3.0, "identity": 0.5, "luminance": 1.0,
    }


def test_total_breakdown_sums_to_total_and_applies_weights():
    parts = _all_terms(sfp=0.3, identity=0.2, adv_global=1.5)
    total, breakdown = L.total_generator_loss(parts, L.LossWeights())
    assert list(breakdown) == [*L.LOSS_TERMS, "total"]
    assert breakdown["identity"] == pytest.approx(0.1)
    assert breakdown["total"] == float(total.data)
    assert type(total.data) is np.ndarray
    assert sum(v for k, v in breakdown.items() if k != "total") == pytest.approx(breakdown["total"], rel=1e-15)


def test_total_gradient_is_the_term_weight():
    parts = {name: Tensor(np.array(1.0), requires_grad=True) for name in L.LOSS_TERMS}
    weights = L.LossWeights(w_adv_local=2.0, w_luminance=0.25)
    with Tape() as tape:
        total, _ = L.total_generator_loss(parts, weights)
        tape.backward(total)
    for name, p in parts.items():
        assert p.grad == weights.to_dict()[name]


def test_total_names_the_non_finite_term():
    bad = Tensor(np.array(0.0))
    bad.data = np.array(np.nan)  # bypass the constructor's check, as a diverged op output would
    with pytest.raises(DivergenceError, match="luminance"):
        L.total_generator_loss({**_all_terms(), "luminance": bad}, L.LossWeights())


def test_total_rejects_unknown_terms():
    with pytest.raises(ContractError, match="perceptual"):
        L.total_generator_loss({**_all_terms(), "perceptual": _scalar(1.0)}, L.LossWeights())


def test_total_rejects_a_missing_term_naming_it():
    parts = _all_terms()
    del parts["sfp"]
    with pytest.raises(ContractError, match=re.escape("missing ['sfp']")):
        L.total_generator_loss(parts, L.LossWeights())


def test_total_rejects_a_non_scalar_term_naming_it_and_its_shape():
    parts = {**_all_terms(), "identity": Tensor(np.zeros(2))}
    with pytest.raises(ContractError, match=re.escape("loss term 'identity' must be a scalar, got shape (2,)")):
        L.total_generator_loss(parts, L.LossWeights())


def test_loss_weights_must_be_finite_and_non_negative():
    for bad in (-1.0, float("inf"), float("nan"), "a", None, True, 2**1024):
        with pytest.raises(ContractError, match=re.escape(f"got {bad!r}")):
            L.LossWeights(w_sfp=bad)
