import numpy as np
import pytest

from finite_diff import finite_diff_check
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
        feat = T.relu(p)
    return pre


@pytest.fixture(scope="module")
def fe():
    return L.FeatureExtractor()


def test_sfp_gradient(fe):
    rng = np.random.default_rng(6)
    low = Tensor(rng.uniform(0.0, 0.3, size=(3, 8, 8)))
    enh = Tensor(rng.uniform(0.2, 0.9, size=(3, 8, 8)))
    assert min(np.abs(p).min() for p in extractor_preactivations(enh, fe)) > 1e-4
    assert finite_diff_check(lambda t: L.self_feature_preserving_loss(low, t, fe), enh) < 1e-5


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
    assert finite_diff_check(lambda t: L.identity_invariant_loss(Tensor(normal), t), Tensor(out)) < 1e-6


def test_identity_shape_mismatch():
    with pytest.raises(ContractError):
        L.identity_invariant_loss(Tensor(np.zeros((3, 8, 8))), Tensor(np.zeros((3, 8, 4))))


def test_luminance_gradient_and_region():
    rng = np.random.default_rng(4)
    i, k = rng.uniform(size=(3, 8, 8)), rng.uniform(size=(3, 8, 8))
    region = (1, 2, 4, 3)
    loss = L.luminance_consistency_loss(Tensor(i), Tensor(k), region)
    assert loss.data == pytest.approx(((i - k)[:, 1:5, 2:5] ** 2).mean(), rel=1e-12)
    assert finite_diff_check(lambda t: L.luminance_consistency_loss(t, Tensor(k), region), Tensor(i)) < 1e-6
    assert finite_diff_check(lambda t: L.luminance_consistency_loss(Tensor(i), t, region), Tensor(k)) < 1e-6


def test_luminance_rejects_empty_region_and_shape_mismatch():
    x = Tensor(np.zeros((3, 8, 8)))
    for region in ((0, 0, 0, 4), (0, 0, 4, 0), (2, 2, -1, 3)):
        with pytest.raises(ContractError, match="empty"):
            L.luminance_consistency_loss(x, x, region)
    with pytest.raises(ContractError, match=r"\(3, 8, 8\).*\(3, 4, 4\)"):
        L.luminance_consistency_loss(x, Tensor(np.zeros((3, 4, 4))), (0, 0, 2, 2))


def test_adversarial_gradients():
    rng = np.random.default_rng(5)
    real, fake = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
    assert finite_diff_check(lambda t: L.adversarial_losses(t, fake)[0], real) < 1e-6
    assert finite_diff_check(lambda t: L.adversarial_losses(real, t)[0], fake) < 1e-6
    assert finite_diff_check(lambda t: L.adversarial_losses(real, t)[1], fake) < 1e-6


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


def test_total_breakdown_sums_to_total_and_applies_weights():
    parts = {"sfp": _scalar(0.3), "identity": _scalar(0.2), "adv_global": _scalar(1.5)}
    total, breakdown = L.total_generator_loss(parts, L.LossWeights())
    assert set(breakdown) == {"sfp", "identity", "adv_global", "total"}
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
        L.total_generator_loss({"sfp": _scalar(0.1), "luminance": bad}, L.LossWeights())


def test_total_rejects_unknown_terms():
    with pytest.raises(ContractError, match="perceptual"):
        L.total_generator_loss({"perceptual": _scalar(1.0)}, L.LossWeights())


def test_loss_weights_must_be_finite_and_non_negative():
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ContractError):
            L.LossWeights(w_sfp=bad)
