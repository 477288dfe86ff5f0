"""Tests of the benchmark itself: inputs, checks, tracing and counts.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

import inputs
import run
import spans
import workloads
from relight import tensor
from relight.errors import DomainError, RelightError


@pytest.fixture(scope="module")
def enhance():
    return workloads.Enhance(64)


@pytest.fixture(scope="module")
def train():
    return workloads.TrainStep(64)


def _labels(train):
    return {id(train.d_global): "global", id(train.d_patch): "patch"}


def test_inputs_repeat_per_seed():
    a, b = inputs.pool(7, 3, 64), inputs.pool(7, 3, 64)
    for p, q in zip(a, b):
        assert np.array_equal(p.low, q.low) and np.array_equal(p.normal, q.normal)
        assert (p.alpha, p.region, p.crop_seed) == (q.alpha, q.region, q.crop_seed)
    assert not np.array_equal(a[0].low, a[1].low)
    assert not np.array_equal(a[0].low, inputs.pool(8, 1, 64)[0].low)
    for p in a:
        assert p.low.shape == p.normal.shape == (3, 64, 64)
        assert 0.0 <= p.low.min() and p.normal.max() <= 1.0
        assert p.low.mean() < 0.5 * p.normal.mean()


def test_tracing_leaves_outputs_bitwise_equal(enhance, train):
    pair = inputs.pair(3, 0, 64)
    image = enhance.run(pair)
    terms = train.run(pair)
    grads = [p.grad.copy() for p in train.g_params + train.d_params]
    original = tensor.gelu
    with spans.Tracer(_labels(train)) as tracer:
        traced_image = enhance.run(pair)
        traced_terms = train.run(pair)
    assert tensor.gelu is original
    assert {s[0] for s in tracer.spans} >= {"tensor.gelu", "tensor.gelu.bwd", "generator.forward"}
    assert np.array_equal(image, traced_image)
    assert terms == traced_terms
    for g, p in zip(grads, train.g_params + train.d_params):
        assert np.array_equal(g, p.grad)


class _Corrupted:
    """An enhancer whose outputs are off by 1e-6 in one pixel."""

    def __init__(self, inner):
        self.inner = inner

    def run(self, pair):
        out = self.inner.run(pair).copy()
        out[1, 5, 7] += 1e-6
        return out

    def check(self, out, expected):
        return self.inner.check(out, expected)


class _Raising(_Corrupted):
    def run(self, pair):
        raise DomainError("injected")


def test_corrupted_output_counts_as_failure(enhance):
    items = inputs.pool(4, 2, 64)
    expected = [enhance.reference(p) for p in items]
    assert run.measure(enhance, items, expected, 0.0, 3, RelightError).failed == 0
    bad = run.measure(_Corrupted(enhance), items, expected, 0.0, 3, RelightError)
    assert (bad.attempted, bad.failed) == (3, 3)
    assert run.measure(_Raising(enhance), items, expected, 0.0, 2, RelightError).failed == 2
    out = enhance.run(items[0])
    for broken in (out[:, :32], np.where(out > 0.5, np.nan, out), np.clip(out * 3.0, 0.0, 1.0)):
        assert not enhance.check(broken, expected[0])


def test_train_check_catches_a_wrong_loss_term(train):
    pair = inputs.pair(6, 0, 64)
    terms, expected = train.run(pair), train.reference(pair)
    assert train.check(terms, expected)
    for name in train.TERMS:
        assert not train.check(terms, {**expected, name: expected[name] * (1 + 1e-6)})
    assert not train.check({k: v for k, v in terms.items() if k != "sfp"}, expected)


def test_computed_counts_repeat_and_cover_every_metric(train):
    counts = []
    for seed, n_ops in ((9, 1), (10, 3)):
        items = inputs.pool(seed, 2, 64)
        expected = [train.reference(p) for p in items]
        with spans.Tracer(_labels(train)) as tracer:
            timing = run.measure(train, items, expected, 0.0, n_ops, RelightError, tracer)
        assert timing.failed == 0
        metrics = tracer.metrics(timing.attempted)
        assert list(metrics) == list(spans.metric_units())
        counts.append({k: v for k, v in metrics.items() if k.endswith((".calls", ".out_bytes", "tape_records"))})
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0].values())


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    value, pct = run.tail([float(i) for i in range(15)])
    assert value == 4.0 and pct == pytest.approx(100 * 5 / 15)
