"""Plain numpy reference for the enhancer and the train-step losses.

It shares no code with ``relight``: convolutions are tensor contractions
over sliding windows, windows are gathered by explicit index arithmetic
from the documented row-major layout, and the sigmoid uses its tanh form.
It reads the weights by their dotted parameter names.  Its results
differ from relight's only by float64 rounding, so the benchmark can
compare each output against it with a tolerance that admits reassociated
arithmetic but not a changed operation.
"""

from __future__ import annotations

import math

import numpy as np

LOCAL_WINDOW_SIZES = (2, 4, 8)
PATCH = 8
DISC_PATCH = 32
N_PATCHES = 4


def conv2d(x, w, b, stride=1, pad=0):
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    kh, kw = w.shape[2:]
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    y = np.tensordot(win, w, axes=([0, 3, 4], [1, 2, 3]))  # (Ho, Wo, O)
    return y.transpose(2, 0, 1) + b[:, None, None]


def leaky(x, slope=0.2):
    return np.where(x > 0.0, x, slope * x)


def layer_norm(z, g, b):
    mu = z.mean(axis=-1, keepdims=True)
    var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
    return (z - mu) / np.sqrt(var + 1e-5) * g + b


def gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))


def softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def mhsa(z, p, prefix, heads):
    B, L, d = z.shape
    hd = d // heads

    def split(name):
        return (z @ p[f"{prefix}.{name}"]).reshape(B, L, heads, hd).transpose(0, 2, 1, 3)

    q, k, v = split("w_q"), split("w_k"), split("w_v")
    attn = softmax(q @ k.transpose(0, 1, 3, 2) / math.sqrt(hd))
    ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(B, L, d)
    return ctx @ p[f"{prefix}.w_o"]


def block(z, p, prefix, heads):
    z = z + mhsa(layer_norm(z, p[f"{prefix}.norm1_g"], p[f"{prefix}.norm1_b"]), p, f"{prefix}.mhsa", heads)
    h = layer_norm(z, p[f"{prefix}.norm2_g"], p[f"{prefix}.norm2_b"])
    h = gelu(h @ p[f"{prefix}.mlp_w1"] + p[f"{prefix}.mlp_b1"])
    return z + h @ p[f"{prefix}.mlp_w2"] + p[f"{prefix}.mlp_b2"]


def window_index(height, width, s):
    """(rows, cols) of token t in window k: both [num_windows, s*s]."""
    nw = width // s
    k = np.arange((height // s) * nw)[:, None]
    t = np.arange(s * s)[None, :]
    return (k // nw) * s + t // s, (k % nw) * s + t % s


def local_branch(x, p, heads):
    feat = conv2d(x, p["local.embed_w"], p["local.embed_b"])
    acc = np.zeros_like(feat)
    i = 0
    while f"local.blocks.{i}.mlp_w1" in p:
        s = LOCAL_WINDOW_SIZES[i]
        rows, cols = window_index(feat.shape[1], feat.shape[2], s)
        wins = block(feat[:, rows, cols].transpose(1, 2, 0), p, f"local.blocks.{i}", heads)
        feat = np.empty_like(feat)
        feat[:, rows, cols] = wins.transpose(2, 0, 1)
        acc += feat
        i += 1
    return acc


def global_branch(x, p, heads):
    _, H, W = x.shape
    d = p["global_.patch_w"].shape[0]
    z = conv2d(x, p["global_.patch_w"], p["global_.patch_b"], stride=PATCH).reshape(d, -1).T + p["global_.pos"]
    for i in range(2):
        z = block(z[None], p, f"global_.blocks.{i}", heads)[0]
    feat = z.T.reshape(d, H // PATCH, W // PATCH)
    for i in range(3):
        feat = feat.repeat(2, axis=1).repeat(2, axis=2)
        feat = leaky(conv2d(feat, p[f"global_.recover.convs.{i}.0"], p[f"global_.recover.convs.{i}.1"], pad=1))
    return feat


def enhance(x, p, local_heads, global_heads):
    """The full-variant generator output for a [3,H,W] image."""
    feat = np.concatenate([local_branch(x, p, local_heads), global_branch(x, p, global_heads)], axis=0)
    feat = leaky(conv2d(feat, p["fuse1_w"], p["fuse1_b"], pad=1))
    feat = leaky(conv2d(feat, p["fuse2_w"], p["fuse2_b"], pad=1))
    return sigmoid(conv2d(feat, p["out_w"], p["out_b"]))


def discriminate(x, p):
    i = 0
    while f"convs.{i}.0" in p:
        x = leaky(conv2d(x, p[f"convs.{i}.0"], p[f"convs.{i}.1"], stride=2, pad=1))
        i += 1
    return float(x.reshape(-1) @ p["linear_w"][:, 0] + p["linear_b"][0])


def patch_logits(x, p, crop_seed):
    """Logits of the patch discriminator on N_PATCHES crops drawn from crop_seed."""
    rng = np.random.default_rng(crop_seed)
    _, H, W = x.shape
    out = []
    for _ in range(N_PATCHES):
        top = int(rng.integers(0, H - DISC_PATCH + 1))
        left = int(rng.integers(0, W - DISC_PATCH + 1))
        out.append(discriminate(x[:, top : top + DISC_PATCH, left : left + DISC_PATCH], p))
    return np.array(out)


def softplus(x):
    return np.logaddexp(0.0, x)


def features(x, convs):
    out = []
    for w, b in convs:
        x = np.maximum(conv2d(x, w, b, stride=2, pad=1), 0.0)
        out.append(x)
    return out


def train_terms(pair, gen, local_heads, global_heads, d_global, d_patch, fe_convs, loss_weights):
    """Loss terms of one train step (see workloads.TrainStep) on one input pair."""
    def g(x):
        return enhance(x, gen, local_heads, global_heads)

    low, normal = pair.low, pair.normal
    enh, enh2, idt = g(low), g(pair.alpha * low), g(normal)
    top, left, h, w = pair.region
    real_g, fake_g = discriminate(normal, d_global), discriminate(enh, d_global)
    real_p = patch_logits(normal, d_patch, pair.crop_seed + 1)
    fake_p = patch_logits(enh, d_patch, pair.crop_seed)
    parts = {
        "adv_global": float(softplus(-fake_g)),
        "adv_local": float(softplus(-fake_p).mean()),
        "sfp": float(np.mean([np.sqrt(((a - b) ** 2).mean()) for a, b in zip(features(enh, fe_convs), features(low, fe_convs))])),
        "identity": float(((idt - normal) ** 2).mean()),
        "luminance": float(((enh2 - enh)[:, top : top + h, left : left + w] ** 2).mean()),
    }
    parts["total"] = sum(loss_weights[k] * v for k, v in parts.items())
    d_glob = softplus(-real_g) + softplus(fake_g)
    d_patch_loss = softplus(-real_p).mean() + softplus(fake_p).mean()
    parts["d_loss"] = float(d_glob + d_patch_loss)
    return parts
