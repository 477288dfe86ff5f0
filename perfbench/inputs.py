"""Seeded non-uniform low-light inputs and their brighter "normal" scenes.

A scene is a procedural RGB image in (0,1): a coloured base, a few
low-frequency gratings and a few hard-edged discs and rectangles.  Its
low-light version is ``gain * scene ** gamma`` plus faint sensor noise,
where ``gain`` is a smooth spatial illumination map (a dim floor plus a
few Gaussian light pools), so exposure varies across the frame as in a
non-uniformly lit photo.  Everything is drawn from
``numpy.random.default_rng([seed, index])``: the same seed and index
give the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Pair:
    """One generated example; ``low`` and ``normal`` are float64 [3,S,S] in [0,1]."""

    low: np.ndarray
    normal: np.ndarray
    alpha: float  # second-pass exposure factor for the luminance-consistency term
    region: tuple[int, int, int, int]  # (top, left, height, width) of that term; seeded position
    crop_seed: int  # seeds the patch-discriminator crop positions


def _grid(size: int):
    c = (np.arange(size) + 0.5) / size
    return np.meshgrid(c, c, indexing="ij")


def scene(rng: np.random.Generator, size: int) -> np.ndarray:
    yy, xx = _grid(size)
    img = np.empty((3, size, size))
    img[:] = rng.uniform(0.3, 0.7, size=3)[:, None, None]
    for _ in range(4):
        theta = rng.uniform(0.0, np.pi)
        freq = rng.uniform(1.0, 6.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wave = np.sin(2.0 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) + phase)
        img += rng.uniform(0.03, 0.12, size=3)[:, None, None] * wave
    for _ in range(5):
        cy, cx = rng.uniform(0.0, 1.0, size=2)
        r = rng.uniform(0.05, 0.25)
        if rng.uniform() < 0.5:
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 < r * r
        else:
            mask = (np.abs(yy - cy) < r) & (np.abs(xx - cx) < rng.uniform(0.05, 0.25))
        colour = rng.uniform(0.05, 0.95, size=3)
        img = np.where(mask, 0.3 * img + 0.7 * colour[:, None, None], img)
    return np.clip(img, 0.02, 0.98)


def illumination(rng: np.random.Generator, size: int) -> np.ndarray:
    """Smooth [S,S] gain: a dim floor plus Gaussian pools, peaking at 0.3..0.6."""
    yy, xx = _grid(size)
    light = np.zeros((size, size))
    for _ in range(3):
        cy, cx = rng.uniform(-0.2, 1.2, size=2)
        sigma = rng.uniform(0.15, 0.5)
        light += rng.uniform(0.3, 1.0) * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma))
    floor = rng.uniform(0.03, 0.1)
    return floor + (rng.uniform(0.3, 0.6) - floor) * light / light.max()


def pair(seed: int, index: int, size: int) -> Pair:
    rng = np.random.default_rng([seed, index])
    normal = scene(rng, size)
    gamma = rng.uniform(1.4, 2.2)
    low = illumination(rng, size)[None] * normal**gamma
    low = np.clip(low + rng.normal(0.0, 0.003, size=low.shape), 0.0, 1.0)
    side = size // 2  # fixed, so every operation computes the same amount
    region = (int(rng.integers(0, size - side + 1)), int(rng.integers(0, size - side + 1)), side, side)
    return Pair(low, normal, float(rng.uniform(0.5, 0.9)), region, int(rng.integers(0, 2**31)))


def pool(seed: int, count: int, size: int) -> list[Pair]:
    """The ``count`` distinct examples a run cycles through."""
    return [pair(seed, i, size) for i in range(count)]
