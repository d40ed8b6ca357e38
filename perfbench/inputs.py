"""Seeded input generators.  The package receives only what these produce."""

from __future__ import annotations

import struct

import numpy as np
from scipy.stats import qmc

IMAGE_SIDE = 28
STROKE_WIDTH = 1.2   # Gaussian pen radius, pixels
LABEL_NOISE = 0.3


def swiss_roll(n: int, seed: int) -> np.ndarray:
    """n points of a noise-free swiss roll in 3-D: (t cos t, h, t sin t) with
    t ~ U[1.5 pi, 4.5 pi] and h ~ U[0, 21]."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(1.5 * np.pi, 4.5 * np.pi, n)
    h = rng.uniform(0.0, 21.0, n)
    return np.column_stack([t * np.cos(t), h, t * np.sin(t)])


def _polyline(points) -> np.ndarray:
    """Points spaced at most one pixel apart along a polyline."""
    points = np.asarray(points, dtype=float)
    out = []
    for a, b in zip(points[:-1], points[1:]):
        steps = max(2, int(np.ceil(np.linalg.norm(b - a))))
        out.append(a + np.linspace(0.0, 1.0, steps, endpoint=False)[:, None] * (b - a))
    out.append(points[-1:])
    return np.concatenate(out)


def _glyphs() -> list[np.ndarray]:
    """Six fixed stroke skeletons, centered on (0, 0), in pixel units."""
    angle = np.linspace(0.0, 2.0 * np.pi, 40)
    ring = np.column_stack([5.5 * np.cos(angle), 7.5 * np.sin(angle)])
    return [
        _polyline(ring),                                            # "0"
        _polyline([[0.0, -8.0], [0.0, 8.0]]),                       # "1"
        _polyline([[-6.0, -7.0], [6.0, -7.0], [-2.0, 8.0]]),        # "7"
        _polyline([[-5.0, -8.0], [-5.0, 7.0], [6.0, 7.0]]),         # "L"
        np.concatenate([_polyline([[-6.0, -7.0], [6.0, 7.0]]),
                        _polyline([[6.0, -7.0], [-6.0, 7.0]])]),    # "X"
        np.concatenate([_polyline([[0.0, -8.0], [0.0, 8.0]]),
                        _polyline([[-7.0, 0.0], [7.0, 0.0]])]),     # "+"
    ]


def digit_images(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """MNIST-shaped labeled images: (n, 28*28) uint8 pixels, labels 0..5.

    The six glyphs form a chain: each image cross-fades glyph c into glyph
    c+1 at a morph position m in [0, 6), its label is c = floor(m), and it is
    rotated by up to 15 degrees and overlaid with pixel noise.  The images
    thus lie on one connected 2-D manifold (morph x rotation), as LLE
    assumes, on which neighboring images mostly share a label.  Morph and
    rotation are Latin-hypercube samples, so every seed covers the manifold
    evenly.  A LABEL_NOISE share of the labels is replaced by a uniformly
    drawn class, so the classes overlap as hand-labeled data does.
    """
    rng = np.random.default_rng(seed)
    glyphs = _glyphs()
    u = qmc.LatinHypercube(d=2, seed=rng).random(n)
    morph = len(glyphs) * u[:, 0]
    labels = np.minimum(morph.astype(np.int64), len(glyphs) - 1)
    fade = morph - labels
    theta = np.deg2rad(30.0 * u[:, 1] - 15.0)
    ink = rng.normal(0.0, 0.05, (n, IMAGE_SIDE * IMAGE_SIDE))   # pixel noise

    grid = np.stack(np.meshgrid(np.arange(IMAGE_SIDE), np.arange(IMAGE_SIDE),
                                indexing="xy"), axis=-1).reshape(-1, 2) - 13.5
    grid_sq = (grid * grid).sum(axis=1)
    for i in range(n):
        rot = np.array([[np.cos(theta[i]), -np.sin(theta[i])],
                        [np.sin(theta[i]), np.cos(theta[i])]])
        nxt = min(labels[i] + 1, len(glyphs) - 1)
        for glyph, weight in ((glyphs[labels[i]], 1.0 - fade[i]), (glyphs[nxt], fade[i])):
            s = glyph @ rot.T
            d2 = (grid @ (-2.0 * s.T) + (s * s).sum(axis=1)).min(axis=1) + grid_sq
            ink[i] += weight * np.exp(-d2 / (2.0 * STROKE_WIDTH ** 2))
    images = np.clip(np.rint(255.0 * ink), 0, 255).astype(np.uint8)
    relabel = rng.uniform(size=n) < LABEL_NOISE
    labels = np.where(relabel, rng.integers(0, len(glyphs), n), labels)
    return images, labels


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Big-endian IDX files: magic 0x803 image file and 0x801 label file."""
    n = images.shape[0]
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, IMAGE_SIDE, IMAGE_SIDE))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(labels.astype(np.uint8).tobytes())


def warm_up(seed: int) -> None:
    """One LAPACK eigensolve and one factorization through each BLAS in use
    (numpy's and scipy's), so thread pools and lazy loading are paid here."""
    import scipy.linalg

    rng = np.random.default_rng(seed)
    A = rng.standard_normal((400, 400))
    S = A @ A.T + 400.0 * np.eye(400)
    np.linalg.eigh(S)
    scipy.linalg.cho_factor(S)
