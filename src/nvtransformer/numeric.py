"""Dense float64 numerics used by every other module, and the package's
seeded generator.

Arrays are float64, with heads and padded batches stacked on leading axes.
Randomness (random weights, corpora and evaluation inputs) always flows
through a `numpy.random.Generator` created by `make_rng`, so identical seeds
plus identical call sequences give bit-identical results on every platform
we target.  Nothing here samples attention: the seeded draws of the
Monte-Carlo training path are test-side references (`tests/reference.py`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "affine",
    "make_rng",
    "softmax_rows",
]


def affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b in one buffer: the product, then b added in place."""
    out = x @ w
    out += b
    return out


def _check_integer(n, name: str) -> None:
    """A ValueError naming `name` unless n is an integer, not a bool."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {n!r}")


def _check_count(n, name: str) -> None:
    """A ValueError naming `name` unless n is a nonnegative integer."""
    _check_integer(n, name)
    if n < 0:
        raise ValueError(f"{name} must be nonnegative, got {n}")


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator (PCG64).  One owner per generator; never share across
    concurrent callers.  The seed must be a nonnegative integer."""
    _check_count(seed, "seed")
    return np.random.default_rng(seed)


def softmax_rows(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, stabilised by subtracting each row's max.

    Entries of -inf are allowed and map to exactly zero weight, which is how
    masking is implemented upstream.  A row that is entirely -inf has no
    well-defined softmax and raises, before anything is written.  The
    result is written to `out`, as in NumPy, which may be `a` itself (the
    attention kernels normalise their own scores so); with `out` None it is
    the one new array and `a` is never written.  The exp and the division
    run in the result, so the bits are the same either way.
    """
    # the ufunc reductions that np.max, np.all and np.sum call, without wrappers
    a = np.asarray(a, dtype=np.float64)
    m = np.maximum.reduce(a, axis=-1, keepdims=True)
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise ValueError("softmax given a row with no finite entries")
    e = np.subtract(a, m, out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e
