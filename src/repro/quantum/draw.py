"""Exact shot draws shared by the exact backends.

:func:`draw_keys` is ``Generator.choice(p=...)`` spelled out step for
step — CDF, one ``rng.random(shots)`` call, right-bisect (over the
sorted uniforms, which keeps the draw's multiset) — followed by the
subset bit-packing that turns basis indices into measurement keys.
The statevector sampler feeds it the normalised probability CDF
(:func:`probability_cdf`), the stabilizer sampler the uniform CDF over
its enumerated support, so both consume a generator exactly as
``rng.choice`` would and histories under shared seeds agree bit for
bit.  Spelling the draw out is what lets a caller skip the counts
dictionary and bin the keys straight into a dense ``np.bincount``
array (see ``MeasurementGroup.expectation_from_keys``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

import numpy as np

#: Key widths up to this are counted through a dense ``bincount``
#: (at most 512 KiB of bins); wider keys — stabilizer subsets of up to
#: 62 qubits — go through ``np.unique`` instead.
_DENSE_MAX_WIDTH = 16

#: ``Generator.choice``'s tolerance on ``sum(p) - 1``.
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def probability_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF ``rng.choice(p=probs / probs.sum())`` draws from.

    Normalised first (guarding tiny floating-point drift in
    ``|amplitudes|^2``), then ``cumsum`` and ``cdf /= cdf[-1]``, as
    ``Generator.choice`` does.  Raises :class:`ValueError` where
    ``choice`` would: negative, NaN or non-finite probabilities (a
    non-finite entry normalises to NaN), or a sum away from 1.
    """
    probs = probs / probs.sum()
    if (probs < 0).any():
        raise ValueError("probabilities are not non-negative")
    cdf = probs.cumsum()
    total = cdf[-1]
    if np.isnan(total):
        raise ValueError("probabilities contain NaN")
    if abs(total - 1.0) > _SUM_ATOL:
        raise ValueError("probabilities do not sum to 1")
    cdf /= total
    return cdf


def draw_keys(
    cdf: np.ndarray,
    shots: int,
    rng: np.random.Generator,
    n_qubits: int,
    qubits: Optional[Iterable[int]] = None,
    outcomes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``shots`` measurement keys drawn from ``cdf``: the draws of
    ``rng.choice(cdf.size, size=shots, p=...)``, as a multiset.

    Each uniform ``u`` of one ``rng.random(shots)`` call picks the basis
    index ``cdf.searchsorted(u, "right")`` (mapped through ``outcomes``
    when given).  The uniforms are sorted first: a key depends only on
    its own uniform, so the multiset — every histogram and counts
    dictionary of the draw — is unchanged, while the bisect over sorted
    uniforms runs about three times faster.  Keys come back in that
    uniform order, not in draw order.  They are little-endian integers
    over the sorted ``qubits`` subset: bit *i* of a key is the i-th
    measured qubit.
    """
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    uniforms = rng.random(shots)
    uniforms.sort()
    picked = cdf.searchsorted(uniforms, side="right")
    if outcomes is not None:
        picked = outcomes[picked]
    subset = sorted(set(qubits)) if qubits is not None else list(range(n_qubits))
    if subset == list(range(n_qubits)):
        # All qubits measured in order: the packing is the identity.
        return picked
    keys = np.zeros(shots, dtype=np.int64)
    for position, qubit in enumerate(subset):
        keys |= ((picked >> np.int64(qubit)) & 1) << np.int64(position)
    return keys


def counts_from_keys(keys: np.ndarray, width: int) -> Dict[int, int]:
    """The ``{key: count}`` dictionary of a draw, keys ascending (the
    order ``np.unique`` gives)."""
    if width <= _DENSE_MAX_WIDTH:
        hist = np.bincount(keys, minlength=1 << width)
        unique = np.flatnonzero(hist)
        multiplicity = hist[unique]
    else:
        unique, multiplicity = np.unique(keys, return_counts=True)
    return dict(zip(unique.tolist(), multiplicity.tolist()))


def shot_words(draw: Union[np.ndarray, Dict[int, int]]) -> List[int]:
    """One measurement word per shot, ascending: the keys of a draw
    sorted, or a counts dictionary expanded key by key."""
    if isinstance(draw, dict):
        return [key for key in sorted(draw) for _ in range(draw[key])]
    return np.sort(draw).tolist()
