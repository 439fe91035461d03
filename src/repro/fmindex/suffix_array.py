"""Suffix sorting and the Burrows-Wheeler transform.

One suffix sorter serves both indexes: :func:`prefix_ranks`, prefix
doubling over int32 ranks with one ``argsort`` of a packed int64 key per
round.  Capped, it ranks every suffix by its first ``cap`` characters and
the ERT builder (:mod:`repro.core.builder`) keeps every round's ranks to
lift adjacent LCPs over them (:func:`pair_lcp`); uncapped, it runs until
every suffix has a rank of its own, and the last round's order is the
suffix array the FMD-index is built on (:func:`suffix_array`).  The
comparison convention is the usual one for FM-indexes: a suffix that is a
proper prefix of another sorts *first*, equivalent to terminating the text
with a unique smallest sentinel.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


def prefix_ranks(
    text: np.ndarray, cap: "int | None" = None,
) -> "Iterator[tuple[np.ndarray, int, np.ndarray | None]]":
    """Rank every suffix of ``text`` (non-negative int codes) by its first
    1, 2, 4, ... characters (prefix doubling), one ``(rank, span, order)``
    level at a time.

    ``rank`` is int32 of ``n + 1`` entries, equal iff the first ``span``
    characters are; entry ``n``, the empty suffix, is 0 and every real rank
    is in 1..n, so the end of the text sorts before any character.  The
    first level ranks by one character and comes before any sort.
    Doubling stops once every rank is distinct or, with ``cap``, once
    ``span`` reaches it (the last round shifts by less than ``span``, so it
    ranks by exactly ``cap`` characters).  ``order`` is None but on the
    last level (so no caller holds a round's order through the next
    round), where it is the suffixes sorted by their first ``span``
    characters, ties in no particular order: uncapped, the suffix array.
    (A ``cap`` of 1 makes no sort, so its one level has no ``order``.)
    """
    text = np.asarray(text)
    n = int(text.size)
    if n and text.min() < 0:
        raise ValueError("text codes must be non-negative")
    # The packed key below is exact only while every rank is <= n, so
    # codes that would exceed it are replaced by their dense ranks.
    rank = np.zeros(n + 1, dtype=np.int32)
    rank[:n] = (np.unique(text, return_inverse=True)[1]
                if n and text.max() >= n else text)
    rank[:n] += 1
    span = 1
    last = cap is not None and cap <= 1
    yield rank, span, None
    while not last:
        # Overlapping windows: (first span chars, chars [shift, shift +
        # span)) spell exactly the first span + shift characters.
        shift = span if cap is None else min(span, cap - span)
        key = rank[:n].astype(np.int64)
        key *= n + 1
        key[:max(n - shift, 0)] += rank[shift:n]
        order = np.argsort(key)
        key = key[order]
        new = np.empty(n, dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        del key
        rank = np.zeros(n + 1, dtype=np.int32)
        rank[order] = np.cumsum(new, dtype=np.int32)
        span += shift
        last = bool(new.all()) or (cap is not None and span >= cap)
        yield rank, span, order if last else None


def pair_lcp(levels: "list[np.ndarray]", spans: "list[int]",
             a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Longest common prefix of suffixes ``a[i]`` and ``b[i]`` (distinct
    positions), capped at ``spans[-1]``, given every level
    :func:`prefix_ranks` yielded.

    Binary lifting, highest level first: the top level answers "all
    ``spans[-1]`` characters equal"; below it the levels are powers of two
    and the uncapped remainder is below twice the largest of them.  Two
    distinct suffixes that matched ``lcp`` characters both have at least
    ``lcp`` of them, so ``a + lcp`` and ``b + lcp`` stay within the
    ``n + 1`` rank entries.
    """
    full = levels[-1][a] == levels[-1][b]
    lcp = np.where(full, spans[-1], 0).astype(np.int32)
    for rank, span in zip(levels[-2::-1], spans[-2::-1]):
        same = rank[a + lcp] == rank[b + lcp]
        same &= ~full
        lcp[same] += span
    return lcp


def suffix_array(text: np.ndarray) -> np.ndarray:
    """Return the suffix array of ``text`` (any non-negative int codes).

    ``sa[r]`` is the start position of the ``r``-th smallest suffix, where a
    suffix that runs off the end compares as smaller than any extension of
    it (implicit terminal sentinel).  Only the last level's order is kept.

    >>> suffix_array(np.array([1, 0, 1, 0])).tolist()  # "baba"
    [3, 1, 2, 0]
    """
    for _rank, _span, order in prefix_ranks(text):
        pass
    return order.astype(np.int64, copy=False)


def bwt_from_sa(text: np.ndarray, sa: np.ndarray, sentinel: int) -> np.ndarray:
    """Compute the BWT of ``text`` terminated by an implicit sentinel.

    The logical text is ``text + [sentinel]``; the returned BWT has length
    ``len(text) + 1`` and contains ``sentinel`` exactly once (at the row of
    the suffix starting at position 0).  The row order is: the sentinel
    suffix first, then the rows given by ``sa``.
    """
    arr = np.asarray(text)
    n = arr.size
    bwt = np.empty(n + 1, dtype=arr.dtype)
    # Row 0 is the sentinel-only suffix; its preceding char is text[-1].
    bwt[0] = arr[n - 1] if n else sentinel
    prev = np.asarray(sa, dtype=np.int64) - 1
    chars = np.where(prev >= 0, arr[prev], sentinel)
    bwt[1:] = chars
    return bwt
