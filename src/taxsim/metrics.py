"""Evaluation metrics: Gini index, the equality score derived from it,
per-capita productivity, their product as the social outcome, and the annual
inflation/unemployment series.

``gini``, ``equality`` and ``productivity`` also take any stack of rows,
such as the wealth of an ensemble of runs (runs x N) or of several months of
it (months x runs x N), and give each row's value; so do the annual
functions, of each run's price history (runs x months) or employment window
(runs x 12 x N). numpy reduces along the last axis, where each row is
contiguous, exactly as it reduces that row alone, so a row's value has the
bits of the 1-D call on it. A strided stack, such as a transposed view, is
reduced left to right instead, so the annual functions copy their stack to
C order first."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _per_row(values: np.ndarray):
    """A float for a vector's value, the array of row values otherwise."""
    return float(values) if values.ndim == 0 else values


def gini(values: Sequence[float] | np.ndarray):
    """Gini index of a nonnegative vector: the mean absolute pairwise
    difference normalized by twice the mean, in [0, (N-1)/N].

    Computed by the sorted-rank identity; an all-zero vector is 0 by
    convention.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("gini of an empty vector is undefined")
    if not (arr >= 0).all():  # NaN fails too
        raise ValueError("gini requires nonnegative values")
    n = arr.shape[-1]
    total = arr.sum(axis=-1)
    ordered = arr.copy()
    ordered.sort(axis=-1)
    ranks = np.arange(1, n + 1)
    weighted = ((2 * ranks - n - 1) * ordered).sum(axis=-1)
    return _per_row(
        np.divide(weighted, n * total, out=np.zeros_like(total), where=total != 0.0)
    )


def equality(values: Sequence[float] | np.ndarray, gini_index=None):
    """Equality score (1 - gini) * (N-1)/N; 0 is worst, (N-1)/N is perfect.
    ``gini_index`` is the gini of ``values`` when the caller has it already."""
    n = np.shape(values)[-1]
    if gini_index is None:
        gini_index = gini(values)
    return (1.0 - gini_index) * (n - 1) / n


def productivity(values: Sequence[float] | np.ndarray, per_capita: bool = True):
    """Aggregate wealth, per capita by default (``per_capita=False`` gives
    the plain sum)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("productivity of an empty vector is undefined")
    total = arr.sum(axis=-1)
    return _per_row(total / arr.shape[-1] if per_capita else total)


def social_outcome(equality_score: float, productivity_score: float) -> float:
    """The scalar objective: equality times productivity."""
    return equality_score * productivity_score


def annual_inflation(monthly_prices: Sequence[float] | np.ndarray):
    """Year-over-year change of the mean monthly price across the last two
    complete years; 0.0 while fewer than two years exist. Of a (runs x
    months) stack, each run's change."""
    prices = np.ascontiguousarray(monthly_prices, dtype=float)
    full_years = prices.shape[-1] // 12
    if full_years < 2:
        return _per_row(np.zeros(prices.shape[:-1]))
    current = prices[..., 12 * (full_years - 1) : 12 * full_years].mean(axis=-1)
    previous = prices[..., 12 * (full_years - 2) : 12 * (full_years - 1)].mean(axis=-1)
    return _per_row((current - previous) / previous)


def annual_unemployment(labor_history: Sequence[Sequence[int]] | np.ndarray):
    """Fraction of household-months not worked over exactly twelve months.

    ``labor_history`` is a 12 x N matrix of 0/1 employment indicators, or a
    (runs x 12 x N) stack of them, which gives each run's fraction.
    """
    arr = np.ascontiguousarray(labor_history, dtype=float)
    if arr.ndim < 2 or arr.shape[-2] != 12 or arr.shape[-1] < 1:
        raise ValueError("labor history must be a 12 x N matrix")
    return _per_row(1.0 - arr.reshape(*arr.shape[:-2], -1).mean(axis=-1))
