"""Threshold curves and operating-point selection.

The paper states it "configured our model to minimize false positives,
even at the cost of missing the detection of some actual falls" — i.e. the
deployment threshold is chosen on the precision-heavy end of the ROC/PR
trade-off.  This module provides the curves and a selector that picks the
lowest threshold meeting a false-positive budget on validation data.
"""

from __future__ import annotations

import numpy as np

__all__ = ["roc_curve", "pr_curve", "auc", "threshold_for_fp_budget"]


def _check_inputs(y_true, scores):
    y_true = np.asarray(y_true).reshape(-1).astype(int)
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if y_true.shape != scores.shape:
        raise ValueError(
            f"labels and scores disagree: {y_true.shape} vs {scores.shape}"
        )
    if y_true.size == 0:
        raise ValueError("empty evaluation set")
    return y_true, scores


def roc_curve(y_true, scores):
    """ROC points swept over every distinct score.

    Returns ``(fpr, tpr, thresholds)`` sorted by ascending FPR, with the
    conventional (0,0) and (1,1) endpoints included.
    """
    y_true, scores = _check_inputs(y_true, scores)
    pos = int(y_true.sum())
    neg = y_true.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    sorted_true = y_true[order]
    tps = np.cumsum(sorted_true)
    fps = np.cumsum(1 - sorted_true)
    # Keep the last point of each tied-score block.
    distinct = np.flatnonzero(np.diff(scores[order], append=-np.inf))
    tpr = np.concatenate([[0.0], tps[distinct] / pos])
    fpr = np.concatenate([[0.0], fps[distinct] / neg])
    thresholds = np.concatenate([[np.inf], scores[order][distinct]])
    return fpr, tpr, thresholds


def pr_curve(y_true, scores):
    """Precision-recall points; returns ``(recall, precision, thresholds)``."""
    y_true, scores = _check_inputs(y_true, scores)
    pos = int(y_true.sum())
    if pos == 0:
        raise ValueError("PR curve needs at least one positive")
    order = np.argsort(-scores, kind="stable")
    sorted_true = y_true[order]
    tps = np.cumsum(sorted_true)
    predicted = np.arange(1, y_true.size + 1)
    distinct = np.flatnonzero(np.diff(scores[order], append=-np.inf))
    recall = tps[distinct] / pos
    precision = tps[distinct] / predicted[distinct]
    return recall, precision, scores[order][distinct]


def auc(x, y) -> float:
    """Trapezoidal area under a curve given by sorted ``x`` and ``y``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("auc needs two equal-length arrays of >= 2 points")
    order = np.argsort(x, kind="stable")
    return float(np.trapezoid(y[order], x[order]))


def threshold_for_fp_budget(y_true, scores, max_fpr: float = 0.02) -> float:
    """Lowest threshold whose validation FPR stays within ``max_fpr``.

    This mirrors the paper's deployment tuning: prioritise not firing the
    airbag spuriously.  Returns 0.5 if even that violates the budget is
    impossible to satisfy (degenerate scores) — callers can inspect the
    curve for diagnostics.
    """
    if not 0.0 <= max_fpr <= 1.0:
        raise ValueError(f"max_fpr must be in [0, 1], got {max_fpr}")
    fpr, tpr, thresholds = roc_curve(y_true, scores)
    ok = np.flatnonzero(fpr <= max_fpr)
    if ok.size == 0:
        return 0.5
    # Among budget-respecting points take the one with the best TPR
    # (lowest usable threshold).
    best = ok[np.argmax(tpr[ok])]
    threshold = thresholds[best]
    if not np.isfinite(threshold):
        return 1.0
    return float(threshold)
