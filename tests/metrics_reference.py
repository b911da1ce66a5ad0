"""A frozen copy of ``metrics.eval_metrics``'s scoring loop from before
``EvalReport`` read its scores from its matrix.

``scores`` returns the precision, recall, F-measure and accuracy that the
old function stored beside the matrix. The property test in
``tests/test_metrics.py`` requires ``EvalReport``'s properties to compare
equal to them, float for float. Keep the loop as it is.
"""

from __future__ import annotations

import numpy as np

from polistance.metrics import f_measure


def scores(confusion):
    """(precision, recall, f_measures, accuracy) of a square nonnegative
    integer matrix with a positive total."""
    matrix = np.asarray(confusion)
    total = int(matrix.sum())
    precision = []
    recall = []
    f_scores = []
    for i in range(matrix.shape[0]):
        column = int(matrix[:, i].sum())
        row = int(matrix[i, :].sum())
        diag = int(matrix[i, i])
        p = diag / column if column else 0.0
        r = diag / row if row else 0.0
        precision.append(p)
        recall.append(r)
        f_scores.append(f_measure(p, r))
    return (tuple(precision), tuple(recall), tuple(f_scores),
            int(np.trace(matrix)) / total)
