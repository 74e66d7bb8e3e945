import math

import numpy as np
import pytest

from checks import ate


def test_ate_hand_computed():
    est = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [3.0, 0.0, 1.0]])
    truth = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [0.0, 4.0, 1.0]])
    # per-point errors 0, 1, 2 and 5 (a 3-4-5 triangle)
    rmse, worst = ate(est, truth)
    assert rmse == pytest.approx(math.sqrt((0 + 1 + 4 + 25) / 4), rel=1e-15)
    assert worst == 5.0


def test_ate_is_symmetric_and_zero_on_identity():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    assert ate(a, b) == ate(b, a)
    assert ate(a, a) == (0.0, 0.0)


@pytest.mark.parametrize(
    "est, truth", [(np.zeros((3, 3)), np.zeros((4, 3))), (np.zeros((0, 3)), np.zeros((0, 3)))]
)
def test_ate_rejects_unmatched_or_empty(est, truth):
    with pytest.raises(ValueError):
        ate(est, truth)
