"""Adam optimizer over one parameter vector."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adaptive moment estimation with bias correction.

    Keeps the first/second moment accumulators of one parameter
    vector; the learning rate is a plain attribute so schedules can
    reassign it between steps.
    """

    def __init__(self, learning_rate: float = 0.001):
        self.learning_rate = learning_rate
        self.t = 0
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """Update ``params`` in place from ``grads``."""
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        m, v = self.m, self.v
        m *= BETA1
        m += (1.0 - BETA1) * grads
        v *= BETA2
        v += (1.0 - BETA2) * (grads * grads)
        params -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)
