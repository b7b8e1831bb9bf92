"""Reference computations for the tests that share no code with `twoscale.engine`.

At constant step sizes the second-moment recursion C <- P C P' + D Gamma D,
P = I - D A, has the closed form C_k = C_inf + P^k (C_0 - C_inf) P'^k, where
C_inf solves the Stein equation C = P C P' + D Gamma D.  It checks the
moments that the engine's routes compose, not their paths: a bug that
permutes a segment's inputs leaves every moment of i.i.d. inputs unchanged.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import scipy.linalg


class ConstantSchedule:
    """A step size that is the same at every step, read as the engine reads a `StepSchedule`."""

    def __init__(self, step: float):
        self.step = float(step)

    def value(self, k: int) -> float:
        return self.step

    def values(self, ks) -> np.ndarray:
        return np.full(np.shape(ks), self.step)


def constant_pair(beta: float, gamma: float) -> SimpleNamespace:
    """A schedule pair with .slow and .fast constant at beta and gamma."""
    return SimpleNamespace(slow=ConstantSchedule(beta), fast=ConstantSchedule(gamma))


def frozen_moment(A, D, Gamma, C0, ks) -> list[np.ndarray]:
    """The second moment C_k of z_{k+1} = (I - D A) z_k + D u_k, Cov u = Gamma, for each k of ks."""
    P = np.eye(len(A)) - D @ A
    C_inf = scipy.linalg.solve_discrete_lyapunov(P, D @ Gamma @ D)
    out = []
    for k in ks:
        Pk = np.linalg.matrix_power(P, k)
        out.append(C_inf + Pk @ (C0 - C_inf) @ Pk.T)
    return out
