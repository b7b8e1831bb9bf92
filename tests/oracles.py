"""Reference computations for the tests that share no code with `twoscale.engine`.

At constant step sizes the second-moment recursion C <- P C P' + D Gamma D,
P = I - D A, has the closed form C_k = C_inf + P^k (C_0 - C_inf) P'^k, where
C_inf solves the Stein equation C = P C P' + D Gamma D.  It checks the
moments that the engine's routes compose, not their paths: a bug that
permutes a segment's inputs leaves every moment of i.i.d. inputs unchanged.
Power-law steps are followed by freezing them on short geometric intervals,
each moved by the same closed form, to second order in the interval length.
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


def piecewise_moment(A, Gamma, n, pair, ks, delta) -> list[np.ndarray]:
    """The second moment C_k of z_{j+1} = (I - D_j A) z_j + D_j u_j from C_0 = 0 for each k of ks.

    D_j = diag(beta_j I_n, gamma_j I_m), beta_j and gamma_j read from
    pair.slow and pair.fast.  Steps below 64, and every interval that would
    hold one step, are taken one at a time.  From k = 64 on, the steps
    [k, k + h) with h = floor(k delta), cut at the next k of ks, share the D
    of their midpoint k + (h - 1)/2 and move C by `frozen_moment`'s closed
    form.  The error is of second order in delta.
    """
    d = len(A)
    C = np.zeros((d, d))
    out, k = [], 0
    for stop in sorted(ks):
        while k < stop:
            h = min(stop - k, 1 if k < 64 else max(1, int(k * delta)))
            mid = k + (h - 1) / 2
            D = np.diag([pair.slow.value(mid)] * n + [pair.fast.value(mid)] * (d - n))
            if h == 1:
                P = np.eye(d) - D @ A
                C = P @ C @ P.T + D @ Gamma @ D
            else:
                C = frozen_moment(A, D, Gamma, C, [h])[0]
            k += h
        out.append(C)
    return out
