"""Reference model construction, gain design, and exact tracking control.

The linearized coordinates ``xi`` stack each output with its derivatives,
block by block: ``(y_1, y_1', ..., y_1^(g1-1), ..., y_q, ..., y_q^(gq-1))``
for relative degree ``gamma = (g1, ..., gq)``.  Every matrix in the package
uses this ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionError

if TYPE_CHECKING:
    from .plants import PlantModel

Array = np.ndarray


@dataclass(frozen=True)
class ReferenceModel:
    """Block chain-of-integrators model ``xi' = A xi + B v``.

    ``A`` has ones on each block's superdiagonal and zeros elsewhere; ``B``
    selects the highest derivative row of each block, so ``B.T @ B`` is the
    q-by-q identity exactly.
    """

    A: Array
    B: Array
    gamma: tuple[int, ...]

    @property
    def q(self) -> int:
        return len(self.gamma)

    @property
    def total_degree(self) -> int:
        return int(sum(self.gamma))

    @property
    def block_starts(self) -> tuple[int, ...]:
        starts = np.concatenate([[0], np.cumsum(self.gamma)[:-1]])
        return tuple(int(s) for s in starts)


@dataclass(frozen=True)
class GainMatrix:
    """Feedback gain ``K`` of the error dynamics ``e' = (A + B K) e``.

    :func:`design_gain` places every eigenvalue of ``A + B K`` at one pole.
    """

    K: Array


def build_reference_model(gamma) -> ReferenceModel:
    """Build the chain-of-integrators reference model for a relative degree.

    Parameters
    ----------
    gamma : sequence of int
        Per-output relative degrees, all >= 1.
    """
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) == 0:
        raise ValueError("gamma must have at least one output channel")
    if any(g < 1 for g in gamma):
        raise ValueError(f"all relative degrees must be >= 1, got {gamma}")
    total = sum(gamma)
    A = np.zeros((total, total))
    B = np.zeros((total, len(gamma)))
    row = 0
    for j, g in enumerate(gamma):
        for i in range(g - 1):
            A[row + i, row + i + 1] = 1.0
        B[row + g - 1, j] = 1.0
        row += g
    return ReferenceModel(A=A, B=B, gamma=gamma)


def design_gain(ref: ReferenceModel, pole: float) -> GainMatrix:
    """Place every closed-loop eigenvalue of ``A + B K`` at ``pole``.

    Each output block is an integrator chain, so coefficient matching against
    ``(s - pole)^g`` gives the block's gain row directly and ``K`` is block
    structured (zeros across blocks).
    """
    pole = float(pole)
    if pole >= 0:
        raise ValueError(f"pole must be strictly negative, got {pole}")
    K = np.zeros((ref.q, ref.total_degree))
    for j, (g, start) in enumerate(zip(ref.gamma, ref.block_starts)):
        # y^(g) = sum_i k_i y^(i) with char poly s^g - sum_i k_i s^i = (s-pole)^g
        for i in range(g):
            K[j, start + i] = -comb(g, i) * (-pole) ** (g - i)
    return GainMatrix(K=K)


def tracking_error(xi: Array, xi_d: Array) -> Array:
    """Tracking error ``e = xi - xi_d`` in the stacked coordinates."""
    xi = np.asarray(xi, dtype=float)
    xi_d = np.asarray(xi_d, dtype=float)
    if xi.shape != xi_d.shape:
        raise DimensionError(f"xi shape {xi.shape} != xi_d shape {xi_d.shape}")
    return xi - xi_d


def exact_tracking_control(model: PlantModel, x: Array, xi_d: Array, y_dgamma: Array,
                           gains: GainMatrix) -> Array:
    """Exact-model tracking law ``u = beta(x) + alpha(x) (y_d^(g) + K e)``.

    Requires the plant's true linearizing controller, so this is the oracle
    controller the learned one is measured against.
    """
    from .plants import linearizing_terms  # deferred: plants imports this module

    x = np.asarray(x, dtype=float)
    e = tracking_error(model.output_chain(x), xi_d)
    beta, alpha = linearizing_terms(model, x)
    return beta + alpha @ (np.asarray(y_dgamma, dtype=float) + gains.K @ e)
