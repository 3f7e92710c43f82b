"""Desired output trajectories built from sums of sinusoids.

Each output channel is a finite sum ``y_j(t) = sum a sin(w t + p)``, so
every derivative is available in closed form and uniformly bounded.  The
controller path never differentiates numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

Array = np.ndarray


@dataclass(frozen=True)
class SinusoidSum:
    """Per-channel lists of ``(amplitude, angular_frequency, phase)`` terms."""

    channels: tuple[tuple[tuple[float, float, float], ...], ...]

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def derivative(self, channel: int, order: int, t) -> Array:
        """Closed-form ``order``-th derivative of channel ``channel`` at ``t``.

        Uses ``d^m/dt^m [a sin(w t + p)] = a w^m sin(w t + p + m pi/2)``.
        """
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for amp, omega, phase in self.channels[channel]:
            out = out + amp * omega ** order * np.sin(omega * t + phase + order * np.pi / 2.0)
        return out


@dataclass(frozen=True)
class ReferenceSample:
    """The reference at one instant, or along an array of times (leading axis)."""

    t: float | Array
    xi_d: Array
    y_dgamma: Array


def sample_reference(ref: SinusoidSum, gamma, t) -> ReferenceSample:
    """Evaluate ``xi_d(t)`` and the feedforward ``y_d^(gamma)(t)`` analytically.

    ``xi_d`` stacks channel ``j``'s derivatives of orders ``0 .. gamma_j - 1``
    block by block; ``y_dgamma`` holds the ``gamma_j``-th derivatives.  Both
    broadcast over an array of times, entry for entry equal to per-time calls.
    """
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) != ref.n_channels:
        raise DimensionError(f"reference has {ref.n_channels} channels for gamma {gamma}")
    t = np.asarray(t, dtype=float)
    xi_d = np.stack([ref.derivative(j, order, t)
                     for j, g in enumerate(gamma) for order in range(g)], axis=-1)
    y_dgamma = np.stack([ref.derivative(j, g, t) for j, g in enumerate(gamma)], axis=-1)
    return ReferenceSample(t=float(t) if t.ndim == 0 else t, xi_d=xi_d, y_dgamma=y_dgamma)


def uniform_bound(ref: SinusoidSum, gamma) -> float:
    """Certified upper bound on every tracked derivative, all channels.

    ``|d^m/dt^m a sin(w t + p)| <= |a| w^m <= |a| max(1, w)^gamma_j`` for all
    orders ``m <= gamma_j``, summed over terms and channels.
    """
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) != ref.n_channels:
        raise DimensionError(f"reference has {ref.n_channels} channels for gamma {gamma}")
    total = 0.0
    for terms, g in zip(ref.channels, gamma):
        for amp, omega, _ in terms:
            total += abs(amp) * max(1.0, abs(omega)) ** g
    return total


def two_tone_reference(n_channels: int, amplitude: float = 0.5,
                       base_frequency: float = 0.7) -> SinusoidSum:
    """Default persistently exciting reference: two incommensurate tones.

    Each channel sums sinusoids at ``base_frequency`` and ``sqrt(2)`` times
    it; the irrational ratio keeps the trajectory from closing on itself, so
    the regressors it generates keep exploring.
    """
    terms = ((amplitude, base_frequency, 0.0),
             (amplitude, base_frequency * np.sqrt(2.0), 0.0))
    return SinusoidSum(channels=(terms,) * n_channels)
