"""Linear-in-parameters corrections to a nominal linearizing controller.

A :class:`BasisSet` holds ``n_scalar`` scalar feature functions ``phi_i(x)``
shared between the two correction blocks:

* vector corrections ``beta_corr(x) = sum_k theta1[k] * beta_k(x)`` where the
  ``beta_k`` enumerate ``phi_i(x) e_j`` over centers ``i`` and output
  channels ``j`` (``k1 = n_scalar * q`` of them), and
* matrix corrections ``alpha_corr(x) = sum_k theta2[k] * alpha_k(x)`` where
  the ``alpha_k`` enumerate ``phi_i(x) E_jl`` over centers and matrix slots
  (``k2 = n_scalar * q * q``).

The stacked parameter vector is ``theta = (theta1, theta2)`` with flat
layout ``theta1[i*q + j]`` and ``theta2[i*q*q + j*q + l]``.

The learned controller is ``u_hat(theta, x, v) = (beta_m(x) + beta_corr(x))
+ (alpha_m(x) + alpha_corr(x)) v`` with ``(beta_m, alpha_m)`` derived from a
nominal plant model on demand.  Nothing in this module ever inverts a
learned quantity, so no parameter value can make the controller singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import DimensionError

if TYPE_CHECKING:
    from .plants import PlantModel

Array = np.ndarray


@dataclass(frozen=True)
class BasisSet:
    """Scalar features plus the layout that turns them into controller bases.

    ``beta_scale`` and ``alpha_scale`` multiply the vector and matrix basis
    functions respectively.  Rescaling a basis rescales how strongly a unit
    parameter moves the controller, so with the fixed-step update these act
    as per-block adaptation gains; the gain-correction block usually wants a
    smaller one because it multiplies the loop gain.
    """

    kind: str
    state_dim: int
    io_dim: int
    n_scalar: int
    feature_fn: Callable[[Array], Array] = field(compare=False)
    centers: Array | None = None
    widths: Array | None = None
    beta_scale: float = 1.0
    alpha_scale: float = 1.0

    @property
    def k1(self) -> int:
        """Number of vector (beta) bases."""
        return self.n_scalar * self.io_dim

    @property
    def k2(self) -> int:
        """Number of matrix (alpha) bases."""
        return self.n_scalar * self.io_dim ** 2

    @property
    def size(self) -> int:
        return self.k1 + self.k2

    def features(self, x: Array) -> Array:
        """Scalar features ``phi(x)``, broadcasting over leading dims of x."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.state_dim,):
            raise DimensionError(f"state must have trailing dimension {self.state_dim}, "
                                 f"got shape {x.shape}")
        return self.feature_fn(x)

    def split(self, theta: Array) -> tuple[Array, Array]:
        """Reshape flat ``theta`` into ``(n_scalar, q)`` and ``(n_scalar, q, q)``."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.size,):
            raise DimensionError(f"theta must have shape ({self.size},), got {theta.shape}")
        q = self.io_dim
        theta1 = theta[:self.k1].reshape(self.n_scalar, q)
        theta2 = theta[self.k1:].reshape(self.n_scalar, q, q)
        return theta1, theta2


def _gaussian_features(centers: Array, widths: Array) -> Callable[[Array], Array]:
    def feature_fn(x):
        diff = x[..., None, :] - centers
        sq = np.sum(diff * diff, axis=-1)
        return np.exp(-0.5 * sq / widths ** 2)
    return feature_fn


def rbf_basis(centers: Array, widths, io_dim: int, beta_scale: float = 1.0,
              alpha_scale: float = 1.0) -> BasisSet:
    """Gaussian radial basis functions at explicit centers."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    widths = np.broadcast_to(np.asarray(widths, dtype=float), (centers.shape[0],)).copy()
    if np.any(widths <= 0):
        raise ValueError("all widths must be strictly positive")
    if beta_scale <= 0 or alpha_scale <= 0:
        raise ValueError("basis scales must be strictly positive")
    return BasisSet(kind="gaussian-rbf", state_dim=centers.shape[1], io_dim=int(io_dim),
                    n_scalar=centers.shape[0], feature_fn=_gaussian_features(centers, widths),
                    centers=centers, widths=widths,
                    beta_scale=float(beta_scale), alpha_scale=float(alpha_scale))


def build_rbf_grid(state_box, counts, width_rule: float, io_dim: int,
                   beta_scale: float = 1.0, alpha_scale: float = 1.0) -> BasisSet:
    """Gaussian RBFs on a tensor grid over a state box.

    Parameters
    ----------
    state_box : sequence of (lo, hi)
        Per-dimension intervals covering the operating region.
    counts : sequence of int
        Grid points per dimension, all >= 1.
    width_rule : float
        Every center gets width ``width_rule`` times the mean grid spacing
        (dimensions with a single point contribute their interval length).
    beta_scale, alpha_scale : float
        Output scales of the two basis blocks (see :class:`BasisSet`).
    """
    state_box = [(float(lo), float(hi)) for lo, hi in state_box]
    counts = [int(c) for c in counts]
    if len(state_box) == 0:
        raise ValueError("state_box must have at least one dimension")
    if len(counts) != len(state_box):
        raise DimensionError(f"counts has {len(counts)} entries for {len(state_box)} dimensions")
    if any(c < 1 for c in counts):
        raise ValueError(f"all counts must be >= 1, got {counts}")
    axes, spacings = [], []
    for (lo, hi), c in zip(state_box, counts):
        if hi <= lo:
            raise ValueError(f"empty interval ({lo}, {hi}) in state_box")
        axes.append(np.linspace(lo, hi, c) if c > 1 else np.array([0.5 * (lo + hi)]))
        spacings.append((hi - lo) / (c - 1) if c > 1 else hi - lo)
    centers = np.array(list(product(*axes)))
    width = float(width_rule) * float(np.mean(spacings))
    return rbf_basis(centers, width, io_dim, beta_scale=beta_scale, alpha_scale=alpha_scale)


def polynomial_basis(state_dim: int, degree: int, io_dim: int, beta_scale: float = 1.0,
                     alpha_scale: float = 1.0) -> BasisSet:
    """Monomial features of total degree <= ``degree`` (constant included).

    Each monomial is gathered from the columns of ``[x, 1]``: at degree <= 1
    a feature is one column, so the features are exactly ``x_i`` and ``1``;
    at higher degrees it is the product of ``degree`` gathered columns, the
    constant column padding lower-degree monomials.
    """
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    exponents = [e for e in product(range(degree + 1), repeat=state_dim) if sum(e) <= degree]
    exponents = sorted(exponents, key=lambda e: (sum(e), e))
    width = max(degree, 1)
    # column indices into [x, 1] of each monomial's factors
    factors = np.array([[i for i, p in enumerate(e) for _ in range(p)]
                        + [state_dim] * (width - sum(e)) for e in exponents])

    def with_ones(x):
        xa = np.empty(x.shape[:-1] + (state_dim + 1,))
        xa[..., :state_dim] = x
        xa[..., state_dim] = 1.0
        return xa

    if width == 1:
        index = factors[:, 0]

        def feature_fn(x):
            return with_ones(x)[..., index]
    else:
        def feature_fn(x):
            return np.prod(with_ones(x)[..., factors], axis=-1)

    return BasisSet(kind="polynomial", state_dim=int(state_dim), io_dim=int(io_dim),
                    n_scalar=len(exponents), feature_fn=feature_fn,
                    beta_scale=float(beta_scale), alpha_scale=float(alpha_scale))


def eval_correction(bases: BasisSet, theta: Array, x: Array) -> tuple[Array, Array]:
    """Learned corrections ``(beta_corr(x), alpha_corr(x))`` for parameters ``theta``."""
    theta1, theta2 = bases.split(theta)
    phi = bases.features(x)
    beta = bases.beta_scale * np.einsum("...i,ij->...j", phi, theta1)
    alpha = bases.alpha_scale * np.einsum("...i,ijl->...jl", phi, theta2)
    return beta, alpha


def eval_learned_controller(bases: BasisSet, theta: Array, nominal: PlantModel,
                            x: Array, v: Array) -> Array:
    """Learned linearizing controller ``u_hat(theta, x, v)``.

    Only the nominal model's decoupling matrix is ever inverted; the learned
    terms enter additively, so no value of ``theta`` can raise a singularity
    here.
    """
    from .plants import linearizing_terms

    beta_m, alpha_m = linearizing_terms(nominal, x)
    beta_c, alpha_c = eval_correction(bases, theta, x)
    v = np.asarray(v, dtype=float)
    return beta_m + beta_c + np.einsum("...jl,...l->...j", alpha_m + alpha_c, v)


def controller_jacobian(bases: BasisSet, theta: Array, nominal: PlantModel,
                        x: Array, v: Array) -> Array:
    """Jacobian ``d u_hat / d theta``, a ``(q, k1 + k2)`` matrix.

    The controller is linear in ``theta``: the theta1 block's columns are
    ``phi_i(x) e_j`` and the theta2 block's are ``phi_i(x) E_jl v``, so the
    result does not depend on ``theta`` (the argument is kept for signature
    symmetry with the evaluation).
    """
    del theta
    phi = bases.features(x)
    v = np.asarray(v, dtype=float)
    q = bases.io_dim
    eye = np.eye(q)
    j1 = bases.beta_scale * np.kron(phi, eye)
    j2 = bases.alpha_scale * np.kron(phi, np.kron(eye, v[None, :]))
    return np.concatenate([j1, j2], axis=-1)


def feature_gram(bases: BasisSet, points: Array) -> Array:
    """Gram matrix of the scalar features over probe points.

    A strictly positive minimum eigenvalue certifies linear independence of
    the features on the probed region.
    """
    feats = bases.features(np.atleast_2d(np.asarray(points, dtype=float)))
    return feats.T @ feats / feats.shape[0]
