"""Seeded synthetic instances for recovery experiments.

Ground truth is a nonnegative W_star and an H_star whose columns live
on the unit simplex, so the noiseless data X* = W* H* sits inside the
convex hull of the columns of W_star.  Observations add entrywise
Uniform[0, sigma] noise.

Seeding uses counter-based streams split by purpose (one stream each
for W, H and the noise), so instances are bit-reproducible and grid
cells can be generated in parallel in any order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix, check_integer

__all__ = [
    "GENERATOR_NAMES",
    "InstanceSpec",
    "GroundTruth",
    "fixed_W4",
    "dirichlet_H",
    "random_uniform_W",
    "add_uniform_noise",
    "make_instance",
]

GENERATOR_NAMES = ("paper-4x4", "random-uniform")

_W4 = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
)


def _rng(seed):
    """Generator on a counter-based stream from an int or a ``SeedSequence``."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(entropy=int(seed))
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class InstanceSpec:
    """Descriptor of one synthetic instance.

    ``name`` selects the generator: "paper-4x4" uses the fixed 4x4 0/1
    blueprint for W, "random-uniform" draws W entries from Uniform[0,1].
    """

    name: str
    n: int
    sigma: float
    seed: int
    m: int = None
    r: int = None
    alpha: float = 1.0

    def __post_init__(self):
        if self.name not in GENERATOR_NAMES:
            raise InvalidInputError(
                f"unknown generator {self.name!r}; choose from {GENERATOR_NAMES}"
            )
        # m and r may be left unset (None); every count given is an integer.
        for name in ("n", "seed", "m", "r"):
            value = getattr(self, name)
            if value is not None or name in ("n", "seed"):
                check_integer(value, name)
        if self.n < 1:
            raise InvalidInputError(f"n must be >= 1, got {self.n}")
        if not (0.0 <= self.sigma < np.inf):
            raise InvalidInputError(
                f"sigma must be finite and >= 0, got {self.sigma}"
            )
        if not (0.0 < self.alpha < np.inf):
            raise InvalidInputError(
                f"alpha must be finite and > 0, got {self.alpha}"
            )
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if self.name == "paper-4x4":
            if self.m not in (None, 4) or self.r not in (None, 4):
                raise InvalidInputError("paper-4x4 is fixed at m = r = 4")
        else:
            if self.m is None or self.r is None:
                raise InvalidInputError(f"{self.name} needs explicit m and r")
            if self.m < 1 or self.r < 1:
                raise InvalidInputError("m and r must be >= 1")

    @property
    def rank(self):
        return 4 if self.name == "paper-4x4" else self.r

    @property
    def rows(self):
        return 4 if self.name == "paper-4x4" else self.m


@dataclass(frozen=True)
class GroundTruth:
    """True factors, the noiseless product, and the descriptor that made them."""

    W_star: np.ndarray
    H_star: np.ndarray
    X_star: np.ndarray
    spec: InstanceSpec


def fixed_W4():
    """The fixed 4x4 0/1 basis; every column has two unit entries."""
    return _W4.copy()


def dirichlet_H(r, n, alpha, seed):
    """r x n matrix with i.i.d. Dirichlet(alpha) columns on the simplex."""
    if r < 1 or n < 1:
        raise InvalidInputError(f"r and n must be >= 1, got r={r}, n={n}")
    if not (float(alpha) > 0.0):
        raise InvalidInputError(f"alpha must be > 0, got {alpha}")
    rng = _rng(seed)
    return rng.dirichlet(np.full(int(r), float(alpha)), size=int(n)).T


def random_uniform_W(m, r, seed):
    """m x r matrix with i.i.d. Uniform[0,1] entries."""
    if m < 1 or r < 1:
        raise InvalidInputError(f"m and r must be >= 1, got m={m}, r={r}")
    return _rng(seed).random((int(m), int(r)))


def add_uniform_noise(X_star, sigma, seed):
    """X* plus i.i.d. Uniform[0, sigma] noise; sigma = 0 is an exact copy."""
    Xs = as_matrix(X_star, "X_star")
    sigma = float(sigma)
    if sigma < 0.0:
        raise InvalidInputError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0.0:
        return Xs.copy()
    return Xs + sigma * _rng(seed).random(Xs.shape)


def make_instance(spec):
    """Build ground truth and the noisy observation for a descriptor.

    Returns ``(GroundTruth, X)``.  The W, H and noise draws use
    substreams 0, 1 and 2 of ``spec.seed``.
    """
    if not isinstance(spec, InstanceSpec):
        raise InvalidInputError("make_instance expects an InstanceSpec")
    key_W, key_H, key_E = (
        np.random.SeedSequence(entropy=int(spec.seed), spawn_key=(i,))
        for i in (0, 1, 2)
    )
    if spec.name == "paper-4x4":
        W_star = fixed_W4()
    else:
        W_star = random_uniform_W(spec.rows, spec.rank, key_W)
    H_star = dirichlet_H(spec.rank, spec.n, spec.alpha, key_H)
    X_star = W_star @ H_star
    X = add_uniform_noise(X_star, spec.sigma, key_E)
    return GroundTruth(W_star=W_star, H_star=H_star, X_star=X_star, spec=spec), X
