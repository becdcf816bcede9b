"""Basis pursuit: min ||x||_1 subject to A x = b.

The problem is split as ``x - y = 0`` with ``y`` constrained to the
affine set ``{y : A y = b}``, so the nonsmooth block is a plain l1
shrink, the smooth block is identically zero, and the only nontrivial
piece is the affine projection.  Also houses the seeded instance
generator used by the benchmark sweeps: Gaussian A normalized to unit
spectral norm, a planted s-sparse solution with uniform (0, 1) nonzero
values, and b = A xhat.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import spectral_norm_sq
from .operators import AffineProjector, shrink_unchecked
from .problem import Coupling, ProxBlock, SmoothBlock, TwoBlockProblem, frozen_copy, identity_map


@dataclass(frozen=True)
class BasisPursuitInstance:
    """A basis-pursuit instance and the set-up derived from its data alone.

    A, b and xhat are kept as read-only float copies, so ``projector`` and
    ``problem``, built on first use and then reused by every later solve
    of this object, can never go stale; ``dataclasses.replace`` makes a
    new instance with its own cache."""

    A: np.ndarray
    b: np.ndarray
    xhat: np.ndarray
    s: int
    seed: int

    def __post_init__(self):
        for name in ("A", "b", "xhat"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))

    @functools.cached_property
    def projector(self):
        """The ``AffineProjector`` onto ``{y : A y = b}``; a rank-deficient A
        raises ``np.linalg.LinAlgError``."""
        return AffineProjector(self.A, self.b)

    @functools.cached_property
    def problem(self):
        """The two-block form ``as_problem`` returns: f = ||.||_1 over R^n,
        g = 0 over Y = {y : A y = b}, coupled by x - y = 0, the projection
        being ``projector``.  The prox is one shrink at threshold 1 / gamma,
        divided and checked only when gamma changes (a gamma that is not
        positive and finite is a ValueError), so solves that share this
        problem may run concurrently with different gammas.  The gradient
        is one shared read-only zero vector."""
        n = self.n
        # the last gamma and its threshold 1 / gamma, checked once; one slot,
        # read once per call and replaced whole, so that a thread switch
        # never pairs one solve's gamma with another's threshold
        memo = None, None

        def prox_solve(offset, lam, gamma):
            nonlocal memo
            last, threshold = memo
            if gamma != last:
                # written so that a NaN gamma fails the test
                if not 0 < gamma < np.inf:
                    raise ValueError("gamma must be positive and finite")
                threshold = 1.0 / gamma
                memo = gamma, threshold
            # ``solve_l1_subproblem``'s shrink, in its operation order
            return shrink_unchecked(np.asarray(lam / gamma - offset, dtype=float), threshold)

        # the zero gradient, one read-only vector shared by every call
        zero = np.zeros(n)
        zero.flags.writeable = False
        prox = ProxBlock(
            dim=n,
            evaluate=lambda x: float(np.sum(np.abs(x))),
            solve_subproblem=prox_solve,
        )
        smooth = SmoothBlock(
            dim=n,
            evaluate=lambda y: 0.0,
            gradient=lambda y: zero,
            lipschitz_constant=0.0,
            project=self.projector,
        )
        coupling = Coupling(A=identity_map(n), B=identity_map(n, -1.0), b=np.zeros(n))
        return TwoBlockProblem(prox_block=prox, smooth_block=smooth, coupling=coupling)

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]

    @property
    def problem_id(self):
        """The ``problem`` column of this instance's CLI rows."""
        return f"bp_n{self.n}_m{self.m}_s{self.s}"

    def row_metrics(self, x):
        """The row metrics of a solution x: its ``recovery_error``."""
        return {"err": recovery_error(self, x)}


def generate(n, m, s, seed):
    """Draw a reproducible basis-pursuit instance.

    Entries of A are standard Gaussian, rescaled so the largest singular
    value is 1 (exact to rounding: the top eigenvalue of ``A A^T``).  The
    s support indices are chosen without replacement and the nonzero
    values drawn uniform in (0, 1); b is A xhat exactly.  Fully determined
    by ``seed``; if the drawn matrix is rank deficient, so that
    ``inst.projector`` cannot be built, the draw is retried
    (deterministically) up to three times.
    """
    if not (0 < s <= m <= n):
        raise ValueError("need 0 < s <= m <= n")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    for attempt in range(3):
        rng = np.random.default_rng([seed, attempt])
        A = rng.standard_normal((m, n))
        A = A / np.sqrt(spectral_norm_sq(A))
        support = np.sort(rng.choice(n, size=s, replace=False))
        vals = rng.uniform(0.0, 1.0, size=s)
        while np.any(vals == 0.0):
            redo = vals == 0.0
            vals[redo] = rng.uniform(0.0, 1.0, size=int(np.count_nonzero(redo)))
        xhat = np.zeros(n)
        xhat[support] = vals
        inst = BasisPursuitInstance(A=A, b=A @ xhat, xhat=xhat, s=int(s), seed=int(seed))
        try:
            inst.projector  # built here once, and cached for every solve
        except np.linalg.LinAlgError:
            continue
        return inst
    raise RuntimeError("could not draw a full-row-rank matrix in 3 attempts")


def as_problem(inst):
    """The instance's two-block form, its cached ``problem``: built on the
    first call and the same object on every later one, since it depends
    on nothing but the instance."""
    return inst.problem


def recovery_error(inst, x):
    """Euclidean distance to the planted solution."""
    x = np.asarray(x, dtype=float)
    if x.shape != inst.xhat.shape:
        raise ValueError("dimension mismatch with the planted solution")
    return float(np.linalg.norm(x - inst.xhat))
