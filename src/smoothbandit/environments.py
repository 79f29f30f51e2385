"""Synthetic bandit environments.

Provides smooth parametric instance families with analytically known
treatment effects, a hard-instance family built from compactly supported
smooth bumps on a shrinking grid, and Monte-Carlo validators for the
assumptions an instance declares (smoothness, decision-region regularity,
density bounds, margin).
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import geometry
from .geometry import (
    CUBE_IN,
    CUBE_MIXED,
    CUBE_OUT,
    GridLattice,
    ball_region_fraction,
    unit_ball_volume,
    unit_cube_support,
)
from .localpoly import enumerate_basis

TWO_ARMS = (1, -1)


# ---------------------------------------------------------------------------
# Instance container


@dataclass(frozen=True)
class InstanceMeta:
    """Declared regularity parameters of an instance."""

    beta: float
    L: float
    L1: float
    alpha: float
    gamma: float
    c0: float
    r0: float
    mu_min: float
    mu_max: float
    extras: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Instance:
    """A sampleable bandit environment.

    ``means(points)`` returns every arm's conditional mean rewards in
    [0,1] at an ``(n, d)`` array of points, shape ``(n_arms, n)`` with rows
    in ``arms`` order; ``means_deriv(points, r)``, when set, returns their
    partial derivatives ``D^r`` in the same shape, ``means`` itself at
    ``r = 0``.  ``sample_contexts(rng, n)`` draws contexts inside the
    support; the reward law given the mean is Bernoulli by default, or a Gaussian
    truncated symmetrically around the mean (mean-preserving) when
    ``noise`` is ``"truncated_gaussian"``.  Either law lives in
    :meth:`rewards`, which maps one uniform per step to its reward;
    :meth:`sample_rewards` draws those uniforms from a generator.
    Construction rejects any other ``noise`` and a ``noise_scale`` that is
    not a finite positive number.
    """

    name: str
    d: int
    arms: tuple
    means: Callable[[np.ndarray], np.ndarray]
    sample_contexts: Callable[[np.random.Generator, int], np.ndarray]
    support: Callable[[np.ndarray], np.ndarray]
    meta: InstanceMeta
    noise: str = "bernoulli"
    noise_scale: float = 0.1
    means_deriv: Callable[[np.ndarray, tuple], np.ndarray] | None = None

    def __post_init__(self):
        if self.noise not in ("bernoulli", "truncated_gaussian"):
            raise ValueError(f"unknown noise law {self.noise!r}, expected 'bernoulli' or 'truncated_gaussian'")
        if not (math.isfinite(self.noise_scale) and self.noise_scale > 0):
            raise ValueError(f"noise_scale must be finite and > 0, got {self.noise_scale}")

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    def means_matrix(self, points: np.ndarray) -> np.ndarray:
        """Mean rewards for every arm, shape (n_arms, n); one point may be a vector."""
        return self.means(np.atleast_2d(points))

    def oracle_indices(self, points: np.ndarray) -> np.ndarray:
        """Index (into ``arms``) of the optimal arm; ties go to the arm
        listed first, which is +1 for two-arm instances and the smallest
        id when arms are listed ascending."""
        return first_max(self.means_matrix(points))

    def rewards(self, means: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Rewards of the given means, one uniform on [0, 1) per step.

        The reward is the inverse CDF of the step's law at ``u``: Bernoulli
        pays 1 when the uniform falls below the mean; the truncated
        Gaussian is ``truncnorm.ppf``, which is how ``truncnorm.rvs`` maps
        its own uniforms.  A truncated-Gaussian mean at 0 or 1 leaves no
        room and the reward is the mean, its uniform unread.
        """
        means = np.asarray(means, dtype=float)
        if self.noise == "bernoulli":
            return (u < means).astype(float)
        # truncated Gaussian: symmetric truncation about the mean keeps
        # E[Y] = mean and Y in [0,1]
        half = np.minimum(means, 1.0 - means)
        y = means.copy()
        room = half > 0
        if np.any(room):
            # imported here, not at module level: only this law needs scipy.stats,
            # and it is slow to import
            from scipy import stats

            width = half[room] / self.noise_scale
            y[room] = stats.truncnorm.ppf(u[room], -width, width, loc=means[room], scale=self.noise_scale)
        return y

    def sample_rewards(self, rng: np.random.Generator, means: np.ndarray) -> np.ndarray:
        """Rewards of the given means on ``rng.random(len(means))``; see :meth:`rewards`."""
        return self.rewards(means, rng.random(len(means)))


def first_max(values: np.ndarray) -> np.ndarray:
    """Row of each column's first maximum: ``np.argmax(values, axis=0)`` on every input.

    Ties go to the earliest row, the first NaN wins and infinities compare
    as numbers, as in ``argmax``.  It compares whole rows, one per row
    after the first, where ``argmax(axis=0)`` walks each short column with
    a stride, some forty times slower on two rows.
    """
    index = np.zeros(values.shape[1], dtype=np.intp)
    best = values[0]
    for a in range(1, len(values)):
        # row a wins where it is larger or NaN, unless the best so far is NaN;
        # a winning row's index is larger than any before it
        wins = ~(values[a] <= best) & (best == best)
        np.maximum(index, wins * a, out=index)
        if a + 1 < len(values):
            best = np.maximum(best, values[a])  # NaN stays NaN, as it stays the best
    return index


def step_outcomes(means: np.ndarray, arm_ix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(regret, inferior, chosen)`` of steps with means ``(n_arms, n)`` that pulled ``arm_ix``.

    ``chosen`` is each step's mean of its arm, ``regret`` the best mean
    minus it and ``inferior`` whether the arm is not the first best one.
    """
    n = len(arm_ix)
    chosen = means.take(arm_ix * n + np.arange(n))
    return means.max(axis=0) - chosen, arm_ix != first_max(means), chosen


def cate(instance: Instance, points: np.ndarray) -> np.ndarray:
    """Treatment effect of arm +1 over arm -1 (two-arm instances)."""
    if instance.arms != TWO_ARMS:
        raise ValueError("cate is defined for two-arm instances with arms (+1, -1)")
    means = instance.means_matrix(points)
    return means[0] - means[1]


def oracle_arm(instance: Instance, x: np.ndarray):
    """Optimal arm at a single context; see ``Instance.oracle_indices``."""
    idx = instance.oracle_indices(np.atleast_2d(np.asarray(x, dtype=float)))[0]
    return instance.arms[int(idx)]


# ---------------------------------------------------------------------------
# Smooth parametric families


def check_dimension_and_smoothness(d, beta) -> None:
    """Reject a dimension that is not an integer >= 1 and a smoothness that
    is not a finite number >= 1 (a bool is neither)."""
    if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {d!r}")
    if isinstance(beta, bool) or not isinstance(beta, numbers.Real) or not 1 <= beta < math.inf:
        raise ValueError(f"smoothness must be a finite number >= 1, got {beta!r}")


def strict_floor(beta: float) -> int:
    """Largest integer strictly smaller than beta."""
    return math.ceil(beta) - 1


def _uniform_sampler(d: int):
    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.random((n, d))

    return sample


def make_smooth_instance(family: str, d: int = 1, **params) -> Instance:
    """Built-in smooth families with analytic effects and derivatives.

    constant_gap(gap):            tau is the constant ``gap``.
    sinusoidal(frequency, amplitude):
                                  tau(x) = amplitude * sin(2 pi frequency x_1),
                                  realized as means 1/2 +- tau/2.
    polynomial_boundary(degree, scale):
                                  tau(x) = scale * (x_1 - 1/2)^degree.
    """
    if family == "constant_gap":
        return _constant_gap_instance(d, **params)
    if family == "sinusoidal":
        return _sinusoidal_instance(d, **params)
    if family == "polynomial_boundary":
        return _polynomial_boundary_instance(d, **params)
    raise ValueError(f"unknown family {family!r}")


def _symmetric_two_arm(name, d, tau_fn, tau_deriv_fn, meta, noise="bernoulli", noise_scale=0.1):
    """Arms +1 and -1 at 1/2 +- tau/2; keeps means in [0,1] whenever |tau| <= 1.

    ``tau`` is evaluated once for both rows, ``0.5 + h`` and ``0.5 - h``
    with ``h = 0.5 * tau``, and each derivative as the rows ``+-h`` with
    ``h = 0.5 * D^r tau``.
    """

    def means(points):
        h = 0.5 * tau_fn(points)
        out = np.empty((2, len(h)))
        np.add(0.5, h, out=out[0])
        np.subtract(0.5, h, out=out[1])
        return out

    def means_deriv(points, r):
        if sum(r) == 0:
            return means(points)
        h = 0.5 * tau_deriv_fn(points, r)
        return np.stack([h, -h])

    return Instance(
        name=name,
        d=d,
        arms=TWO_ARMS,
        means=means,
        sample_contexts=_uniform_sampler(d),
        support=unit_cube_support,
        meta=meta,
        noise=noise,
        noise_scale=noise_scale,
        means_deriv=means_deriv,
    )


def _constant_gap_instance(d: int, gap: float = 0.5, beta: float = 2.0) -> Instance:
    check_dimension_and_smoothness(d, beta)
    if not 0 <= gap <= 1:
        raise ValueError(f"gap must lie in [0, 1] to keep means in [0,1], got {gap}")

    def tau_fn(points):
        return np.full(len(points), gap)

    def tau_deriv_fn(points, r):
        return np.zeros(len(points))

    meta = InstanceMeta(
        beta=float(beta),
        L=0.0,
        L1=0.0,
        alpha=math.inf,
        gamma=1.0,
        c0=2.0**-d,
        r0=0.5,
        mu_min=1.0,
        mu_max=1.0,
        extras={"gap": gap, "note": "inferior arm optimal nowhere"},
    )
    return _symmetric_two_arm(f"constant_gap({gap})", d, tau_fn, tau_deriv_fn, meta)


def _sinusoidal_instance(
    d: int,
    frequency: float = 1.0,
    amplitude: float = 0.4,
    beta: float = 2.0,
    noise: str = "bernoulli",
    noise_scale: float = 0.1,
) -> Instance:
    check_dimension_and_smoothness(d, beta)
    if not 0 < amplitude <= 1:
        raise ValueError(f"amplitude must lie in (0, 1], got {amplitude}")
    if not 0 < frequency < math.inf:
        raise ValueError(f"frequency must be a finite positive number, got {frequency}")
    w = 2 * math.pi * frequency

    def tau_fn(points):
        return amplitude * np.sin(w * points[:, 0])

    def tau_deriv_fn(points, r):
        if any(ri > 0 for ri in r[1:]):
            return np.zeros(len(points))
        k = r[0]
        # d^k/dx^k sin(wx) = w^k sin(wx + k pi/2)
        return amplitude * w**k * np.sin(w * points[:, 0] + k * math.pi / 2)

    lsmall = strict_floor(beta)
    taylor_L = 0.5 * amplitude * w ** (lsmall + 1) / math.factorial(lsmall + 1)
    meta = InstanceMeta(
        beta=beta,
        L=taylor_L,
        L1=0.5 * amplitude * w,
        alpha=1.0,
        gamma=1.0 / amplitude,
        c0=4.0**-d,
        r0=min(0.25 / frequency, 0.5),
        mu_min=1.0,
        mu_max=1.0,
        extras={"frequency": frequency, "amplitude": amplitude},
    )
    return _symmetric_two_arm(
        f"sinusoidal(f={frequency},A={amplitude})", d, tau_fn, tau_deriv_fn, meta,
        noise=noise, noise_scale=noise_scale,
    )


def _polynomial_boundary_instance(d: int, degree: int = 1, scale: float = 0.5, beta: float = 2.0) -> Instance:
    check_dimension_and_smoothness(d, beta)
    if isinstance(degree, bool) or not isinstance(degree, numbers.Integral) or degree < 1:
        raise ValueError(f"degree must be an integer >= 1, got {degree!r}")
    if not 0 < scale * 0.5**degree <= 1:
        raise ValueError("scale leaves means outside [0, 1]")

    def tau_fn(points):
        return scale * (points[:, 0] - 0.5) ** degree

    def tau_deriv_fn(points, r):
        if any(ri > 0 for ri in r[1:]):
            return np.zeros(len(points))
        k = r[0]
        if k > degree:
            return np.zeros(len(points))
        coef = scale * math.perm(degree, k)
        return coef * (points[:, 0] - 0.5) ** (degree - k)

    meta = InstanceMeta(
        beta=beta,
        L=0.0 if degree < beta else scale * 2.0**degree,
        L1=scale * degree * 0.5 ** (degree - 1),
        alpha=1.0 / degree,
        gamma=2.0 * scale ** (-1.0 / degree),
        c0=2.0**-d,
        r0=0.25,
        mu_min=1.0,
        mu_max=1.0,
        extras={"degree": degree, "scale": scale},
    )
    return _symmetric_two_arm(f"polynomial_boundary(deg={degree})", d, tau_fn, tau_deriv_fn, meta)


def make_constant_multi_arm(means: tuple, d: int = 1, beta: float = 2.0) -> Instance:
    """Multi-arm instance with context-independent means, arm ids 0..A-1."""
    check_dimension_and_smoothness(d, beta)
    means = tuple(float(m) for m in means)
    if len(means) < 2:
        raise ValueError("need at least two arms")
    if not all(0 <= m <= 1 for m in means):
        raise ValueError(f"means must lie in [0, 1], got {means}")
    column = np.array(means)[:, None]

    def table(points):
        return np.repeat(column, len(points), axis=1)

    def table_deriv(points, r):
        return table(points) if sum(r) == 0 else np.zeros((len(means), len(points)))

    gaps = sorted({abs(a - b) for a in means for b in means if a != b})
    meta = InstanceMeta(
        beta=beta, L=0.0, L1=0.0, alpha=math.inf, gamma=1.0,
        c0=2.0**-d, r0=0.5, mu_min=1.0, mu_max=1.0,
        extras={"means": means, "gaps": gaps},
    )
    return Instance(
        name=f"constant_multi{means}",
        d=d,
        arms=tuple(range(len(means))),
        means=table,
        sample_contexts=_uniform_sampler(d),
        support=unit_cube_support,
        meta=meta,
        means_deriv=table_deriv,
    )


# ---------------------------------------------------------------------------
# Smooth bump profile


def _bump_core(t: np.ndarray) -> np.ndarray:
    """exp(-1 / ((1/2 - t)(t - 1/4))) on (1/4, 1/2), 0 elsewhere."""
    t = np.asarray(t, dtype=float)
    w = (0.5 - t) * (t - 0.25)
    out = np.zeros_like(w)
    inside = w > 0
    out[inside] = np.exp(-1.0 / w[inside])
    return out


def _bump_core_d1(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    w = (0.5 - t) * (t - 0.25)
    out = np.zeros_like(w)
    inside = w > 0
    wi = w[inside]
    out[inside] = np.exp(-1.0 / wi) * (0.75 - 2.0 * t[inside]) / wi**2
    return out


# Nodes of the fixed Gauss-Legendre rule for the profile's tail integral.  On
# 3,000 points of (1/4, 1/2) it agrees with adaptive quadrature at relative
# tolerance 1e-12 to within 1e-14; 64 nodes lose relative accuracy in the far
# tail and 32 nodes err by some 4e-9.
_RULE_NODES = 96
# Points per block of the rule, so that a block holds at most this many
# times _RULE_NODES core values however many points are evaluated.
_RULE_BLOCK = 2048


@functools.cache
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the ``_RULE_NODES``-node rule on [-1, 1].

    Built on first use, so importing the package does not pay for it.
    """
    from numpy.polynomial.legendre import leggauss

    rule = leggauss(_RULE_NODES)
    for array in rule:
        array.flags.writeable = False
    return rule


def _tail_integral(t: np.ndarray) -> np.ndarray:
    """Integral of the core profile over [t, 1/2] for each t in [1/4, 1/2].

    One fixed Gauss-Legendre rule of ``_RULE_NODES`` nodes mapped onto each
    interval, evaluated in blocks of ``_RULE_BLOCK`` points.
    """
    nodes, weights = _gauss_legendre_rule()
    out = np.empty(len(t))
    for lo in range(0, len(t), _RULE_BLOCK):
        tb = t[lo : lo + _RULE_BLOCK]
        half = 0.5 * (0.5 - tb)
        s = (0.5 * (0.5 + tb))[:, None] + half[:, None] * nodes
        # a row sum, not a matrix product, so that a point's value does not
        # depend on the block it falls in
        out[lo : lo + _RULE_BLOCK] = half * (_bump_core(s) * weights).sum(axis=1)
    return out


@functools.cache
def _bump_normalizer() -> float:
    """Integral of the core profile over [1/4, 1/2], by the same fixed rule."""
    return float(_tail_integral(np.array([0.25]))[0])


def _profile_argument(t) -> tuple[bool, np.ndarray]:
    """``(scalar, t)`` with ``t`` a float array; NaN or negative arguments raise."""
    scalar = np.isscalar(t)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(t >= 0):
        raise ValueError("bump profile argument must be nonnegative and not NaN")
    return scalar, t


def bump_u(t) -> np.ndarray | float:
    """Smooth non-increasing transition: 1 on [0, 1/4], 0 on [1/2, inf).

    Normalized tail integral of the compactly supported core profile, both
    integrals by one fixed 96-node Gauss-Legendre rule (within 1e-13 of
    adaptive quadrature).  Points on the plateaus evaluate no rule.  NaN or
    negative arguments raise ``ValueError``.
    """
    scalar, t = _profile_argument(t)
    out = np.zeros(t.shape)
    out[t <= 0.25] = 1.0
    mid = (t > 0.25) & (t < 0.5)
    if np.any(mid):
        out[mid] = _tail_integral(t[mid]) / _bump_normalizer()
    return float(out[0]) if scalar else out


def bump_u_deriv(t, order: int) -> np.ndarray | float:
    """Derivatives of :func:`bump_u` up to second order (closed forms).

    Takes the same arguments as :func:`bump_u` and rejects the same ones.
    """
    if order == 0:
        return bump_u(t)
    if order not in (1, 2):
        raise ValueError(f"bump derivatives implemented for order <= 2, got {order}")
    scalar, t = _profile_argument(t)
    core = _bump_core if order == 1 else _bump_core_d1
    out = -core(t) / _bump_normalizer()
    return float(out[0]) if scalar else out


@functools.cache
def _bump_deriv_sup(order: int) -> float:
    """Grid bound on sup |u^(order)| with a factor-2 safety margin."""
    grid = np.linspace(0.25, 0.5, 10_001)
    return 2.0 * float(np.max(np.abs(bump_u_deriv(grid, order))))


def _radial_bump_deriv(points: np.ndarray, r: tuple) -> np.ndarray:
    """D^r of u(||x||) for |r| <= 2; identically 0 inside radius 1/4."""
    points = np.atleast_2d(points)
    rho = np.linalg.norm(points, axis=1)
    order = sum(r)
    if order == 0:
        return np.atleast_1d(bump_u(rho))
    active = (rho > 0.25) & (rho < 0.5)
    out = np.zeros(len(points))
    if not np.any(active):
        return out
    p = points[active]
    rh = rho[active]
    u1 = bump_u_deriv(rh, 1)
    if order == 1:
        i = r.index(1)
        out[active] = u1 * p[:, i] / rh
        return out
    if order == 2:
        u2 = bump_u_deriv(rh, 2)
        axes = [k for k, rk in enumerate(r) for _ in range(rk)]
        i, j = axes[0], axes[1]
        delta = 1.0 if i == j else 0.0
        out[active] = u2 * p[:, i] * p[:, j] / rh**2 + u1 * (delta - p[:, i] * p[:, j] / rh**2) / rh
        return out
    raise ValueError(f"radial bump derivatives implemented for |r| <= 2, got {r}")


def certified_bump_scale(beta: float, L: float, d: int) -> float:
    """Largest profile height keeping the bump inside the Hoelder budget.

    Bounds the (beta - l)-Hoelder seminorm of the order-l derivatives of
    the radial bump (l the largest integer strictly below beta) using grid
    suprema of the profile derivatives, then inverts the budget
    L / sum_{|r|=l} 1/r!.  Supports l in {0, 1}; pass an explicit height
    for smoother constructions.
    """
    l = strict_floor(beta)
    if l == 0:
        c_beta = 1.0
        seminorm = max(_bump_deriv_sup(1), 1.0)
    elif l == 1:
        c_beta = float(d)
        # gradient entries of d_i u(||x||) bounded via |u''| + 2|u'|/rho, rho >= 1/4
        grad_bound = math.sqrt(d) * (_bump_deriv_sup(2) + 8.0 * _bump_deriv_sup(1))
        seminorm = max(grad_bound, 2.0 * _bump_deriv_sup(1))
    else:
        raise NotImplementedError(
            "certified bump height supports beta <= 2; pass C_phi explicitly for smoother instances"
        )
    return L / (c_beta * seminorm)


# ---------------------------------------------------------------------------
# Hard-instance family: smooth bumps on a shrinking grid


@dataclass(frozen=True)
class LowerBoundInstance(Instance):
    """Bump-grid instance whose margin law is a single step.

    Arm -1 has constant mean 1/2; arm +1 adds a signed smooth bump of
    height ``c_phi * q**-beta`` centered in each of ``m`` grid cells of
    side 1/q.  Contexts concentrate on the bump balls (mass ``omega``
    each) and spread uniformly over the cell complement.
    """

    sigma: np.ndarray = None
    q: int = 0
    m: int = 0
    omega: float = 0.0
    delta0: float = 0.0
    kappa_sq: float = 0.0
    c_phi: float = 0.0
    bump_centers: np.ndarray = None
    ball_radius: float = 0.0


# Widening of a policy cube, in context units, before the bump-grid classifier
# certifies it in or out: it covers the rounding of the cube's faces, of the
# 1/q cell assignment and of the distance to a bump center, each some 1e-16.
_CLASSIFY_MARGIN = 1e-9


@dataclass(frozen=True, eq=False)
class BumpGridSupport:
    """Support of the bump-grid instance, a predicate with a cube classifier.

    The unit cube, except that each of the first ``m`` cells of the ``1/q``
    grid keeps only the closed ball of radius ``radius`` around its center.
    The support owns the cells' flat order, row-major over ``(q,) * d`` with
    the last axis fastest (:meth:`cell_index`, :meth:`cell_centers`);
    :meth:`bump_offsets` places points relative to their bump for the
    predicate, the instance's means and the density check.
    """

    d: int
    q: int
    m: int
    radius: float
    _classes: dict = field(default_factory=dict, repr=False)

    def cell_index(self, points: np.ndarray) -> np.ndarray:
        """Flat index of the 1/q grid cell of each point, clipped to the grid.

        Scales by ``q`` rather than dividing by ``1/q``: the two can differ
        in the last bit, which would move a point on a cell face.  ``u`` is
        held in ``[-1, q + 1]`` before the cast, as in
        :meth:`GridLattice.axis_index`, so NaN, infinities and huge
        coordinates cast cleanly; the support masks such points anyway.
        """
        u = np.fmax(np.atleast_2d(points) * self.q, -1.0)  # fmax takes NaN to -1
        np.fmin(u, self.q + 1.0, out=u)
        j = np.floor(u).astype(np.int64)
        j -= (u == j) & (j > 0)
        return np.ravel_multi_index(tuple(j.T), (self.q,) * self.d, mode="clip")

    def cell_centers(self, cells: np.ndarray) -> np.ndarray:
        """Centers of the 1/q grid cells with the given flat indices, shape (n, d)."""
        return (np.stack(np.unravel_index(cells, (self.q,) * self.d), axis=-1) + 0.5) / self.q

    def bump_offsets(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(in_bump, cells, offsets)``: which points of the unit cube lie in
        one of the first ``m`` cells, and the cells and offsets from the cell
        centers of those points, in order."""
        points = np.atleast_2d(points)
        cells = self.cell_index(points)
        in_bump = (cells < self.m) & unit_cube_support(points)
        cells = cells[in_bump]
        return in_bump, cells, points[in_bump] - self.cell_centers(cells)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        out = unit_cube_support(points)
        in_bump, _, offsets = self.bump_offsets(points)
        out[in_bump] = np.linalg.norm(offsets, axis=1) <= self.radius
        return out

    def classify_cubes(self, lattice: GridLattice) -> np.ndarray:
        """In, out or mixed for each cube of the lattice (see ``geometry.CUBE_IN``).

        Each cube, widened by ``_CLASSIFY_MARGIN`` and clipped to the unit
        cube, is a box.  It is in when it meets no bump cell, or meets one
        and lies inside its ball; out when it meets only bump cells and is
        farther than the radius from all their centers; mixed otherwise.
        Computed once per lattice and kept, read-only.
        """
        if lattice not in self._classes:
            self._classes.clear()
            classes = self._classify(lattice)
            classes.flags.writeable = False
            self._classes[lattice] = classes
        return self._classes[lattice]

    def _classify(self, lattice: GridLattice) -> np.ndarray:
        """The classes of every cube, in blocks of at most ``geometry._SCREEN_CHUNK`` cube coordinates."""
        classes = np.empty(lattice.n_cubes, dtype=np.int8)
        step = max(1, geometry._SCREEN_CHUNK // self.d)
        for start in range(0, lattice.n_cubes, step):
            cube = lattice.cube_ids(np.arange(start, min(start + step, lattice.n_cubes)))
            classes[start : start + len(cube)] = self._classify_block(cube, lattice.delta)
        return classes

    def _classify_block(self, cube: np.ndarray, delta: float) -> np.ndarray:
        """The classes of the cubes with per-axis indices ``cube``, shape (n, d), of side ``delta``."""
        d, q = self.d, self.q
        lo = np.clip(cube * delta - _CLASSIFY_MARGIN, 0.0, 1.0)
        hi = np.clip((cube + 1) * delta + _CLASSIFY_MARGIN, 0.0, 1.0)
        # per axis, the 1/q cells the box meets; the bump cells are the flat
        # indices below m, and the met cells' flat indices range from that
        # of the lowest corner cell to that of the highest
        cell_lo = np.clip(np.floor(lo * q).astype(np.int64), 0, q - 1)
        cell_hi = np.clip(np.floor(hi * q).astype(np.int64), 0, q - 1)
        meets_bump = np.ravel_multi_index(tuple(cell_lo.T), (q,) * d) < self.m
        only_bumps = np.ravel_multi_index(tuple(cell_hi.T), (q,) * d) < self.m
        # distance from the box to the nearest center of a met cell: per
        # axis, the center nearest the box's midpoint among the met cells
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        near = np.clip(np.rint(mid * q - 0.5), cell_lo, cell_hi)
        gap = np.maximum(np.abs((near + 0.5) / q - mid) - half, 0.0)
        nearest = np.sqrt(np.einsum("ij,ij->i", gap, gap))
        # distance from the center of the lowest met cell to the farthest corner
        center = (cell_lo + 0.5) / q
        reach = np.maximum(center - lo, hi - center)
        farthest = np.sqrt(np.einsum("ij,ij->i", reach, reach))
        one_cell = np.all(cell_lo == cell_hi, axis=1)
        classes = np.full(len(cube), CUBE_MIXED, dtype=np.int8)
        classes[~meets_bump] = CUBE_IN
        classes[only_bumps & (nearest > self.radius + _CLASSIFY_MARGIN)] = CUBE_OUT
        classes[only_bumps & one_cell & (farthest <= self.radius - _CLASSIFY_MARGIN)] = CUBE_IN
        return classes


def make_lower_bound_instance(
    T: int,
    beta: float,
    alpha: float,
    d: int,
    delta0: float = 0.25,
    C_phi: float | None = None,
    sigma: np.ndarray | None = None,
    seed: int | None = None,
    L: float = 1.0,
    noise: str = "bernoulli",
) -> LowerBoundInstance:
    """Construct the hard instance for a horizon and smoothness level.

    The cell count per axis grows like ``(T / (4 e kappa^2))**(1/(2 beta + d))``
    with ``kappa^2 = 1/4 - delta0^2``; the number of signed bumps is
    ``ceil(q**(d - alpha beta))``.  Requires ``alpha * beta <= d`` and a
    horizon large enough for the bump count to fit the grid.
    """
    check_dimension_and_smoothness(d, beta)
    if not 0 < delta0 < 0.5:
        raise ValueError(f"delta0 must lie in (0, 1/2), got {delta0}")
    if alpha < 0:
        raise ValueError(f"margin exponent must be >= 0, got {alpha}")
    if alpha * beta > d:
        raise ValueError(f"requires alpha * beta <= d, got alpha*beta={alpha * beta} > d={d}")
    kappa_sq = 0.25 - delta0**2
    q = math.ceil((T / (4 * math.e * kappa_sq)) ** (1.0 / (2 * beta + d)))
    m = math.ceil(q ** (d - alpha * beta))
    omega = float(q) ** -d
    if m > q**d:
        raise ValueError(f"horizon too small: bump count m={m} exceeds cell count q^d={q ** d}")
    if omega > 1.0 / m:
        raise ValueError(f"horizon too small: per-ball mass omega={omega} exceeds 1/m={1 / m}")
    if T <= 4 * kappa_sq * q ** (2 * beta + d):
        raise ValueError(
            f"horizon too small: requires T > 4 kappa^2 q^(2 beta + d) = {4 * kappa_sq * q ** (2 * beta + d):.3g}"
        )

    if C_phi is None:
        C_phi = min(delta0, certified_bump_scale(beta, L, d))
    if not 0 < C_phi <= delta0:
        raise ValueError(f"bump height must lie in (0, delta0], got {C_phi}")

    if sigma is None:
        sign_rng = np.random.default_rng(seed)
        sigma = sign_rng.choice([-1, 1], size=m)
    sigma = np.asarray(sigma, dtype=np.int64)
    if sigma.shape != (m,) or not np.all(np.abs(sigma) == 1):
        raise ValueError(f"sigma must be a vector of {m} signs")

    # the bumps sit in the first m cells
    ball_radius = 1.0 / (4 * q)
    support = BumpGridSupport(d=d, q=q, m=m, radius=ball_radius)
    centers = support.cell_centers(np.arange(m, dtype=np.int64))

    # arm +1 (row 0) carries the bumps; arm -1 (row 1) stays at 1/2
    def means(points):
        out = np.full((2, len(points)), 0.5)
        inside, cells, offsets = support.bump_offsets(points)
        u_val = bump_u(q * np.linalg.norm(offsets, axis=1))
        out[0, inside] += sigma[cells] * C_phi * float(q) ** -beta * u_val
        return out

    def means_deriv(points, r):
        if sum(r) == 0:
            return means(points)
        out = np.zeros((2, len(points)))
        inside, cells, offsets = support.bump_offsets(points)
        vals = _radial_bump_deriv(q * offsets, tuple(r))
        out[0, inside] = sigma[cells] * C_phi * float(q) ** (sum(r) - beta) * vals
        return out

    def sample_contexts(rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        out = np.empty((n, d))
        in_ball = u < m * omega
        n_ball = int(in_ball.sum())
        if n_ball:
            which = np.minimum((u[in_ball] / omega).astype(np.int64), m - 1)
            out[in_ball] = centers[which] + ball_radius * _uniform_in_ball(rng, n_ball, d)
        n_rest = n - n_ball
        if n_rest:
            out[~in_ball] = _uniform_outside_cells(rng, n_rest, support)
        return out

    height = C_phi * float(q) ** -beta
    meta = InstanceMeta(
        beta=beta,
        L=L,
        L1=C_phi * _bump_deriv_sup(1),
        alpha=alpha,
        gamma=2.0 * C_phi**-alpha,
        c0=2.0**-d,  # derived, not asserted by the construction
        r0=min(ball_radius, 0.25),
        mu_min=1.0,
        mu_max=4.0**d / unit_ball_volume(d),
        extras={"q": q, "m": m, "omega": omega, "bump_height": height, "derived_regularity": True},
    )
    return LowerBoundInstance(
        name=f"lower_bound(T={T},beta={beta},alpha={alpha},d={d})",
        d=d,
        arms=TWO_ARMS,
        means=means,
        sample_contexts=sample_contexts,
        support=support,
        meta=meta,
        noise=noise,
        means_deriv=means_deriv,
        sigma=sigma,
        q=q,
        m=m,
        omega=omega,
        delta0=delta0,
        kappa_sq=kappa_sq,
        c_phi=C_phi,
        bump_centers=centers,
        ball_radius=ball_radius,
    )


def _rejection_sample(rng, n: int, d: int, accept) -> np.ndarray:
    """``n`` uniform draws from [0, 1)^d that ``accept`` keeps; rejected rows are redrawn, in order."""
    out = np.empty((n, d))
    need = np.arange(n)
    while len(need):
        cand = rng.random((len(need), d))
        ok = accept(cand)
        out[need[ok]] = cand[ok]
        need = need[~ok]
    return out


def _uniform_in_ball(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Uniform draws from the unit ball by rejection from the cube [-1, 1)^d."""

    def in_ball(u):
        v = u * 2.0 - 1.0
        return np.einsum("ij,ij->i", v, v) <= 1.0

    return _rejection_sample(rng, n, d, in_ball) * 2.0 - 1.0


def _uniform_outside_cells(rng, n, support: BumpGridSupport) -> np.ndarray:
    """Uniform draws from the unit cube minus the support's bump cells."""
    return _rejection_sample(rng, n, support.d, lambda u: support.cell_index(u) >= support.m)


# ---------------------------------------------------------------------------
# Assumption validators


@dataclass(frozen=True)
class CheckRow:
    label: str
    value: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    name: str
    rows: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def summary(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"]
        for r in self.rows:
            mark = "ok " if r.passed else "BAD"
            lines.append(f"  {mark} {r.label}: value={r.value:.6g} bound={r.bound:.6g}")
        return "\n".join(lines)


def verify_margin(
    instance: Instance,
    alpha: float,
    gamma: float,
    t_grid,
    n_samples: int = 100_000,
    rng: np.random.Generator | None = None,
) -> ValidationReport:
    """Monte-Carlo check of P(0 < |tau(X)| <= t) <= gamma * t^alpha.

    Pass requires the estimate minus a 99% half-width to sit below the
    bound at every grid point.
    """
    if n_samples < 10_000:
        raise ValueError("need at least 1e4 samples for a meaningful margin check")
    rng = rng or np.random.default_rng(0)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("t grid must not be empty: an empty grid checks nothing")
    if np.any(t_grid <= 0):
        raise ValueError("t grid must be positive")
    abs_tau = np.abs(cate(instance, instance.sample_contexts(rng, n_samples)))
    rows = []
    z99 = 2.5758293035489004
    for t in t_grid:
        p_hat, se = _margin_share(abs_tau, t)
        half = z99 * se
        bound = gamma * t**alpha
        rows.append(CheckRow(f"t={t:.4g}", p_hat, bound + half, p_hat - half <= bound))
    return ValidationReport(f"margin(alpha={alpha}, gamma={gamma}) on {instance.name}", tuple(rows))


def margin_probability(instance: Instance, t: float, n_samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Point estimate and standard error of P(0 < |tau(X)| <= t)."""
    return _margin_share(np.abs(cate(instance, instance.sample_contexts(rng, n_samples))), t)


def _margin_share(abs_tau: np.ndarray, t: float) -> tuple[float, float]:
    """Share of the effects ``abs_tau`` in (0, t], and its standard error."""
    p_hat = float(np.mean((abs_tau > 0) & (abs_tau <= t)))
    return p_hat, math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / len(abs_tau))


def verify_holder(
    instance: Instance,
    beta: float,
    L: float,
    n_pairs: int = 10_000,
    rng: np.random.Generator | None = None,
) -> ValidationReport:
    """Taylor-remainder check of the smoothness class membership.

    Samples point pairs (half global, half local perturbations), expands
    every arm's mean to the largest order strictly below ``beta`` using the
    instance's analytic derivatives, one ``means_deriv`` call per order,
    and compares the remainder with ``L * distance**beta``.  Requires
    derivative access.
    """
    if instance.means_deriv is None:
        raise ValueError(f"instance {instance.name} does not expose analytic derivatives")
    rng = rng or np.random.default_rng(0)
    l = strict_floor(beta)
    indices = sorted(enumerate_basis(instance.d, l).indices)
    half = n_pairs // 2
    x = rng.random((n_pairs, instance.d))
    x2 = np.empty_like(x)
    x2[:half] = rng.random((half, instance.d))
    radii = np.exp(rng.uniform(math.log(1e-3), math.log(0.3), size=n_pairs - half))
    direction = rng.standard_normal((n_pairs - half, instance.d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    x2[half:] = np.clip(x[half:] + radii[:, None] * direction, 0.0, 1.0)
    dist = np.linalg.norm(x2 - x, axis=1)
    keep = dist > 1e-12
    x, x2, dist = x[keep], x2[keep], dist[keep]

    taylor = np.zeros((instance.n_arms, len(x)))
    for r in indices:
        coef = np.prod([math.factorial(ri) for ri in r])
        diff_pow = np.prod((x2 - x) ** np.asarray(r, dtype=float), axis=1)
        taylor += diff_pow / coef * instance.means_deriv(x, r)
    ratios = np.abs(instance.means(x2) - taylor) / dist**beta
    rows = []
    for arm, ratio in zip(instance.arms, ratios):
        worst = float(np.max(ratio, initial=0.0))
        # additive slack absorbs cancellation noise on exactly-polynomial means
        rows.append(CheckRow(f"arm {arm} max remainder ratio", worst, L, worst <= L * (1 + 1e-9) + 1e-7))
    return ValidationReport(f"holder(beta={beta}, L={L}) on {instance.name}", tuple(rows))


def verify_density(
    instance: LowerBoundInstance,
    n_samples: int = 1_000_000,
    rng: np.random.Generator | None = None,
) -> ValidationReport:
    """Sampler-vs-declared-density agreement for the bump-grid instance.

    Empirical mass of each bump ball must sit within 3 standard errors of
    its nominal mass, and the complement mass within 3 SE of its share.
    """
    rng = rng or np.random.default_rng(0)
    X = instance.sample_contexts(rng, n_samples)
    # a ball of radius 1/(4q) lies strictly inside its cell, so counting
    # each point against its own cell's center counts every ball
    _, cells, offsets = instance.support.bump_offsets(X)
    in_ball = np.linalg.norm(offsets, axis=1) <= instance.ball_radius
    counts = np.bincount(cells[in_ball], minlength=instance.m)
    total_ball = int(counts.sum())
    rows = []
    for j, count in enumerate(counts.tolist()):
        p_hat = count / n_samples
        se = math.sqrt(instance.omega * (1 - instance.omega) / n_samples)
        rows.append(
            CheckRow(f"ball {j} mass vs omega", p_hat, instance.omega + 3 * se,
                     abs(p_hat - instance.omega) <= 3 * se)
        )
    rest = 1.0 - instance.m * instance.omega
    p_rest = 1.0 - total_ball / n_samples
    se = math.sqrt(max(rest * (1 - rest), 1e-12) / n_samples)
    rows.append(CheckRow("complement mass", p_rest, rest + 3 * se, abs(p_rest - rest) <= 3 * se))
    return ValidationReport(f"density on {instance.name}", tuple(rows))


def verify_regularity(
    instance: Instance,
    n_points: int = 50,
    resolution: int = 32,
    rng: np.random.Generator | None = None,
) -> ValidationReport:
    """Spot check the declared decision-region regularity.

    Samples support points, and at each point lying in an arm's optimal
    region tests the ball fraction at radii r0, r0/2, r0/4 against the
    declared c0.
    """
    rng = rng or np.random.default_rng(0)
    X = instance.sample_contexts(rng, min(n_points * 20, 5000))
    means = instance.means_matrix(X)
    best = means.max(axis=0)
    rows = []
    for ai, arm in enumerate(instance.arms):
        in_region = means[ai] >= best - 1e-12
        pts = X[in_region][:n_points]
        if len(pts) == 0:
            rows.append(CheckRow(f"arm {arm} region empty", 0.0, instance.meta.c0, False))
            continue

        def region(points, ai=ai):
            m = instance.means_matrix(points)
            return (m[ai] >= m.max(axis=0) - 1e-12) & np.asarray(instance.support(points), dtype=bool)

        worst = math.inf
        for x in pts:
            for r in (instance.meta.r0, instance.meta.r0 / 2, instance.meta.r0 / 4):
                worst = min(worst, ball_region_fraction(x, r, region, resolution))
        rows.append(CheckRow(f"arm {arm} worst ball fraction", worst, instance.meta.c0,
                             worst >= instance.meta.c0 * (1 - 1e-9)))
    return ValidationReport(f"regularity(c0={instance.meta.c0}, r0={instance.meta.r0}) on {instance.name}", tuple(rows))
