"""Interval type-2 fuzzy mathematics on trapezoidal footprints.

A word model is a nine-parameter footprint of uncertainty: an upper
trapezoid (a, b, c, d) of height 1 and a lower trapezoid (e, f, g, i)
scaled to height h <= 1. The module provides membership evaluation,
centroid type-reduction (iterative switch-point algorithm plus an
independent exhaustive-scan oracle), two linguistic-weighted-average
realizations and Jaccard similarity, all over a shared uniform grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError

_CONTAINMENT_TOL = 1e-9


def _trapezoid(x, a: float, b: float, c: float, d: float, height: float):
    """Trapezoid membership with plateau value `height` on [b, c].

    Zero-width edges (a == b or c == d) evaluate as steps; membership at
    the knot takes the plateau value.
    """
    arr = np.asarray(x, dtype=float)
    out = np.zeros_like(arr)
    if b > a:
        rising = (arr >= a) & (arr < b)
        out[rising] = (arr[rising] - a) / (b - a)
    plateau = (arr >= b) & (arr <= c)
    out[plateau] = 1.0
    if d > c:
        falling = (arr > c) & (arr <= d)
        out[falling] = (d - arr[falling]) / (d - c)
    out *= height
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class TrapezoidIT2:
    """Trapezoidal footprint of uncertainty on the evaluation scale."""

    umf_a: float
    umf_b: float
    umf_c: float
    umf_d: float
    lmf_e: float
    lmf_f: float
    lmf_g: float
    lmf_i: float
    lmf_height: float = 1.0

    def __post_init__(self):
        values = (self.umf_a, self.umf_b, self.umf_c, self.umf_d,
                  self.lmf_e, self.lmf_f, self.lmf_g, self.lmf_i, self.lmf_height)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite FOU parameter in {values}")
        if not (self.umf_a <= self.umf_b <= self.umf_c <= self.umf_d):
            raise ValueError(f"upper trapezoid must satisfy a <= b <= c <= d: {self.umf}")
        if not (self.lmf_e <= self.lmf_f <= self.lmf_g <= self.lmf_i):
            raise ValueError(f"lower trapezoid must satisfy e <= f <= g <= i: {self.lmf}")
        if not 0.0 < self.lmf_height <= 1.0:
            raise ValueError(
                f"lower-bound height exceeds 1 or is not positive: {self.lmf_height}"
            )
        if self.lmf_e < self.umf_a - _CONTAINMENT_TOL or self.lmf_i > self.umf_d + _CONTAINMENT_TOL:
            raise ValueError("lower support must lie inside the upper support")
        # piecewise-linear difference attains its minimum at a knot
        knots = np.array(values[:8])
        gap = upper_membership(self, knots) - lower_membership(self, knots)
        if gap.min() < -_CONTAINMENT_TOL:
            raise ValueError(
                "lower membership exceeds upper membership "
                f"(worst gap {gap.min():.3e} at x={knots[int(gap.argmin())]})"
            )

    @property
    def umf(self) -> tuple[float, float, float, float]:
        return (self.umf_a, self.umf_b, self.umf_c, self.umf_d)

    @property
    def lmf(self) -> tuple[float, float, float, float]:
        return (self.lmf_e, self.lmf_f, self.lmf_g, self.lmf_i)


def upper_membership(fou: TrapezoidIT2, x):
    return _trapezoid(x, *fou.umf, 1.0)


def lower_membership(fou: TrapezoidIT2, x):
    return _trapezoid(x, *fou.lmf, fou.lmf_height)


# Largest accepted grid: 100x the default resolution. Every sampled
# array (and the exhaustive centroid scan's prefix sums) grows with it.
MAX_SAMPLE_COUNT = 100_001


@dataclass(frozen=True)
class DiscretizationGrid:
    """Uniform sampling of the evaluation scale, 3 to MAX_SAMPLE_COUNT points."""

    domain_min: float = 0.0
    domain_max: float = 10.0
    sample_count: int = 1001

    def __post_init__(self):
        if self.sample_count < 3:
            raise ValueError(f"grid needs at least 3 samples, got {self.sample_count}")
        if self.sample_count > MAX_SAMPLE_COUNT:
            raise ValueError(
                f"grid takes at most {MAX_SAMPLE_COUNT} samples, got {self.sample_count}"
            )
        if not self.domain_min < self.domain_max:
            raise ValueError("grid domain must be a nonempty interval")

    @cached_property
    def samples(self) -> np.ndarray:
        return np.linspace(self.domain_min, self.domain_max, self.sample_count)

    @property
    def step(self) -> float:
        return (self.domain_max - self.domain_min) / (self.sample_count - 1)


DEFAULT_GRID = DiscretizationGrid()


@dataclass
class SampledFOU:
    """A footprint given by paired membership arrays on a grid."""

    xs: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    height: float = 1.0

    def __post_init__(self):
        if not (len(self.xs) == len(self.upper) == len(self.lower)):
            raise ValueError("xs, upper and lower must have equal length")
        if (self.lower - self.upper).max() > _CONTAINMENT_TOL:
            raise ValueError("lower membership exceeds upper membership")


def membership_samples(fou, grid: DiscretizationGrid) -> tuple[np.ndarray, np.ndarray]:
    """Upper/lower membership arrays of a trapezoidal or sampled FOU.

    A sampled FOU must already lie on `grid`; it is not interpolated.
    """
    if isinstance(fou, TrapezoidIT2):
        xs = grid.samples
        return upper_membership(fou, xs), lower_membership(fou, xs)
    if isinstance(fou, SampledFOU):
        if len(fou.xs) == grid.sample_count and np.array_equal(fou.xs, grid.samples):
            return fou.upper, fou.lower
        raise ValueError(
            f"sampled FOU has {len(fou.xs)} samples that are not the "
            f"{grid.sample_count}-point grid on [{grid.domain_min}, {grid.domain_max}]"
        )
    raise TypeError(f"unsupported FOU type {type(fou).__name__}")


@dataclass(frozen=True)
class CentroidInterval:
    """Type-reduced centroid [c_l, c_r] with 1-based switch indices."""

    c_l: float
    c_r: float
    switch_left: int
    switch_right: int

    @property
    def mean(self) -> float:
        return 0.5 * (self.c_l + self.c_r)


def _check_mass(upper: np.ndarray) -> None:
    if float(upper.sum()) <= 0.0:
        raise DegenerateInputError("FOU carries no membership mass on the grid")


def _check_support(fou, grid: DiscretizationGrid) -> None:
    if isinstance(fou, TrapezoidIT2):
        if fou.umf_a < grid.domain_min - _CONTAINMENT_TOL or fou.umf_d > grid.domain_max + _CONTAINMENT_TOL:
            raise ValueError(
                f"FOU support [{fou.umf_a}, {fou.umf_d}] exceeds grid domain "
                f"[{grid.domain_min}, {grid.domain_max}]"
            )


def _ekm_side(xs: np.ndarray, upper: np.ndarray, lower: np.ndarray, left: bool) -> tuple[float, int]:
    """Iterative switch-point search for one end of the centroid interval.

    The switch k counts the samples in the leading block; for the left
    end the leading block is weighted with upper memberships, for the
    right end with lower memberships. The converged value is recomputed
    from scratch so incremental updates cannot accumulate drift.
    """
    n = len(xs)
    head, tail = (upper, lower) if left else (lower, upper)

    def evaluate(switch: int) -> tuple[float, float]:
        num = float(xs[:switch] @ head[:switch] + xs[switch:] @ tail[switch:])
        den = float(head[:switch].sum() + tail[switch:].sum())
        return num, den

    k = int(round(n / 2.4)) if left else int(round(n / 1.7))
    k = min(max(k, 1), n - 1)
    a, b = evaluate(k)
    if b <= 0.0:
        # leading block must carry mass; seed at the support's far edge
        nz = np.flatnonzero(upper)
        k = min(max(int(nz[-1]) if left else int(nz[0]), 1), n - 1)
        a, b = evaluate(k)
    previous = -1
    for _ in range(n):
        y = a / b
        k_new = int(np.searchsorted(xs, y, side="right"))
        k_new = min(max(k_new, 1), n - 1)
        if k_new == k:
            break
        lo, hi = (k, k_new) if k_new > k else (k_new, k)
        diff = upper[lo:hi] - lower[lo:hi]
        moved_mass = float(diff.sum())
        moved_first = float(xs[lo:hi] @ diff)
        sign = 1.0 if k_new > k else -1.0
        if not left:
            sign = -sign
        a_new = a + sign * moved_first
        b_new = b + sign * moved_mass
        if b_new <= 0.0:
            # the proposed switch strands all mass; the optimum is here
            break
        if b_new < 1e-12:
            # incremental subtraction left only rounding noise; re-anchor
            a_new, b_new = evaluate(k_new)
            if b_new <= 0.0:
                break
        if k_new == previous:
            # two-cycle on an exact boundary value: keep the better switch
            num_here, den_here = evaluate(k)
            num_there, den_there = evaluate(k_new)
            if den_here > 0.0 and den_there > 0.0:
                better = num_there / den_there < num_here / den_here
                if better == left:
                    k = k_new
            break
        previous, k = k, k_new
        a, b = a_new, b_new
    num, den = evaluate(k)
    return num / den, k


def centroid(fou, grid: DiscretizationGrid = DEFAULT_GRID) -> CentroidInterval:
    """Centroid interval by the enhanced switch-point iteration."""
    _check_support(fou, grid)
    xs = grid.samples
    upper, lower = membership_samples(fou, grid)
    _check_mass(upper)
    c_l, k_l = _ekm_side(xs, upper, lower, left=True)
    c_r, k_r = _ekm_side(xs, upper, lower, left=False)
    return CentroidInterval(c_l=c_l, c_r=c_r, switch_left=k_l, switch_right=k_r)


def centroid_brute_force(fou, grid: DiscretizationGrid = DEFAULT_GRID) -> CentroidInterval:
    """Exhaustive scan over every switch position; oracle for `centroid`."""
    _check_support(fou, grid)
    xs = grid.samples
    upper, lower = membership_samples(fou, grid)
    _check_mass(upper)

    def prefix(values):
        return np.concatenate([[0.0], np.cumsum(values)])

    def suffix(values):
        # summed from the right so small tails are not differences of
        # large prefix sums (which loses precision to cancellation)
        return np.concatenate([np.cumsum(values[::-1])[::-1], [0.0]])

    num_left = prefix(xs * upper) + suffix(xs * lower)
    den_left = prefix(upper) + suffix(lower)
    num_right = prefix(xs * lower) + suffix(xs * upper)
    den_right = prefix(lower) + suffix(upper)

    with np.errstate(divide="ignore", invalid="ignore"):
        vals_left = np.where(den_left > 0, num_left / den_left, np.inf)
        vals_right = np.where(den_right > 0, num_right / den_right, -np.inf)
    k_l = int(vals_left.argmin())
    k_r = int(vals_right.argmax())
    return CentroidInterval(
        c_l=float(vals_left[k_l]),
        c_r=float(vals_right[k_r]),
        switch_left=max(k_l, 1),
        switch_right=max(k_r, 1),
    )


def _prepare_weights(count: int, weights: Sequence[float] | None) -> np.ndarray:
    if weights is None:
        weights = [1.0] * count
    w = np.asarray(list(weights), dtype=float)
    if len(w) != count:
        raise ValueError(f"{count} inputs but {len(w)} weights")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    total = math.fsum(w)  # order-independent, keeps permutations exact
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return w / total


def lwa_paper(
    inputs: Sequence[TrapezoidIT2], weights: Sequence[float] | None = None
) -> TrapezoidIT2:
    """Parameter-wise weighted average of trapezoidal word models.

    Each of the nine parameters, the lower height included, is averaged
    independently. This matches the aggregate tables the shipped
    codebook was validated against; `lwa_exact` gives the alpha-cut
    semantics instead.
    """
    if not inputs:
        raise ValueError("cannot aggregate an empty list of FOUs")
    w = _prepare_weights(len(inputs), weights)
    params = np.array(
        [[f.umf_a, f.umf_b, f.umf_c, f.umf_d,
          f.lmf_e, f.lmf_f, f.lmf_g, f.lmf_i, f.lmf_height] for f in inputs]
    )
    # fsum keeps the aggregate exactly permutation invariant
    avg = [math.fsum(w[k] * params[k, j] for k in range(len(inputs))) for j in range(9)]
    return TrapezoidIT2(*avg)


def lwa_exact(
    inputs: Sequence[TrapezoidIT2],
    weights: Sequence[float] | None = None,
    alpha_levels: int = 65,
    grid: DiscretizationGrid = DEFAULT_GRID,
) -> SampledFOU:
    """Alpha-cut weighted average, sampled on the grid.

    Upper cuts are averaged over levels 0..1; lower cuts over levels
    0..min(h_k), each input's lower trapezoid cut at the same absolute
    level. The resulting lower bound has the minimum input height, which
    is where this differs from `lwa_paper`.
    """
    if not inputs:
        raise ValueError("cannot aggregate an empty list of FOUs")
    if alpha_levels < 2:
        raise ValueError(f"need at least 2 alpha levels, got {alpha_levels}")
    w = _prepare_weights(len(inputs), weights)
    params = np.array(
        [[f.umf_a, f.umf_b, f.umf_c, f.umf_d,
          f.lmf_e, f.lmf_f, f.lmf_g, f.lmf_i, f.lmf_height] for f in inputs]
    )
    a, b, c, d = params[:, 0], params[:, 1], params[:, 2], params[:, 3]
    e, f, g, i_ = params[:, 4], params[:, 5], params[:, 6], params[:, 7]
    h = params[:, 8]
    h_min = float(h.min())

    alphas_u = np.linspace(0.0, 1.0, alpha_levels)
    left_u = (a[None, :] + alphas_u[:, None] * (b - a)[None, :]) @ w
    right_u = (d[None, :] - alphas_u[:, None] * (d - c)[None, :]) @ w

    alphas_l = np.linspace(0.0, h_min, alpha_levels)
    frac = alphas_l[:, None] / h[None, :]
    left_l = (e[None, :] + frac * (f - e)[None, :]) @ w
    right_l = (i_[None, :] - frac * (i_ - g)[None, :]) @ w

    xs = grid.samples
    upper = _cuts_to_membership(xs, alphas_u, left_u, right_u)
    lower = _cuts_to_membership(xs, alphas_l, left_l, right_l)
    return SampledFOU(xs=xs, upper=upper, lower=np.minimum(lower, upper), height=h_min)


def _cuts_to_membership(xs, alphas, lefts, rights) -> np.ndarray:
    """Membership from nested cuts: mu(x) = max alpha with x inside the cut."""
    from_left = np.interp(xs, lefts, alphas)
    from_right = np.interp(xs, rights[::-1], alphas[::-1])
    mu = np.minimum(from_left, from_right)
    # pin the top plateau and the support explicitly; zero-width edges
    # otherwise depend on how interp resolves duplicate knots
    mu[(xs >= lefts[-1]) & (xs <= rights[-1])] = alphas[-1]
    mu[(xs < lefts[0]) | (xs > rights[0])] = 0.0
    return mu


def jaccard_similarity(fou_a, fou_b, grid: DiscretizationGrid = DEFAULT_GRID) -> float:
    """Jaccard similarity of two FOUs over the grid, in [0, 1]."""
    ua, la = membership_samples(fou_a, grid)
    ub, lb = membership_samples(fou_b, grid)
    numerator = float(np.minimum(ua, ub).sum() + np.minimum(la, lb).sum())
    denominator = float(np.maximum(ua, ub).sum() + np.maximum(la, lb).sum())
    if denominator <= 0.0:
        raise DegenerateInputError("both FOUs are identically zero on the grid")
    return numerator / denominator


def membership_stack(fous, grid: DiscretizationGrid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (k, G) upper and lower samples of k FOUs, one row each."""
    samples = [membership_samples(fou, grid) for fou in fous]
    upper = np.array([u for u, _ in samples])
    lower = np.array([lo for _, lo in samples])
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


def jaccard_similarities(fou, upper: np.ndarray, lower: np.ndarray,
                         grid: DiscretizationGrid = DEFAULT_GRID) -> np.ndarray:
    """Jaccard similarity of `fou` to each of k FOUs sampled on the grid.

    `upper` and `lower` are (k, G) membership samples, one row per FOU,
    as `membership_stack` returns them.
    Each row is reduced along its contiguous axis, in the order the 1-D
    sums of `jaccard_similarity` take, so entry j equals
    `jaccard_similarity(fou, fou_j, grid)` exactly.
    """
    ua, la = membership_samples(fou, grid)
    numerator = np.minimum(ua, upper).sum(axis=1) + np.minimum(la, lower).sum(axis=1)
    denominator = np.maximum(ua, upper).sum(axis=1) + np.maximum(la, lower).sum(axis=1)
    if (denominator <= 0.0).any():
        raise DegenerateInputError("both FOUs are identically zero on the grid")
    return numerator / denominator
