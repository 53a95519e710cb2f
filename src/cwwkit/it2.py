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
    the knot takes the plateau value. The lower of the two ramps, clipped
    to [0, 1], is the edge's own ramp on an edge, 1 on the plateau and 0
    outside the support.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    # a subnormal edge width overflows a ramp to +-inf, which the clip handles
    with np.errstate(over="ignore"):
        rising = (arr - a) / (b - a) if b > a else np.where(arr < a, 0.0, 1.0)
        falling = (d - arr) / (d - c) if d > c else np.where(arr > d, 0.0, 1.0)
    out = np.minimum(rising, falling, out=rising)
    np.minimum(out, 1.0, out=out)
    np.maximum(out, 0.0, out=out)  # also turns an underflowed -0.0 into 0.0
    out *= height
    return float(out[0]) if np.ndim(x) == 0 else out


def _trapezoid_at(x: float, a: float, b: float, c: float, d: float,
                  height: float) -> float:
    """`_trapezoid` at one point, with the same arithmetic."""
    if b <= x <= c:
        return 1.0 * height
    if a <= x < b:
        return (x - a) / (b - a) * height
    if c < x <= d:
        return (d - x) / (d - c) * height
    return 0.0


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
        values = self.params
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
        knots = [float(v) for v in values[:8]]
        gaps = [_trapezoid_at(x, *self.umf, 1.0) - _trapezoid_at(x, *self.lmf, self.lmf_height)
                for x in knots]
        worst = min(gaps)
        if worst < -_CONTAINMENT_TOL:
            raise ValueError(
                "lower membership exceeds upper membership "
                f"(worst gap {worst:.3e} at x={knots[gaps.index(worst)]})"
            )

    @property
    def params(self) -> tuple[float, ...]:
        """The nine parameters, in constructor and codebook-column order."""
        return (self.umf_a, self.umf_b, self.umf_c, self.umf_d,
                self.lmf_e, self.lmf_f, self.lmf_g, self.lmf_i, self.lmf_height)

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


# The evaluation scale every word model of the codebook lives on.
DOMAIN_MIN, DOMAIN_MAX = 0.0, 10.0

# Largest accepted grid: 100x the default resolution. Every sampled
# array (and the exhaustive centroid scan's prefix sums) grows with it.
MAX_SAMPLE_COUNT = 100_001


@dataclass(frozen=True)
class DiscretizationGrid:
    """Uniform sampling of the evaluation scale, 3 to MAX_SAMPLE_COUNT points."""

    sample_count: int = 1001

    def __post_init__(self):
        if self.sample_count < 3:
            raise ValueError(f"grid needs at least 3 samples, got {self.sample_count}")
        if self.sample_count > MAX_SAMPLE_COUNT:
            raise ValueError(
                f"grid takes at most {MAX_SAMPLE_COUNT} samples, got {self.sample_count}"
            )

    @cached_property
    def samples(self) -> np.ndarray:
        """Read-only: every `lwa_exact` result on this grid shares it."""
        xs = np.linspace(DOMAIN_MIN, DOMAIN_MAX, self.sample_count)
        xs.flags.writeable = False
        return xs


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
        if fou.xs is grid.samples or (len(fou.xs) == grid.sample_count
                                      and np.array_equal(fou.xs, grid.samples)):
            return fou.upper, fou.lower
        raise ValueError(
            f"sampled FOU has {len(fou.xs)} samples that are not the "
            f"{grid.sample_count}-point grid on [{DOMAIN_MIN}, {DOMAIN_MAX}]"
        )
    raise TypeError(f"unsupported FOU type {type(fou).__name__}")


def sample_fou(fou: TrapezoidIT2, grid: DiscretizationGrid) -> SampledFOU:
    """`fou` sampled once on `grid`, for a caller that type-reduces and
    decodes it; its support must lie on the grid, as `centroid` requires."""
    _check_support(fou)
    upper, lower = membership_samples(fou, grid)
    return SampledFOU(xs=grid.samples, upper=upper, lower=lower, height=fou.lmf_height)


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


def _check_support(fou) -> None:
    if isinstance(fou, TrapezoidIT2):
        if fou.umf_a < DOMAIN_MIN - _CONTAINMENT_TOL or fou.umf_d > DOMAIN_MAX + _CONTAINMENT_TOL:
            raise ValueError(
                f"FOU support [{fou.umf_a}, {fou.umf_d}] exceeds grid domain "
                f"[{DOMAIN_MIN}, {DOMAIN_MAX}]"
            )


def _ekm_side(xs: np.ndarray, upper: np.ndarray, lower: np.ndarray, gap: np.ndarray,
              left: bool) -> tuple[float, int]:
    """Iterative switch-point search for one end of the centroid interval.

    The switch k counts the samples in the leading block; for the left
    end the leading block is weighted with upper memberships, for the
    right end with lower memberships. `gap` is `upper - lower`. The
    converged value is recomputed from scratch so incremental updates
    cannot accumulate drift.
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
        diff = gap[lo:hi]
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
    _check_support(fou)
    xs = grid.samples
    upper, lower = membership_samples(fou, grid)
    _check_mass(upper)
    gap = upper - lower
    c_l, k_l = _ekm_side(xs, upper, lower, gap, left=True)
    c_r, k_r = _ekm_side(xs, upper, lower, gap, left=False)
    return CentroidInterval(c_l=c_l, c_r=c_r, switch_left=k_l, switch_right=k_r)


def centroid_brute_force(fou, grid: DiscretizationGrid = DEFAULT_GRID) -> CentroidInterval:
    """Exhaustive scan over every switch position; oracle for `centroid`."""
    _check_support(fou)
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


# Both linguistic weighted averages weigh every input word the same, and
# `lwa_exact` cuts each membership function at this many levels.
ALPHA_LEVELS = 65


def lwa_paper(inputs: Sequence[TrapezoidIT2]) -> TrapezoidIT2:
    """Parameter-wise equal-weight average of trapezoidal word models.

    Each of the nine parameters, the lower height included, is averaged
    independently. This matches the aggregate tables the shipped
    codebook was validated against; `lwa_exact` gives the alpha-cut
    semantics instead.
    """
    if not inputs:
        raise ValueError("cannot aggregate an empty list of FOUs")
    w = 1.0 / len(inputs)
    columns = zip(*(f.params for f in inputs))
    # fsum keeps the aggregate exactly permutation invariant
    return TrapezoidIT2(*(math.fsum(w * v for v in column) for column in columns))


class AlphaCutTable:
    """Alpha-cut endpoints of fixed word models, one column per word.

    The upper cuts are (L, W) matrices over L = ALPHA_LEVELS levels and
    W distinct words. The lower cuts depend on the aggregate's minimum
    height, so they are built for each height on first use and kept:
    there are at most W of them. Each column holds what `lwa_exact` computes for that
    word, by the same formulas, so the columns it takes for its inputs
    equal, bit for bit, the matrices it would build from them alone.
    """

    def __init__(self, words: Sequence[TrapezoidIT2]):
        self._columns: dict[TrapezoidIT2, int] = {}
        for word in words:
            self._columns.setdefault(word, len(self._columns))
        params = np.array([f.params for f in self._columns])
        a, b, c, d = params[:, :4].T
        self.alphas_upper = np.linspace(0.0, 1.0, ALPHA_LEVELS)
        self.upper_left = a[None, :] + self.alphas_upper[:, None] * (b - a)[None, :]
        self.upper_right = d[None, :] - self.alphas_upper[:, None] * (d - c)[None, :]
        self._lower_params = params[:, 4:].T
        self._lower: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def columns(self, words: Sequence[TrapezoidIT2]) -> list[int]:
        """The column of each word, in order."""
        try:
            return [self._columns[word] for word in words]
        except KeyError as exc:
            raise ValueError(f"word not in the alpha-cut table: {exc.args[0]}") from None

    def lower_cuts(self, h_min: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Levels 0..h_min and the (L, W) left and right lower cuts, each
        word's lower trapezoid cut at the same absolute level."""
        cuts = self._lower.get(h_min)
        if cuts is None:
            e, f, g, i_, h = self._lower_params
            alphas = np.linspace(0.0, h_min, ALPHA_LEVELS)
            frac = alphas[:, None] / h[None, :]
            cuts = self._lower[h_min] = (alphas,
                                         e[None, :] + frac * (f - e)[None, :],
                                         i_[None, :] - frac * (i_ - g)[None, :])
        return cuts


def lwa_exact(
    inputs: Sequence[TrapezoidIT2],
    *,
    grid: DiscretizationGrid = DEFAULT_GRID,
    table: AlphaCutTable | None = None,
) -> SampledFOU:
    """Alpha-cut equal-weight average, sampled on the grid.

    Upper cuts are averaged over levels 0..1; lower cuts over levels
    0..min(h_k), each input's lower trapezoid cut at the same absolute
    level. The resulting lower bound has the minimum input height, which
    is where this differs from `lwa_paper`.

    `table` holds the cuts of every input word, built once for a batch
    that aggregates the same words again and again; without it, one is
    built over `inputs`. The result is the same either way.
    """
    if not inputs:
        raise ValueError("cannot aggregate an empty list of FOUs")
    if table is None:
        table = AlphaCutTable(inputs)
    cols = table.columns(inputs)
    w = np.full(len(cols), 1.0 / len(cols))
    h_min = min(f.lmf_height for f in inputs)

    # take() returns a C-ordered selection; `[:, cols]` returns an F-ordered
    # one, whose `@ w` may round differently in the last bit
    left_u = table.upper_left.take(cols, axis=1) @ w
    right_u = table.upper_right.take(cols, axis=1) @ w
    alphas_l, lefts_l, rights_l = table.lower_cuts(h_min)
    left_l = lefts_l.take(cols, axis=1) @ w
    right_l = rights_l.take(cols, axis=1) @ w

    xs = grid.samples
    upper = _cuts_to_membership(xs, table.alphas_upper, left_u, right_u)
    lower = _cuts_to_membership(xs, alphas_l, left_l, right_l)
    return SampledFOU(xs=xs, upper=upper, lower=np.minimum(lower, upper), height=h_min)


def _cuts_to_membership(xs, alphas, lefts, rights) -> np.ndarray:
    """Membership from nested cuts: mu(x) = max alpha with x inside the cut."""
    from_left = np.interp(xs, lefts, alphas)
    from_right = np.interp(xs, rights[::-1], alphas[::-1])
    mu = np.minimum(from_left, from_right)
    # pin the top plateau and the support explicitly; zero-width edges
    # otherwise depend on how interp resolves duplicate knots (xs is sorted)
    mu[xs.searchsorted(lefts[-1]):xs.searchsorted(rights[-1], side="right")] = alphas[-1]
    mu[:xs.searchsorted(lefts[0])] = 0.0
    mu[xs.searchsorted(rights[0], side="right"):] = 0.0
    return mu


def jaccard_similarity(fou_a, fou_b, grid: DiscretizationGrid = DEFAULT_GRID) -> float:
    """Jaccard similarity of two FOUs over the grid, in [0, 1]: the
    one-row case of `jaccard_similarities`."""
    ua, la = membership_samples(fou_a, grid)
    ub, lb = membership_samples(fou_b, grid)
    return float(jaccard_similarities(ua, la, ub[None, :], lb[None, :])[0])


def membership_stack(fous, grid: DiscretizationGrid) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (k, G) upper and lower samples of k FOUs, one row each."""
    samples = [membership_samples(fou, grid) for fou in fous]
    upper = np.array([u for u, _ in samples])
    lower = np.array([lo for _, lo in samples])
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


def jaccard_similarities(ua: np.ndarray, la: np.ndarray,
                         upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """Jaccard similarity of one FOU to each of k FOUs, all sampled on one grid.

    `ua` and `la` are the (G,) upper and lower samples of the one FOU;
    `upper` and `lower` are (k, G) samples, one row per FOU, as
    `membership_stack` returns them.
    """
    numerator = np.minimum(ua, upper).sum(axis=1) + np.minimum(la, lower).sum(axis=1)
    denominator = np.maximum(ua, upper).sum(axis=1) + np.maximum(la, lower).sum(axis=1)
    if (denominator <= 0.0).any():
        raise DegenerateInputError("both FOUs are identically zero on the grid")
    return numerator / denominator
