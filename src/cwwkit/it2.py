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
import operator
from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from ._value import Value, set_field
from .errors import DegenerateInputError

_CONTAINMENT_TOL = 1e-9

# The evaluation scale: every word model lies on it and every grid samples it.
DOMAIN_MIN, DOMAIN_MAX = 0.0, 10.0


def _on_grid(grid: DiscretizationGrid, a: float, b: float, c: float, d: float,
             top: float, rising, falling) -> np.ndarray:
    """Membership on the grid with knots a <= b <= c <= d: zero outside
    [a, d], `top` on [b, c], and `rising` and `falling` called on the
    samples of their own edge only, so a zero-width edge is an empty slice."""
    xs, points = grid.samples, grid.sample_list
    start = bisect_left(points, a)
    rise = bisect_left(points, b)
    fall = bisect_right(points, c)
    stop = bisect_right(points, d)
    mu = np.zeros(len(points))
    mu[start:rise] = rising(xs[start:rise])
    mu[rise:fall] = top
    mu[fall:stop] = falling(xs[fall:stop])
    return mu


def _trapezoid(grid: DiscretizationGrid, a: float, b: float, c: float, d: float,
               height: float) -> np.ndarray:
    """Trapezoid membership on the grid with plateau value `height` on [b, c]."""
    return _on_grid(grid, a, b, c, d, height,
                    lambda x: (x - a) / (b - a) * height,
                    lambda x: (d - x) / (d - c) * height)


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


class TrapezoidIT2(Value):
    """Trapezoidal footprint of uncertainty on the evaluation scale: its
    support [a, d] must lie on [DOMAIN_MIN, DOMAIN_MAX], within 1e-9.

    A word keeps the alpha cuts `lwa_exact` averages, each built on first
    use: its upper cuts, and one set of lower cuts per minimum height it
    is averaged at. They are not fields, so they change no comparison,
    hash or repr, and a pickle or copy of the word leaves them behind.
    """

    _fields = ("umf_a", "umf_b", "umf_c", "umf_d",
               "lmf_e", "lmf_f", "lmf_g", "lmf_i", "lmf_height")

    def __init__(self, umf_a: float, umf_b: float, umf_c: float, umf_d: float,
                 lmf_e: float, lmf_f: float, lmf_g: float, lmf_i: float,
                 lmf_height: float = 1.0):
        set_field(self, "umf_a", umf_a)
        set_field(self, "umf_b", umf_b)
        set_field(self, "umf_c", umf_c)
        set_field(self, "umf_d", umf_d)
        set_field(self, "lmf_e", lmf_e)
        set_field(self, "lmf_f", lmf_f)
        set_field(self, "lmf_g", lmf_g)
        set_field(self, "lmf_i", lmf_i)
        set_field(self, "lmf_height", lmf_height)
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
        if self.umf_a < DOMAIN_MIN - _CONTAINMENT_TOL or self.umf_d > DOMAIN_MAX + _CONTAINMENT_TOL:
            raise ValueError(
                f"FOU support [{self.umf_a}, {self.umf_d}] exceeds grid domain "
                f"[{DOMAIN_MIN}, {DOMAIN_MAX}]"
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

    def __reduce__(self):
        return (TrapezoidIT2, self.params)

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

    @cached_property
    def _upper_cuts(self) -> np.ndarray:
        """(2, L, 1) left and right ends of the upper trapezoid cut at the
        ALPHA_LEVELS levels 0..1."""
        a, b, c, d = self.umf
        alphas = _levels(1.0)[0]
        return np.array([a + alphas * (b - a), d - alphas * (d - c)])[:, :, None]

    @cached_property
    def _lower_cut_sets(self) -> dict[float, np.ndarray]:
        return {}

    def _lower_cuts(self, h_min: float) -> np.ndarray:
        """(2, L, 1) ends of the lower trapezoid cut at the ALPHA_LEVELS
        levels 0..h_min, absolute levels, so h_min must not exceed the
        word's own height."""
        cuts = self._lower_cut_sets.get(h_min)
        if cuts is None:
            e, f, g, i, h = self.params[4:]
            frac = _levels(h_min)[0] / h
            cuts = self._lower_cut_sets[h_min] = np.array(
                [e + frac * (f - e), i - frac * (i - g)])[:, :, None]
        return cuts


# Largest accepted grid: 100x the default resolution. Every sampled
# array (and the exhaustive centroid scan's prefix sums) grows with it.
MAX_SAMPLE_COUNT = 100_001


class DiscretizationGrid(Value):
    """Uniform sampling of the evaluation scale, 3 to MAX_SAMPLE_COUNT points."""

    _fields = ("sample_count",)

    def __init__(self, sample_count: int = 1001):
        try:
            set_field(self, "sample_count", operator.index(sample_count))
        except TypeError:
            raise TypeError(f"grid needs a whole number of samples, got {sample_count!r}") from None
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

    @cached_property
    def sample_list(self) -> list[float]:
        """`samples` as Python floats, which `bisect` searches without
        numpy's per-call overhead."""
        return self.samples.tolist()


DEFAULT_GRID = DiscretizationGrid()


class SampledFOU(Value):
    """A footprint given by paired membership arrays on a grid.

    Unhashable: equality compares the arrays.
    """

    _fields = ("xs", "upper", "lower")
    __hash__ = None

    def __init__(self, xs: np.ndarray, upper: np.ndarray, lower: np.ndarray):
        set_field(self, "xs", xs)
        set_field(self, "upper", upper)
        set_field(self, "lower", lower)
        if not (len(self.xs) == len(self.upper) == len(self.lower)):
            raise ValueError("xs, upper and lower must have equal length")
        if (self.lower - self.upper).max() > _CONTAINMENT_TOL:
            raise ValueError("lower membership exceeds upper membership")

    @classmethod
    def _contained(cls, xs: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> SampledFOU:
        """A sampled FOU whose `lower` lies under `upper` by construction (`lwa_exact`'s
        `np.minimum`, or the samples of a checked word model), so the check is skipped."""
        fou = cls.__new__(cls)
        set_field(fou, "xs", xs)
        set_field(fou, "upper", upper)
        set_field(fou, "lower", lower)
        return fou


def membership_samples(fou, grid: DiscretizationGrid) -> tuple[np.ndarray, np.ndarray]:
    """Upper/lower membership arrays of a trapezoidal or sampled FOU.

    A sampled FOU must already lie on `grid`; it is not interpolated.
    """
    if isinstance(fou, TrapezoidIT2):
        return _trapezoid(grid, *fou.umf, 1.0), _trapezoid(grid, *fou.lmf, fou.lmf_height)
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
    """`fou` sampled once on `grid`, trusting the containment its constructor checked."""
    upper, lower = membership_samples(fou, grid)
    return SampledFOU._contained(grid.samples, upper, lower)


class CentroidInterval(Value):
    """Type-reduced centroid [c_l, c_r] with 1-based switch indices."""

    _fields = ("c_l", "c_r", "switch_left", "switch_right")

    def __init__(self, c_l: float, c_r: float, switch_left: int, switch_right: int):
        set_field(self, "c_l", c_l)
        set_field(self, "c_r", c_r)
        set_field(self, "switch_left", switch_left)
        set_field(self, "switch_right", switch_right)

    @property
    def mean(self) -> float:
        return 0.5 * (self.c_l + self.c_r)


# The least weight, the denominator of a centroid end, that a switch
# position needs to be a candidate: a switch search whose weight falls
# below it is left to the exhaustive scan, and the scan skips positions
# below it. An upper mass below it leaves no position.
_MIN_WEIGHT = 1e-12


def _check_mass(upper: np.ndarray) -> None:
    if float(np.add.reduce(upper)) < _MIN_WEIGHT:
        raise DegenerateInputError("FOU carries no membership mass on the grid")


def _ekm_side(grid: DiscretizationGrid, upper: np.ndarray, lower: np.ndarray,
              left: bool) -> tuple[float, int] | None:
    """Switch-point search for one end of the centroid interval.

    The switch k counts the samples in the leading block; for the left
    end the leading block is weighted with upper memberships, for the
    right end with lower memberships. None if the weight falls below
    _MIN_WEIGHT, the search cycles or it does not settle in n passes."""
    xs, points = grid.samples, grid.sample_list
    n = len(points)
    head, tail = (upper, lower) if left else (lower, upper)
    add = np.add.reduce  # what `ndarray.sum` calls, without its wrapper
    k = int(round(n / 2.4)) if left else int(round(n / 1.7))
    k = min(max(k, 1), n - 1)
    previous = -1
    for _ in range(n):
        num = float(xs[:k].dot(head[:k]) + xs[k:].dot(tail[k:]))
        den = float(add(head[:k]) + add(tail[k:]))
        if den < _MIN_WEIGHT:
            return None
        y = num / den
        # the first sample above y, clamped to [1, n - 1]
        k_new = bisect_right(points, y, 1, n - 1)
        if k_new == k:
            return y, k
        if k_new == previous:
            return None  # a two-cycle on an exact boundary value
        previous, k = k, k_new
    return None


def centroid(fou, grid: DiscretizationGrid = DEFAULT_GRID) -> CentroidInterval:
    """Centroid interval by a switch-point search that keeps the starting
    switches and stop rule of the enhanced Karnik-Mendel algorithm (Wu &
    Mendel, IEEE TFS 17(4), 2009) and computes each candidate from
    scratch; where a search runs out of weight (a grid too coarse for the
    footprint, a word narrower than one sample), cycles or does not
    settle, the exhaustive scan's interval.

    Raises DegenerateInputError when the upper mass on the grid is below
    _MIN_WEIGHT; otherwise both ends lie within the first and last sample
    with upper mass."""
    upper, lower = membership_samples(fou, grid)
    _check_mass(upper)
    left = _ekm_side(grid, upper, lower, left=True)
    right = _ekm_side(grid, upper, lower, left=False)
    if left is None or right is None:
        return _scan(grid, upper, lower)
    return CentroidInterval(left[0], right[0], left[1], right[1])


def centroid_brute_force(fou, grid: DiscretizationGrid = DEFAULT_GRID) -> CentroidInterval:
    """Exhaustive scan over every switch position; oracle for `centroid`."""
    upper, lower = membership_samples(fou, grid)
    _check_mass(upper)
    return _scan(grid, upper, lower)


def _scan(grid: DiscretizationGrid, upper: np.ndarray, lower: np.ndarray) -> CentroidInterval:
    """Centroid interval of sampled memberships, from every switch position
    whose weight is at least _MIN_WEIGHT, the weight a switch search
    resolves. The whole-upper positions (all samples on the upper
    membership) always qualify, since `_check_mass` has passed."""
    xs = grid.samples

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
        vals_left = np.where(den_left >= _MIN_WEIGHT, num_left / den_left, np.inf)
        vals_right = np.where(den_right >= _MIN_WEIGHT, num_right / den_right, -np.inf)
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


@lru_cache(maxsize=8)
def _levels(top: float) -> tuple[np.ndarray, np.ndarray]:
    """The ALPHA_LEVELS levels 0..top, and the same reversed: right
    edges run downwards."""
    alphas = np.linspace(0.0, top, ALPHA_LEVELS)
    return alphas, alphas[::-1].copy()


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
    params = [math.fsum(w * v for v in column) for column in columns]
    try:
        return TrapezoidIT2(*params)
    except ValueError as exc:
        # averaging keeps both trapezoids ordered and the lower support
        # inside the upper one, but not the lower membership below the upper
        raise DegenerateInputError(
            f"the parameter-wise average is not a footprint: {exc}") from None


def lwa_exact(inputs: Sequence[TrapezoidIT2], *,
              grid: DiscretizationGrid = DEFAULT_GRID) -> SampledFOU:
    """Alpha-cut equal-weight average, sampled on the grid.

    Upper cuts are averaged over levels 0..1; lower cuts over levels
    0..min(h_k), each input's lower trapezoid cut at the same absolute
    level. The resulting lower bound has the minimum input height, which
    is where this differs from `lwa_paper`. Each input's cuts are its
    own, built on first use and kept by the word, so a word averaged
    again costs no cutting.
    """
    if not inputs:
        raise ValueError("cannot aggregate an empty list of FOUs")
    w = np.full(len(inputs), 1.0 / len(inputs))
    h_min = min([f.lmf_height for f in inputs])
    upper = _cuts_to_membership(grid, _levels(1.0), [f._upper_cuts for f in inputs], w)
    lower = _cuts_to_membership(grid, _levels(h_min),
                                [f._lower_cuts(h_min) for f in inputs], w)
    return SampledFOU._contained(grid.samples, upper, np.minimum(lower, upper))


def _cuts_to_membership(grid: DiscretizationGrid, levels: tuple[np.ndarray, np.ndarray],
                        cuts: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    """Membership of the `w`-weighted average of nested cuts, one (2, L, 1)
    array of left and right ends per word: mu(x) = max alpha with x inside
    the averaged cut."""
    alphas, reversed_alphas = levels
    # one C-ordered (2, L, n) array: an F-ordered one's `@ w` may round
    # differently in the last bit
    lefts, rights = np.concatenate(cuts, axis=2) @ w
    # mu is the lower of the left-edge and right-edge interpolations, and
    # each edge reads the top level on the other's side, so only the edges
    # are interpolated
    top = alphas[-1]
    return _on_grid(grid, float(lefts[0]), float(lefts[-1]), float(rights[-1]),
                    float(rights[0]), top,
                    lambda x: np.minimum(np.interp(x, lefts, alphas), top),
                    lambda x: np.minimum(np.interp(x, rights[::-1], reversed_alphas), top))


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
    add = np.add.reduce  # what `ndarray.sum` calls, without its wrapper
    numerator = add(np.minimum(ua, upper), axis=1) + add(np.minimum(la, lower), axis=1)
    denominator = add(np.maximum(ua, upper), axis=1) + add(np.maximum(la, lower), axis=1)
    if (denominator <= 0.0).any():
        raise DegenerateInputError("both FOUs are identically zero on the grid")
    return numerator / denominator
