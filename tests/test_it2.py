import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cwwkit import (CentroidInterval, DegenerateInputError, DiscretizationGrid,
                    TrapezoidIT2, centroid, centroid_brute_force,
                    jaccard_similarity, lwa_exact, lwa_paper)
from cwwkit.it2 import (DEFAULT_GRID, MAX_SAMPLE_COUNT, SampledFOU,
                        _trapezoid, _trapezoid_at, membership_samples)
from cwwkit.vocabulary import TIME_TAKEN
from strategies import _assemble_fou, random_fou, trapezoid_it2

SMALL = TrapezoidIT2(0.59, 2.00, 3.00, 4.41, 1.79, 2.50, 2.50, 3.21, 0.59)
VERY_LITTLE = TrapezoidIT2(0.00, 0.00, 0.18, 2.63, 0.00, 0.00, 0.09, 1.32, 1.00)
# edge fraction 1.0 once put the generated e a last-bit past f
# (3.8835000000000006 > 3.8835), which the constructor rejects
FULL_EDGE_FOU = _assemble_fou([0.74, 2.46, 6.11, 6.46], 0.6, (0.39, 0.99), (1.0, 1.0))
# plateau fraction 1.0 once put the generated g a last-bit past c = d
# (5.588086090812617 > 5.588086090812616), so the lower plateau stood
# outside the upper support
FULL_PLATEAU_FOU = _assemble_fou(
    [0.0, 1.4, 5.588086090812616, 5.588086090812616], 1.0, (0.0, 1.0), (0.0, 0.0))

# its lower height is the least positive double
SUBNORMAL_LOWER_HEIGHT = TrapezoidIT2(
    0.0, 6.601333536568484, 6.816902767932317, 7.859240502197796, 7.13620963534889,
    7.392592287503327, 7.466982613123969, 7.729929005863498, 5e-324)

SS1_WORDS = [
    SMALL,
    TrapezoidIT2(4.38, 6.50, 8.00, 9.62, 6.79, 7.38, 7.38, 8.21, 0.49),
    TrapezoidIT2(3.06, 4.99, 5.06, 7.00, 3.82, 4.99, 5.06, 6.27, 1.00),
    TrapezoidIT2(3.50, 4.99, 5.03, 6.85, 3.80, 4.99, 5.03, 6.24, 1.00),
]


def _on_default_grid(x, *params):
    """`_trapezoid` on the default grid, read at its sample `x`."""
    return float(_trapezoid(DEFAULT_GRID, *params)[DEFAULT_GRID.sample_list.index(x)])


class TestMembership:
    def test_upper_plateau_and_support(self):
        assert _on_default_grid(2.5, *SMALL.umf, 1.0) == 1.0
        assert _on_default_grid(5.0, *SMALL.umf, 1.0) == 0.0
        # 1.295 lies between two samples
        assert _trapezoid_at(1.295, *SMALL.umf, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_lower_plateau_and_edges(self):
        assert _on_default_grid(2.5, *SMALL.lmf, SMALL.lmf_height) == pytest.approx(0.59)
        assert _on_default_grid(0.0, *SMALL.lmf, SMALL.lmf_height) == 0.0
        assert _on_default_grid(2.0, *SMALL.lmf, SMALL.lmf_height) == pytest.approx(
            0.59 * 0.21 / 0.71, abs=1e-12)

    def test_zero_width_edge_is_a_step(self):
        # left shoulder: a == b, membership at the knot takes the plateau value
        assert _on_default_grid(0.0, *VERY_LITTLE.umf, 1.0) == 1.0
        assert _on_default_grid(0.0, *VERY_LITTLE.lmf, VERY_LITTLE.lmf_height) == 1.0

    def test_vectorized_evaluation(self):
        grid = DiscretizationGrid(sample_count=5)  # samples at 0, 2.5, 5, 7.5, 10
        np.testing.assert_allclose(_trapezoid(grid, *SMALL.umf, 1.0), [0.0, 1.0, 0.0, 0.0, 0.0])


def _masked_trapezoid(x, a, b, c, d, height):
    """The boolean-mask trapezoid, kept as the bit-exact oracle of
    `_trapezoid` on the grid and of `_trapezoid_at` anywhere."""
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


def _array_knot_check(values):
    """The error the knot check on numpy arrays raised for these FOU
    parameters, or None; the oracle of TrapezoidIT2's scalar check."""
    knots = np.array(values[:8])
    gap = (_masked_trapezoid(knots, *values[:4], 1.0)
           - _masked_trapezoid(knots, *values[4:]))
    if gap.min() < -1e-9:
        return ("lower membership exceeds upper membership "
                f"(worst gap {gap.min():.3e} at x={knots[int(gap.argmin())]})")
    return None


@st.composite
def fou_parameters(draw):
    """Parameters that pass every FOU check before the knot check, with
    the lower bound often poking through the upper one."""
    a, b, c, d = sorted(draw(st.lists(st.floats(0.0, 10.0), min_size=4, max_size=4)))
    fracs = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    lower = [min(a + t * (d - a), d) for t in fracs]
    return (a, b, c, d, *lower, draw(st.floats(0.01, 1.0)))


class TestTrapezoidKernel:
    """`_trapezoid` on the grid, `_trapezoid_at` at any point and the scalar
    knot check against the masked versions: the same bits, the same
    accepted FOUs, the same errors, and no warning (each warning raises)."""

    @staticmethod
    def assert_same_bits(grid, *params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _trapezoid(grid, *params)
            expected = _masked_trapezoid(grid.samples, *params)
        assert np.array_equal(got, expected)
        assert got.tobytes() == expected.tobytes()

    @staticmethod
    def assert_same_bits_at(x, *params):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _trapezoid_at(x, *params)
            expected = _masked_trapezoid(x, *params)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
        return got

    @pytest.mark.parametrize("sample_count", [51, 1001])
    def test_codebook_words(self, codebook, sample_count):
        grid = DiscretizationGrid(sample_count=sample_count)
        for entry in codebook.entries:
            fou = entry.fou
            self.assert_same_bits(grid, *fou.umf, 1.0)
            self.assert_same_bits(grid, *fou.lmf, fou.lmf_height)
            # the samples keep the containment the constructor checked
            upper, lower = membership_samples(fou, grid)
            assert (lower - upper).max() <= 1e-9, entry.term.code

    @pytest.mark.parametrize("sample_count", [3, 51, 1001])
    def test_words_and_paper_aggregates(self, codebook, sample_count):
        """Every codebook word and the `lwa_paper` aggregate of every
        feedback vector, as `membership_samples` lays them on the grid."""
        grid = DiscretizationGrid(sample_count=sample_count)
        fous = [entry.fou for entry in codebook.entries]
        fous += [lwa_paper(words) for words in itertools.product(*codebook.parameter_fous)]
        assert len(fous) == len(codebook.entries) + 625
        for fou in fous:
            self.assert_same_bits(grid, *fou.umf, 1.0)
            self.assert_same_bits(grid, *fou.lmf, fou.lmf_height)

    @settings(max_examples=200, deadline=None)
    @given(trapezoid_it2(), st.sampled_from([51, 1001]))
    def test_random_trapezoids(self, fou, sample_count):
        grid = DiscretizationGrid(sample_count=sample_count)
        self.assert_same_bits(grid, *fou.umf, 1.0)
        self.assert_same_bits(grid, *fou.lmf, fou.lmf_height)
        for knot in fou.umf + fou.lmf:
            self.assert_same_bits_at(knot, *fou.lmf, fou.lmf_height)

    @pytest.mark.parametrize("params", [
        (0.0, 0.0, 0.18, 2.63, 1.0),  # left shoulder
        (7.37, 9.82, 10.0, 10.0, 1.0),  # right shoulder
        (2.0, 2.0, 3.0, 3.0, 0.5),  # crisp interval
        (4.0, 5.0, 5.0, 6.0, 0.7),  # triangle
        (5.0, 5.0, 5.0, 5.0, 1.0),  # one point
        (0.0, 5e-324, 4.0, 6.0, 1.0),  # subnormal rising width
        (0.0, 0.0, 5e-324, 1e-323, 0.9),  # subnormal falling width
        (-5e-324, 0.0, 0.0, 5e-324, 1.0),  # both, around zero
        (0.0, 2.0, 3.0, 4.0, 1.0),  # rising ramp underflows to -0.0 at -5e-324
        (-4.0, -3.0, -2.0, 0.0, 1.0),  # falling ramp underflows to -0.0 at 5e-324
    ])
    def test_zero_and_subnormal_edge_widths(self, params):
        self.assert_same_bits(DEFAULT_GRID, *params)
        for x in [-1.0, -5e-324, 0.0, 5e-324, 1e-323, 1.5e-323, *params[:4]]:
            got = self.assert_same_bits_at(x, *params)
            assert math.copysign(1.0, got) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(fou_parameters())
    @example((0, 4, 6, 10, 1, 1.5, 5, 6, 1.0))
    @example((0.59, 2.00, 3.00, 4.41, 1.79, 2.50, 2.50, 3.21, 0.59))
    def test_scalar_knot_check_matches_array_check(self, values):
        expected = _array_knot_check(values)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                TrapezoidIT2(*values)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None


class TestValidation:
    def test_rejects_unordered_upper(self):
        with pytest.raises(ValueError):
            TrapezoidIT2(1, 0.5, 2, 3, 1, 1.5, 1.5, 2, 0.5)

    def test_rejects_unordered_lower(self):
        with pytest.raises(ValueError, match="lower trapezoid must satisfy e <= f <= g <= i"):
            TrapezoidIT2(0, 1, 2, 3, 1, 1.5, 1.4, 2, 0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_parameter(self, value):
        with pytest.raises(ValueError, match="non-finite FOU parameter"):
            TrapezoidIT2(0, 1, 2, 3, 1, 1.5, 1.5, 2, value)

    def test_rejects_height_above_one(self):
        with pytest.raises(ValueError, match="height exceeds 1"):
            TrapezoidIT2(0, 1, 2, 3, 0.5, 1, 2, 2.5, 1.5)

    def test_rejects_lower_support_outside_upper(self):
        with pytest.raises(ValueError):
            TrapezoidIT2(1, 2, 3, 4, 0.5, 2, 3, 3.5, 0.5)

    def test_rejects_lower_above_upper(self):
        # lower plateau at height 1 pokes through the rising upper edge
        with pytest.raises(ValueError):
            TrapezoidIT2(0, 4, 6, 10, 1, 1.5, 5, 6, 1.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            DiscretizationGrid(sample_count=2)
        # raises in the constructor; the samples are never allocated
        with pytest.raises(ValueError, match="at most"):
            DiscretizationGrid(sample_count=10**9)
        assert DiscretizationGrid(sample_count=MAX_SAMPLE_COUNT).sample_count == MAX_SAMPLE_COUNT
        grid = DiscretizationGrid()
        assert grid.samples[0] == 0.0
        assert grid.samples[-1] == 10.0
        assert len(grid.samples) == 1001

    @pytest.mark.parametrize("count", [5.5, 51.0, "51"])
    def test_grid_rejects_a_count_that_is_not_a_whole_number(self, count):
        # rejected when the grid is built, not deep in numpy on first use
        with pytest.raises(TypeError, match=f"whole number of samples, got {count!r}"):
            DiscretizationGrid(sample_count=count)

    def test_grid_takes_a_numpy_integer_as_a_python_int(self):
        grid = DiscretizationGrid(sample_count=np.int64(51))
        assert type(grid.sample_count) is int
        assert grid == DiscretizationGrid(51)


class TestCentroid:
    def test_small_word_interval(self):
        ci = centroid(SMALL)
        assert ci.c_l == pytest.approx(1.886028, abs=1e-5)
        assert ci.c_r == pytest.approx(3.113972, abs=1e-5)
        # published values for this word, at their stated tolerance
        assert ci.c_l == pytest.approx(1.88, abs=0.02)
        assert ci.c_r == pytest.approx(3.12, abs=0.02)

    def test_left_shoulder_interval(self):
        ci = centroid(VERY_LITTLE)
        assert ci.c_l == pytest.approx(0.44, abs=0.02)
        assert ci.c_r == pytest.approx(0.93, abs=0.02)

    def test_symmetric_fou_centers_on_axis(self):
        # SMALL is symmetric about 2.5
        ci = centroid(SMALL)
        assert ci.c_l + ci.c_r == pytest.approx(5.0, abs=1e-9)

    def test_switch_points_within_grid(self):
        ci = centroid(SMALL)
        assert 1 <= ci.switch_left <= DEFAULT_GRID.sample_count
        assert 1 <= ci.switch_right <= DEFAULT_GRID.sample_count

    def test_mean(self):
        assert CentroidInterval(1.88, 3.12, 1, 1).mean == pytest.approx(2.50)
        assert CentroidInterval(4.44, 5.47, 1, 1).mean == pytest.approx(4.955)
        assert CentroidInterval(3.3, 3.3, 1, 1).mean == 3.3

    def test_degenerate_fou_raises(self):
        coarse = DiscretizationGrid(sample_count=3)  # samples at 0, 5, 10
        narrow = TrapezoidIT2(1.0, 1.5, 2.0, 2.5, 1.2, 1.6, 1.9, 2.3, 0.5)
        with pytest.raises(DegenerateInputError):
            centroid(narrow, coarse)

    def test_mass_below_the_least_weight_raises(self):
        # one sample, 5.0, with upper membership 1.8e-13: no switch
        # position carries the weight a switch search resolves
        fou = TrapezoidIT2(4.999999999999999, 5.005, 5.006, 5.007,
                           5.0055, 5.0056, 5.0057, 5.0058, 0.5)
        for route in (centroid, centroid_brute_force):
            with pytest.raises(DegenerateInputError, match="no membership mass"):
                route(fou)

    def test_support_outside_grid_raises(self):
        # SMALL moved right by 6: its upper support ends at 10.41
        with pytest.raises(ValueError, match=r"FOU support \[6.59, 10.41\] exceeds grid domain"):
            TrapezoidIT2(6.59, 8.00, 9.00, 10.41, 7.79, 8.50, 8.50, 9.21, 0.59)
        # the same below 0, where 1e-9 is forgiven as above 10
        with pytest.raises(ValueError, match=r"FOU support \[-0.01, 10.0\] exceeds grid domain"):
            TrapezoidIT2(-0.01, 0.0, 10.0, 10.0, 0.0, 0.0, 10.0, 10.0)
        assert TrapezoidIT2(-1e-10, 0.0, 10.0, 10.0, 0.0, 0.0, 10.0, 10.0).umf_a == -1e-10

    def test_brute_force_matches_iterative_on_words(self):
        for fou in SS1_WORDS + [VERY_LITTLE]:
            ekm = centroid(fou)
            scan = centroid_brute_force(fou)
            assert abs(ekm.c_l - scan.c_l) <= 1e-9
            assert abs(ekm.c_r - scan.c_r) <= 1e-9

    @settings(max_examples=200, deadline=None)
    @given(trapezoid_it2())
    @example(FULL_EDGE_FOU)
    @example(FULL_PLATEAU_FOU)
    def test_brute_force_matches_iterative_randomized(self, fou):
        ekm = centroid(fou)
        scan = centroid_brute_force(fou)
        assert abs(ekm.c_l - scan.c_l) <= 1e-9
        assert abs(ekm.c_r - scan.c_r) <= 1e-9
        assert ekm.c_l <= ekm.c_r + 1e-12

    def test_zero_lower_mass_still_agrees(self):
        # lower trapezoid so thin it misses every grid sample
        fou = TrapezoidIT2(1.0, 3.0, 7.0, 9.0, 5.001, 5.004, 5.005, 5.008, 0.9)
        ekm = centroid(fou)
        scan = centroid_brute_force(fou)
        assert abs(ekm.c_l - scan.c_l) <= 1e-9
        assert abs(ekm.c_r - scan.c_r) <= 1e-9

    @pytest.mark.parametrize("fou, expected", [
        # upper support [4.995, 5.005] holds one sample, 5.0; the lower
        # trapezoid holds none, so every embedded set is that one sample
        (TrapezoidIT2(4.995, 5.0, 5.0, 5.005, 4.996, 4.997, 4.997, 4.998, 0.05), 5.0),
        # the same at the top edge, where the switch range [1, n - 1] ends
        (TrapezoidIT2(9.995, 10.0, 10.0, 10.0, 9.996, 9.997, 9.997, 9.998, 0.05), 10.0),
    ])
    def test_one_sample_word(self, fou, expected):
        ci = centroid(fou)
        assert (ci.c_l, ci.c_r) == (expected, expected)

    @pytest.mark.parametrize("fou, first_sample", [
        (TrapezoidIT2(0.0, 9.53, 9.58, 9.88, 8.7, 9.53, 9.54, 9.63, 1e-200), 0.01),
        (TrapezoidIT2(4.88, 5.4, 7.59, 7.87, 7.85, 7.85, 7.85, 7.86, 1e-13), 4.89),
    ])
    def test_negligible_lower_mass_puts_left_end_at_first_upper_sample(self, fou,
                                                                        first_sample):
        # c_l weighs the samples up to the switch by upper membership and the
        # rest by lower membership, which is negligible here: the least mean
        # is the first sample with upper mass alone
        assert centroid(fou).c_l == pytest.approx(first_sample, abs=1e-9)


    def test_rounding_noise_is_no_left_end(self):
        # the upper membership at 0.83 is rounding noise, about 1e-16, and
        # the lower height is negligible: 0.83 alone weighs too little to
        # be the left end, so both routes give the next sample
        fou = TrapezoidIT2(0.83, 1.48, 4.3, 8.96, 2.47, 2.6, 6.3, 8.16, 1e-200)
        for route in (centroid, centroid_brute_force):
            assert route(fou).c_l == pytest.approx(0.84, abs=1e-9)

    def test_subnormal_lower_height_keeps_the_right_end_on_the_upper_support(self):
        # at 5 samples the last with upper mass is 7.5
        grid = DiscretizationGrid(sample_count=5)
        for route in (centroid, centroid_brute_force):
            assert route(SUBNORMAL_LOWER_HEIGHT, grid).c_r <= 7.5

    @settings(max_examples=200, deadline=None)
    @given(trapezoid_it2(), st.sampled_from([None, 1e-13, 1e-200, 5e-324]),
           st.sampled_from([5, 11, 51, 1001]))
    @example(SUBNORMAL_LOWER_HEIGHT, None, 5)
    def test_ends_lie_within_the_samples_with_upper_mass(self, fou, lower_height,
                                                         sample_count):
        if lower_height is not None:
            # a lower trapezoid scaled down stays inside the upper one
            fou = TrapezoidIT2(*fou.params[:8], lower_height)
        grid = DiscretizationGrid(sample_count=sample_count)
        upper, _ = membership_samples(fou, grid)
        with_mass = grid.samples[upper > 0.0]
        for route in (centroid, centroid_brute_force):
            try:
                ci = route(fou, grid)
            except DegenerateInputError:
                continue
            assert with_mass[0] - 1e-9 <= ci.c_l <= ci.c_r + 1e-12
            assert ci.c_r <= with_mass[-1] + 1e-9


class TestContainment:
    @settings(max_examples=150, deadline=None)
    @given(trapezoid_it2())
    @example(FULL_EDGE_FOU)
    @example(FULL_PLATEAU_FOU)
    def test_lower_never_exceeds_upper(self, fou):
        upper, lower = membership_samples(fou, DEFAULT_GRID)
        assert (upper - lower).min() >= -1e-9


class TestLwaPaper:
    def test_walkthrough_aggregate_parameters(self):
        agg = lwa_paper(SS1_WORDS)
        expected = (2.8825, 4.62, 5.2725, 6.97, 4.05, 4.965, 4.9925, 5.9825, 0.77)
        got = agg.umf + agg.lmf + (agg.lmf_height,)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_idempotent_on_copies(self):
        agg = lwa_paper([SMALL] * 4)
        assert agg == SMALL

    def test_identity_on_single_input(self):
        assert lwa_paper([SMALL]) == SMALL

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            lwa_paper([])


class TestLwaExact:
    def test_single_input_is_that_fou_sampled(self):
        sampled = lwa_exact([SMALL])
        upper, lower = membership_samples(SMALL, DEFAULT_GRID)
        np.testing.assert_allclose(sampled.upper, upper, atol=1e-9)
        np.testing.assert_allclose(sampled.lower, lower, atol=1e-9)

    def test_agrees_with_parameter_average_when_heights_equal(self):
        inputs = [SS1_WORDS[2], SS1_WORDS[3]]  # both height 1
        sampled = lwa_exact(inputs)
        upper, lower = membership_samples(lwa_paper(inputs), DEFAULT_GRID)
        np.testing.assert_allclose(sampled.upper, upper, atol=1e-9)
        np.testing.assert_allclose(sampled.lower, lower, atol=1e-9)

    def test_upper_always_matches_parameter_average(self):
        sampled = lwa_exact(SS1_WORDS)
        upper, _ = membership_samples(lwa_paper(SS1_WORDS), DEFAULT_GRID)
        np.testing.assert_allclose(sampled.upper, upper, atol=1e-9)

    def test_minimum_height_rule(self):
        sampled = lwa_exact(SS1_WORDS)
        assert sampled.lower.max() == pytest.approx(0.49)
        assert sampled.lower.max() <= 0.49 + 1e-9
        # differs by design from the averaged height
        assert lwa_paper(SS1_WORDS).lmf_height == pytest.approx(0.77)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            lwa_exact([])

    def test_sampled_fou_on_an_equal_grid_object_is_its_own_samples(self):
        sampled = lwa_exact([SMALL])
        equal = DiscretizationGrid(sample_count=DEFAULT_GRID.sample_count)
        assert equal.samples is not sampled.xs
        upper, lower = membership_samples(sampled, equal)
        assert upper is sampled.upper and lower is sampled.lower

    def test_unsupported_fou_type_raises(self):
        with pytest.raises(TypeError, match="unsupported FOU type tuple"):
            membership_samples(SMALL.params, DEFAULT_GRID)

    def test_sampled_fou_on_another_grid_raises(self):
        sampled = lwa_exact([SMALL])
        coarse = DiscretizationGrid(sample_count=101)
        with pytest.raises(ValueError):
            membership_samples(sampled, coarse)
        with pytest.raises(ValueError):
            centroid(sampled, coarse)
        with pytest.raises(ValueError):
            jaccard_similarity(sampled, SMALL, coarse)

    def test_shared_grid_samples_are_read_only(self, codebook):
        moderate = codebook.lookup(TIME_TAKEN, "M")
        before = centroid(moderate)
        sampled = lwa_exact(SS1_WORDS)
        assert sampled.xs is DEFAULT_GRID.samples
        # a write would move every later centroid on the default grid
        with pytest.raises(ValueError):
            sampled.xs[500] = 99.0
        assert centroid(moderate) == before


class TestJaccard:
    def test_identity(self):
        assert jaccard_similarity(SMALL, SMALL) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        left = TrapezoidIT2(0, 1, 1.5, 2, 0.5, 1, 1.5, 1.8, 1.0)
        right = TrapezoidIT2(6, 7, 7.5, 8, 6.5, 7, 7.5, 7.8, 1.0)
        assert jaccard_similarity(left, right) == 0.0

    def test_both_zero_raises(self):
        coarse = DiscretizationGrid(sample_count=3)
        narrow = TrapezoidIT2(1.0, 1.5, 2.0, 2.5, 1.2, 1.6, 1.9, 2.3, 0.5)
        with pytest.raises(DegenerateInputError):
            jaccard_similarity(narrow, narrow, coarse)

    def test_accepts_sampled_fous(self):
        sampled = lwa_exact([SMALL])
        assert jaccard_similarity(sampled, SMALL) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(trapezoid_it2(), trapezoid_it2())
    def test_symmetric_and_bounded(self, a, b):
        s_ab = jaccard_similarity(a, b)
        s_ba = jaccard_similarity(b, a)
        assert s_ab == s_ba
        assert 0.0 <= s_ab <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(trapezoid_it2())
    @example(FULL_EDGE_FOU)
    @example(FULL_PLATEAU_FOU)
    def test_self_similarity_is_one(self, fou):
        assert jaccard_similarity(fou, fou) == pytest.approx(1.0)


def test_seeded_generator_produces_valid_fous():
    rng = np.random.default_rng(7)
    for _ in range(50):
        fou = random_fou(rng)  # constructor validates
        assert fou.umf_a <= fou.lmf_e
        assert fou.lmf_i <= fou.umf_d


def test_sampled_fou_validation():
    xs = np.linspace(0, 10, 11)
    with pytest.raises(ValueError):
        SampledFOU(xs=xs, upper=np.zeros(11), lower=np.ones(11))
    with pytest.raises(ValueError):
        SampledFOU(xs=xs, upper=np.ones(10), lower=np.zeros(11))
