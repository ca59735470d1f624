"""Every check on caller input names what is wrong.

One case per public check that no other test reaches: each call must
raise the named error with its message, so a check that goes missing,
or one that starts to raise something else, shows up here.
"""

from __future__ import annotations

import re

import pytest

from betticone import (
    BigradedBettiTable,
    Decomposition,
    DegreeSequence,
    FiniteModule,
    GradedBettiTable,
    HilbertNumerator,
    KPolynomial,
    MonomialPair,
    NonIncreasingDegrees,
    PresentationMatrix,
    PureTable,
    box_rays,
    enumerate_box_rays,
    line_bundle_cohomology,
    normalize_positive_integers,
    pure_from_json_obj,
    ray_vector,
    sup_distance,
)
from betticone.module_engine import presentation_from_json_obj

PRESENTATION = {"kind": "presentation", "rows": [[0, 0]], "cols": [[1, 0]]}

CHECKS = {
    "empty-degrees": (NonIncreasingDegrees, lambda: DegreeSequence([]),
                      "degree sequence must be nonempty"),
    "negative-nvars": (ValueError, lambda: GradedBettiTable(-1, {}),
                       "nvars must be nonnegative"),
    "add-across-nvars": (
        ValueError,
        lambda: GradedBettiTable(1, {}).add(GradedBettiTable(2, {})),
        "cannot add tables over different nvars"),
    "pure-lengths": (ValueError, lambda: PureTable([0, 1], [1]),
                     "one multiplicity per degree required"),
    "zero-scale": (ValueError, lambda: HilbertNumerator({}, 0),
                   "scale must be a positive integer"),
    "nonpositive-vector": (ValueError,
                           lambda: normalize_positive_integers([0]),
                           "expected strictly positive values"),
    "pure-kind": (ValueError, lambda: pure_from_json_obj({"kind": "graded"}),
                  "expected a pure table object"),
    "zero-coefficient": (
        ValueError,
        lambda: Decomposition([(0, PureTable([0, 1], [1, 1]))],
                              GradedBettiTable(1, {})),
        "part coefficients must be positive"),
    "negative-projective-dimension": (
        ValueError, lambda: line_bundle_cohomology(-1, 0),
        "projective space dimension must be >= 0"),
    "distance-lengths": (ValueError, lambda: sup_distance([1, 1], [1, 2, 1]),
                         "length mismatch"),
    "negative-dimension": (ValueError,
                           lambda: FiniteModule({(0, 0): -1}, {}, {}),
                           "negative dimension at (0, 0)"),
    "no-outer-generator": (ValueError, lambda: MonomialPair([], [(1, 1)]),
                           "outer ideal needs at least one generator"),
    "negative-exponent": (ValueError,
                          lambda: MonomialPair([(-1, 0)], [(1, 1)]),
                          "outer ideal has a negative exponent (-1, 0)"),
    "presentation-row-count": (
        ValueError, lambda: PresentationMatrix([(0, 0)], [(1, 0)], []),
        "one entry row per row degree is required"),
    "presentation-row-length": (
        ValueError, lambda: PresentationMatrix([(0, 0)], [(1, 0)], [[]]),
        "entry row 0 has the wrong length"),
    "presentation-term": (
        ValueError,
        lambda: presentation_from_json_obj(
            dict(PRESENTATION, entries=[[[[1]]]])),
        "entries terms must be [coefficient, exponent], got [1]"),
    "presentation-kind": (
        ValueError,
        lambda: presentation_from_json_obj(
            dict(PRESENTATION, kind="graded", entries=[[[]]])),
        "expected a presentation object"),
    "negative-box": (ValueError, lambda: enumerate_box_rays((-1, 2)),
                     "box corners must be nonnegative"),
    # The sign is checked before the guard: raising max_box would not
    # help a negative corner.
    "negative-box-past-the-guard": (
        ValueError, lambda: box_rays((-1, 9)),
        "box corners must be nonnegative"),
    "negative-second-corner-past-the-guard": (
        ValueError, lambda: box_rays((9, -1)),
        "box corners must be nonnegative"),
    # ray_vector reads its ints as limit_degrees does, naming the field.
    "ray-vector-half-index": (ValueError, lambda: ray_vector(0.5, 2),
                              "ray index must be an integer, got 0.5"),
    "ray-vector-half-dimension": (ValueError, lambda: ray_vector(0, 2.5),
                                  "dimension must be an integer, got 2.5"),
}


@pytest.mark.parametrize("case", sorted(CHECKS))
def test_each_input_check_raises_its_message(case):
    error, call, message = CHECKS[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_ray_vector_reads_an_integral_float_as_its_int():
    assert ray_vector(1.0, 2) == ray_vector(1, 2)
    assert ray_vector(0, 2.0) == ray_vector(0, 2)
    assert tuple(ray_vector(1.0, 2)) == (0, 1, 1)


ZERO_VALUED = {
    "bigraded-table": (lambda: BigradedBettiTable({(9, "x"): 0}),
                       "homological degree 9 impossible over two variables"),
    "graded-table": (lambda: GradedBettiTable(2, {("a", None): 0}),
                     "homological degree must be an integer, got 'a'"),
    "module-dims": (lambda: FiniteModule({"junk": 0}, {}, {}),
                    "bidegree must be a pair of integers, got 'junk'"),
    "k-polynomial": (lambda: KPolynomial({"zz": 0}),
                     "exponent must be an integer, got 'z'"),
}


@pytest.mark.parametrize("case", sorted(ZERO_VALUED))
def test_zero_values_do_not_skip_the_key_checks(case):
    """A zero value is dropped only after its key passes the checks,
    as HilbertNumerator({"q": 0}) already refuses its key."""
    call, message = ZERO_VALUED[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
