"""The value types built on `cwwkit._value.Value` behave as the frozen
dataclasses they replaced: each is checked against a dataclass twin with
the same name, fields and defaults."""

import copy
import pickle
from dataclasses import MISSING, field, fields, make_dataclass
from typing import Any

import numpy as np
import pytest

from cwwkit import (CentroidInterval, CodebookEntry, DiscretizationGrid,
                    EvalOptions, EvaluationReport, FeedbackRecord,
                    LinguisticTerm, Method, ParameterSchema, RawFeedback,
                    SampledFOU, StoredCentroid, TermSet, TrapezoidIT2, TriTuple,
                    TwoTuple, build_default_schema, lwa_exact)
from cwwkit._value import Value
from cwwkit.codebook import CentroidCheck, CentroidVerification
from cwwkit.pipeline import DuplicateGroup, MethodCell, Recommendation, ReportRow

SMALL = LinguisticTerm("Small", "S", 0)
LARGE = LinguisticTerm("Large", "L", 1)
SIZE = TermSet("Size", (SMALL, LARGE))
GRADE = TermSet("Grade", (LinguisticTerm("Low", "LO", 0), LinguisticTerm("High", "HI", 1)))
WORD = TrapezoidIT2(1.0, 2.0, 3.0, 4.0, 1.5, 2.5, 2.5, 3.5, 0.5)
STORED = StoredCentroid(2.0, 3.0, 2.5)
INTERVAL = CentroidInterval(2.0, 3.0, 400, 600)
CHECK = CentroidCheck("Size", "S", INTERVAL, STORED, 0.05)
XS = np.array([0.0, 5.0, 10.0])
UPPER = np.array([0.0, 1.0, 0.0])
LOWER = np.array([0.0, 0.5, 0.0])
ROW = ReportRow("7", ("S",), {Method.SYMBOLIC: MethodCell(error="boom")})
# two feedback vectors of the default schema that differ in the first word
CHOICES = tuple(param[2] for param in build_default_schema().parameters)
OTHER_CHOICES = (build_default_schema().parameters[0][1],) + CHOICES[1:]


def _no_default(name):
    return (name, Any)


def _default(name, value):
    return (name, Any, value)


def _factory(name, make):
    return (name, Any, field(default_factory=make))


# Per type: the twin's fields in declaration order, whether the twin is
# frozen, and the arguments of two instances that differ in one field.
TYPES = [
    (TrapezoidIT2, [*map(_no_default, ("umf_a", "umf_b", "umf_c", "umf_d",
                                       "lmf_e", "lmf_f", "lmf_g", "lmf_i")),
                    _default("lmf_height", 1.0)], True,
     (1.0, 2.0, 3.0, 4.0, 1.5, 2.5, 2.5, 3.5, 0.5), (1.0, 2.0, 3.0, 4.0, 1.5, 2.5, 2.5, 3.5)),
    (DiscretizationGrid, [_default("sample_count", 1001)], True, (51,), ()),
    # one sample each: comparing one-element arrays has a truth value
    (SampledFOU, list(map(_no_default, ("xs", "upper", "lower"))), False,
     (XS[1:2], UPPER[1:2], LOWER[1:2]), (XS[1:2], UPPER[1:2], UPPER[1:2])),
    (CentroidInterval, list(map(_no_default, ("c_l", "c_r", "switch_left", "switch_right"))),
     True, (2.0, 3.0, 400, 600), (2.0, 3.0, 400, 601)),
    (TriTuple, list(map(_no_default, "lmr")), True, (0.0, 0.5, 1.0), (0.0, 0.0, 1.0)),
    (TwoTuple, list(map(_no_default, ("term_index", "alpha"))), True, (2, -0.25), (2, 0.25)),
    (LinguisticTerm, list(map(_no_default, ("label", "code", "index"))), True,
     ("Small", "S", 1), ("Small", "S", 2)),
    (TermSet, list(map(_no_default, ("name", "terms"))), True,
     ("Size", (SMALL, LARGE)), ("size", (SMALL, LARGE))),
    (ParameterSchema, list(map(_no_default, ("parameters", "recommendation"))), True,
     ((SIZE,), GRADE), ((GRADE,), SIZE)),
    (RawFeedback, list(map(_no_default, ("student_id", "words"))), True,
     ("7", {"Size": "small"}), ("8", {"Size": "small"})),
    (FeedbackRecord, list(map(_no_default, ("student_id", "choices"))), True,
     ("7", CHOICES), ("7", OTHER_CHOICES)),
    (StoredCentroid, list(map(_no_default, ("c_l", "c_r", "mean"))), True,
     (2.0, 3.0, 2.5), (2.0, 3.0, 2.505)),
    (CodebookEntry, [*map(_no_default, ("parameter", "term", "fou")), _default("stored", None)],
     True, ("Size", SMALL, WORD, STORED), ("Size", SMALL, WORD)),
    (CentroidCheck, list(map(_no_default, ("parameter", "code", "recomputed", "stored",
                                           "tolerance"))), True,
     ("Size", "S", INTERVAL, STORED, 0.05), ("Size", "S", INTERVAL, None, 0.05)),
    (CentroidVerification, list(map(_no_default, ("checks", "tolerance", "scan_delta"))),
     True, ((CHECK,), 0.05, 1e-14), ((CHECK,), 0.05, 0.0)),
    (EvalOptions, [_default("grid", DiscretizationGrid()), _default("lwa_mode", "exact")],
     True, (DiscretizationGrid(51), "paper"), ()),
    (MethodCell, [_default("recommendation", None), _default("error", None)], True,
     (None, "boom"), (None, "other")),
    (ReportRow, [*map(_no_default, ("student_id", "codes")), _factory("cells", dict),
                 _default("error", None)], True,
     ("7", ("S",), {}, "bad word"), ("7", ("S",))),
    (EvaluationReport, [*map(_no_default, ("methods", "rows")), _factory("metadata", dict)],
     True, ((Method.SYMBOLIC,), (ROW,), {"students": 1}), ((Method.SYMBOLIC,), (ROW,))),
    (DuplicateGroup, list(map(_no_default, ("numeric", "word", "students",
                                            "distinct_feedback"))), True,
     ("1", "SSBA", ("1", "2"), 2), ("1", "SSBA", ("1", "3"), 2)),
    (Recommendation, [*map(_no_default, ("method", "numeric", "linguistic", "score")),
                      *(_default(name, None) for name in ("aggregate", "two_tuple", "centroid",
                                                          "similarities"))], True,
     (Method.PERCEPTUAL, 2.5, SMALL, 2.5, None, None, INTERVAL, (0.75, 0.25)),
     (Method.PERCEPTUAL, 2.5, SMALL, 2.5)),
]


@pytest.fixture(params=TYPES, ids=lambda spec: spec[0].__name__)
def spec(request):
    cls, twin_fields, frozen, args, other = request.param
    twin = make_dataclass(cls.__name__, twin_fields, frozen=frozen)
    return cls, twin, args, other


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def _same(a, b):
    """Equal by fields; arrays compare element by element."""
    assert type(a) is type(b)
    for name in type(a)._fields:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), name
        else:
            assert x == y, name


def test_fields_and_defaults_match_the_twin(spec):
    cls, twin, args, other = spec
    assert issubclass(cls, Value)
    assert not hasattr(cls, "__dataclass_fields__")
    assert cls._fields == tuple(f.name for f in fields(twin))
    for a in (args, other):
        assert repr(cls(*a)) == repr(twin(*a))
    keywords = dict(zip(cls._fields, args))
    assert repr(cls(**keywords)) == repr(twin(**keywords))
    defaults = [f for f in fields(twin) if f.default is not MISSING
                or f.default_factory is not MISSING]
    assert len(defaults) == len(cls.__init__.__defaults__ or ())


def test_equality_and_hash_match_the_twin(spec):
    cls, twin, args, other = spec
    value, again, changed = cls(*args), cls(*args), cls(*other)
    twin_value, twin_again, twin_changed = twin(*args), twin(*args), twin(*other)
    assert (value == again) is (twin_value == twin_again)
    assert (value != again) is (twin_value != twin_again)
    assert (value == changed) is (twin_value == twin_changed)
    assert value != changed
    assert value == value
    # another class holding the same values is never equal
    assert value != twin_value and twin_value != value
    assert _hash_or_error(value) == _hash_or_error(twin_value)
    if cls is SampledFOU:
        assert cls.__hash__ is None
    field_values = tuple(getattr(twin_value, f.name) for f in fields(twin))
    if isinstance(_hash_or_error(twin_value), int):
        assert hash(value) == hash(again) == hash(field_values)


def test_fields_cannot_be_assigned_or_deleted(spec):
    cls, _, args, _ = spec
    value = cls(*args)
    for name in cls._fields + ("new_attribute",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    _same(value, cls(*args))


@pytest.mark.parametrize("round_trip", [
    lambda value: pickle.loads(pickle.dumps(value)),
    copy.deepcopy,
    copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_copies_equal_the_original(spec, round_trip):
    cls, _, args, _ = spec
    value = cls(*args)
    copied = round_trip(value)
    _same(copied, value)
    if cls is not SampledFOU:
        assert copied == value
        assert _hash_or_error(copied) == _hash_or_error(value)


def test_kept_cuts_change_no_value_behaviour():
    kept, fresh = TrapezoidIT2(*WORD.params), TrapezoidIT2(*WORD.params)
    lower = TrapezoidIT2(1.0, 2.0, 3.0, 4.0, 1.5, 2.5, 2.5, 3.5, 0.25)
    expected = lwa_exact([fresh, lower])
    lwa_exact([kept])
    lwa_exact([kept, lower])
    # the upper set and one lower set per minimum height, 0.5 and 0.25
    assert sorted(kept._cut_sets) == [(False, 1.0), (True, 0.25), (True, 0.5)]
    never_cut = TrapezoidIT2(*WORD.params)
    assert pickle.dumps(kept) == pickle.dumps(never_cut)
    for copied in (kept, pickle.loads(pickle.dumps(kept)), copy.deepcopy(kept), copy.copy(kept)):
        if copied is not kept:
            assert vars(copied) == vars(never_cut)
        assert copied == fresh and fresh == copied
        assert hash(copied) == hash(fresh)
        assert repr(copied) == repr(fresh)
        got = lwa_exact([copied, lower])
        assert got.upper.tobytes() == expected.upper.tobytes()
        assert got.lower.tobytes() == expected.lower.tobytes()


def test_linguistic_term_hashes_its_fields_and_survives_pickling():
    term = LinguisticTerm("Small", "S", 1)
    assert hash(term) == hash(("Small", "S", 1))
    assert repr(term) == "LinguisticTerm(label='Small', code='S', index=1)"
    assert hash(pickle.loads(pickle.dumps(term))) == hash(term)


def test_checks_still_run():
    with pytest.raises(ValueError, match="l <= m <= r"):
        TriTuple(1.0, 0.0, 2.0)
    with pytest.raises(ValueError, match="lower membership exceeds upper"):
        SampledFOU(XS, LOWER, UPPER)
    with pytest.raises(ValueError, match="at least 3 samples"):
        DiscretizationGrid(2)
    with pytest.raises(ValueError, match="term index"):
        LinguisticTerm("Small", "S", -1)
