"""Value semantics of the package's record classes: construction by
position, by keyword and with defaults, equality and hashing by value
within one class, immutability, and copying and pickling.  The constructors' validation is
tested with each module (test_cosets.py, test_segments.py)."""

import copy
import pickle
from fractions import Fraction

import pytest

from parastein.cosets import BlockSet
from parastein.ext_calc import ExtAnswer, ExtQuery, RepDescriptor
from parastein.segments import Segment
from parastein.steinberg_mult import ConstituentLabel, GrothVector

LEFT = RepDescriptor("steinberg", frozenset({1}))
RIGHT = RepDescriptor("st-an")

# (class, every field by name in constructor order)
RECORDS = [
    (BlockSet, {"r": 2, "k": 3, "members": frozenset({1, 2})}),
    (Segment, {"block_length": 2, "twist": Fraction(-1, 2)}),
    (RepDescriptor, {"kind": "sigma-comp", "blocks": frozenset({2}), "index": 1, "sigma": 3}),
    (
        ExtQuery,
        {"flavor": "analytic", "fixed_center": False, "degree": 1, "left": LEFT,
         "right": RIGHT, "r": 2, "k": 3, "d_L": 2},
    ),
    (ExtAnswer, {"status": "dimension", "dim": 3, "rule": "R7", "note": "n"}),
    (
        ConstituentLabel,
        {"w": ((1, 3, 2, 4, 5, 6),), "J": BlockSet(2, 3, frozenset({1})), "S": BlockSet(2, 3)},
    ),
]
IDS = [cls.__name__ for cls, _ in RECORDS]

# (record built with defaults, the same record with every field given)
DEFAULTS = [
    (BlockSet(1, 4), BlockSet(1, 4, frozenset())),
    (RepDescriptor("st-an"), RepDescriptor("st-an", frozenset(), None, None)),
    (ExtAnswer("zero", None, "R1"), ExtAnswer("zero", None, "R1", "")),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_position_and_keyword_construction_agree(cls, fields):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)
    assert {name: getattr(by_keyword, name) for name in fields} == fields


@pytest.mark.parametrize("short, full", DEFAULTS, ids=lambda r: type(r).__name__)
def test_defaults(short, full):
    assert short == full and hash(short) == hash(full)


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_equality_holds_only_within_one_class(cls, fields):
    record = cls(**fields)
    assert record != tuple(fields.values())
    changed = dict(fields)
    name = next(iter(fields))
    changed[name] = fields[name] + 1 if isinstance(fields[name], int) else "other"
    assert record != cls(**changed)
    assert len({record, cls(**fields)}) == 1


def test_same_field_values_in_another_class_are_unequal():
    assert BlockSet(1, 4) != (1, 4, frozenset())
    assert ConstituentLabel(1, 4, frozenset()) != BlockSet(1, 4)
    assert RepDescriptor("a", 1, 2, 3) != ExtAnswer("a", 1, 2, 3)


def test_blockset_members_stored_as_frozenset():
    assert BlockSet(1, 4, [3, 1]).members == frozenset({1, 3})
    assert type(BlockSet(1, 4, (1,)).members) is frozenset


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_frozen_records_refuse_assignment(cls, fields):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert {name: getattr(record, name) for name in fields} == fields


def test_repr_by_field():
    # Segment's repr is pinned by the pi_I_segments doctest.
    assert repr(BlockSet(1, 2)) == "BlockSet(r=1, k=2, members=frozenset())"
    assert repr(ExtAnswer("zero", None, "R1")) == (
        "ExtAnswer(status='zero', dim=None, rule='R1', note='')"
    )
    assert repr(GrothVector({"a": 1})) == "GrothVector(coeffs={'a': 1})"


def test_groth_vector_equality():
    v = GrothVector({}).add("a").add("b", 2)
    assert v == GrothVector({"a": 1, "b": 2})
    assert v != GrothVector({"a": 1})
    assert GrothVector({}) != {}
    assert GrothVector({"a": 1}) != {"a": 1}
    with pytest.raises(TypeError):
        hash(v)


def test_groth_vector_refuses_assignment():
    v = GrothVector({"a": 1})
    with pytest.raises(AttributeError):
        v.coeffs = {}
    with pytest.raises(AttributeError):
        del v.coeffs
    assert v.coeffs == {"a": 1}


@pytest.mark.parametrize(
    "record",
    [cls(**fields) for cls, fields in RECORDS] + [GrothVector({"a": 1, "b": -2})],
    ids=IDS + ["GrothVector"],
)
def test_copy_and_pickle_round_trip(record):
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert type(restored) is type(record) and restored == record
