"""The records: value semantics, immutability, repr and constructor checks."""

import copy
import pickle
from array import array

import pytest

from steinerdom import (
    AUDIT_FIXTURE,
    FIXTURES,
    DiscrepancyCertificate,
    EdgeList,
    ParentArray,
    ValidationError,
    gen,
)
from steinerdom import oracles
from steinerdom.bench import BenchRecord
from steinerdom.steiner_domination import CoreForest, SteinerDominationResult
from steinerdom.tree_model import AdjacencyTree, Record
from steinerdom.verify import InstanceAudit, VerifyReport

GADGET_8 = FIXTURES[AUDIT_FIXTURE]
CERT = DiscrepancyCertificate(GADGET_8, 5, 4, (1, 2, 7, 8))

# each record: its fields, and one field with a different value
RECORDS = [
    (ParentArray, dict(n=3, parent=(0, 1, 1)), "parent", array("I", (0, 1, 2))),
    (EdgeList, dict(n=3, edges=((1, 2), (2, 3))), "edges", ((1, 2), (1, 3))),
    (
        AdjacencyTree,
        dict(n=3, parent=(0, 1, 1), children=((2, 3), (), ()), degree=(2, 1, 1)),
        "children",
        ((2,), (3,), ()),
    ),
    (CoreForest, dict(m=2, to_tree=(3, 4)), "to_tree", (3, 5)),
    (
        SteinerDominationResult,
        # the path 1-2-3-4-5: leaves 1 and 5, core 3, set 1, 3, 5
        dict(is_leaf=b"\0\1\0\0\0\1", in_core=b"\0\0\0\1\0\0",
             in_set=b"\0\1\0\1\0\1"),
        "in_core",
        bytes(6),
    ),
    (
        DiscrepancyCertificate,
        dict(instance=GADGET_8, algorithm_size=5, oracle_size=4, oracle_witness=(1, 2, 7, 8)),
        "algorithm_size",
        6,
    ),
    (
        InstanceAudit,
        dict(
            algorithm_size=5,
            oracle_size=4,
            validity_ok=True,
            optimality_ok=True,
            certificate=CERT,
            internal_error=None,
        ),
        "oracle_size",
        None,
    ),
    (
        VerifyReport,
        dict(
            mode="exhaustive",
            max_n=2,
            count=0,
            seed=0,
            instances=1,
            oracle_checked=2,
            validity_failures=0,
            optimality_failures=0,
            internal_errors=(),
            certificates=(CERT,),
            certificate_files=(AUDIT_FIXTURE,),
            fixture_name=AUDIT_FIXTURE,
            fixture_algorithm_size=5,
            fixture_oracle_size=4,
            fixture_outcome="certificate",
            exit_code=2,
        ),
        "exit_code",
        1,
    ),
    (
        BenchRecord,
        dict(n=10, algorithm="forest_dom", ns_total_median=900, ns_per_vertex=90.0,
             peak_bytes=4096),
        "ns_per_vertex",
        90.5,
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


def test_the_table_holds_every_record():
    assert {cls for cls, *_ in RECORDS} == set(Record.__subclasses__())


@pytest.mark.parametrize(("cls", "fields", "name", "other"), RECORDS, ids=IDS)
class TestValueSemantics:
    def test_equal_fields_equal_and_hash_alike(self, cls, fields, name, other):
        a, b = cls(**fields), cls(**fields)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_one_changed_field_is_unequal(self, cls, fields, name, other):
        changed = cls(**{**fields, name: other})
        assert getattr(changed, name) == other
        assert changed != cls(**fields)

    def test_never_equal_to_another_type(self, cls, fields, name, other):
        rec = cls(**fields)
        assert rec != tuple(getattr(rec, f) for f in cls.__slots__)
        assert rec != object()

    def test_fields_cannot_be_set_or_deleted(self, cls, fields, name, other):
        rec = cls(**fields)
        before = repr(rec)
        for field in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(rec, field, other)
            with pytest.raises(AttributeError):
                delattr(rec, field)
        with pytest.raises(AttributeError):
            rec.not_a_field = other
        assert repr(rec) == before

    def test_copies_and_pickles_equal_the_original(self, cls, fields, name, other):
        rec = cls(**fields)
        for clone in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert type(clone) is cls and clone == rec

    def test_repr_names_the_class_and_every_field(self, cls, fields, name, other):
        text = repr(cls(**fields))
        assert text.startswith(f"{cls.__name__}(")
        for field in cls.__slots__:
            assert f"{field}=" in text


def test_only_the_checking_records_define_a_constructor():
    assert {cls for cls in Record.__subclasses__() if "__init__" in vars(cls)} == {
        ParentArray, EdgeList, DiscrepancyCertificate,
    }


@pytest.mark.parametrize(("cls", "fields", "name", "other"), RECORDS, ids=IDS)
def test_one_constructor_binds_by_position_and_by_name(cls, fields, name, other):
    names = cls.__slots__
    values = cls(**fields)._values()
    by_name = dict(zip(names, values))
    half = len(names) // 2
    by_position = cls(*values)
    assert cls(**by_name) == by_position
    assert cls(*values[:half], **dict(zip(names[half:], values[half:]))) == by_position
    assert by_position._values() == values

    # each wrong call, and the field its TypeError names (Python's own
    # messages name it too, for the records that define __init__)
    first = names[0]
    wrong = [
        (lambda: cls(**{k: v for k, v in by_name.items() if k != first}), first),
        (lambda: cls(*values, bogus=other), "bogus"),
        (lambda: cls(*values[:1], **by_name), first),
        (lambda: cls(*values, other), None),
        (lambda: cls(*values[:-1]), names[-1]),
    ]
    for build, field in wrong:
        with pytest.raises(TypeError) as exc:
            build()
        assert cls.__name__ in str(exc.value)
        if field is not None:
            assert repr(field) in str(exc.value)


def test_repr_is_class_then_fields_in_order():
    assert repr(ParentArray(2, (0, 1))) == "ParentArray(n=2, parent=array('I', [0, 1]))"
    assert repr(CoreForest(1, (3,))) == "CoreForest(m=1, to_tree=(3,))"


def test_oracle_caps_are_fixed_constants():
    assert (
        oracles.DOMINATING_CAP,
        oracles.STEINER_DOMINATING_CAP,
        oracles.STEINER_NUMBER_CAP,
    ) == (20, 24, 18)


def test_trusted_edge_list_equals_checked():
    edges = ((1, 2), (2, 3), (2, 4))
    trusted = EdgeList._trusted(4, edges)
    assert type(trusted) is EdgeList
    assert trusted == EdgeList(4, edges)
    assert hash(trusted) == hash(EdgeList(4, edges))
    with pytest.raises(AttributeError):
        trusted.n = 5


@pytest.mark.parametrize(
    ("build", "message", "position"),
    [
        (lambda: ParentArray(-1, ()), "vertex count must be >= 0, got -1", None),
        (lambda: ParentArray(3, (0, 1)), "parent array has 2 entries, expected 3", None),
        (lambda: ParentArray(3, (0, 2, 1)), "parent of vertex 2 is 2 (must be in 0..1)", 1),
        (lambda: ParentArray(2, (0, -1)), "parent of vertex 2 is -1 (must be in 0..1)", 1),
        (lambda: EdgeList(-5, ()), "vertex count must be >= 0, got -5", None),
        (lambda: EdgeList(3, ((1, 2), (1, 4))), "edge (1, 4) has a label outside 1..3", 1),
        (lambda: EdgeList(3, ((2, 2),)), "self-loop at vertex 2", 0),
        (lambda: EdgeList(3, ((1, 2), (2, 1))), "duplicate edge (1, 2)", 1),
        (
            # gen's request checks, made before it builds anything
            lambda: gen("tree", n=3),
            "unknown family 'tree'; choose from path, star, spider, caterpillar, "
            "binary, prufer, random_parent",
            None,
        ),
        (lambda: gen("path", n=3, seed=2**64), "seed must fit in 64 bits", None),
        (lambda: gen("path", seed=-1), "seed must fit in 64 bits", None),
        (
            lambda: DiscrepancyCertificate(GADGET_8, 4, 4, (1, 2, 7, 8)),
            "certificate needs oracle_size < algorithm_size, got 4 vs 4",
            None,
        ),
        (
            lambda: DiscrepancyCertificate(GADGET_8, 5, 3, (1, 2, 7, 8)),
            "witness has 4 vertices, claimed size 3",
            None,
        ),
        (
            lambda: DiscrepancyCertificate(GADGET_8, 5, 4, (1, 2, 3, 8)),
            "certificate witness failed a definitional check",
            None,
        ),
    ],
)
def test_checking_constructors_keep_their_messages(build, message, position):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message
    assert exc.value.position == position
