from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from cryptodep.model import (
    APPROVED,
    AccessRef,
    AssetRecord,
    ClassificationBinding,
    Configuration,
    CryptoObjectRecord,
    CryptoObjectType,
    CryptoRegistry,
    DataRecord,
    NOT_APPROVED,
    QUANTUM_SAFE,
    QUANTUM_VULNERABLE,
    RatingDimension,
    SecurityRating,
    Source,
    _NAMED_LEVELS,
    normalise_flag,
    parse_primitive_spec,
    primitive_key,
)


@pytest.mark.parametrize(
    "text,dimension,value",
    [
        ("NIST-approved", RatingDimension.APPROVAL, APPROVED),
        ("approved", RatingDimension.APPROVAL, APPROVED),
        ("Not-NIST-Approved", RatingDimension.APPROVAL, NOT_APPROVED),
        ("not-approved", RatingDimension.APPROVAL, NOT_APPROVED),
        ("quantum-safe", RatingDimension.QUANTUM_SAFETY, QUANTUM_SAFE),
        ("quantum-resistant", RatingDimension.QUANTUM_SAFETY, QUANTUM_SAFE),
        ("not-quantum-safe", RatingDimension.QUANTUM_SAFETY, QUANTUM_VULNERABLE),
        ("128", RatingDimension.BITS, 128),
        (" 80 ", RatingDimension.BITS, 80),
        ("128 bits", RatingDimension.BITS, 128),
        ("256-bit", RatingDimension.BITS, 256),
    ],
)
def test_rating_parse(text, dimension, value):
    rating = SecurityRating.parse(text)
    assert rating is not None
    assert rating.dimension is dimension
    assert rating.value == value


#: every spelling of a named level: its dimension, its value, and the values it outranks
NAMED_LEVEL_SPELLINGS = [
    ("not-approved", RatingDimension.APPROVAL, NOT_APPROVED, set()),
    ("not-nist-approved", RatingDimension.APPROVAL, NOT_APPROVED, set()),
    ("approved", RatingDimension.APPROVAL, APPROVED, {NOT_APPROVED}),
    ("nist-approved", RatingDimension.APPROVAL, APPROVED, {NOT_APPROVED}),
    ("quantum-vulnerable", RatingDimension.QUANTUM_SAFETY, QUANTUM_VULNERABLE, set()),
    ("not-quantum-safe", RatingDimension.QUANTUM_SAFETY, QUANTUM_VULNERABLE, set()),
    ("quantum-safe", RatingDimension.QUANTUM_SAFETY, QUANTUM_SAFE, {QUANTUM_VULNERABLE}),
    ("quantum-resistant", RatingDimension.QUANTUM_SAFETY, QUANTUM_SAFE, {QUANTUM_VULNERABLE}),
]


def test_the_named_level_table_holds_the_listed_spellings():
    table = [
        (spelling, dimension, value)
        for dimension, levels in _NAMED_LEVELS.items()
        for value, spellings in levels.items()
        for spelling in spellings
    ]
    assert table == [case[:3] for case in NAMED_LEVEL_SPELLINGS]


@pytest.mark.parametrize("spelling,dimension,value,weaker", NAMED_LEVEL_SPELLINGS)
def test_each_named_level_spelling(spelling, dimension, value, weaker):
    for text in (spelling, spelling.upper(), f" {spelling} "):
        assert SecurityRating.parse(text) == SecurityRating(dimension, value)
    rating = SecurityRating(dimension, value)
    assert {other for other in _NAMED_LEVELS[dimension] if rating.outranks(SecurityRating(dimension, other))} == weaker


@pytest.mark.parametrize("text", ["", "secure", "12.5", "NIST", "bits", "²", "1" * 25])
def test_rating_parse_rejects_junk(text):
    assert SecurityRating.parse(text) is None


def test_rating_validation():
    with pytest.raises(ValueError):
        SecurityRating(RatingDimension.BITS, "80")
    with pytest.raises(ValueError):
        SecurityRating(RatingDimension.BITS, -1)
    with pytest.raises(ValueError):
        SecurityRating(RatingDimension.BITS, True)
    with pytest.raises(ValueError, match="^Approval rating must be not-approved/approved, got 'maybe'$"):
        SecurityRating(RatingDimension.APPROVAL, "maybe")
    with pytest.raises(ValueError, match="^QuantumSafety rating must be quantum-vulnerable/quantum-safe, got 'unsure'$"):
        SecurityRating(RatingDimension.QUANTUM_SAFETY, "unsure")
    with pytest.raises(ValueError, match=r"got \['approved'\]$"):
        SecurityRating(RatingDimension.APPROVAL, ["approved"])


def test_rating_key_and_display():
    bits = SecurityRating.bits(128)
    assert bits.key == "Bits:128"
    assert bits.display == "128-bit"
    approval = SecurityRating.approval(APPROVED)
    assert approval.key == "Approval:approved"
    assert approval.display == "approved"
    assert SecurityRating.from_dict(bits.to_dict()) == bits


def test_compare_known_orderings():
    approved = SecurityRating.approval(APPROVED)
    not_approved = SecurityRating.approval(NOT_APPROVED)
    qs = SecurityRating.quantum(QUANTUM_SAFE)
    qv = SecurityRating.quantum(QUANTUM_VULNERABLE)
    assert approved.outranks(not_approved)
    assert not not_approved.outranks(approved)
    assert qs.outranks(qv)
    assert not qv.outranks(qs)
    assert SecurityRating.bits(128).outranks(SecurityRating.bits(80))
    assert not SecurityRating.bits(80).outranks(SecurityRating.bits(80))
    assert not approved.outranks(qv) and not qv.outranks(approved)
    assert not SecurityRating.bits(512).outranks(not_approved)


ratings = st.one_of(
    st.integers(min_value=0, max_value=512).map(SecurityRating.bits),
    st.sampled_from([APPROVED, NOT_APPROVED]).map(SecurityRating.approval),
    st.sampled_from([QUANTUM_SAFE, QUANTUM_VULNERABLE]).map(SecurityRating.quantum),
)


@given(ratings, ratings)
def test_compare_antisymmetric(a, b):
    assert not (a.outranks(b) and b.outranks(a))
    assert not a.outranks(a)


@given(ratings, ratings)
def test_compare_dimension_split(a, b):
    """Within one dimension exactly one of a > b, b > a, a == b holds; across
    dimensions neither rating outranks the other."""
    if a.dimension is b.dimension:
        assert [a.outranks(b), b.outranks(a), a == b].count(True) == 1
    else:
        assert not a.outranks(b) and not b.outranks(a)


@given(ratings, ratings, ratings)
def test_compare_transitive(a, b, c):
    if a.outranks(b) and b.outranks(c):
        assert a.outranks(c)


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("1024.0", "1024"),
        (" 1024 ", "1024"),
        ("P-256", "P-256"),
        ("1024.5", "1024.5"),
        ("v2.0", "v2.0"),
        ("1.2", "1.2"),
    ],
)
def test_normalise_flag(raw, expected):
    assert normalise_flag(raw) == expected


def test_primitive_key_sorts_and_normalises():
    assert primitive_key("RSA", ("1024",)) == "RSA[1024]"
    assert primitive_key("AES", ("GCM", "128.0")) == "AES[128,GCM]"
    assert primitive_key("SHA-256", ()) == "SHA-256[]"
    assert primitive_key("RSA", ("1024", "1024")) == "RSA[1024]"


@pytest.mark.parametrize(
    "spec,name,flags",
    [
        ("RSA[1024]", "RSA", ("1024",)),
        ("SHA-256", "SHA-256", ()),
        ("TLS[1.2]", "TLS", ("1.2",)),
        ("AES[128, GCM]", "AES", ("128", "GCM")),
        ("ECDSA[P-256]", "ECDSA", ("P-256",)),
        ("X[]", "X", ()),
    ],
)
def test_parse_primitive_spec(spec, name, flags):
    assert parse_primitive_spec(spec) == (name, flags)


@pytest.mark.parametrize("spec", ["RSA[1024", "RSA]1024", "[1024]", "]"])
def test_parse_primitive_spec_rejects(spec):
    with pytest.raises(ValueError):
        parse_primitive_spec(spec)


def test_lookup_ignores_flag_order_and_float_spelling():
    config = Configuration(flags=("128", "GCM"))
    rsa = Configuration(flags=("1024",))
    registry = CryptoRegistry({"AES": (config,), "RSA": (rsa,)})
    assert registry.lookup("AES", ("GCM", "128.0")) is config
    assert registry.lookup("RSA", ("1024", "1024")) is rsa
    assert registry.lookup("AES", ("128",)) is None
    assert registry.lookup("DES", ("128", "GCM")) is None


def test_asset_defaults():
    asset = AssetRecord(id="A1")
    assert asset.kind is None
    assert asset.display == "A1"
    named = AssetRecord(id="A1", name="web tier")
    assert named.display == "web tier"


def _one_of_each_record():
    source = Source("a.csv", "r1")
    return (
        source,
        ClassificationBinding("High", (SecurityRating.bits(128),), source=source),
        DataRecord(id="D", classification="High", storage_locations=("A",), source=source),
        AccessRef("B", source=source),
        AssetRecord(id="A", serves=("B",), accesses=(AccessRef("B"),), source=source),
        CryptoObjectRecord(
            id="K", object_type=CryptoObjectType.PRIVATE_KEY, algorithm="RSA", config_flags=("2048",), source=source
        ),
    )


def test_records_compare_and_hash_by_value():
    """Records are not frozen, but the library never assigns a field of one:
    equal records hash equal and dedupe in a set, and ``replace`` copies."""
    for one, two in zip(_one_of_each_record(), _one_of_each_record()):
        assert one is not two and one == two and hash(one) == hash(two)
        assert len({one, two}) == 1
        copy = replace(one)
        assert copy is not one and copy == one and hash(copy) == hash(one)
