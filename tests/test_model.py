from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from cryptodep.model import (
    APPROVED,
    AssetKind,
    AssetRecord,
    Comparison,
    Configuration,
    CryptoObjectRecord,
    CryptoObjectType,
    CryptoRegistry,
    NOT_APPROVED,
    QUANTUM_SAFE,
    QUANTUM_VULNERABLE,
    RatingDimension,
    SecurityRating,
    compare_ratings,
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
    with pytest.raises(ValueError):
        SecurityRating(RatingDimension.APPROVAL, "maybe")
    with pytest.raises(ValueError):
        SecurityRating(RatingDimension.QUANTUM_SAFETY, "unsure")


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
    assert compare_ratings(approved, not_approved) is Comparison.A_HIGHER
    assert compare_ratings(not_approved, approved) is Comparison.B_HIGHER
    assert compare_ratings(qs, qv) is Comparison.A_HIGHER
    assert compare_ratings(SecurityRating.bits(128), SecurityRating.bits(80)) is Comparison.A_HIGHER
    assert compare_ratings(SecurityRating.bits(80), SecurityRating.bits(80)) is Comparison.EQUAL
    assert compare_ratings(approved, qs) is Comparison.INCOMPARABLE
    assert compare_ratings(SecurityRating.bits(0), not_approved) is Comparison.INCOMPARABLE


ratings = st.one_of(
    st.integers(min_value=0, max_value=512).map(SecurityRating.bits),
    st.sampled_from([APPROVED, NOT_APPROVED]).map(SecurityRating.approval),
    st.sampled_from([QUANTUM_SAFE, QUANTUM_VULNERABLE]).map(SecurityRating.quantum),
)

_FLIP = {
    Comparison.A_HIGHER: Comparison.B_HIGHER,
    Comparison.B_HIGHER: Comparison.A_HIGHER,
    Comparison.EQUAL: Comparison.EQUAL,
    Comparison.INCOMPARABLE: Comparison.INCOMPARABLE,
}


@given(ratings, ratings)
def test_compare_antisymmetric(a, b):
    assert compare_ratings(b, a) is _FLIP[compare_ratings(a, b)]


@given(ratings, ratings)
def test_compare_dimension_split(a, b):
    result = compare_ratings(a, b)
    if a.dimension is b.dimension:
        assert result is not Comparison.INCOMPARABLE
        assert (result is Comparison.EQUAL) == (a == b)
    else:
        assert result is Comparison.INCOMPARABLE


@given(ratings, ratings, ratings)
def test_compare_transitive(a, b, c):
    if (
        compare_ratings(a, b) is Comparison.A_HIGHER
        and compare_ratings(b, c) is Comparison.A_HIGHER
    ):
        assert compare_ratings(a, c) is Comparison.A_HIGHER


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
    registry = CryptoRegistry({"AES": (config,)})
    assert registry.lookup("AES", ("GCM", "128.0")) is config
    assert registry.lookup("AES", ("128",)) is None
    assert registry.lookup("DES", ("128", "GCM")) is None


def test_asset_defaults():
    asset = AssetRecord(id="A1")
    assert asset.kind is None
    assert asset.effective_kind is AssetKind.PROCESSOR
    assert asset.display == "A1"
    named = AssetRecord(id="A1", name="web tier")
    assert named.display == "web tier"


def test_crypto_type_predicates():
    key = CryptoObjectRecord(id="k", object_type=CryptoObjectType.PRIVATE_KEY)
    cert = CryptoObjectRecord(id="c", object_type=CryptoObjectType.CA_CERTIFICATE, algorithm="RSA")
    assert key.is_key and not key.is_certificate
    assert cert.is_certificate and not cert.is_key
