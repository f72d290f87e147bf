"""Domain model: security ratings, inventory records, and the algorithm registry.

Everything in this module is immutable and free of I/O.  Records are produced
by :mod:`cryptodep.ingest`, compiled into a dependency graph by
:mod:`cryptodep.rules`, and queried by :mod:`cryptodep.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "RatingDimension",
    "Comparison",
    "SecurityRating",
    "compare_ratings",
    "Source",
    "ClassificationBinding",
    "DataRecord",
    "AssetKind",
    "Direction",
    "RefOrigin",
    "AccessRef",
    "AssetRecord",
    "CryptoObjectType",
    "CryptoObjectRecord",
    "VulnerabilityClass",
    "Configuration",
    "CryptoRegistry",
    "InventoryBundle",
    "parse_primitive_spec",
    "primitive_key",
    "normalise_flag",
    "APPROVED",
    "NOT_APPROVED",
    "QUANTUM_SAFE",
    "QUANTUM_VULNERABLE",
    "KEY_OBJECT_TYPES",
    "CERTIFICATE_OBJECT_TYPES",
]


# --------------------------------------------------------------------------
# security ratings
# --------------------------------------------------------------------------

class RatingDimension(str, Enum):
    """Axis along which a security property is rated.

    Ratings are comparable only within a single dimension; a bit strength
    says nothing about standards approval and vice versa.
    """

    BITS = "Bits"
    APPROVAL = "Approval"
    QUANTUM_SAFETY = "QuantumSafety"


APPROVED = "approved"
NOT_APPROVED = "not-approved"
QUANTUM_SAFE = "quantum-safe"
QUANTUM_VULNERABLE = "quantum-vulnerable"

_APPROVAL_ALIASES = {
    "approved": APPROVED,
    "nist-approved": APPROVED,
    "not-approved": NOT_APPROVED,
    "not-nist-approved": NOT_APPROVED,
}

_QUANTUM_ALIASES = {
    "quantum-safe": QUANTUM_SAFE,
    "quantum-resistant": QUANTUM_SAFE,
    "quantum-vulnerable": QUANTUM_VULNERABLE,
    "not-quantum-safe": QUANTUM_VULNERABLE,
}


class Comparison(str, Enum):
    A_HIGHER = "a_higher"
    EQUAL = "equal"
    B_HIGHER = "b_higher"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class SecurityRating:
    """A single rated security property, e.g. ``Approval:approved`` or ``Bits:128``.

    ``value`` is an ``int`` for the bits dimension and a canonical string
    otherwise.
    """

    dimension: RatingDimension
    value: int | str

    def __post_init__(self) -> None:
        if self.dimension is RatingDimension.BITS:
            if not isinstance(self.value, int) or isinstance(self.value, bool) or self.value < 0:
                raise ValueError(f"bits rating requires a non-negative integer, got {self.value!r}")
        elif self.dimension is RatingDimension.APPROVAL:
            if self.value not in (APPROVED, NOT_APPROVED):
                raise ValueError(f"approval rating must be approved/not-approved, got {self.value!r}")
        elif self.value not in (QUANTUM_SAFE, QUANTUM_VULNERABLE):
            raise ValueError(
                f"quantum-safety rating must be quantum-safe/quantum-vulnerable, got {self.value!r}"
            )

    # -- constructors ------------------------------------------------------

    @staticmethod
    def bits(n: int) -> SecurityRating:
        return SecurityRating(RatingDimension.BITS, n)

    @staticmethod
    def approval(value: str) -> SecurityRating:
        return SecurityRating(RatingDimension.APPROVAL, value)

    @staticmethod
    def quantum(value: str) -> SecurityRating:
        return SecurityRating(RatingDimension.QUANTUM_SAFETY, value)

    @staticmethod
    def parse(text: str) -> SecurityRating | None:
        """Parse a human-written level such as ``NIST-approved``, ``128`` or
        ``quantum-safe``.  Returns None when the text fits no dimension."""
        raw = text.strip()
        low = raw.lower()
        if low in _APPROVAL_ALIASES:
            return SecurityRating.approval(_APPROVAL_ALIASES[low])
        if low in _QUANTUM_ALIASES:
            return SecurityRating.quantum(_QUANTUM_ALIASES[low])
        digits = low.removesuffix("bits").removesuffix("bit").rstrip(" -")
        if digits.isdecimal() and len(digits) < 20:  # sort_key pads to 20 digits
            return SecurityRating.bits(int(digits))
        return None

    # -- presentation ------------------------------------------------------

    @property
    def key(self) -> str:
        """Graph vertex identifier, e.g. ``Approval:approved``."""
        return f"{self.dimension.value}:{self.value}"

    @property
    def display(self) -> str:
        if self.dimension is RatingDimension.BITS:
            return f"{self.value}-bit"
        return str(self.value)

    def sort_key(self) -> tuple[str, str]:
        value = f"{self.value:020d}" if isinstance(self.value, int) else str(self.value)
        return (self.dimension.value, value)

    def to_dict(self) -> dict:
        return {"dimension": self.dimension.value, "value": self.value}

    @staticmethod
    def from_dict(obj: dict) -> SecurityRating:
        return SecurityRating(RatingDimension(obj["dimension"]), obj["value"])


def _strength(rating: SecurityRating) -> int:
    if rating.dimension is RatingDimension.BITS:
        return int(rating.value)
    if rating.dimension is RatingDimension.APPROVAL:
        return 1 if rating.value == APPROVED else 0
    return 1 if rating.value == QUANTUM_SAFE else 0


def compare_ratings(a: SecurityRating, b: SecurityRating) -> Comparison:
    """Compare two ratings.  Ratings in different dimensions are incomparable."""
    if a.dimension is not b.dimension:
        return Comparison.INCOMPARABLE
    sa, sb = _strength(a), _strength(b)
    if sa > sb:
        return Comparison.A_HIGHER
    if sa < sb:
        return Comparison.B_HIGHER
    return Comparison.EQUAL


# --------------------------------------------------------------------------
# inventory records
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Source:
    """Where a record came from: file basename plus a stable record key."""

    file: str
    ref: str

    def __str__(self) -> str:
        return f"{self.file}:{self.ref}"

    def to_dict(self) -> dict:
        return {"file": self.file, "ref": self.ref}

    @staticmethod
    def from_dict(obj: dict) -> Source:
        return Source(obj["file"], obj["ref"])


@dataclass(frozen=True)
class ClassificationBinding:
    """Maps an organisational classification label to the security levels it
    requires.  ``rank`` is the position in the classification map; earlier
    entries are treated as more sensitive when scoring."""

    label: str
    required: tuple[SecurityRating, ...]
    rank: int = 0
    source: Source = Source("", "")


@dataclass(frozen=True)
class DataRecord:
    id: str
    storage_locations: tuple[str, ...] = ()
    classification: str | None = None
    retention_years: float | None = None
    name: str | None = None
    source: Source = Source("", "")

    @property
    def display(self) -> str:
        return self.name or self.id


class AssetKind(str, Enum):
    PROCESSOR = "Processor"
    SERVICE = "Service"
    CHANNEL = "Channel"
    PROCESS = "Process"
    SOFTWARE = "Software"


class Direction(str, Enum):
    TWO_WAY = "two-way"
    READ_ONLY = "read-only"


class RefOrigin(str, Enum):
    """How an access reference entered the inventory.

    Dedicated access records always yield plain access-pair edges; reference
    columns on an asset row are interpreted by the type of their target.
    """

    ACCESS_RECORD = "access-record"
    ASSET_FIELD = "asset-field"


@dataclass(frozen=True)
class AccessRef:
    target: str
    direction: Direction = Direction.TWO_WAY
    origin: RefOrigin = RefOrigin.ACCESS_RECORD
    #: the row that declared the reference; asset records merge rows, so the
    #: merged record's own source may name a different row
    source: Source | None = None

    @staticmethod
    def from_dict(obj: dict) -> AccessRef:
        return AccessRef(
            obj["target"],
            Direction(obj["direction"]),
            RefOrigin(obj["origin"]),
            Source.from_dict(obj["source"]) if "source" in obj else None,
        )


@dataclass(frozen=True)
class AssetRecord:
    """A machine, service, channel, process, or piece of software.

    ``kind`` is None for assets that are only ever referenced (an undeclared
    asset behaves as a processor during graph construction).
    """

    id: str
    kind: AssetKind | None = None
    serves: tuple[str, ...] = ()
    accesses: tuple[AccessRef, ...] = ()
    name: str | None = None
    source: Source = Source("", "")

    @property
    def effective_kind(self) -> AssetKind:
        return self.kind if self.kind is not None else AssetKind.PROCESSOR

    @property
    def display(self) -> str:
        return self.name or self.id


class CryptoObjectType(str, Enum):
    SYMMETRIC_KEY = "SymmetricKey"
    PRIVATE_KEY = "PrivateKey"
    PUBLIC_KEY = "PublicKey"
    CERTIFICATE = "Certificate"
    CA_CERTIFICATE = "CACertificate"


KEY_OBJECT_TYPES = frozenset(
    {CryptoObjectType.SYMMETRIC_KEY, CryptoObjectType.PRIVATE_KEY, CryptoObjectType.PUBLIC_KEY}
)
CERTIFICATE_OBJECT_TYPES = frozenset(
    {CryptoObjectType.CERTIFICATE, CryptoObjectType.CA_CERTIFICATE}
)


@dataclass(frozen=True)
class CryptoObjectRecord:
    """A key or certificate from a cryptographic inventory.

    ``location`` is the asset where the object is present; ``key_locations``
    name assets (typically a key-management system) that hold the underlying
    key material.
    """

    id: str
    object_type: CryptoObjectType
    location: str | None = None
    key_locations: tuple[str, ...] = ()
    algorithm: str | None = None
    config_flags: tuple[str, ...] = ()
    matched_key: str | None = None
    issuer_cert: str | None = None
    created_by: str | None = None
    name: str | None = None
    source: Source = Source("", "")

    @property
    def is_key(self) -> bool:
        return self.object_type in KEY_OBJECT_TYPES

    @property
    def is_certificate(self) -> bool:
        return self.object_type in CERTIFICATE_OBJECT_TYPES

    @property
    def display(self) -> str:
        return self.name or self.id


# --------------------------------------------------------------------------
# algorithm registry
# --------------------------------------------------------------------------

class VulnerabilityClass(str, Enum):
    ELLIPTIC_CURVE = "EllipticCurve"
    INTEGER_FACTORING = "IntegerFactoring"
    SYMMETRIC_SEARCH = "SymmetricSearch"
    PQC = "PQC"
    HASH_BASED = "HashBased"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Configuration:
    """One concrete parameterisation of an algorithm, e.g. RSA with 1024-bit keys."""

    flags: tuple[str, ...]
    ratings: tuple[SecurityRating, ...] = ()
    vulnerability_class: VulnerabilityClass = VulnerabilityClass.UNKNOWN
    uses: tuple[str, ...] = ()
    source: Source = Source("", "")

    def rating_for(self, dimension: RatingDimension) -> SecurityRating | None:
        for rating in self.ratings:
            if rating.dimension is dimension:
                return rating
        return None


def normalise_flag(flag: str) -> str:
    """Canonicalise a configuration flag; key sizes exported as floats
    (``1024.0``) collapse to their integer spelling."""
    text = flag.strip()
    if text.endswith(".0") and text[:-2].isdigit():
        return text[:-2]
    return text


def _flag_set(flags) -> frozenset[str]:
    return frozenset(normalise_flag(f) for f in flags)


def primitive_key(algorithm: str, flags) -> str:
    """Canonical vertex identifier for a configuration, e.g. ``RSA[1024]``."""
    parts = sorted(normalise_flag(f) for f in flags)
    return f"{algorithm}[{','.join(parts)}]"


def parse_primitive_spec(spec: str) -> tuple[str, tuple[str, ...]]:
    """Split ``NAME[f1,f2]`` notation into a name and flag tuple.

    A bare name parses to an empty flag tuple.  Raises ValueError on
    malformed bracket syntax.
    """
    text = spec.strip()
    if "[" not in text:
        if "]" in text:
            raise ValueError(f"malformed primitive spec {spec!r}")
        return text, ()
    if not text.endswith("]"):
        raise ValueError(f"malformed primitive spec {spec!r}")
    name, _, inner = text[:-1].partition("[")
    name = name.strip()
    if not name:
        raise ValueError(f"malformed primitive spec {spec!r}")
    flags = tuple(normalise_flag(p) for p in inner.split(",") if p.strip())
    return name, flags


@dataclass(frozen=True)
class CryptoRegistry:
    """Rated algorithm configurations, keyed by algorithm name."""

    algorithms: dict[str, tuple[Configuration, ...]] = field(default_factory=dict)

    def lookup(self, algorithm: str, flags) -> Configuration | None:
        """The configuration of ``algorithm`` whose flag set matches
        ``flags``; flag order and ``.0`` spelling differences are ignored."""
        wanted = _flag_set(flags)
        for config in self.algorithms.get(algorithm, ()):
            if _flag_set(config.flags) == wanted:
                return config
        return None

    def algorithm_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.algorithms))


# --------------------------------------------------------------------------
# bundle
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InventoryBundle:
    """Everything parsed from one scan's worth of input files, in canonical
    (sorted) order so downstream output is independent of file ordering.

    ``records`` holds the parsed records the bundle was assembled from, in
    input order; overlays edit that list and assemble it again.
    ``input_digests`` maps each inventory file the records were read from to
    the SHA-256 of its bytes.  Neither takes part in equality, which
    compares what the records assembled into.
    """

    classifications: tuple[ClassificationBinding, ...] = ()
    data: tuple[DataRecord, ...] = ()
    assets: tuple[AssetRecord, ...] = ()
    crypto_objects: tuple[CryptoObjectRecord, ...] = ()
    registry: CryptoRegistry = field(default_factory=CryptoRegistry)
    records: tuple = field(default=(), compare=False, repr=False)
    input_digests: dict[str, str] = field(default_factory=dict, compare=False, repr=False)

    # The maps are memoised: the bundle is immutable and graph construction
    # asks for them once per record, which is quadratic if rebuilt each time.
    def _memo(self, key: str, build):
        cached = self.__dict__.get(key)
        if cached is None:
            cached = build()
            object.__setattr__(self, key, cached)
        return cached

    def classification_map(self) -> dict[str, ClassificationBinding]:
        return self._memo(
            "_classification_map", lambda: {c.label: c for c in self.classifications}
        )

    def data_map(self) -> dict[str, DataRecord]:
        return self._memo("_data_map", lambda: {d.id: d for d in self.data})

    def asset_map(self) -> dict[str, AssetRecord]:
        return self._memo("_asset_map", lambda: {a.id: a for a in self.assets})

    def crypto_map(self) -> dict[str, CryptoObjectRecord]:
        return self._memo("_crypto_map", lambda: {c.id: c for c in self.crypto_objects})
