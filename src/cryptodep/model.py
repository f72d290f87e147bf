"""Domain model: security ratings, inventory records, the algorithm registry,
and the diagnostics that reading and compiling them report.

Everything in this module is immutable and free of I/O.  Records are produced
by :mod:`cryptodep.ingest`, compiled into a dependency graph by
:mod:`cryptodep.rules`, and queried by :mod:`cryptodep.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

__all__ = [
    "Severity",
    "Diagnostic",
    "RatingDimension",
    "SecurityRating",
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
    "spec_key",
    "normalise_flag",
    "APPROVED",
    "NOT_APPROVED",
    "QUANTUM_SAFE",
    "QUANTUM_VULNERABLE",
]


# --------------------------------------------------------------------------
# diagnostics
# --------------------------------------------------------------------------

class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    severity: Severity
    file: str
    code: str
    message: str
    line: int | None = None

    def render(self) -> str:
        where = f"{self.file}:{self.line}" if self.line is not None else self.file
        return f"{self.severity.value}: {where}: {self.code}: {self.message}"


def _error(diags: list[Diagnostic], fname: str, line: int | None, code: str, message: str) -> None:
    diags.append(Diagnostic(Severity.ERROR, fname, code, message, line=line))


def _warning(diags: list[Diagnostic], fname: str, line: int | None, code: str, message: str) -> None:
    diags.append(Diagnostic(Severity.WARNING, fname, code, message, line=line))


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

#: every spelling of each named level, by dimension and canonical value,
#: weakest value first; parsing ignores case
_NAMED_LEVELS = {
    RatingDimension.APPROVAL: {
        NOT_APPROVED: ("not-approved", "not-nist-approved"),
        APPROVED: ("approved", "nist-approved"),
    },
    RatingDimension.QUANTUM_SAFETY: {
        QUANTUM_VULNERABLE: ("quantum-vulnerable", "not-quantum-safe"),
        QUANTUM_SAFE: ("quantum-safe", "quantum-resistant"),
    },
}


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
        elif not isinstance(self.value, str) or self.value not in _NAMED_LEVELS[self.dimension]:
            levels = "/".join(_NAMED_LEVELS[self.dimension])
            raise ValueError(f"{self.dimension.value} rating must be {levels}, got {self.value!r}")

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
        low = text.strip().lower()
        for dimension, levels in _NAMED_LEVELS.items():
            for value, spellings in levels.items():
                if low in spellings:
                    return SecurityRating(dimension, value)
        digits = low.removesuffix("bits").removesuffix("bit").rstrip(" -")
        if digits.isdecimal() and len(digits) < 20:  # int() refuses very long digit strings
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

    def sort_key(self) -> tuple[str, int | str]:
        # within one dimension every value has the same type
        return (self.dimension.value, self.value)

    def to_dict(self) -> dict:
        return {"dimension": self.dimension.value, "value": self.value}

    @staticmethod
    def from_dict(obj: dict) -> SecurityRating:
        return SecurityRating(RatingDimension(obj["dimension"]), obj["value"])

    def outranks(self, other: SecurityRating) -> bool:
        """Strictly stronger than ``other`` in the same dimension; ratings in
        different dimensions never outrank each other."""
        return self.dimension is other.dimension and _strength(self) > _strength(other)


def _strength(rating: SecurityRating) -> int:
    if rating.dimension is RatingDimension.BITS:
        return rating.value
    return list(_NAMED_LEVELS[rating.dimension]).index(rating.value)


# --------------------------------------------------------------------------
# inventory records
# --------------------------------------------------------------------------

@dataclass(slots=True, unsafe_hash=True, order=True)
class Source:
    """Where a record came from: file basename plus a stable record key, ordered by (file, ref)."""

    file: str
    ref: str

    def __str__(self) -> str:
        return f"{self.file}:{self.ref}"


@dataclass(slots=True, unsafe_hash=True)
class ClassificationBinding:
    """Maps an organisational classification label to the security levels it
    requires.  ``rank`` is the position in the classification map; earlier
    entries are treated as more sensitive when scoring."""

    label: str
    required: tuple[SecurityRating, ...]
    rank: int = 0
    source: Source = Source("", "")


@dataclass(slots=True, unsafe_hash=True)
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


@dataclass(slots=True, unsafe_hash=True)
class AccessRef:
    target: str
    direction: Direction = Direction.TWO_WAY
    origin: RefOrigin = RefOrigin.ACCESS_RECORD
    #: the row that declared the reference; asset records merge rows, so the
    #: merged record's own source may name a different row
    source: Source | None = None


@dataclass(slots=True, unsafe_hash=True)
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
    def display(self) -> str:
        return self.name or self.id


class CryptoObjectType(str, Enum):
    SYMMETRIC_KEY = "SymmetricKey"
    PRIVATE_KEY = "PrivateKey"
    PUBLIC_KEY = "PublicKey"
    CERTIFICATE = "Certificate"
    CA_CERTIFICATE = "CACertificate"


@dataclass(slots=True, unsafe_hash=True)
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


def normalise_flag(flag: str) -> str:
    """Canonicalise a configuration flag; key sizes exported as floats
    (``1024.0``) collapse to their integer spelling."""
    text = flag.strip()
    if text.endswith(".0") and text[:-2].isdigit():
        return text[:-2]
    return text


def primitive_key(algorithm: str, flags) -> str:
    """The identity of a configuration, and its vertex id, e.g.
    ``RSA[1024]``: the name and the sorted set of normalised flags, so flag
    order, ``1024.0`` spellings and repeated flags do not change it."""
    parts = sorted({normalise_flag(f) for f in flags})
    return f"{algorithm}[{','.join(parts)}]"


def spec_key(spec: str) -> str | None:
    """The :func:`primitive_key` of ``NAME[f1,f2]`` notation, or None when
    ``spec`` is malformed."""
    try:
        return primitive_key(*parse_primitive_spec(spec))
    except ValueError:
        return None


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

    @cached_property
    def _by_key(self) -> dict[str, Configuration]:
        return {
            primitive_key(name, config.flags): config
            for name, configs in self.algorithms.items()
            for config in configs
        }

    def lookup(self, algorithm: str, flags) -> Configuration | None:
        """The configuration of ``algorithm`` with the same
        :func:`primitive_key` as ``flags``."""
        return self._by_key.get(primitive_key(algorithm, flags))

    def algorithm_ref(self, target: str) -> tuple[str, tuple[str, ...]] | None:
        """``(name, flags)`` when ``target`` spells a configuration of an
        algorithm the registry names, rated or not; None otherwise.  This
        decides which asset reference cells name an algorithm."""
        try:
            name, flags = parse_primitive_spec(target)
        except ValueError:
            return None
        return (name, flags) if name in self.algorithms else None


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
    @cached_property
    def classification_map(self) -> dict[str, ClassificationBinding]:
        return {c.label: c for c in self.classifications}

    @cached_property
    def data_map(self) -> dict[str, DataRecord]:
        return {d.id: d for d in self.data}

    @cached_property
    def asset_map(self) -> dict[str, AssetRecord]:
        return {a.id: a for a in self.assets}

    @cached_property
    def crypto_map(self) -> dict[str, CryptoObjectRecord]:
        return {c.id: c for c in self.crypto_objects}

    def resolve(self, target: str) -> CryptoObjectRecord | DataRecord | AssetRecord | tuple | None:
        """What an asset reference cell naming ``target`` names: its crypto, data or asset record, in
        that order, else the registry's ``(name, flags)`` for an algorithm it spells, else None."""
        return (
            self.crypto_map.get(target) or self.data_map.get(target) or self.asset_map.get(target)
            or self.registry.algorithm_ref(target)
        )
