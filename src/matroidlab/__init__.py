"""matroidlab: finite matroids from explicit base families.

Construction and validation, duality, partition-matroid constructors, forming
families, class membership tests with canonical counterexamples, exhaustive
enumeration of all matroids on small ground sets, and a registry-driven
verification harness.
"""

from . import errors
from .classify import (
    DEFAULT_SEARCH_CAP,
    ClassificationResult,
    ExchangeWitness,
    ExpansionWitness,
    SubfamilyWitness,
    intersection_minimal,
    is_intersection_minimal,
    is_transversal_of,
    is_union_minimal,
    is_unique_exchange,
    is_unique_expansion,
    recover_partition,
    union_minimal,
)
from .enumeration import (
    MAX_ENUMERATION_SIZE,
    count_matroids,
    enumerate_matroids,
    enumeration_ground,
)
from .forming import (
    expansion,
    forming_family,
    forming_family_wrt,
    secondary_bases,
)
from .harness import (
    CheckOutcome,
    ExampleFact,
    TheoremCheck,
    VerificationReport,
    WorkedExample,
    check_examples,
    lookup_check,
    worked_examples,
    theorem_registry,
    verify,
)
from .matroid import (
    Matroid,
    PartitionMatroidSpec,
    are_isomorphic,
    make_partition_matroid,
    make_unique_partition_matroid,
)
from .setalgebra import (
    MAX_GROUND_SIZE,
    GroundSet,
    Partition,
    SetFamily,
    Subset,
    all_partitions,
    combination_number,
    complements,
    is_covering,
    is_partition,
    low,
    maximal,
    one_per_block,
    transversals,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "GroundSet",
    "Subset",
    "SetFamily",
    "Partition",
    "low",
    "maximal",
    "complements",
    "is_covering",
    "is_partition",
    "combination_number",
    "transversals",
    "one_per_block",
    "all_partitions",
    "MAX_GROUND_SIZE",
    "Matroid",
    "PartitionMatroidSpec",
    "make_partition_matroid",
    "make_unique_partition_matroid",
    "are_isomorphic",
    "secondary_bases",
    "expansion",
    "forming_family",
    "forming_family_wrt",
    "ClassificationResult",
    "ExpansionWitness",
    "ExchangeWitness",
    "SubfamilyWitness",
    "is_unique_expansion",
    "is_unique_exchange",
    "is_union_minimal",
    "is_intersection_minimal",
    "union_minimal",
    "intersection_minimal",
    "recover_partition",
    "is_transversal_of",
    "DEFAULT_SEARCH_CAP",
    "enumerate_matroids",
    "enumeration_ground",
    "count_matroids",
    "MAX_ENUMERATION_SIZE",
    "TheoremCheck",
    "CheckOutcome",
    "VerificationReport",
    "theorem_registry",
    "lookup_check",
    "verify",
    "WorkedExample",
    "ExampleFact",
    "worked_examples",
    "check_examples",
    "__version__",
]
