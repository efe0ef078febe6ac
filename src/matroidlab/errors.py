"""Exception types shared across the package."""

from __future__ import annotations


class GroundSetTooLarge(ValueError):
    """Ground set exceeds the supported size (one machine word, or the enumerator cap)."""


class AxiomError(ValueError):
    """A candidate family failed one of the matroid axioms."""


class EmptyFamily(AxiomError):
    """Base axiom B1: the candidate base family is empty."""


class UnequalCardinality(AxiomError):
    """Two candidate bases have different sizes."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        super().__init__(
            f"bases must share one cardinality: |{first}| = {len(first)} "
            f"but |{second}| = {len(second)}"
        )


class ExchangeFailure(AxiomError):
    """Base axiom B2 fails: no replacement in base2 repairs base1 minus the element."""

    def __init__(self, base1, base2, element: str):
        self.base1 = base1
        self.base2 = base2
        self.element = element
        super().__init__(
            f"no y in {base2} - {base1} makes ({base1} - {{{element}}}) + {{y}} a base"
        )


class MissingEmptySet(AxiomError):
    """Independence axiom I1: the empty set is not in the candidate family."""


class NotDownwardClosed(AxiomError):
    """Independence axiom I2 fails: a subset of an independent set is missing."""

    def __init__(self, superset, subset):
        self.superset = superset
        self.subset = subset
        super().__init__(f"{superset} is present but its subset {subset} is not")


class AugmentationFailure(AxiomError):
    """Independence axiom I3 fails: the smaller set cannot be extended from the larger."""

    def __init__(self, smaller, larger):
        self.smaller = smaller
        self.larger = larger
        super().__init__(
            f"no element of {larger} - {smaller} extends {smaller} inside the family"
        )


class CapOutOfRange(ValueError):
    """A per-block cap is negative or exceeds the block size."""


class RankZero(ValueError):
    """Operation is undefined for rank-zero matroids."""


class NotABase(ValueError):
    """The given subset is not a base of the matroid."""


class SearchCapExceeded(RuntimeError):
    """The base family is too large for an exhaustive subfamily search."""


class ParseError(ValueError):
    """A matroid document is malformed."""
