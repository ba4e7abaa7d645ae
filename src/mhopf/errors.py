"""Exception types shared across the library."""


class MHopfError(Exception):
    """Base class for all library errors."""


class DomainMismatch(MHopfError):
    """Operands live over different basis-index domains."""


class PositionOutOfRange(MHopfError):
    """A tensor leg index is outside the tensor's arity."""


class UncoveredLeg(MHopfError):
    """A Sweedler expression cannot be grounded to a finite tensor."""


class LocalUnitsNotFound(MHopfError):
    """The adaptive local-unit search exhausted its budget.

    Existence is guaranteed for regular multiplier Hopf algebras, so this
    signals an undersized search window, never absence.
    """


class NoIdentity(MHopfError):
    """An operation needed an identity element the algebra lacks."""


class InfiniteDimensional(MHopfError):
    """Operation requires a finite-dimensional instance, or an oracle it lacks."""


class Undecidable(MHopfError):
    """Classification question with no decision procedure for this instance."""


class Singular(MHopfError):
    """A functional or form required to be non-degenerate is singular."""


class NotHopf(MHopfError):
    """Operation is defined only when the acting algebra has an identity."""


class NotInner(MHopfError):
    """The supplied action is not inner for the given homomorphism."""


class NotUnitalHomomorphism(MHopfError):
    """gamma fails the spanning condition gamma(A)R = R gamma(A) = R."""


class CommutationFailed(MHopfError):
    """Universal-property hypothesis fails; carries the witnessing pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class CocycleInvalid(MHopfError):
    """Cocycle data fails its defining conditions."""


class UnverifiedAction(MHopfError):
    """A construction was asked to build on an action that failed verification."""


class AlgebraMismatch(MHopfError):
    """Structures that must share an algebra do not."""


class CoactionInvalid(MHopfError):
    """Coaction data fails injectivity or coassociativity."""


class UnknownInstance(MHopfError):
    """Instance id does not name a builtin and no file provides it."""


class MalformedSpec(MHopfError):
    """An instance/action description file failed to parse or validate."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field
