"""Exception types shared across the package."""


class OrigamiError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidShapeError(OrigamiError, ValueError):
    """Requested L-shape parameters do not give a genuine L."""


class OrbitCapExceeded(OrigamiError):
    """Orbit enumeration grew past the cap.

    Carries the partial orbit, the BFS depth of the form being expanded
    when the cap was hit, and the frontier: the forms in ``partial`` not
    yet fully expanded, that one included.
    """

    def __init__(self, message, partial, depth, frontier):
        super().__init__(message)
        self.partial = frozenset(partial)
        self.depth = depth
        self.frontier = frontier


class BasisUnavailableError(OrigamiError):
    """The two requested directions do not give a 2+2 cylinder basis."""


class NoBasisFoundError(OrigamiError):
    """Direction search exhausted its directions without finding a basis."""


class RankError(OrigamiError):
    """A matrix that must be invertible is singular."""


class IntegralityError(OrigamiError):
    """A quantity that must be an integer came out fractional."""


class UnimodularityError(OrigamiError):
    """A matrix that must have determinant 1 does not."""


class DegenerateConfigurationError(OrigamiError):
    """Two traced curves cross at a cone point."""


class TracingError(OrigamiError):
    """A geodesic trace did not behave as required (internal check)."""


class IndexCapExceeded(OrigamiError):
    """Coset enumeration exceeded the live-coset cap.

    The subgroup index may be finite but large, or infinite; the
    enumeration cannot tell the two apart.  Carries how far it got: the
    cosets defined (coset 0 included) and the coincidences processed,
    each of which merged one coset away, so the live cosets number
    ``defined - coincidences``, which is the cap.
    """

    def __init__(self, message, defined, coincidences):
        super().__init__(message)
        self.defined = defined
        self.coincidences = coincidences
