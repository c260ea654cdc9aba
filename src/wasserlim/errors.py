"""Exception types shared across the package.

Every domain error carries a short machine-readable name (the class name)
and a human message; the CLI serializes them as ``{"error": name, ...}``.
"""

from __future__ import annotations


class WasserlimError(Exception):
    """Base class for all domain errors raised by this package."""

    def payload(self) -> dict:
        """Machine-readable form used by the CLI error channel."""
        return {"error": type(self).__name__, "message": str(self)}


# -- metric validation ------------------------------------------------------

class Asymmetric(WasserlimError):
    """Distance matrix is not symmetric."""


class NegativeDistance(WasserlimError):
    """Distance matrix has a negative entry (or nonzero diagonal)."""


class TriangleViolation(WasserlimError):
    """Triangle inequality fails for some triple (i, j, k)."""

    def __init__(self, i: int, j: int, k: int, excess: float):
        self.triple = (int(i), int(j), int(k))
        self.excess = float(excess)
        super().__init__(
            f"d({i},{j}) > d({i},{k}) + d({k},{j}) by {excess:.3e}"
        )

    def payload(self) -> dict:
        out = super().payload()
        out["triple"] = list(self.triple)
        return out


class CoincidentPoints(WasserlimError):
    """Two distinct points are at distance exactly 0 (a pseudometric)."""

    def __init__(self, i: int, j: int):
        self.pair = (int(i), int(j))
        super().__init__(f"d({i},{j}) = 0 for distinct points {i} and {j}")

    def payload(self) -> dict:
        out = super().payload()
        out["pair"] = list(self.pair)
        return out


class EmptySubset(WasserlimError):
    """A point-set argument that must be nonempty is empty."""


class Disconnected(WasserlimError):
    """Edge list does not connect all vertices."""


class NonpositiveWeight(WasserlimError):
    """Graph edge with weight <= 0."""


# -- measures ---------------------------------------------------------------

class SpaceMismatch(WasserlimError):
    """Two measures that must share a space do not."""


class EmptyTruncation(WasserlimError):
    """Truncated density has zero mass."""


class ZeroMass(WasserlimError):
    """Cannot normalize a density with total mass zero."""


class QuantizationBudgetExceeded(WasserlimError):
    """Uniform quantization would need more than the atom cap."""


# -- transport --------------------------------------------------------------

class SolverFailure(WasserlimError):
    """The transport solver cannot give an exact answer: the costs d**p
    leave the range a float can scale exactly (they overflow, underflow
    to zero, or are too small for any power-of-two scale), or pivoting
    reached an inconsistent state, which signals a bug."""


class NotUniformCloud(WasserlimError):
    """Measure is not an equal-weight Dirac cloud."""


class SizeMismatch(WasserlimError):
    """Two clouds admit no common uniform size within the atom cap."""


# -- geodesics --------------------------------------------------------------

class NoGeodesicStructure(WasserlimError):
    """Interpolation requested on a space without an underlying graph."""


# -- curvature --------------------------------------------------------------

class InfiniteEntropy(WasserlimError):
    """An endpoint has infinite relative entropy."""


class NoValidPairs(WasserlimError):
    """Every generated pair was degenerate (zero transport distance)."""


class NonpositiveK(WasserlimError):
    """The log-Sobolev check needs K > 0."""


class AbsoluteContinuityFailure(WasserlimError):
    """An interpolant has mass outside the reference measure's support."""


# -- limits -----------------------------------------------------------------

class FamilyLengthMismatch(WasserlimError):
    """Measure family length differs from the sequence length."""
