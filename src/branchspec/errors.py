"""Exception types shared across the toolkit."""


class BranchspecError(Exception):
    """Base class for all package errors."""


class PoleError(BranchspecError):
    """Argument too close to a pole of the Gamma function."""


class RegimeError(BranchspecError):
    """Point violates the admissibility region of an asymptotic regime."""


class SectorError(BranchspecError):
    """Point lies outside the claimed sector (with margin)."""


class DegenerateError(BranchspecError):
    """A dividing coefficient underflowed or vanished."""


class NoConvergence(BranchspecError):
    """Iteration failed to converge; carries the last iterate."""

    def __init__(self, message, last=None, residual=None):
        super().__init__(message)
        self.last = last
        self.residual = residual


class SectorEscape(BranchspecError):
    """Newton iterate left the admissible sector of its branch."""

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class OnContourZero(BranchspecError):
    """|f| vanishes on the integration contour even after perturbation."""


class NotAdmissible(BranchspecError):
    """Curve violates an admissibility clause (named in the message)."""


class NotInvariant(BranchspecError):
    """Expression is not invariant under the periodic flow."""


class DegenerateInput(BranchspecError):
    """Classification parameters violate a nondegeneracy clause."""

    def __init__(self, message, clause=None):
        super().__init__(message)
        self.clause = clause


class Mismatch(BranchspecError):
    """Numerical verification disagrees with a symbolic report."""

    def __init__(self, message, discrepancies=()):
        super().__init__(message)
        self.discrepancies = list(discrepancies)


class CountNotConserved(BranchspecError):
    """Child winding counts of a cell do not add up to the cell's count."""

    def __init__(self, message, cell=None, count=None, children=()):
        super().__init__(message)
        self.cell = cell
        self.count = count
        self.children = list(children)


class CellBudgetExceeded(BranchspecError):
    """Quadrisection exceeded its cell budget; partial results attached."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
