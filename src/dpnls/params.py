"""Equation parameters, grids, and discrete states for the double-power NLS.

The equation is i u_t = -Δu - a|u|^{p-1}u - b|u|^{q-1}u on R^N with one
L²-subcritical power p and one L²-supercritical power q.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class InvalidStateError(ValueError):
    """State contains non-finite samples or mismatched grid."""


class ResolutionError(ValueError):
    """Grid cannot resolve the requested state."""


class NoBracketError(RuntimeError):
    """Shooting residual has no sign change over the amplitude interval."""


class ConvergenceError(RuntimeError):
    """Iteration did not reach the requested tolerance."""


class CertificationError(ValueError):
    """Ground-state identities not satisfied to tolerance."""


class MembershipError(ValueError):
    """Constructed state failed the blowup-set membership check."""


class PreconditionError(ValueError):
    """A documented hypothesis of the operation is violated."""


#: Every error class above, each raised somewhere in the package.  A sweep
#: records these as the status of the one item that raised them and keeps
#: going; anything else is a program fault.
ERRORS = (InvalidStateError, ResolutionError, NoBracketError, ConvergenceError,
          CertificationError, MembershipError, PreconditionError)


@dataclass(frozen=True)
class Params:
    """Equation parameters (N, a, b, p, q, omega) with derived scaling exponents.

    Admissibility: a, b, omega finite and positive and
    1 < p < 1 + 4/N < q < inf, with q < 1 + 4/(N-2) for N >= 3.
    Validation is skipped by ``_validate=False`` for parameters derived
    from validated ones (the normalised c, c′ of a solve, where c′ can
    underflow to 0) and via ``Params.relaxed`` for test oracles that need
    degenerate coefficients (e.g. the single-power soliton with a = 0).
    """

    N: int
    a: float
    b: float
    p: float
    q: float
    omega: float
    _validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        if not self._validate:
            return
        if not (self.N >= 1 and float(self.N).is_integer()):
            raise PreconditionError(
                f"N must be a positive integer, got {self.N}")
        if not (0 < self.a < np.inf and 0 < self.b < np.inf):
            raise PreconditionError(f"a, b must be positive: a={self.a}, b={self.b}")
        if not 0 < self.omega < np.inf:
            raise PreconditionError(f"omega must be positive: omega={self.omega}")
        lo = 1.0 + 4.0 / self.N
        if not (1.0 < self.p < lo < self.q < np.inf):
            raise PreconditionError(
                f"need 1 < p < {lo} < q < inf, got p={self.p}, q={self.q}")
        if self.N >= 3 and self.q >= 1.0 + 4.0 / (self.N - 2):
            raise PreconditionError(
                f"q must be below {1 + 4 / (self.N - 2)} for N={self.N}")

    @classmethod
    def relaxed(cls, N, a, b, p, q, omega) -> "Params":
        """Construct without admissibility checks (test oracles only)."""
        return cls(N, a, b, p, q, omega, _validate=False)

    @property
    def alpha(self) -> float:
        """Scaling exponent of the p-power term, N(p-1)/2, in (0, 2)."""
        return self.N * (self.p - 1.0) / 2.0

    @property
    def beta(self) -> float:
        """Scaling exponent of the q-power term, N(q-1)/2, above 2."""
        return self.N * (self.q - 1.0) / 2.0


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid r_j = j * spacing, j = 0 .. n-1."""

    rmax: float
    n: int

    def __post_init__(self):
        if not 0 < self.rmax < np.inf:
            raise ValueError(f"rmax must be positive, got {self.rmax!r}")
        if not self.n >= 2:
            raise ValueError(f"need at least 2 nodes, got {self.n!r}")

    @property
    def spacing(self) -> float:
        return self.rmax / (self.n - 1)

    @property
    def r(self) -> np.ndarray:
        return np.linspace(0.0, self.rmax, self.n)


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic 1D grid of length L centered at the origin."""

    length: float
    m: int

    def __post_init__(self):
        if not 0 < self.length < np.inf:
            raise ValueError(f"length must be positive, got {self.length!r}")
        if not self.m >= 2:
            raise ValueError(f"need at least 2 nodes, got {self.m!r}")

    @property
    def spacing(self) -> float:
        return self.length / self.m

    @property
    def x(self) -> np.ndarray:
        return -self.length / 2.0 + self.spacing * np.arange(self.m)

    @property
    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.m, d=self.spacing)


@dataclass(frozen=True)
class RadialProfile:
    """Real radial samples phi(r_j) with their derivative samples phi'(r_j),
    from which the gradient norm is computed."""

    grid: RadialGrid
    values: np.ndarray
    deriv: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.n,):
            raise InvalidStateError("values shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise InvalidStateError("non-finite profile samples")
        d = np.asarray(self.deriv, dtype=float)
        object.__setattr__(self, "deriv", d)
        if d.shape != v.shape or not np.all(np.isfinite(d)):
            raise InvalidStateError("invalid derivative samples")


@dataclass(frozen=True)
class ComplexField:
    """Complex state on a periodic 1D grid (the line)."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        if not isinstance(self.grid, PeriodicGrid):
            raise InvalidStateError("a complex field lives on a periodic grid")
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.shape != (self.grid.m,):
            raise InvalidStateError("values shape does not match grid")
        if not np.all(np.isfinite(v)):
            raise InvalidStateError("non-finite field samples")
