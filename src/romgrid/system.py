"""Parametric system model.

A system is a triple of affine matrix families ``Q(p) x = B(p) u``,
``y = C(p) x`` whose coefficients are monomials in named scalar parameters.
The Laplace variable is an ordinary parameter named ``"s"``, so frequency
sweeps pass sample points like ``{"s": 2j*pi*f}`` and parametric systems
simply add more names.
"""

import weakref

import numpy as np
import scipy.sparse

from . import linalg
from .errors import (
    DimensionMismatchError,
    MissingParameterError,
    SingularAtSampleError,
    SingularMatrixError,
    UnknownParameterNameError,
    ZeroToNegativePowerError,
)

__all__ = [
    "LAPLACE",
    "Monomial",
    "AffineMatrix",
    "ParametricSystem",
    "from_first_order",
    "from_second_order",
    "frequency_point",
]

#: Conventional name of the Laplace variable among the parameters.
LAPLACE = "s"

_NOT_BUILT = object()


def frequency_point(f):
    """Sample point on the imaginary axis at frequency ``f`` in Hz: s = 2*pi*f*1j."""
    return {LAPLACE: 2j * np.pi * f}


def _dense_piece(matrix, name):
    if scipy.sparse.issparse(matrix):
        matrix = matrix.toarray()
    return linalg._as_complex_matrix(matrix, name)


def _sparse_piece(matrix, name):
    # CSR stays CSR: the transpose of a CSC piece is a CSR view, not a copy
    if matrix.format == "csr":
        matrix = scipy.sparse.csr_array(matrix)
    else:
        matrix = scipy.sparse.csc_array(matrix)
    matrix = matrix.astype(np.result_type(matrix.dtype, np.float64), copy=False)
    if not np.isfinite(matrix.data).all():
        raise ValueError(f"{name} contains non-finite entries")
    return matrix


class Monomial:
    """Scalar coefficient ``c * prod(p[name] ** exponent)``.

    Exponents are signed integers over parameter names, so rational terms
    like ``s**2 * d ** -1`` are single monomials. Evaluation raises
    MissingParameterError for absent names and ZeroToNegativePowerError
    when a negative power meets a zero value; a power beyond the float
    range gives an infinite coefficient.
    """

    __slots__ = ("coefficient", "exponents")

    def __init__(self, coefficient=1.0, exponents=None):
        self.coefficient = complex(coefficient)
        items = {}
        for name, power in (exponents or {}).items():
            if int(power) != power:
                raise ValueError(f"exponent of {name!r} must be an integer, got {power!r}")
            if int(power) != 0:
                items[str(name)] = int(power)
        self.exponents = dict(sorted(items.items()))

    def __call__(self, point):
        value = self.coefficient
        for name, power in self.exponents.items():
            if name not in point:
                raise MissingParameterError(f"sample point is missing parameter {name!r}")
            base = complex(point[name])
            if base == 0 and power < 0:
                raise ZeroToNegativePowerError(
                    f"parameter {name!r} is zero but appears with exponent {power}"
                )
            try:
                value *= base**power
            except OverflowError:
                # beyond the float range: an infinite coefficient, which the
                # LU's finiteness check reports as an unusable sample
                value *= complex(np.inf, np.inf)
        return value

    @property
    def is_constant(self):
        return not self.exponents

    def names(self):
        return tuple(sorted(self.exponents))

    def times(self, other):
        """Product with another monomial (coefficients multiply, exponents add)."""
        exponents = dict(self.exponents)
        for name, power in other.exponents.items():
            exponents[name] = exponents.get(name, 0) + power
        return Monomial(self.coefficient * other.coefficient, exponents)

    def scaled(self, factor):
        return Monomial(self.coefficient * factor, self.exponents)

    def diff(self, name):
        """Partial derivative with respect to one parameter, or None if absent."""
        power = self.exponents.get(name, 0)
        if power == 0:
            return None
        exponents = dict(self.exponents)
        exponents[name] = power - 1
        return Monomial(self.coefficient * power, exponents)

    def __repr__(self):
        factors = "".join(
            f"*{name}**{power}" if power != 1 else f"*{name}"
            for name, power in self.exponents.items()
        )
        return f"Monomial({self.coefficient!r}{factors})"

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.coefficient == other.coefficient
            and self.exponents == other.exponents
        )


class AffineMatrix:
    """Matrix family ``M(p) = base + sum_j h_j(p) * M_j`` with monomial h_j.

    Pieces are dense ndarrays (stored complex) or ``scipy.sparse`` matrices
    (stored CSC or CSR, keeping a real dtype real; only the coefficients
    are complex). A family is sparse when every piece given is sparse, and
    then ``assemble`` returns a ``linalg.SparseOperator``; a family with any
    dense piece stores every piece dense. The storage alone decides which
    LU kernel factors an assembled operator.

    Parameters
    ----------
    shape : tuple
        Matrix dimensions, fixed across all terms.
    base : ndarray, sparse matrix or None
        Constant part; None means zero.
    terms : sequence of (Monomial, ndarray or sparse matrix)
        Parameter-dependent terms. Constant monomials are allowed but the
        canonical constructors fold them into ``base``.
    """

    def __init__(self, shape, base=None, terms=()):
        self.shape = (int(shape[0]), int(shape[1]))
        terms = list(terms)
        given = [m for _, m in terms] + ([] if base is None else [base])
        self.is_sparse = bool(given) and all(scipy.sparse.issparse(m) for m in given)
        piece = _sparse_piece if self.is_sparse else _dense_piece
        if base is None:
            base = (
                scipy.sparse.csc_array(self.shape)
                if self.is_sparse
                else np.zeros(self.shape, dtype=np.complex128)
            )
        self.base = piece(base, "base term")
        if self.base.shape != self.shape:
            raise DimensionMismatchError(
                f"base term has shape {self.base.shape}, expected {self.shape}"
            )
        checked = []
        for monomial, matrix in terms:
            matrix = piece(matrix, "affine term")
            if matrix.shape != self.shape:
                raise DimensionMismatchError(
                    f"affine term has shape {matrix.shape}, expected {self.shape}"
                )
            checked.append((monomial, matrix))
        self.terms = tuple(checked)

    @classmethod
    def constant(cls, matrix):
        if not scipy.sparse.issparse(matrix):
            matrix = linalg._as_complex_matrix(matrix, "matrix")
        return cls(matrix.shape, base=matrix)

    def assemble(self, point):
        """Evaluate ``M(p)`` at a sample point (a SparseOperator for a sparse family)."""
        if self.is_sparse:
            out = self.base.astype(np.complex128)
            for monomial, matrix in self.terms:
                out = out + monomial(point) * matrix
            return linalg.SparseOperator(out)
        out = self.base.copy()
        for monomial, matrix in self.terms:
            out += monomial(point) * matrix
        return out

    def assemble_stack(self, coefficients):
        """A dense family at a stack of sample points, as one (m, rows, cols) array.

        ``coefficients[i, j]`` is term j's monomial at point i. Every sample
        is bitwise what ``assemble`` returns: the sums are formed in its order,
        except that the first term's product is written first and the base
        added to it, which saves one stack-sized temporary and changes no bit
        (floating-point addition commutes). Each sample is laid out
        Fortran-contiguous, as LAPACK reads it.
        """
        rows, cols = self.shape
        out = np.empty((len(coefficients), cols, rows), dtype=np.complex128).transpose(0, 2, 1)
        if not self.terms:
            out[...] = self.base
            return out
        linalg.scaled_stack(coefficients[:, 0], self.terms[0][1], out=out)
        out += self.base
        for j, (_, matrix) in enumerate(self.terms[1:], start=1):
            out += linalg.scaled_stack(coefficients[:, j], matrix)
        return out

    @property
    def has_base(self):
        """True when the constant part is nonzero."""
        if self.is_sparse:
            return bool(np.any(self.base.data))
        return bool(np.any(self.base))

    def densified(self):
        """The same family with dense pieces (this family itself if it is dense)."""
        return self.map_matrices(lambda m: m.toarray()) if self.is_sparse else self

    def parameter_names(self):
        names = set()
        for monomial, _ in self.terms:
            names.update(monomial.names())
        return tuple(sorted(names))

    def map_matrices(self, f):
        """Apply ``f`` to the base and every term matrix, keeping coefficients."""
        base = f(self.base)
        terms = [(monomial, f(matrix)) for monomial, matrix in self.terms]
        return AffineMatrix(base.shape, base=base, terms=terms)

    def transposed(self):
        """Termwise plain transpose (no conjugation), as views of this family's matrices."""
        return self.map_matrices(lambda m: m.T)

    def diff(self, name):
        """Termwise partial derivative with respect to one parameter."""
        terms = []
        for monomial, matrix in self.terms:
            d = monomial.diff(name)
            if d is not None:
                terms.append((d, matrix))
        return AffineMatrix(self.shape, base=None, terms=terms)

    def scaled_by(self, monomial):
        """Multiply the whole family by a monomial; base becomes a term."""
        terms = []
        if self.has_base:
            terms.append((monomial, self.base))
        for own, matrix in self.terms:
            terms.append((own.times(monomial), matrix))
        return AffineMatrix(self.shape, base=None, terms=terms)

    def plus(self, other, factor=1.0):
        """Termwise sum ``self + factor * other`` (no algebraic merging)."""
        if other.shape != self.shape:
            raise DimensionMismatchError(
                f"cannot add shapes {self.shape} and {other.shape}"
            )
        base = self.base + factor * other.base
        terms = list(self.terms)
        terms += [(monomial.scaled(factor), matrix) for monomial, matrix in other.terms]
        return AffineMatrix(self.shape, base=base, terms=terms)

    def monomial_pieces(self):
        """(monomial, matrix) pairs summing to the family at every point.

        The base comes first, with the constant monomial 1, when it is
        nonzero or the family has no terms (so there is always a piece);
        then every term.
        """
        if self.has_base or not self.terms:
            return [(Monomial(), self.base)] + list(self.terms)
        return list(self.terms)

    def pieces(self):
        """Constituent matrices: base (when nonzero) then every term matrix."""
        return [m for _, m in self.monomial_pieces() if m is not self.base or self.has_base]

    def __repr__(self):
        return f"AffineMatrix(shape={self.shape}, terms={len(self.terms)})"


class ParametricSystem:
    """Input/output system ``Q(p) x = B(p)``, ``y = C(p) x``.

    Attributes
    ----------
    Q, B, C : AffineMatrix
        Operator (n x n), input (n x n_inputs), output (n_outputs x n). The
        operator may be sparse; the thin input and output maps are stored
        dense.
    parameter_names : tuple of str
        Declared parameters; every coefficient must draw from these.
    """

    def __init__(self, Q, B, C, parameter_names=None, name="system"):
        if Q.shape[0] != Q.shape[1]:
            raise DimensionMismatchError(f"operator must be square, got {Q.shape}")
        n = Q.shape[0]
        if B.shape[0] != n:
            raise DimensionMismatchError(f"input map has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise DimensionMismatchError(f"output map has {C.shape[1]} columns, expected {n}")
        self.Q = Q
        self.B = B.densified()
        self.C = C.densified()
        self.name = name
        used = set(Q.parameter_names()) | set(B.parameter_names()) | set(C.parameter_names())
        if parameter_names is None:
            parameter_names = sorted(used)
        unknown = used - set(parameter_names)
        if unknown:
            raise UnknownParameterNameError(
                f"coefficients use undeclared parameters {sorted(unknown)}"
            )
        self.parameter_names = tuple(parameter_names)
        self._dual = None  # the transposed system, once built
        self._origin = None  # weak reference to the system this one is the dual of
        self._response = _NOT_BUILT  # the Schur-form frequency response, once looked for

    @property
    def order(self):
        return self.Q.shape[0]

    @property
    def n_inputs(self):
        return self.B.shape[1]

    @property
    def n_outputs(self):
        return self.C.shape[0]

    @property
    def is_parametric(self):
        """True when parameters beyond the Laplace variable are declared."""
        return any(name != LAPLACE for name in self.parameter_names)

    def dual(self):
        """Transposed system: operator Q^T, input C^T, output B^T.

        The dual of the dual is the original family, and reducing the dual
        system is exactly building a dual reduced model, so every dual-side
        computation reuses the primal code path. The dual is built once, from
        transposed views of this system's matrices: ``sys.dual() is
        sys.dual()`` and ``sys.dual().dual() is sys`` (systems are not
        modified after construction). It refers back to its origin weakly,
        so the pair forms no reference cycle.
        """
        origin = self._origin() if self._origin is not None else None
        if origin is not None:
            return origin
        if self._dual is None:
            self._dual = ParametricSystem(
                self.Q.transposed(),
                self.C.transposed(),
                self.B.transposed(),
                parameter_names=self.parameter_names,
                name=f"{self.name}:dual",
            )
            self._dual._origin = weakref.ref(self)
        return self._dual

    def _singular_at(self, point, exc):
        return SingularAtSampleError(
            f"operator of {self.name!r} is singular at {point!r}: {exc}", point
        )

    def _map_at(self, letter, point):
        """The input map ``B(p)`` (letter ``"B"``) or output map ``C(p)`` (``"C"``).

        A non-finite entry, from an overflowing coefficient say, makes the
        sample as unusable as a singular operator does: it raises
        SingularAtSampleError naming the point.
        """
        value = getattr(self, letter).assemble(point)
        if not np.isfinite(value).all():
            role = "input" if letter == "B" else "output"
            raise SingularAtSampleError(
                f"{role} map of {self.name!r} has non-finite entries at {point!r}", point
            )
        return value

    def operator_lu(self, point):
        """LU of ``Q(p)``, raising SingularAtSampleError on rank loss."""
        try:
            return linalg.lu_factor(self.Q.assemble(point))
        except SingularMatrixError as exc:
            raise self._singular_at(point, exc) from exc

    def solve_primal(self, point, lu=None):
        """Full-order state block ``x = Q(p)^{-1} B(p)`` (n x n_inputs)."""
        lu = lu or self.operator_lu(point)
        return lu.solve(self._map_at("B", point))

    def solve_dual(self, point, lu=None):
        """Full-order dual block ``x_du = Q(p)^{-T} C(p)^T`` (n x n_outputs)."""
        lu = lu or self.operator_lu(point)
        return lu.transposed().solve(self._map_at("C", point).T)

    def transfer_function(self, point):
        """Transfer matrix ``H(p) = C(p) Q(p)^{-1} B(p)`` (n_outputs x n_inputs).

        A dense frequency-only family ``Q(s) = A0 + c*s*I`` is solved from one
        Schur form of ``A0``, built at the first call and kept: O(n^2) per
        point after one O(n^3) reduction (see ``_SchurResponse``). Every other
        family factors ``Q(p)`` at each point. Both raise SingularAtSampleError
        by the same singularity rule, and where ``B(p)`` or ``C(p)`` is not
        finite.
        """
        if self._response is _NOT_BUILT:
            self._response = _SchurResponse.of(self)
        if self._response is None:
            return self._map_at("C", point) @ self.solve_primal(point)
        try:
            return self._response(self, point)
        except SingularMatrixError as exc:
            raise self._singular_at(point, exc) from exc


class _SchurResponse:
    """``H(s) = C(s) (A0 + c*s*I)^{-1} B(s)`` from one Schur form ``A0 = Z T Z^H``.

    Serves a system whose operator is dense, depends on the Laplace variable
    alone and has exactly two pieces: a base ``A0`` and one term ``c*s``
    times the identity (a first-order realization with ``E = I``). Each point
    then costs one triangular solve with ``T + c*s*I``. Constant input and
    output maps are kept projected, as the thin ``Z^H B`` and ``C Z``.
    """

    def __init__(self, sys, shift):
        self.shift = shift
        self.schur = linalg.ShiftedSchur(sys.Q.base)
        z = self.schur.Z
        self.ZhB = None if sys.B.terms else z.conj().T @ sys.B.base
        self.CZ = None if sys.C.terms else sys.C.base @ z

    @classmethod
    def of(cls, sys):
        """The response of ``sys``, or None when its operator has another form."""
        Q = sys.Q
        if Q.is_sparse or sys.parameter_names != (LAPLACE,) or len(Q.terms) != 1:
            return None
        shift, matrix = Q.terms[0]
        identity = np.array_equal(matrix, np.eye(sys.order))
        if Q.has_base and shift.exponents == {LAPLACE: 1} and identity:
            return cls(sys, shift)
        return None

    def __call__(self, sys, point):
        # the system comes in per call, not held, so the cached response
        # forms no reference cycle with the system that caches it
        z = self.schur.Z
        zhb = self.ZhB if self.ZhB is not None else z.conj().T @ sys._map_at("B", point)
        y = self.schur.solve(self.shift(point), zhb)
        cz = self.CZ if self.CZ is not None else sys._map_at("C", point) @ z
        return cz @ y


def _family(matrix):
    return matrix if isinstance(matrix, AffineMatrix) else AffineMatrix.constant(matrix)


def _with_laplace(Q, B, C, parameter_names, name):
    """``Q x = B u``, ``y = C x``; parameters default to the ones used, plus ``s``."""
    B, C = _family(B), _family(C)
    if parameter_names is None:
        used = set(Q.parameter_names()) | set(B.parameter_names()) | set(C.parameter_names())
        parameter_names = sorted(used | {LAPLACE})
    return ParametricSystem(Q, B, C, parameter_names=parameter_names, name=name)


def from_first_order(E, A, B, C, parameter_names=None, name="system"):
    """System from a first-order realization ``(s E(p) - A(p)) x = B(p) u``.

    E and A may be ndarrays or sparse matrices (constant) or AffineMatrix
    families; the operator becomes ``Q = s * E - A`` with the Laplace factor
    folded into the coefficients.
    """
    s = Monomial(1.0, {LAPLACE: 1})
    Q = _family(E).scaled_by(s).plus(_family(A), factor=-1.0)
    return _with_laplace(Q, B, C, parameter_names, name)


def from_second_order(M, D, T, B, C, parameter_names=None, name="system"):
    """System from a second-order form ``(s^2 M + s D + T) x = B u``.

    The operator keeps second-order structure (no companion linearization);
    M, D, T may themselves be affine in further parameters.
    """
    s = Monomial(1.0, {LAPLACE: 1})
    s2 = Monomial(1.0, {LAPLACE: 2})
    Q = _family(T).plus(_family(D).scaled_by(s)).plus(_family(M).scaled_by(s2))
    return _with_laplace(Q, B, C, parameter_names, name)
