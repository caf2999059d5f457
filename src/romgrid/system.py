"""Parametric system model.

A system is a triple of affine matrix families ``Q(p) x = B(p) u``,
``y = C(p) x`` whose coefficients are monomials in named scalar parameters.
The Laplace variable is an ordinary parameter named ``"s"``, so frequency
sweeps pass sample points like ``{"s": 2j*pi*f}`` and parametric systems
simply add more names.

A point is a stack of one. A family assembles by one path per storage: a
dense family's ``assemble`` is the one-point ``assemble_stack``, a sparse
family's is one row of its union pattern's ``entries``. The stacked calls,
``transfer_function`` here and ``evaluate`` and ``true_error`` in
``estimators``, take one point or a sequence through one adapter,
``_point_or_stack``: one pass, whose per-point errors a one-point call
raises and a sequence turns into None.
"""

import weakref
from collections.abc import Mapping
from functools import cached_property

import numpy as np
import scipy.sparse

from . import linalg
from .errors import (
    DimensionMismatchError,
    MissingParameterError,
    RomgridError,
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


class _UnionPattern:
    """The pieces of a sparse family on one canonical CSC pattern, the union of theirs.

    Keeps, per piece, its stored values in CSC order (the piece's own array,
    or a converted copy for a CSR piece such as the transposed views of a
    dual family) and their positions in the pattern, or None when the piece
    fills the whole pattern, as the pieces of a banded family usually do.
    Every point is assembled on this one pattern. ``entries`` forms, at a
    stack of points, the entries scipy's sparse add stores when run over the
    pieces in order, bit for bit: every term adds ``c_j * values_j`` on its
    own positions and ``+0`` elsewhere, and an entry that comes out exactly
    zero is reset to ``+0``, as scipy drops it after each add. Such a
    cancelled entry stays in the pattern as a stored ``+0``, where scipy
    stores nothing. Without terms the base comes back with its explicit
    zeros, as ``astype`` keeps them.
    """

    def __init__(self, pieces, shape):
        rows, cols = shape
        pieces = [_summed(scipy.sparse.csc_array(piece)) for piece in pieces]
        # column * rows + row of every stored entry, in CSC order
        keys = [np.repeat(np.arange(cols) * rows, np.diff(p.indptr)) + p.indices for p in pieces]
        merged = np.sort(np.concatenate(keys), kind="stable")
        first = np.ones(merged.size, dtype=bool)
        np.not_equal(merged[1:], merged[:-1], out=first[1:])
        union = merged[first]
        index_dtype = np.int32 if max(union.size, rows, cols) < 2**31 else np.int64
        self.shape = shape
        self.indices = (union % rows).astype(index_dtype)
        self.indptr = _pointers(np.bincount(union // rows, minlength=cols), index_dtype)
        for shared in (self.indices, self.indptr):
            shared.flags.writeable = False
        # (positions in the pattern, or None for all of them in order; values)
        self.pieces = [
            (None if np.array_equal(key, union) else np.searchsorted(union, key), piece.data)
            for piece, key in zip(pieces, keys)
        ]

    def entries(self, coefficients):
        """The stored entries at a stack of points, one row per point.

        ``coefficients[i, j]`` is term j's coefficient at point i. Every row
        is formed by the same operations in the same order, so it holds that
        point's entries to the bit whatever the points stacked with it, an
        exactly cancelled entry as ``+0``. An infinite coefficient times a
        stored zero is NaN, as in scipy's product; the singularity rule
        rejects such a point, so the products and sums are formed without
        floating-point warnings. The values get an explicit unit point axis
        before they are broadcast, as in ``linalg.scaled_stack``: a lone
        entry against a lone point would take numpy's one-element product,
        which rounds otherwise.
        """
        (at, values), *terms = self.pieces
        m = len(coefficients)
        out = self._spread(at, values, m)
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (at, values) in enumerate(terms):
                added = values[None] * coefficients[:, j, None]
                out += added if at is None else self._spread(at, added, m)
                out[out == 0] = 0.0
        return out

    @cached_property
    def band(self):
        """The pattern's ``linalg.BandLayout`` where ``lu_factor`` takes the band LU, else None."""
        return linalg.band_layout(self.indices, self.indptr)

    def _spread(self, at, values, m):
        """A new (m, entries) complex stack over the pattern: ``values`` at positions
        ``at`` (None: all, in order), zero elsewhere."""
        out = np.zeros((m, self.indices.size), dtype=np.complex128)
        out[:, slice(None) if at is None else at] = values
        return out


def _pointers(counts, dtype):
    """CSC column pointers from the number of entries in each column."""
    pointers = np.zeros(len(counts) + 1, dtype=dtype)
    np.cumsum(counts, out=pointers[1:])
    return pointers


def _summed(piece):
    """The piece without duplicate entries: itself when canonical, else a summed copy."""
    if piece.has_canonical_format:
        return piece
    piece = piece.copy()
    piece.sum_duplicates()
    return piece


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
    dense piece stores every piece dense. The storage and the assembled
    pattern alone decide which LU kernel factors an assembled operator.

    A sparse family assembles on the union of its pieces' patterns, formed
    as canonical CSC at the first ``assemble`` together with the position of
    every piece's entries in it (``_UnionPattern``), so each later assembly
    is a few vector operations over the stored entries. Every point has
    that one pattern: each entry scipy's sparse sums store is stored bit
    for bit, and an entry that cancels exactly stays as a stored ``+0``.
    Families are not modified after construction, so the pattern and the
    derivative families ``diff`` builds are kept.

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
        self._derivatives = {}  # parameter name -> derivative family

    @classmethod
    def constant(cls, matrix):
        if not scipy.sparse.issparse(matrix):
            matrix = linalg._as_complex_matrix(matrix, "matrix")
        return cls(matrix.shape, base=matrix)

    def assemble(self, point):
        """Evaluate ``M(p)`` at a sample point, as a stack of one: the one-point
        ``assemble_stack``, or for a sparse family a SparseOperator on one row
        of its union pattern's ``entries``."""
        coefficients = self.coefficients([point])
        if not self.is_sparse:
            return self.assemble_stack(coefficients)[0]
        pattern = self.pattern
        entries = pattern.entries(coefficients)[0]
        return linalg.SparseOperator((entries, pattern.indices, pattern.indptr), shape=self.shape)

    @np.errstate(over="ignore", invalid="ignore")
    def assemble_stack(self, coefficients):
        """A dense family at a stack of sample points, as one (m, rows, cols) array.

        ``coefficients[i, j]`` is term j's monomial at point i; ``assemble``
        is the one-point stack. The first term's product is written first,
        then the base and every other term's product are added in order;
        each sample is that sum, whatever the points stacked with it. An
        infinite coefficient gives infinities and NaNs, formed without
        floating-point warnings: the finiteness and singularity rules report
        such a point. Each sample is laid out Fortran-contiguous, as LAPACK
        reads it.
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

    @cached_property
    def pattern(self):
        """A sparse family's ``_UnionPattern``, built at its first use and kept."""
        return _UnionPattern([self.base] + [matrix for _, matrix in self.terms], self.shape)

    def coefficients(self, points):
        """Every term's monomial at every point, as an (m, terms) complex array."""
        return np.array(
            [[monomial(point) for monomial, _ in self.terms] for point in points],
            dtype=np.complex128,
        ).reshape(len(points), len(self.terms))

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
        """Termwise partial derivative with respect to one parameter, built once per name."""
        if name not in self._derivatives:
            terms = []
            for monomial, matrix in self.terms:
                d = monomial.diff(name)
                if d is not None:
                    terms.append((d, matrix))
            # a sparse family's derivative stays sparse when no term depends on ``name``
            base = scipy.sparse.csc_array(self.shape) if self.is_sparse else None
            self._derivatives[name] = AffineMatrix(self.shape, base=base, terms=terms)
        return self._derivatives[name]

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
        """The SingularAtSampleError naming ``point`` for ``exc`` (``exc`` itself if it is one)."""
        if isinstance(exc, SingularAtSampleError):
            return exc
        error = SingularAtSampleError(
            f"operator of {self.name!r} is singular at {point!r}: {exc}", point
        )
        error.__cause__ = exc
        return error

    def _finite(self, point, value, what):
        """``value``, or SingularAtSampleError naming ``point`` when an entry is not finite.

        The one finiteness rule of full-order solutions: a non-finite input
        or output map (an overflowing coefficient, say), moment level or
        ``H`` makes the sample as unusable as a singular operator does.
        """
        if not np.isfinite(value).all():
            raise SingularAtSampleError(
                f"{what} of {self.name!r} has non-finite entries at {point!r}", point
            )
        return value

    def _map_at(self, letter, point):
        """The input map ``B(p)`` (letter ``"B"``) or output map ``C(p)`` (``"C"``), if finite."""
        role = "input" if letter == "B" else "output"
        return self._finite(point, getattr(self, letter).assemble(point), f"{role} map")

    def _maps(self, letter, points):
        """``_map_at`` at each point: the map, or the SingularAtSampleError it raises.

        A constant map is assembled once and shared; its pieces were checked
        finite when its family was built.
        """
        if getattr(self, letter).terms:
            return [_outcome(self._map_at, letter, point) for point in points]
        return [self._map_at(letter, {})] * len(points)

    def operator_lu(self, point):
        """LU of ``Q(p)``, raising SingularAtSampleError on rank loss."""
        try:
            return linalg.lu_factor(self.Q.assemble(point))
        except SingularMatrixError as exc:
            raise self._singular_at(point, exc) from exc

    def solve_primal(self, point, lu=None):
        """Full-order state block ``x = Q(p)^{-1} B(p)`` (n x n_inputs), checked finite."""
        lu = lu or self.operator_lu(point)
        return self._finite(point, lu.solve(self._map_at("B", point)), "state")

    def transfer_function(self, point):
        """Transfer matrix ``H(p) = C(p) Q(p)^{-1} B(p)`` (n_outputs x n_inputs).

        Given one point (a mapping), returns ``H(p)``, or raises the
        SingularAtSampleError naming the point of the first of: ``B(p)`` is
        not finite, ``Q(p)`` is singular by the rule of ``linalg.lu_factor``,
        ``C(p)`` is not finite, ``H(p)`` is not finite (a solve that
        overflows). A point whose ``B(p)`` fails is not factored. Given a
        sequence of points, returns a list aligned with it, None where a
        point would raise: a point is a stack of one (``_point_or_stack``).
        Both run one loop over passes of at most ``linalg._CHUNK_BYTES`` of
        stacked entries, which assembles the maps and applies those rules;
        the operator's structure picks, once, the kernel that solves with
        ``Q(p)``:

        * a dense frequency-only family ``Q(s) = A0 + c*s*I``: one Schur
          form of ``A0``, built once and kept, then one triangular solve per
          point (``_SchurKernel``);
        * a sparse family whose union pattern is banded (``lu_factor``'s
          band rule): the entries of every point formed at once on the
          pattern, then one band LU per point (``linalg.band_lu_stack``);
        * any other family: ``operator_lu`` at each point.

        Constant input and output maps are assembled once per pass. Each
        point sees the operations of a one-point call in the same order, so
        its ``H`` does not depend on the points stacked with it, to the bit.
        """
        return _point_or_stack(point, self._responses)

    def _responses(self, points):
        """``transfer_function`` over a sequence: per point ``H``, or its SingularAtSampleError."""
        kernel = self._kernel
        step = max(1, linalg._CHUNK_BYTES // kernel.sample_bytes)
        out = []
        for start in range(0, len(points), step):
            chunk = points[start : start + step]
            responses = self._maps("B", chunk)
            ok = [i for i, b in enumerate(responses) if not isinstance(b, SingularAtSampleError)]
            rhs = [kernel.into(responses[i]) for i in ok]
            states = kernel.solve(self, [chunk[i] for i in ok], rhs)
            outputs = self._maps("C", chunk)
            for i, x in zip(ok, states):
                if isinstance(x, SingularMatrixError):
                    responses[i] = self._singular_at(chunk[i], x)
                elif isinstance(outputs[i], SingularAtSampleError):
                    responses[i] = outputs[i]
                else:
                    with np.errstate(over="ignore", invalid="ignore"):  # checked next
                        H = kernel.out_of(outputs[i]) @ x
                    responses[i] = _outcome(self._finite, chunk[i], H, "transfer function")
            out += responses
        return out

    @cached_property
    def _kernel(self):
        """The kernel that solves with ``Q(p)`` in ``transfer_function``, picked once."""
        return _SchurKernel.of(self) or _LUKernel(self)


def _outcome(f, *args):
    """``f(*args)``, or the SingularMatrixError (at a sample, full or reduced) it raises."""
    try:
        return f(*args)
    except SingularMatrixError as exc:
        return exc


def _point_or_stack(point, stacked):
    """A one-point call or a stacked one, through the same pass.

    ``stacked(points)`` takes a list of points and returns, for each, its
    value or the RomgridError a one-point call raises there. Given one point
    (a mapping), it runs as a stack of one: its value comes back, or its
    error is raised. Given a sequence, the list of values comes back, None
    where a point failed.
    """
    if isinstance(point, Mapping):
        (out,) = stacked([point])
        if isinstance(out, RomgridError):
            raise out
        return out
    return [None if isinstance(out, RomgridError) else out for out in stacked(list(point))]


class _LUKernel:
    """Solves with an LU of ``Q(p)`` at each point, on the maps as they are.

    When the operator's union pattern is banded, the entries of a whole
    stack are formed at once and factored in one band pass
    (``linalg.band_lu_stack``), and a point stacks its entries and band
    factors; otherwise ``operator_lu`` factors each point and a pass takes
    one point.
    """

    def __init__(self, sys):
        self.band = sys.Q.pattern.band if sys.Q.is_sparse and sys.order else None
        self.sample_bytes = linalg._CHUNK_BYTES  # one point per pass
        if self.band is not None:  # a point's entries and band factors
            _, n, kl, ku = self.band
            self.sample_bytes = 16 * (sys.Q.pattern.indices.size + (2 * kl + ku + 1) * n)

    @staticmethod
    def into(matrix):
        return matrix

    out_of = into

    def solve(self, sys, points, rhs):
        """``Q(p)^{-1} b`` at each point, or the SingularMatrixError of its LU."""
        if self.band is None:
            lus = [_outcome(sys.operator_lu, point) for point in points]
        else:
            entries = sys.Q.pattern.entries(sys.Q.coefficients(points))
            lus = linalg.band_lu_stack(entries, self.band)
        return [x if isinstance(x, SingularMatrixError) else x.solve(b) for x, b in zip(lus, rhs)]


class _SchurKernel:
    """Solves with ``Q(s) = A0 + c*s*I`` from one Schur form ``A0 = Z T Z^H``.

    Serves a system whose operator is dense, depends on the Laplace variable
    alone and has exactly two pieces: a base ``A0`` and one term ``c*s``
    times the identity (a first-order realization with ``E = I``; Laub
    1981). It works in Schur coordinates: ``into`` takes an input map to
    ``Z^H B`` and ``out_of`` an output map to ``C Z``, both kept for
    constant maps; ``solve`` evaluates the shifts ``c*s`` and the
    singularity rule for the whole stack at once, then costs one triangular
    solve with ``T + c*s*I`` per point. The system comes in per call, not
    held, so the kernel forms no reference cycle with the system that
    caches it. ``form``, a stored ``(T, Z)`` of ``A0`` (``schur.form()``
    hands one out for writing), goes to ``linalg.ShiftedSchur``, which uses
    it only where it passes that class's check and builds the form otherwise.
    """

    def __init__(self, sys, shift, form=None):
        self.shift = shift
        self.schur = linalg.ShiftedSchur(sys.Q.base, form)
        self.sample_bytes = 16 * sys.order
        z = self.schur.Z
        self.ZhB = None if sys.B.terms else z.conj().T @ sys.B.base
        self.CZ = None if sys.C.terms else sys.C.base @ z

    @classmethod
    def of(cls, sys, form=None):
        """The kernel of ``sys``, or None when its operator has another form."""
        Q = sys.Q
        if Q.is_sparse or sys.parameter_names != (LAPLACE,) or len(Q.terms) != 1:
            return None
        shift, matrix = Q.terms[0]
        identity = np.array_equal(matrix, np.eye(sys.order))
        if Q.has_base and shift.exponents == {LAPLACE: 1} and identity:
            return cls(sys, shift, form)
        return None

    def into(self, b):
        return self.schur.Z.conj().T @ b if self.ZhB is None else self.ZhB

    def out_of(self, c):
        return c @ self.schur.Z if self.CZ is None else self.CZ

    def solve(self, sys, points, rhs):
        """``(T + c*s*I)^{-1} rhs`` at each point, or the SingularMatrixError of its shift."""
        shifts = np.array([self.shift(point) for point in points], dtype=np.complex128)
        return self.schur.solve(shifts, rhs)


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
