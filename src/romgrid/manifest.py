"""System manifests: JSON descriptions referencing Matrix Market files.

A manifest declares the form (``affine-q``, ``first-order`` or
``second-order``), dimensions, parameter names, and a list of matrix
entries. Each entry names a role, a Matrix Market file, and optionally a
monomial coefficient (scalar factor plus integer exponents over the
declared parameters). Several entries may share a role; they accumulate
into one affine family, so e.g. a mass matrix ``M_1 + d*M_2`` is two
``M`` entries. The Laplace variable ``s`` is always available.
Coordinate-format files load as sparse matrices and array-format files
as dense ones, so a family read from coordinate files alone stays sparse.

Example::

    {
      "name": "ladder",
      "form": "first-order",
      "n": 100, "n_inputs": 1, "n_outputs": 1,
      "parameters": [],
      "matrices": [
        {"role": "E", "file": "C.mtx"},
        {"role": "A", "file": "A.mtx"},
        {"role": "B", "file": "B.mtx"},
        {"role": "C", "file": "Cout.mtx"}
      ]
    }
"""

import json
import pathlib

import numpy as np
import scipy.io
import scipy.sparse

from .errors import DimensionMismatchError, ManifestError, UnknownParameterNameError
from .system import (
    LAPLACE,
    AffineMatrix,
    Monomial,
    ParametricSystem,
    from_first_order,
    from_second_order,
)

__all__ = ["load_system", "save_system", "read_matrix", "write_matrix"]

#: Each form's constructor and its roles, in the constructor's argument order.
_FORMS = {
    "affine-q": (ParametricSystem, ("Q", "B", "C")),
    "first-order": (from_first_order, ("E", "A", "B", "C")),
    "second-order": (from_second_order, ("M", "D", "T", "B", "C")),
}


def read_matrix(path):
    """Read a Matrix Market file, symmetric storage expanded.

    Coordinate data comes back as a sparse CSC array (real stays real),
    array data as a dense complex ndarray.
    """
    try:
        matrix = scipy.io.mmread(str(path))
    except (OSError, ValueError) as exc:
        raise ManifestError(f"cannot read matrix file {path}: {exc}") from exc
    if scipy.sparse.issparse(matrix):
        return scipy.sparse.csc_array(matrix)
    return np.asarray(matrix, dtype=np.complex128)


def write_matrix(path, matrix):
    """Write a dense or sparse matrix as Matrix Market coordinate data (real when possible)."""
    if scipy.sparse.issparse(matrix):
        # entries in row-major order, the order written for dense data
        matrix = scipy.sparse.csr_matrix(matrix).tocoo()
        if np.iscomplexobj(matrix.data) and not np.any(matrix.data.imag):
            matrix = matrix.real
    else:
        matrix = np.asarray(matrix)
        if np.iscomplexobj(matrix) and not np.any(matrix.imag):
            matrix = matrix.real
        matrix = scipy.sparse.coo_matrix(matrix)
    scipy.io.mmwrite(str(path), matrix, precision=17, symmetry=_symmetry(matrix))


def _symmetry(matrix):
    """The Matrix Market symmetry ``scipy.io.mmwrite`` would pick for ``matrix`` itself.

    scipy looks for symmetry only in square matrices under 100 rows, and
    there walks the entries one by one in Python, which on a complex
    symmetric reduced operator never stops early. The same precedence is
    decided here by whole-array comparisons: symmetric, skew-symmetric,
    hermitian, general. One difference: scipy's walk does not test the first
    nonzero diagonal entry it meets for being real while the matrix may still
    be skew-symmetric, so it calls some matrices with a non-real diagonal
    hermitian; here they are general, as the format defines.
    """
    rows, cols = matrix.shape
    if rows != cols or rows >= 100:
        return "general"
    dense = matrix.toarray()
    for symmetry, mirror in (
        ("symmetric", dense.T),
        ("skew-symmetric", -dense.T),
        ("hermitian", dense.conj().T),
    ):
        if np.array_equal(dense, mirror):
            return symmetry
    return "general"


def _entry_monomial(entry, declared, path):
    coefficient = entry.get("coefficient", 1.0)
    if isinstance(coefficient, (list, tuple)):
        if len(coefficient) != 2:
            raise ManifestError(
                f"{path}: coefficient must be a number or [re, im], got {coefficient!r}"
            )
        coefficient = complex(coefficient[0], coefficient[1])
    exponents = entry.get("exponents", {})
    if not isinstance(exponents, dict):
        raise ManifestError(f"{path}: exponents must be a mapping, got {exponents!r}")
    unknown = set(exponents) - declared
    if unknown:
        raise UnknownParameterNameError(
            f"{path}: exponents use undeclared parameters {sorted(unknown)}"
        )
    return Monomial(coefficient, exponents)


def _build_family(entries, shape, declared, directory, path):
    base = None
    terms = []
    for entry in entries:
        matrix = read_matrix(directory / entry["file"])
        if matrix.shape != shape:
            raise DimensionMismatchError(
                f"{path}: {entry['file']} has shape {matrix.shape}, expected {shape}"
            )
        monomial = _entry_monomial(entry, declared, path)
        if monomial.is_constant:
            # a real coefficient keeps real (sparse) data real
            c = monomial.coefficient
            part = (c.real if c.imag == 0 else c) * matrix
            base = part if base is None else base + part
        else:
            terms.append((monomial, matrix))
    return AffineMatrix(shape, base=base, terms=terms)


def load_system(manifest_path):
    """Build a ParametricSystem from a manifest file."""
    path = pathlib.Path(manifest_path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc

    form = doc.get("form", "affine-q")
    if form not in _FORMS:
        raise ManifestError(f"{path}: unknown form {form!r}, expected one of {sorted(_FORMS)}")
    try:
        n = int(doc["n"])
        n_inputs = int(doc.get("n_inputs", 1))
        n_outputs = int(doc.get("n_outputs", 1))
        entries = doc["matrices"]
    except KeyError as exc:
        raise ManifestError(f"{path}: missing required field {exc}") from exc

    declared = {p["name"] if isinstance(p, dict) else str(p) for p in doc.get("parameters", [])}
    declared.add(LAPLACE)

    constructor, roles = _FORMS[form]
    by_role = {}
    for entry in entries:
        role = entry.get("role")
        if role not in roles:
            raise ManifestError(
                f"{path}: role {role!r} not allowed for form {form!r} (allowed: {sorted(roles)})"
            )
        by_role.setdefault(role, []).append(entry)
    missing = [role for role in roles if role not in by_role]
    if missing:
        raise ManifestError(f"{path}: form {form!r} misses roles {missing}")

    shapes = {"B": (n, n_inputs), "C": (n_outputs, n)}
    families = [
        _build_family(by_role[role], shapes.get(role, (n, n)), declared, path.parent, path)
        for role in roles
    ]
    return constructor(*families, parameter_names=sorted(declared), name=doc.get("name", path.stem))


def _family_entries(role, family, directory, stem):
    entries = []
    if family.has_base:
        filename = f"{stem}_base.mtx"
        write_matrix(directory / filename, family.base)
        entries.append({"role": role, "file": filename})
    for index, (monomial, matrix) in enumerate(family.terms):
        filename = f"{stem}_term{index}.mtx"
        write_matrix(directory / filename, matrix)
        entries.append(
            {
                "role": role,
                "file": filename,
                "coefficient": [monomial.coefficient.real, monomial.coefficient.imag],
                "exponents": dict(monomial.exponents),
            }
        )
    return entries


def save_system(sys, directory, name=None):
    """Write a system as an affine-Q manifest plus Matrix Market files.

    Returns the manifest path. Whatever form the system was built from,
    the saved description lists the operator family's terms directly, so
    a load round trip reproduces the assembled matrices.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = name or sys.name
    entries = []
    entries += _family_entries("Q", sys.Q, directory, "Q")
    entries += _family_entries("B", sys.B, directory, "B")
    entries += _family_entries("C", sys.C, directory, "C")
    doc = {
        "name": name,
        "form": "affine-q",
        "n": sys.order,
        "n_inputs": sys.n_inputs,
        "n_outputs": sys.n_outputs,
        "parameters": [{"name": p} for p in sys.parameter_names if p != LAPLACE],
        "matrices": entries,
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(doc, indent=2) + "\n")
    return manifest_path
