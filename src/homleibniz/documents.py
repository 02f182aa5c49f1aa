"""JSON document formats for algebras, morphisms, representations and
deformations.

Rationals travel as canonical strings ("3/2", "-1") and serialization is
deterministic (sorted keys, fixed separators), so parse -> serialize ->
parse is the identity and documents diff cleanly.  Brackets, deformation
coefficients and representation actions are sparse tensors keyed by
comma-joined labels, all read and written by one codec that takes a label
set per key slot: a bracket or coefficient passes the basis n times, an
action the algebra basis n-1 times and then the module basis, and every
error names the tensor and the key.  A morphism document carries its
source and target either inline or as a path relative to the document.
Deformation coefficient lists may give order 0 as "inherit" to copy the
base bracket (or the base morphism matrix).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

try:  # CPython's built-in SHA-256; hashlib would load OpenSSL for this one use
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .algebra import HomNaryAlgebra, Morphism, Representation
from .linalg import Matrix


class DocumentError(Exception):
    """Malformed or inconsistent input document; maps to CLI exit code 2."""


# The extension solve's right-hand side F_l is keyed by the (2n-1)-tuples of
# basis elements, which index the degree-3 cochains; the solve builds only the
# nonzero rows of d^2 and the support of F_l, but both can reach that many
# cells, so an arity whose dim^(2n-1) tuples hold more than this is refused.
MAX_IDENTITY_CELLS = 1 << 26


# ---------------------------------------------------------------------------
# rationals and matrices


def parse_rational(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise DocumentError(f"rational must be a string like '3/2', got {s!r}")
    if "e" in s.lower():
        # Fraction would expand an exponent into an integer of that many digits
        raise DocumentError(f"cannot parse rational {s!r}: use an integer, p/q or a plain decimal")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"cannot parse rational {s!r}: {exc}") from None


def format_rational(q: Fraction) -> str:
    return str(Fraction(q))


def parse_matrix(obj, rows, cols, what) -> Matrix:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise DocumentError(f"{what} must be a list of rows")
    if not obj:
        raise DocumentError(f"{what} is empty")
    width = len(obj[0])
    if any(len(r) != width for r in obj):
        raise DocumentError(f"{what} rows have unequal lengths")
    if len(obj) != rows:
        raise DocumentError(f"{what} must have {rows} rows, has {len(obj)}")
    if width != cols:
        raise DocumentError(f"{what} must have {cols} columns, has {width}")
    return Matrix(len(obj), width, [[parse_rational(x) for x in r] for r in obj])


def serialize_matrix(m: Matrix):
    return [[format_rational(x) for x in row] for row in m.entries]


# ---------------------------------------------------------------------------
# label handling


def _label_index(labels):
    idx = {lab: i for i, lab in enumerate(labels)}
    if len(idx) != len(labels):
        raise DocumentError("basis labels are not distinct")
    return idx


def _parse_key(key, slots, what):
    """The index tuple of a comma-joined key; slots holds one label index per key slot."""
    parts = key.split(",")
    if len(parts) != len(slots):
        raise DocumentError(f"{what} key {key!r} must join {len(slots)} labels")
    out = []
    for k, (p, index) in enumerate(zip(parts, slots)):
        if p not in index:
            raise DocumentError(f"unknown label {p!r} at slot {k} of {what} key {key!r}")
        out.append(index[p])
    return tuple(out)


def _parse_entry(obj, index, what, key):
    if not isinstance(obj, dict):
        raise DocumentError(f"{what} entry {key!r} must be an object of label -> rational")
    entry = {}
    for lab, val in obj.items():
        if lab not in index:
            raise DocumentError(f"unknown output label {lab!r} in {what} entry {key!r}")
        q = parse_rational(val)
        if q:
            entry[index[lab]] = q
    return entry


def _parse_sparse_tensor(obj, slots, out_index, what):
    """{index tuple: {output index: Fraction}} of a tensor object whose keys
    join one label of each slots[k] and whose outputs are labels of out_index."""
    if not isinstance(obj, dict):
        raise DocumentError(f"{what} must be an object keyed by comma-joined labels")
    tensor = {}
    for key, val in obj.items():
        idx = _parse_key(key, slots, what)
        entry = _parse_entry(val, out_index, what, key)
        if entry:
            tensor[idx] = entry
    return tensor


def _serialize_sparse_tensor(tensor, slots, out_labels):
    """The tensor object of a normalised tensor; slots holds one label list per key slot."""
    out = {}
    for key in sorted(tensor):
        entry = tensor[key]
        k = ",".join(labels[i] for labels, i in zip(slots, key))
        out[k] = {out_labels[i]: format_rational(entry[i]) for i in sorted(entry)}
    return out


def _require(obj, field, what):
    if not isinstance(obj, dict):
        raise DocumentError(f"{what} document must be a JSON object")
    if field not in obj:
        raise DocumentError(f"{what} document is missing {field!r}")
    return obj[field]


# ---------------------------------------------------------------------------
# algebra documents


def parse_algebra(obj) -> HomNaryAlgebra:
    arity = _require(obj, "arity", "algebra")
    basis = _require(obj, "basis", "algebra")
    if not isinstance(arity, int) or isinstance(arity, bool):
        raise DocumentError("arity must be an integer")
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise DocumentError("basis must be a list of string labels")
    index = _label_index(basis)
    dim = len(basis)
    width = 2 * arity - 1
    if arity > 1 and width * dim ** min(width, 64) > MAX_IDENTITY_CELLS:
        raise DocumentError(
            f"arity {arity} is too large for {dim} basis elements: the degree-3 cochains "
            f"of the extension solve range over {dim}^{width} tuples"
        )
    alpha = parse_matrix(_require(obj, "alpha", "algebra"), dim, dim, "alpha")
    bracket = _parse_sparse_tensor(_require(obj, "bracket", "algebra"), [index] * arity, index, "bracket")
    try:
        return HomNaryAlgebra(arity, dim, tuple(basis), bracket, alpha)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def serialize_algebra(a: HomNaryAlgebra):
    return {
        "arity": a.arity,
        "basis": list(a.basis),
        "alpha": serialize_matrix(a.alpha),
        "bracket": _serialize_sparse_tensor(a.bracket, [a.basis] * a.arity, a.basis),
    }


# ---------------------------------------------------------------------------
# morphism documents


def _resolve_algebra(obj, base_dir):
    if isinstance(obj, str):
        path = obj if os.path.isabs(obj) else os.path.join(base_dir or ".", obj)
        return parse_algebra(load_json(path))
    return parse_algebra(obj)


def parse_morphism(obj, base_dir=None) -> Morphism:
    src = _resolve_algebra(_require(obj, "source", "morphism"), base_dir)
    tgt = _resolve_algebra(_require(obj, "target", "morphism"), base_dir)
    mat = parse_matrix(_require(obj, "matrix", "morphism"), tgt.dim, src.dim, "matrix")
    try:
        return Morphism(src, tgt, mat)
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def serialize_morphism(phi: Morphism):
    return {
        "source": serialize_algebra(phi.source),
        "target": serialize_algebra(phi.target),
        "matrix": serialize_matrix(phi.matrix),
    }


# ---------------------------------------------------------------------------
# representation documents


def parse_representation(obj, base_dir=None) -> Representation:
    alg = _resolve_algebra(_require(obj, "algebra", "representation"), base_dir)
    mbasis = _require(obj, "module_basis", "representation")
    if not isinstance(mbasis, list) or not all(isinstance(b, str) for b in mbasis):
        raise DocumentError("module_basis must be a list of string labels")
    mindex = _label_index(mbasis)
    mdim = len(mbasis)
    alpha_m = parse_matrix(
        _require(obj, "alpha_module", "representation"), mdim, mdim, "alpha_module"
    )
    actions_obj = _require(obj, "actions", "representation")
    n = alg.arity
    if not isinstance(actions_obj, list) or len(actions_obj) != n:
        raise DocumentError(f"actions must be a list of {n} tensors")
    slots = [_label_index(alg.basis)] * (n - 1) + [mindex]
    actions = [_parse_sparse_tensor(t, slots, mindex, f"action {i}") for i, t in enumerate(actions_obj)]
    try:
        return Representation(alg, mdim, alpha_m, tuple(actions)), mbasis
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def serialize_representation(rep: Representation, module_basis):
    a = rep.algebra
    slots = [a.basis] * (a.arity - 1) + [module_basis]
    return {
        "algebra": serialize_algebra(a),
        "module_basis": list(module_basis),
        "alpha_module": serialize_matrix(rep.alpha_module),
        "actions": [_serialize_sparse_tensor(t, slots, module_basis) for t in rep.actions],
    }


# ---------------------------------------------------------------------------
# deformation documents


def _parse_coeff_list(obj, what, parse):
    if not isinstance(obj, list) or not obj:
        raise DocumentError(f"{what} must be a non-empty list of per-order coefficients")
    out = []
    for i, item in enumerate(obj):
        if item != "inherit":
            out.append(parse(item))
        elif i == 0:
            out.append(None)
        else:
            raise DocumentError(f"'inherit' is only allowed at order 0 in {what}")
    return out


def parse_deformation(obj, base_dir=None):
    """A morphism deformation document -> MorphismDeformation."""
    from .deformation import MorphismDeformation, TruncatedDeformation

    phi = parse_morphism(_require(obj, "morphism", "deformation"), base_dir)
    src, tgt = phi.source, phi.target
    s_index = _label_index(src.basis)
    t_index = _label_index(tgt.basis)
    n = src.arity

    def tensor_of(index):
        return lambda item: _parse_sparse_tensor(item, [index] * n, index, "coefficient")

    xi = _parse_coeff_list(_require(obj, "xi", "deformation"), "xi", tensor_of(s_index))
    eta = _parse_coeff_list(_require(obj, "eta", "deformation"), "eta", tensor_of(t_index))

    def phi_mat(item):
        return parse_matrix(item, tgt.dim, src.dim, "phi coefficient")

    phis = _parse_coeff_list(_require(obj, "phi", "deformation"), "phi", phi_mat)

    if not (len(xi) == len(eta) == len(phis)):
        raise DocumentError("xi, eta and phi must list the same number of orders")
    xi[0] = src.bracket if xi[0] is None else xi[0]
    eta[0] = tgt.bracket if eta[0] is None else eta[0]
    phis[0] = phi.matrix if phis[0] is None else phis[0]
    try:
        return MorphismDeformation(
            phi,
            TruncatedDeformation(src, xi),
            TruncatedDeformation(tgt, eta),
            phis,
        )
    except ValueError as exc:
        raise DocumentError(str(exc)) from None


def serialize_deformation(md):
    def coeffs(d):
        basis = d.base.basis
        return ["inherit"] + [_serialize_sparse_tensor(c, [basis] * d.base.arity, basis) for c in d.coeffs[1:]]

    return {
        "morphism": serialize_morphism(md.phi),
        "xi": coeffs(md.xi),
        "eta": coeffs(md.eta),
        "phi": ["inherit"] + [serialize_matrix(md.phis[i]) for i in range(1, md.order + 1)],
    }


# ---------------------------------------------------------------------------
# files, canonical text, digests


def load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}: invalid JSON at line {exc.lineno} col {exc.colno}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text at byte {exc.start}: {exc.reason}") from None
    except ValueError as exc:
        # json.load's int() refuses a literal longer than Python's int-string digit limit
        raise DocumentError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentError(f"{path}: JSON nested too deeply") from None


def canonical_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def digest(obj) -> str:
    return sha256(canonical_text(obj).encode("utf-8")).hexdigest()


def dump_json(obj, path):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True, ensure_ascii=False)
            fh.write("\n")
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc}") from None
