"""JSON file formats: exact rationals travel as strings.

Schemas (all versioned with "schema": 1):

* operator file:   {"space": {"n": N, "norm": {"p": "1"|"2"|"inf"|"a/b",
                    "weights": [...]}}, "matrix": [[...], ...]} (row-major)
* finite-rank file: {"terms": [{"kernel": PW, "image": PW}, ...]} with
                    PW = {"pieces": [{"from": r, "to": r, "coeffs": [r...]}]}
* reports round-trip losslessly; see build_analysis_report / parse helpers.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .atomic import _BYTE_ATOMS, INF, AtomicSpace, SupportSet, Vector, mask_atoms
from .errors import ValidationError
from .interval import (
    FiniteRankOp,
    FropWitness,
    IntervalRegion,
    PiecewisePoly,
    frop_is_sbp,
    frop_is_scp,
    frop_range_supports,
)
from .operators import (
    Operator,
    Witness,
    enumerate_sigma,
    is_band_preserving,
    is_beta,
    is_disjointness_preserving,
    is_projection,
    is_sbp,
    is_scp,
    minimal_supports,
    operator_norm,
    verify_sigma_closures,
)
from .values import ExactValue, IntervalValue, SqrtValue, Value
from .wce import ProbeFinding, WceForm, decompose_wce


def rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rat(s: Any, where: str = "value") -> Fraction:
    try:
        f = Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"malformed rational {s!r} at {where}: {exc}") from None
    return f


class _Rats(dict):
    """str -> its ``Fraction``, kept for one document so that each distinct
    string is parsed once."""

    def __missing__(self, s: str) -> Fraction:
        f = self[s] = Fraction(s)
        return f


def _parse_rats(items: list, rats: _Rats, where) -> tuple[Fraction, ...]:
    """The rationals of a list, each read as ``parse_rat`` reads it;
    ``where(i)`` names item i and is formatted only when one fails."""
    try:
        return tuple(map(rats.__getitem__, map(str, items)))
    except (ValueError, ZeroDivisionError):
        return tuple(parse_rat(x, where(i)) for i, x in enumerate(items))


def vector_to_json(v: Vector) -> list[str]:
    return [rat_str(x) for x in v]


def parse_vector(data, n: int, where: str = "vector", rats: _Rats | None = None) -> Vector:
    """``rats`` shares parsed strings with the rest of the document."""
    if not isinstance(data, list) or len(data) != n:
        raise ValidationError(f"{where} must be a list of {n} rationals")
    return _parse_rats(data, _Rats() if rats is None else rats, lambda i: f"{where}[{i + 1}]")


def p_to_json(p) -> str:
    return "inf" if p == INF else rat_str(Fraction(p))


def parse_p(s):
    if s == "inf":
        return INF
    return parse_rat(s, "norm exponent")


def space_to_json(space: AtomicSpace) -> dict:
    return {
        "n": space.n,
        "norm": {
            "p": p_to_json(space.norm.p),
            "weights": [rat_str(w) for w in space.norm.weights],
        },
    }


def parse_space(data: dict, rats: _Rats | None = None) -> AtomicSpace:
    """``rats`` shares parsed strings with the rest of the document."""
    if not isinstance(data, dict) or "n" not in data:
        raise ValidationError("space must carry an atom count 'n'")
    n = data["n"]
    if type(n) is not int or n < 1:  # a bool is an int to isinstance
        raise ValidationError("atom count must be a positive integer")
    norm = data.get("norm")
    if norm is None:
        return AtomicSpace.lp(n, 2)
    if not isinstance(norm, dict):
        raise ValidationError("norm must be an object with 'p' and 'weights'")
    p = parse_p(norm.get("p", "2"))
    weights = norm.get("weights")
    if weights is None:
        weights = ["1"] * n
    if not isinstance(weights, list):
        raise ValidationError("weights must be a list of rationals")
    if len(weights) != n:
        raise ValidationError(f"{len(weights)} weights for {n} atoms")
    rats = _Rats() if rats is None else rats
    return AtomicSpace.lp(n, p, _parse_rats(weights, rats, lambda i: f"weight {i + 1}"))


def operator_to_json(T: Operator) -> dict:
    return {
        "schema": 1,
        "space": space_to_json(T.space),
        "matrix": [[rat_str(x) for x in row] for row in T.rows],
    }


def parse_operator(data: dict) -> Operator:
    if not isinstance(data, dict):
        raise ValidationError("operator file must be a JSON object")
    rats = _Rats()
    space = parse_space(data.get("space", {}), rats)
    matrix = data.get("matrix")
    if not isinstance(matrix, list) or len(matrix) != space.n:
        raise ValidationError(f"matrix must have {space.n} rows")
    rows = []
    for i, row in enumerate(matrix):
        if not isinstance(row, list) or len(row) != space.n:
            raise ValidationError(f"row {i + 1} must have {space.n} entries")
        rows.append(_parse_rats(row, rats, lambda j: f"row {i + 1}, column {j + 1}"))
    return Operator(space, tuple(rows))


def support_to_json(s: SupportSet) -> list[int]:
    return sorted(s.atoms)


def witness_to_json(w: Witness) -> dict:
    return {
        "kind": w.kind,
        "f": vector_to_json(w.f),
        "g": vector_to_json(w.g),
        "note": w.note,
    }


def parse_witness(data: dict, n: int) -> Witness:
    rats = _Rats()
    return Witness(
        data["kind"],
        parse_vector(data["f"], n, "witness f", rats),
        parse_vector(data["g"], n, "witness g", rats),
        data.get("note", ""),
    )


def value_to_json(v: Value) -> dict:
    if isinstance(v, ExactValue):
        return {"kind": "exact", "value": rat_str(v.value)}
    if isinstance(v, SqrtValue):
        return {"kind": "sqrt", "square": rat_str(v.square)}
    if isinstance(v, IntervalValue):
        return {"kind": "interval", "lo": rat_str(v.lo), "hi": rat_str(v.hi)}
    raise ValidationError(f"unknown value kind {v!r}")


def parse_value(data: dict) -> Value:
    kind = data.get("kind")
    if kind == "exact":
        return ExactValue(parse_rat(data["value"]))
    if kind == "sqrt":
        return SqrtValue(parse_rat(data["square"]))
    if kind == "interval":
        return IntervalValue(parse_rat(data["lo"]), parse_rat(data["hi"]))
    raise ValidationError(f"unknown value kind {kind!r}")


# -- piecewise polynomial files ----------------------------------------------


def piecewise_to_json(f: PiecewisePoly) -> dict:
    return {
        "pieces": [
            {"from": rat_str(lo), "to": rat_str(hi), "coeffs": [rat_str(c) for c in coeffs]}
            for lo, hi, coeffs in f.pieces
        ]
    }


def parse_piecewise(data: dict, where: str = "function") -> PiecewisePoly:
    if not isinstance(data, dict) or not isinstance(data.get("pieces"), list):
        raise ValidationError(f"{where} must carry a 'pieces' list")
    pieces = []
    for i, pc in enumerate(data["pieces"]):
        if not isinstance(pc, dict) or "from" not in pc or "to" not in pc:
            raise ValidationError(f"{where} piece {i + 1} must be an object with 'from' and 'to'")
        if not isinstance(pc.get("coeffs", []), list):
            raise ValidationError(f"{where} piece {i + 1} 'coeffs' must be a list")
        pieces.append(
            (
                parse_rat(pc["from"], f"{where} piece {i + 1} 'from'"),
                parse_rat(pc["to"], f"{where} piece {i + 1} 'to'"),
                tuple(
                    parse_rat(c, f"{where} piece {i + 1} coeff {k}")
                    for k, c in enumerate(pc.get("coeffs", []))
                ),
            )
        )
    try:
        return PiecewisePoly.from_pieces(pieces)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def frop_to_json(T: FiniteRankOp) -> dict:
    return {
        "schema": 1,
        "terms": [
            {"kernel": piecewise_to_json(w), "image": piecewise_to_json(phi)}
            for w, phi in T.terms
        ],
    }


def parse_frop(data: dict) -> FiniteRankOp:
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise ValidationError("finite-rank file must carry a 'terms' list")
    terms = []
    for i, t in enumerate(data["terms"]):
        if not isinstance(t, dict) or "kernel" not in t or "image" not in t:
            raise ValidationError(f"term {i + 1} must be an object with 'kernel' and 'image'")
        terms.append(
            (
                parse_piecewise(t["kernel"], f"term {i + 1} kernel"),
                parse_piecewise(t["image"], f"term {i + 1} image"),
            )
        )
    return FiniteRankOp(tuple(terms))


def region_to_json(r: IntervalRegion) -> list[list[str]]:
    return [[rat_str(lo), rat_str(hi)] for lo, hi in r.intervals]


def frop_witness_to_json(w: FropWitness) -> dict:
    return {
        "kind": w.kind,
        "f": piecewise_to_json(w.f),
        "g": piecewise_to_json(w.g),
        "note": w.note,
    }


# -- analysis reports ---------------------------------------------------------


def build_analysis_report(T: Operator) -> dict:
    """Run the full atomic pipeline and assemble the report tree.

    Σ stays as its sorted masks in a ``MaskListing``, so the tree is for
    ``dumps``; ``json.loads(dumps(report))`` gives each support as its
    ascending list of atoms."""
    sigma = enumerate_sigma(T)
    preds = {}
    for name, fn in (
        ("band_preserving", is_band_preserving),
        ("disjointness_preserving", is_disjointness_preserving),
        ("band_inclusion_preserving", is_beta),
        ("semi_band_preserving", is_sbp),
        ("semi_containment_preserving", is_scp),
    ):
        res = fn(T)
        entry: dict[str, Any] = {"holds": res.holds}
        if res.witness is not None:
            entry["witness"] = witness_to_json(res.witness)
        preds[name] = entry
    closures = verify_sigma_closures(T, sigma)
    closure_entry: dict[str, Any] = {
        "union": closures.union,
        "intersection": closures.intersection,
        "complement": closures.complement,
    }
    if closures.witness is not None:
        closure_entry["witness"] = witness_to_json(closures.witness)
    decomp = decompose_wce(T)
    if isinstance(decomp, WceForm):
        wce_entry: dict[str, Any] = {
            "decomposable": True,
            "blocks": [support_to_json(b) for b in decomp.blocks],
            "u": [vector_to_json(u) for u in decomp.u],
            "psi": [vector_to_json(p) for p in decomp.psi],
        }
        classification = "weighted conditional expectation operator"
    else:
        wce_entry = {"decomposable": False, "witness": witness_to_json(decomp)}
        classification = "not a weighted conditional expectation operator"
    return {
        "schema": 1,
        "input": operator_to_json(T),
        "predicates": preds,
        "sigma": {
            "s_t": mask_atoms(sigma.s_t_mask),
            "supports": MaskListing(sorted(sigma.masks)),
        },
        "minimal_supports": [support_to_json(s) for s in minimal_supports(sigma)],
        "closures": closure_entry,
        "projection": is_projection(T),
        "operator_norm": value_to_json(operator_norm(T.space, T)),
        "classification": classification,
        "wce": wce_entry,
    }


def build_interval_report(T: FiniteRankOp) -> dict:
    supports = frop_range_supports(T)
    sbp = frop_is_sbp(T)
    scp = frop_is_scp(T)
    sbp_entry: dict[str, Any] = {"holds": sbp.holds}
    if sbp.witness is not None:
        sbp_entry["witness"] = frop_witness_to_json(sbp.witness)
    scp_entry: dict[str, Any] = {"holds": scp.holds}
    if scp.witness is not None:
        scp_entry["witness"] = frop_witness_to_json(scp.witness)
    return {
        "schema": 1,
        "input": frop_to_json(T),
        "range_supports": [region_to_json(r) for r in supports],
        "semi_band_preserving": sbp_entry,
        "semi_containment_preserving": scp_entry,
    }


def build_probe_report(p, dims, budget: int, findings) -> dict:
    out = []
    for f in findings:
        assert isinstance(f, ProbeFinding)
        out.append(
            {
                "space": space_to_json(f.space),
                "matrix": [[rat_str(x) for x in row] for row in f.operator.rows],
                "facts": {
                    "projection": True,
                    "operator_norm": value_to_json(f.norm_evidence),
                    "semi_containment_preserving": True,
                    "strictly_monotone": True,
                    "semi_band_preserving": {
                        "holds": False,
                        "witness": witness_to_json(f.sbp_witness),
                    },
                },
            }
        )
    return {
        "schema": 1,
        "p": p_to_json(p if p == INF else Fraction(p)),
        "dims": list(dims),
        "budget": budget,
        "findings": out,
    }


def parse_probe_report(data: dict):
    """Reconstruct (space, operator, norm evidence, witness) tuples."""
    out = []
    for f in data.get("findings", []):
        T = parse_operator(f)
        nrm = parse_value(f["facts"]["operator_norm"])
        w = parse_witness(f["facts"]["semi_band_preserving"]["witness"], T.n)
        out.append((T.space, T, nrm, w))
    return out


# -- the report writer -------------------------------------------------------


class _IntText(dict):
    """int -> its JSON text: held for the small ints a report repeats most
    (atom indices, up to 1023 atoms), computed for any other."""

    def __missing__(self, x: int) -> str:
        return int.__repr__(x)


_INT_TEXT = _IntText((i, int.__repr__(i)) for i in range(1024))

#: How each JSON scalar a report can hold is written, by exact type (a bool
#: is not written as an int).
_SCALARS = {
    str: _quote,
    int: _INT_TEXT.__getitem__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
#: Lists whose elements are all of one of these types go on their lines
#: with one join.
_FLAT = {frozenset([int]): _INT_TEXT.__getitem__, frozenset([str]): _quote}


class MaskListing:
    """Supports held as their bitmasks (bit i - 1 for atom i), in report
    order.  ``dumps`` writes them as the JSON lists of their atoms."""

    __slots__ = ("masks",)

    def __init__(self, masks: list[int]):
        self.masks = masks


@functools.cache
def _byte_chunks(sep: str, k: int) -> tuple[str, ...]:
    """For each byte value, the atoms it stands for as byte k of a mask,
    each written after ``sep``: row k of ``atomic._BYTE_ATOMS``, and past
    its rows, row 0 shifted as ``atomic.mask_atoms`` does.  Built on first
    use, once per separator (that is, per depth in the report)."""
    if k < len(_BYTE_ATOMS):
        row = _BYTE_ATOMS[k]
    else:
        row = [[8 * k + a for a in atoms] for atoms in _BYTE_ATOMS[0]]
    return tuple("".join(sep + _INT_TEXT[a] for a in atoms) for atoms in row)


def dumps(obj: dict) -> str:
    """The bytes of ``json.dumps(obj, indent=2) + "\\n"``, written into one
    list and joined once.  A ``MaskListing`` is written as the list of its
    supports' atom lists.

    Strings and keys are escaped by the encoder ``json.dumps`` uses.  Values
    no report holds (floats, tuples, non-str keys, other types) raise
    ``TypeError``, so no input is ever written differently.
    """
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write(o, nl: str, out: list[str]) -> None:
    """Append ``o`` to ``out``; ``nl`` is a newline and the indent of the
    line ``o`` starts on.  Each member is followed by a comma, and the last
    comma is overwritten by the closing line."""
    t = type(o)
    if t is list:
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        flat = _FLAT.get(frozenset(map(type, o)))
        if flat is not None:
            out.append("[" + inner + ("," + inner).join(map(flat, o)) + nl + "]")
            return
        out.append("[")
        for v in o:
            out.append(inner)
            _write(v, inner, out)
            out.append(",")
        out[-1] = nl + "]"
    elif t is dict:
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        out.append("{")
        for k, v in o.items():
            if type(k) is not str:
                raise TypeError(f"report keys are str, not {type(k).__name__}")
            out.append(inner + _quote(k) + ": ")
            _write(v, inner, out)
            out.append(",")
        out[-1] = nl + "}"
    elif t in _SCALARS:
        out.append(_SCALARS[t](o))
    elif t is MaskListing:
        out.append(_mask_listing(o.masks, nl))
    else:
        raise TypeError(f"a report holds no {t.__name__}")


def _mask_listing(masks: list[int], nl: str) -> str:
    """The text ``_write`` gives the masks' atom lists: each support joins
    the chunks of its bytes, less the first separator's comma."""
    if not masks:
        return "[]"
    inner = nl + "  "
    sep = "," + inner + "  "
    rows = [_byte_chunks(sep, k) for k in range((max(masks).bit_length() + 7) // 8)]
    close = inner + "]"
    texts = []
    for m in masks:
        body = ""
        for row in rows:
            body += row[m & 255]
            m >>= 8
        texts.append("[" + body[1:] + close if body else "[]")
    return "[" + inner + ("," + inner).join(texts) + nl + "]"
