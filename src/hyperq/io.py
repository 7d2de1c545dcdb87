"""Versioned JSON input files and the element literal grammar.

An input file is a JSON object with "schema": "hyperq/1" and a "kind":

* "action": a permutation action given by point count and generator
  image arrays.
* "coset": a group given by generators of a permutation group together
  with a list of named subgroups; the realized action is on the disjoint
  union of the left coset spaces.
* "abstract": a weighted hypergroupoid given explicitly by its units,
  arrows (with source, target and star), identity arrows, composition
  table and structure constants.  Values may be the string "inf".
  Optional "left"/"right" maps override the weights derived from the
  unit rows of mu; the validators then report any resulting violations.

Element literals for the command line are sums of rational multiples of
bracketed arrow names, e.g. ``2*[a3] + 1/2*[a0]``; whitespace is
ignored and a bare ``[a3]`` means coefficient one.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .algebra import WeightedHypergroupoid, derived_weights, mu_values
from .errors import MalformedTable, SchemaError
from .extnat import INF, ExtNat, extnat_from_json
from .hypergroupoid import from_comp, gatherer
from .realization import CosetSpec, PermAction, coset_union_action

SCHEMA = "hyperq/1"


@dataclass(frozen=True)
class InputSpec:
    name: str
    kind: str
    action: PermAction | None = None
    weighted: WeightedHypergroupoid | None = None


def _require(obj: dict, key: str, kind):
    if key not in obj:
        raise SchemaError(f"missing field {key!r}")
    val = obj[key]
    # a JSON true or false is no count, though Python's bool subclasses int
    if kind is not None and (not isinstance(val, kind) or kind is int and isinstance(val, bool)):
        raise SchemaError(f"field {key!r} must be {kind.__name__}, got {type(val).__name__}")
    return val


def _count(obj, key: str) -> int:
    val = _require(obj, key, int)
    if val < 0:
        raise SchemaError(f"field {key!r} must not be negative, got {val}")
    return val


def _perm_list(obj, key: str) -> tuple[tuple[int, ...], ...]:
    raw = _require(obj, key, list)
    perms = []
    for p in raw:
        if not isinstance(p, list) or not all(type(i) is int for i in p):
            raise SchemaError(f"{key} entries must be integer arrays")
        perms.append(tuple(p))
    return tuple(perms)


def parse_input(obj: dict) -> InputSpec:
    if not isinstance(obj, dict):
        raise SchemaError("input must be a JSON object")
    if obj.get("schema") != SCHEMA:
        raise SchemaError(f'expected "schema": "{SCHEMA}"')
    kind = _require(obj, "kind", str)
    name = _require(obj, "name", str)
    try:
        if kind == "action":
            points = _count(obj, "points")
            # one label per ordered pair of points, in one flat list
            if points * points > sys.maxsize:
                raise SchemaError(f"field 'points' is too large: {points} points have more "
                                  f"ordered pairs than a list can hold")
            action = PermAction(points, _perm_list(obj, "generators"))
            return InputSpec(name=name, kind=kind, action=action)
        if kind == "coset":
            degree = _count(obj, "degree")
            group_gens = _perm_list(obj, "group_generators")
            subs = []
            for sub in _require(obj, "subgroups", list):
                if not isinstance(sub, dict):
                    raise SchemaError("subgroups entries must be objects")
                subs.append((_require(sub, "name", str), _perm_list(sub, "generators")))
            spec = CosetSpec(degree=degree, group_generators=group_gens,
                             subgroups=tuple(subs))
            return InputSpec(name=name, kind=kind, action=coset_union_action(spec))
        if kind == "abstract":
            return InputSpec(name=name, kind=kind, weighted=_parse_abstract(obj))
    except SchemaError:
        raise
    except (MalformedTable, ValueError, KeyError, IndexError) as exc:
        raise SchemaError(f"invalid {kind} input: {exc}") from exc
    raise SchemaError(f"unknown kind {kind!r}")


def _parse_abstract(obj: dict) -> WeightedHypergroupoid:
    units = tuple(_require(obj, "units", list))
    if not all(isinstance(u, str) for u in units):
        raise SchemaError("units must be strings")
    arrows = _require(obj, "arrows", list)
    names, src, tgt, star_names = [], [], [], []
    for rec in arrows:
        if not isinstance(rec, dict):
            raise SchemaError("arrows entries must be objects")
        names.append(_require(rec, "name", str))
        src.append(_require(rec, "src", str))
        tgt.append(_require(rec, "tgt", str))
        star_names.append(_require(rec, "star", str))
    if len(set(names)) != len(names):
        raise SchemaError("arrow names must be distinct")
    aix = {nm: i for i, nm in enumerate(names)}
    uix = {nm: i for i, nm in enumerate(units)}

    def arrow(nm):
        if not isinstance(nm, str) or nm not in aix:
            raise SchemaError(f"unknown arrow {nm!r}")
        return aix[nm]

    def unit(nm):
        if not isinstance(nm, str) or nm not in uix:
            raise SchemaError(f"unknown unit {nm!r}")
        return uix[nm]

    def extnat(field, raw):
        try:
            return extnat_from_json(raw)
        except ValueError as exc:
            raise SchemaError(f"field {field!r}: {exc}") from None

    unit_arrows = _require(obj, "unit_arrows", dict)
    if set(unit_arrows) != set(units):
        raise SchemaError("unit_arrows must name every unit exactly once")
    comp: dict[tuple[int, int], frozenset[int]] = {}
    for rec in _require(obj, "comp", list):
        if not isinstance(rec, dict):
            raise SchemaError("comp entries must be objects")
        key = (arrow(_require(rec, "left", str)), arrow(_require(rec, "right", str)))
        if key in comp:
            raise SchemaError(f"duplicate comp record for {rec['left']},{rec['right']}")
        comp[key] = frozenset(arrow(nm) for nm in _require(rec, "result", list))
    H = from_comp(units, tuple(names), tuple(unit(s) for s in src),
                  tuple(unit(t) for t in tgt), tuple(arrow(s) for s in star_names),
                  tuple(arrow(unit_arrows[u]) for u in units), comp)
    mu: dict[tuple[int, int, int], ExtNat] = {}
    for rec in _require(obj, "mu", list):
        if not isinstance(rec, dict):
            raise SchemaError("mu entries must be objects")
        key = (arrow(_require(rec, "a", str)), arrow(_require(rec, "g", str)),
               arrow(_require(rec, "gp", str)))
        if key in mu:
            raise SchemaError(f"duplicate mu record for {rec}")
        mu[key] = extnat("value", _require(rec, "value", None))

    # the overrides are read before the table is checked
    overrides: dict[str, dict[int, ExtNat]] = {}
    for field in ("left", "right"):
        if field in obj:
            vec = overrides[field] = {}
            for nm, v in _require(obj, field, dict).items():
                vec[arrow(nm)] = extnat(field, v)
    values = mu_values(H, mu)
    left, right = derived_weights(H, gatherer(H.identity_index)(values))
    if overrides:
        left, right = (tuple(overrides.get(field, {}).get(g, w) for g, w in enumerate(vec))
                       for field, vec in (("left", left), ("right", right)))
    return WeightedHypergroupoid(base=H, values=values, left=left, right=right)


def load_input(path: str) -> tuple[InputSpec, str]:
    """Parse a file, returning the spec and its content digest.  A path
    that cannot be opened or read (missing, a directory, not permitted)
    raises SchemaError with the operating system's message."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SchemaError(str(exc)) from exc
    digest = hashlib.sha256(raw).hexdigest()[:12]
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return parse_input(obj), digest


# ---------------------------------------------------------------------------
# element literals

_TERM = re.compile(r"([+-]?)(?:(inf|\d+(?:/\d+)?)\*)?\[([A-Za-z0-9_.'-]+)\]")


def parse_element(text: str, arrow_names, allow_inf: bool = False) -> dict:
    """Parse ``2*[a3] + 1/2*[a0]`` into a coefficient dict keyed by
    arrow index.  Repeated arrows accumulate.  With allow_inf the
    coefficients are extended naturals instead of rationals."""
    aix = {nm: i for i, nm in enumerate(arrow_names)}
    compact = re.sub(r"\s+", "", text)
    if compact in ("", "0"):
        return {}
    out: dict[int, object] = {}
    pos = 0
    first = True
    while pos < len(compact):
        m = _TERM.match(compact, pos)
        if not m or (not first and m.group(1) == ""):
            raise SchemaError(f"cannot parse element literal at {compact[pos:]!r}")
        sign, coef, name = m.groups()
        if name not in aix:
            raise SchemaError(f"unknown arrow {name!r}")
        if coef == "inf":
            if not allow_inf:
                raise SchemaError("inf coefficient not allowed here")
            if sign == "-":
                raise SchemaError("inf coefficient cannot be negative")
            value: object = INF
        else:
            try:
                value = Fraction(coef) if coef else Fraction(1)
            except ZeroDivisionError:
                raise SchemaError(f"zero denominator in term {m.group(0)!r}") from None
            if sign == "-":
                value = -value
            if allow_inf:
                if value.denominator != 1 or value < 0:
                    raise SchemaError("coefficients must be nonnegative integers here")
                value = int(value)
        g = aix[name]
        prev = out.get(g, 0)
        total = value if prev == 0 else prev + value
        if total == 0:
            out.pop(g, None)
        else:
            out[g] = total
        pos = m.end()
        first = False
    return out


def format_element(elem: dict, arrow_names) -> str:
    """Deterministic inverse of parse_element; omits zero terms."""
    out = ""
    for g in sorted(elem):
        c = elem[g]
        if c == 0:
            continue
        neg = c is not INF and c < 0
        term = f"{-c if neg else c}*[{arrow_names[g]}]"
        if not out:
            out = ("-" if neg else "") + term
        else:
            out += (" - " if neg else " + ") + term
    return out or "0"


def format_complex(z: complex, places: int = 12) -> str:
    """Fixed-precision display used by the evolve command; avoids -0."""
    re_part = round(z.real, places)
    im_part = round(z.imag, places)
    if re_part == 0:
        re_part = 0.0
    if im_part == 0:
        im_part = 0.0
    sign = "+" if im_part >= 0 else "-"
    return f"{re_part:.{places}f}{sign}{abs(im_part):.{places}f}j"
