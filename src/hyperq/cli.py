"""Command line driver.

Every command loads one JSON input file (see the io module for the
schema), runs part of the pipeline and prints either a fixed-width table
or a JSON report (--format json).  Output is deterministic: identical
input and flags produce identical bytes.  ``algebra`` writes its table of
structure constants one arrow g at a time, from text formatted once per
arrow name and per value, so beyond the table itself it holds one
arrow's rows of output at a time.  Exit status is 0 when all
requested checks pass, 1 when a check fails (the failing check is named
on stderr) and 2 for an unreadable input, schema or usage problems.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterator
from itertools import chain, compress, islice, pairwise
from json.encoder import encode_basestring_ascii
from operator import ne

from . import __version__
from .algebra import chi, convolve_ext, kms_check, sigma, validate_weights
from .errors import HyperqError, InfiniteCoefficient, SchemaError, ZeroWeight
from .extnat import INF, extnat_to_json
from .hypergroupoid import check_hg_axioms, gatherer, to_quantale
from .io import format_complex, format_element, load_input, parse_element
from .quantale import check_axioms, site
from .realization import orbit_atoms, weights


class Context:
    """Loaded input plus the realized structures the commands share.

    A realized table is counted whole here, before any output, so that a
    fault in it exits 2 with nothing written; with ``identity_only`` only
    its identity rows are, for the commands that read no other row."""

    def __init__(self, path: str, identity_only: bool = False):
        self.spec, self.digest = load_input(path)
        if self.spec.kind == "abstract":
            self.real = None
            self.weighted = self.spec.weighted
        else:
            self.real = orbit_atoms(self.spec.action)
            self.weighted = weights(self.real)
            if not identity_only:
                self.weighted.values   # counts and checks the whole table
        self.base = self.weighted.base

    def header(self, command: str) -> list[str]:
        return [
            f"hyperq {__version__}",
            f"command: {command}",
            f"input: {self.spec.name} (sha256:{self.digest})",
            "",
        ]

    def report(self, command: str, payload: dict) -> dict:
        return {
            "tool": "hyperq",
            "version": __version__,
            "command": command,
            "input": self.spec.name,
            "digest": self.digest,
            **payload,
        }


def _emit(lines: list[str]):
    sys.stdout.write("\n".join(lines) + "\n")


def _emit_json(obj: dict):
    """Write ``json.dumps(obj, indent=2, sort_keys=True)`` and a newline."""
    _encode(obj, "\n", sys.stdout.write)
    sys.stdout.write("\n")


def _encode(value, nl: str, write):
    """Write ``json.dumps(value, indent=2, sort_keys=True)`` nested after the newline and
    indent ``nl``; floats go to ``json.dumps``; an iterator yields text so encoded."""
    kind = type(value)
    if kind is str:
        write(encode_basestring_ascii(value))
    elif kind is int:
        write(int.__repr__(value))
    elif value is None or kind is bool:
        write("null" if value is None else "true" if value else "false")
    elif (kind is list or kind is tuple or kind is dict) and not value:
        write("{}" if kind is dict else "[]")
    elif kind is list or kind is tuple:
        inner, sep = nl + "  ", "["
        for item in value:
            write(sep + inner)
            _encode(item, inner, write)
            sep = ","
        write(nl + "]")
    elif kind is dict and all(type(key) is str for key in value):
        inner, sep = nl + "  ", "{"
        for key in sorted(value):
            write(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _encode(value[key], inner, write)
            sep = ","
        write(nl + "}")
    elif isinstance(value, Iterator):
        for chunk in value:
            write(chunk)
    else:
        write(json.dumps(value, indent=2, sort_keys=True).replace("\n", nl))


def _mu_blocks(W, columns) -> Iterator[str]:
    """The rows of W's table as text, one chunk per arrow g, in g order.
    Each row is the concatenation, over ``columns``, of ``pieces[col[i]]``
    for each (col, pieces); the rows of one g are consecutive, already in
    (g', a) order, so only the blocks are reordered.  A block's pieces are
    gathered one column at a time and interleaved by strided slices."""
    g_ = W.base.rows[0]
    starts = list(compress(range(len(g_)), chain((True,), map(ne, islice(g_, 1, None), g_))))
    block = dict(zip(map(g_.__getitem__, starts), pairwise([*starts, len(g_)])))
    w = len(columns)
    for g in sorted(block):
        s, e = block[g]
        text = [""] * (w * (e - s))
        for j, (col, pieces) in enumerate(columns):
            text[j::w] = gatherer(col[s:e])(pieces)
        yield "".join(text)


def _mu_chunks(W) -> Iterator[str]:
    """The ``mu`` array of the algebra report, encoded for ``_emit_json``:
    one record {a, g, gp, value} per structure constant <a | g, g'>, by g,
    g' and a, written one arrow g at a time from pre-encoded pieces."""
    (b_, a_, c_), values = W.base.rows, W.values
    enc = [encode_basestring_ascii(name) for name in W.base.arrow_names]
    chunks = _mu_blocks(W, (
        (c_, [f'    {{\n      "a": {e},\n      "g": ' for e in enc]),
        (b_, [f'{e},\n      "gp": ' for e in enc]),
        (a_, [f'{e},\n      "value": ' for e in enc]),
        (values, {v: ('"inf"' if v is INF else str(v)) + "\n    },\n" for v in set(values)})))
    # every record ends in ",\n"; the last one's is cut for the closing bracket
    last = "[\n"
    for chunk in chunks:
        yield last
        last = chunk
    yield "[]" if last == "[\n" else last[:-2] + "\n  ]"


def _mu_table(W) -> tuple[list[str], Iterator[str]]:
    """The heading lines of the algebra report's mu table and its rows,
    one chunk per arrow g as ``_mu_blocks`` writes them; the columns are
    as wide as ``_table`` makes them for the names and values present."""
    (b_, a_, c_), values = W.base.rows, W.values
    names = W.base.arrow_names
    texts = {v: str(v) for v in set(values)}
    headers = ["g", "gp", "a", "mu"]
    present = [map(names.__getitem__, set(col)) for col in (b_, a_, c_)]
    widths = [max(map(len, [h, *cells])) for h, cells in zip(headers, [*present, texts.values()])]
    return _table(headers, [], widths), _mu_blocks(W, (
        *((col, [name.ljust(w) + "  " for name in names]) for col, w in zip((b_, a_, c_), widths)),
        (values, {v: text + "\n" for v, text in texts.items()})))


def _table(headers: list[str], rows: list[list[str]], widths=None) -> list[str]:
    """Heading, rule and rows, each column as wide as its widest cell, or
    as ``widths`` when given: those of rows written elsewhere."""
    widths = list(map(len, headers) if widths is None else widths)
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    out = [fmt.format(*headers).rstrip()]
    out.append("  ".join("-" * w for w in widths))
    out += [fmt.format(*row).rstrip() for row in rows]
    return out


def _elem_str(Q, e) -> str:
    """Render a quantale element as a set of atom names."""
    return "{" + ",".join(Q.atom_names[i] for i in sorted(e)) + "}"


def _chi_str(W, g: int) -> str:
    try:
        return str(chi(W, g))
    except (InfiniteCoefficient, ZeroWeight):
        return "-"


# ---------------------------------------------------------------------------
# commands


def _atoms_rows(ctx: Context) -> list[list[str]]:
    H = ctx.base
    rows = []
    for g in range(H.n_arrows):
        if ctx.real is not None:
            size = str(ctx.real.orbit_size[g])
            rep = "({},{})".format(*ctx.real.representative[g])
        else:
            size, rep = "-", "-"
        rows.append([
            H.arrow_names[g], H.unit_names[H.src[g]], H.unit_names[H.tgt[g]],
            H.arrow_names[H.star[g]], size, rep,
        ])
    return rows


def cmd_atoms(args) -> int:
    ctx = Context(args.file, identity_only=True)
    H = ctx.base
    rows = _atoms_rows(ctx)
    if args.format == "json":
        payload = {"units": list(H.unit_names),
                   "atoms": [{"id": r[0], "src": r[1], "tgt": r[2], "star": r[3],
                              "orbit_size": None if r[4] == "-" else int(r[4]),
                              "representative": r[5]} for r in rows]}
        _emit_json(ctx.report("atoms", payload))
    else:
        lines = ctx.header("atoms")
        lines.append(f"units: {' '.join(H.unit_names)}")
        lines.append("")
        lines += _table(["id", "src", "tgt", "star", "size", "rep"], rows)
        _emit(lines)
    return 0


def cmd_algebra(args) -> int:
    ctx = Context(args.file)
    H, W = ctx.base, ctx.weighted
    wrows = [[H.arrow_names[g], str(W.left[g]), str(W.right[g]), _chi_str(W, g)]
             for g in range(H.n_arrows)]
    if args.format == "json":
        payload = {
            "atoms": [{"id": r[0], "src": r[1], "tgt": r[2], "star": r[3]}
                      for r in _atoms_rows(ctx)],
            "weights": [{"id": r[0], "left": extnat_to_json(W.left[g]),
                         "right": extnat_to_json(W.right[g]), "chi": r[3]}
                        for g, r in enumerate(wrows)],
            "mu": _mu_chunks(W),
        }
        _emit_json(ctx.report("algebra", payload))
    else:
        heading, chunks = _mu_table(W)
        lines = ctx.header("algebra")
        lines += _table(["id", "src", "tgt", "star", "size", "rep"], _atoms_rows(ctx))
        lines.append("")
        lines += _table(["id", "left", "right", "chi"], wrows)
        lines.append("")
        _emit(lines + heading)
        for chunk in chunks:
            sys.stdout.write(chunk)
    return 0


def _law_rows(report, fmt) -> list[list[str]]:
    """Table rows of a law report; fmt renders a counterexample."""
    return [[r.name, "pass" if r.passed else "FAIL",
             "" if r.counterexample is None else fmt(r.counterexample), r.note]
            for r in report.results]


def _law_entries(report, fmt) -> list[dict]:
    """JSON entries of a law report; fmt renders a counterexample."""
    return [{"name": r.name, "passed": r.passed,
             "counterexample": None if r.counterexample is None else fmt(r.counterexample),
             "note": r.note} for r in report.results]


def _hg_names(H, ce) -> list[str]:
    """Names of a hypergroupoid counterexample: (unit, arrow) for HG1, else arrows."""
    if len(ce) == 2:
        return [H.unit_names[ce[0]], H.arrow_names[ce[1]]]
    return [H.arrow_names[g] for g in ce]


def _key_names(H, key):
    """Names of a weight-identity key: an arrow, or a tuple of arrows."""
    return H.arrow_names[key] if type(key) is int else [H.arrow_names[g] for g in key]


def cmd_check(args) -> int:
    ctx = Context(args.file)
    Q = to_quantale(ctx.base)
    q_report = check_axioms(Q)
    h_report = check_hg_axioms(ctx.base)
    w_report = validate_weights(ctx.weighted)
    failed = [r.name for report in (q_report, h_report, w_report) for r in report.failing()]

    if args.format == "json":
        payload = {
            "quantale": _law_entries(
                q_report, lambda ce: [sorted(Q.atom_names[i] for i in e) for e in ce]),
            "hypergroupoid": _law_entries(h_report, lambda ce: _hg_names(ctx.base, ce)),
            "weights": [{"name": r.name, "passed": r.passed, "checked": r.checked,
                         "failures": [[_key_names(ctx.base, key), lhs, rhs]
                                      for key, lhs, rhs in r.failures]}
                        for r in w_report.results],
            "ok": not failed,
        }
        _emit_json(ctx.report("check", payload))
    else:
        headers = ["axiom", "status", "counterexample", "note"]
        lines = ctx.header("check")
        lines += _table(headers, _law_rows(
            q_report, lambda ce: " ".join(_elem_str(Q, e) for e in ce)))
        lines.append("")
        lines += _table(headers, _law_rows(
            h_report, lambda ce: f"({', '.join(_hg_names(ctx.base, ce))})"))
        lines.append("")
        lines += _table(["identity", "status", "failures", "checked"],
                        [[r.name, "pass" if r.passed else "FAIL",
                          str(len(r.failures)), str(r.checked)]
                         for r in w_report.results])
        _emit(lines)
    if failed:
        print("check failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_kms(args) -> int:
    ctx = Context(args.file, identity_only=True)
    report = kms_check(ctx.weighted)
    H = ctx.base
    undefined = [H.arrow_names[g] for g in report.chi_undefined]
    if args.format == "json":
        payload = {"checked": report.checked,
                   "chi_undefined": undefined,
                   "failures": [{"q": H.arrow_names[q], "qp": H.arrow_names[qp],
                                 "lhs": str(lhs), "rhs": str(rhs)}
                                for (q, qp, lhs, rhs) in report.failures],
                   "ok": report.ok}
        _emit_json(ctx.report("kms", payload))
    else:
        lines = ctx.header("kms")
        lines.append(f"checked pairs: {report.checked}")
        lines.append(f"failures: {len(report.failures)}")
        if undefined:
            lines.append(f"chi undefined: {', '.join(undefined)}")
        if report.failures:
            lines.append("")
            lines += _table(["q", "qp", "lhs", "rhs"],
                            [[H.arrow_names[q], H.arrow_names[qp], str(lhs), str(rhs)]
                             for (q, qp, lhs, rhs) in report.failures])
        _emit(lines)
    if not report.ok:
        where = f" (chi undefined at {', '.join(undefined)})" if undefined else ""
        print("check failed: kms" + where, file=sys.stderr)
        return 1
    return 0


def cmd_evolve(args) -> int:
    ctx = Context(args.file, identity_only=True)
    H, W = ctx.base, ctx.weighted
    elem = parse_element(args.element, H.arrow_names)
    out = sigma(W, args.t, elem)
    rows = [[H.arrow_names[g], format_complex(out[g])] for g in sorted(out)]
    if args.format == "json":
        payload = {"t": args.t,
                   "element": format_element(elem, H.arrow_names),
                   "terms": [{"id": r[0], "value": r[1]} for r in rows]}
        _emit_json(ctx.report("evolve", payload))
    else:
        lines = ctx.header("evolve")
        lines.append(f"t: {args.t}")
        lines.append(f"element: {format_element(elem, H.arrow_names)}")
        lines.append("")
        lines += _table(["id", "coefficient"], rows)
        _emit(lines)
    return 0


def cmd_convolve(args) -> int:
    ctx = Context(args.file)
    H, W = ctx.base, ctx.weighted
    f = parse_element(args.f, H.arrow_names, allow_inf=True)
    g = parse_element(args.g, H.arrow_names, allow_inf=True)
    out = convolve_ext(W, f, g)
    rows = [[H.arrow_names[a], str(out[a])] for a in sorted(out)]
    if args.format == "json":
        payload = {"f": format_element(f, H.arrow_names),
                   "g": format_element(g, H.arrow_names),
                   "terms": [{"id": H.arrow_names[a], "value": extnat_to_json(out[a])}
                             for a in sorted(out)]}
        _emit_json(ctx.report("convolve", payload))
    else:
        lines = ctx.header("convolve")
        lines.append(f"f: {format_element(f, H.arrow_names)}")
        lines.append(f"g: {format_element(g, H.arrow_names)}")
        lines.append("")
        lines += _table(["id", "value"], rows)
        _emit(lines)
    return 0


def cmd_site(args) -> int:
    ctx = Context(args.file)
    Q = to_quantale(ctx.base)
    S = site(Q)
    names = [_elem_str(Q, q) for q in S.objects]
    counts = [[len(S.hom(q, q2)) for q2 in S.objects] for q in S.objects]
    if args.format == "json":
        payload = {"objects": [sorted(Q.atom_names[i] for i in q) for q in S.objects],
                   "hom_counts": counts}
        _emit_json(ctx.report("site", payload))
    else:
        lines = ctx.header("site")
        lines.append(f"objects: {len(S.objects)}")
        lines.append("")
        rows = [[names[i]] + [str(c) for c in row] for i, row in enumerate(counts)]
        lines += _table(["hom", *names], rows)
        _emit(lines)
    return 0


# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """The type of ``--t``: a float that is neither infinite nor NaN."""
    if math.isfinite(value := float(text)):
        return value
    raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")


_finite_float.__name__ = "float"  # argparse's word for text that is no number


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command line parser and its command parsers by name, built once."""
    parser = argparse.ArgumentParser(
        prog="hyperq",
        description="Weighted hypergroupoid algebras from group actions.")
    parser.add_argument("--version", action="version", version=f"hyperq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input JSON file")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.set_defaults(func=func)
        return p

    add("atoms", cmd_atoms, "list the arrows of the realized hypergroupoid")
    add("algebra", cmd_algebra, "weights and structure constants")
    p = add("check", cmd_check, "quantale, hypergroupoid and weight identity checks")
    # accepted for old invocations and ignored: the quantale check is exact
    p.add_argument("--exhaustive", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--samples", type=int, help=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    add("kms", cmd_kms, "verify the KMS identity for the unit-supported weight")
    p = add("evolve", cmd_evolve, "apply the time evolution to an element")
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--element", required=True, help="element literal, e.g. '2*[a1]'")
    p = add("convolve", cmd_convolve, "convolve two extended-natural functions")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    add("site", cmd_site, "objects and hom counts of the site of the quantale")
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The command line parser."""
    return _parsers()[0]


# options whose values are literals that may begin with '-'
LITERAL_OPTIONS = ("--t", "--element", "--f", "--g")


def _attach_literals(argv: list[str]) -> list[str]:
    """Rewrite ``--element -1*[a1]`` as ``--element=-1*[a1]``: argparse
    reads a separate value that starts with '-' as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in LITERAL_OPTIONS and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, skipping the top level when it can."""
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(_attach_literals(argv))
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except HyperqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
