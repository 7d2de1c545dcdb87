"""The three workloads: their inputs, their operations and their oracles.

A workload is built from a seed into a directory of input files and a
list of ``Op``.  Each op is one ``hyperq.cli.main(argv)`` call; its
``check`` runs after the timed passes on the captured exit code, stdout
and stderr, and raises ``oracle.OracleError`` on any mismatch.  An op
with ``gate=True`` may be refused by one of the program's size gates;
such a refusal is counted as a failed operation, anything else it
prints is checked like any other output.

``toy=True`` shrinks each workload for the self-test.
"""

from __future__ import annotations

import json
import random
import re
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle
from oracle import OracleError, Table, expect

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"

# check-battery: sampled triples per table, the same for every table.
SAMPLES = 100
# realize-ladder: arrow pairs per large table whose mu is checked by matrices.
MU_PAIRS = 64


@dataclass
class Result:
    code: int | None
    out: str
    err: str


@dataclass
class Op:
    key: str
    argv: list[str]
    check: Callable[[Result], None]
    gate: bool = False


def refused(res: Result) -> bool:
    """A size-gate refusal: exit 2 with the gate's message."""
    return res.code == 2 and "gated at" in res.err


def _write(path: Path, obj: dict) -> str:
    path.write_text(json.dumps(obj, indent=1) + "\n")
    return str(path)


def _cyc(degree: int, *cycles) -> list[int]:
    p = list(range(degree))
    for cyc in cycles:
        for k, i in enumerate(cyc):
            p[i] = cyc[(k + 1) % len(cyc)]
    return p


def _sym(degree: int) -> list[list[int]]:
    return [_cyc(degree, (0, 1)), _cyc(degree, tuple(range(degree)))]


def _coset_obj(name, degree, gens, subgroups) -> dict:
    return {"schema": "hyperq/1", "kind": "coset", "name": name, "degree": degree,
            "group_generators": [list(g) for g in gens],
            "subgroups": [{"name": k, "generators": [list(g) for g in ks]}
                          for k, ks in subgroups]}


def _names_of(err: str) -> set[str]:
    m = re.search(r"check failed: (.*)", err)
    return set(m.group(1).split(", ")) if m else set()


def _no_traceback(res: Result):
    expect(res.code is not None and "Traceback" not in res.err,
           f"traceback or uncaught exception: {res.err[-300:]!r}")


def _json(res: Result) -> dict:
    expect(res.code == 0, f"exit {res.code}: {res.err.strip()[:200]}")
    try:
        return json.loads(res.out)
    except json.JSONDecodeError as exc:
        raise OracleError(f"stdout is not JSON: {exc}") from exc


class Realized:
    """A coset or action input, recomputed here: point action, pair
    orbits, Burnside rank."""

    def __init__(self, obj: dict):
        if obj["kind"] == "coset":
            self.n_points, self.gens = oracle.coset_action(
                obj["degree"], obj["group_generators"],
                [s["generators"] for s in obj["subgroups"]])
        else:
            self.n_points, self.gens = obj["points"], [tuple(g) for g in obj["generators"]]
        self.rank = oracle.burnside_rank(self.n_points, self.gens)
        self.membership, self.reps = oracle.pair_orbits(self.n_points, self.gens)
        expect(len(self.reps) == self.rank, "pair orbits disagree with Burnside's lemma")
        self.names = [f"a{g}" for g in range(self.rank)]
        self.units = oracle.point_orbits(self.n_points, self.gens)

    def check_atoms(self, doc: dict):
        atoms = doc["atoms"]
        expect(len(atoms) == self.rank,
               f"{len(atoms)} arrows, Burnside's lemma gives {self.rank}")
        ids = [a["id"] for a in atoms]
        expect(ids == self.names, "arrows are not named a0..a(k-1) in order")
        for g, a in enumerate(atoms):
            x, y = self.reps[g]
            star = self.names[int(self.membership[y, x])]
            expect(a["star"] == star, f"star of {a['id']} is {a['star']}, expected {star}")
            if "representative" in a:
                expect(a["representative"] == f"({x},{y})",
                       f"representative of {a['id']} is {a['representative']}, least pair ({x},{y})")

    def check_algebra(self, doc: dict, pairs):
        self.check_atoms(doc)
        oracle.check_mu_sample(self.membership, oracle.mu_from_json(doc), pairs)


# ---------------------------------------------------------------------------
# realize-ladder


def _ladder_specs(toy: bool):
    s5_point = [_cyc(5, (0, 1)), _cyc(5, (0, 1, 2, 3))]
    s7_3set = [_cyc(7, (0, 1)), _cyc(7, (0, 1, 2)), _cyc(7, (3, 4)), _cyc(7, (3, 4, 5, 6))]
    specs = [
        ("s4_regular", 4, _sym(4), [("e", [])]),
        ("s5_regular", 5, _sym(5), [("e", [])]),
        ("s5_regular_points", 5, _sym(5), [("e", []), ("s4", s5_point)]),
        ("s6_c3_cosets", 6, _sym(6), [("c3", [_cyc(6, (0, 1, 2))])]),
        ("s7_3subsets", 7, _sym(7), [("s3xs4", s7_3set)]),
    ]
    if toy:
        specs = [("s3_regular", 3, _sym(3), [("e", [])]),
                 ("s4_2subsets", 4, _sym(4), [("s2xs2", [_cyc(4, (0, 1)), _cyc(4, (2, 3))])])]
    return specs


def realize_ladder(seed: int, workdir: Path, toy: bool = False) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for name, degree, gens, subgroups in _ladder_specs(toy):
        path = _write(workdir / f"{name}.json", _coset_obj(name, degree, gens, subgroups))
        pair_seed = rng.randrange(1 << 30)

        def check_algebra(res, path=path, pair_seed=pair_seed):
            doc = _json(res)
            real = Realized(json.loads(Path(path).read_text()))
            real.check_algebra(doc, oracle.sample_pairs(real.rank, MU_PAIRS,
                                                        random.Random(pair_seed)))

        def check_kms(res, path=path):
            doc = _json(res)
            k = Realized(json.loads(Path(path).read_text())).rank
            expect(doc["checked"] == k * k, f"kms checked {doc['checked']} pairs, not {k * k}")
            expect(doc["ok"] and not doc["failures"], "kms reports failures")

        ops.append(Op(f"algebra:{name}", ["algebra", path, "--format", "json"], check_algebra))
        ops.append(Op(f"kms:{name}", ["kms", path, "--format", "json"], check_kms))
    return ops


# ---------------------------------------------------------------------------
# check-battery


def _catalogue():
    """Permutation groups of order at most 48, by generators."""
    groups = []
    for n in range(2, 13):
        groups.append((f"C{n}", n, [_cyc(n, tuple(range(n)))]))
    for n in range(3, 13):
        groups.append((f"D{n}", n, [_cyc(n, tuple(range(n))),
                                     _cyc(n, *[(i, n - 1 - i) for i in range(n // 2)])]))
    groups += [
        ("S3", 3, _sym(3)),
        ("S4", 4, _sym(4)),
        ("A4", 4, [_cyc(4, (0, 1, 2)), _cyc(4, (1, 2, 3))]),
        ("V4", 4, [_cyc(4, (0, 1), (2, 3)), _cyc(4, (0, 2), (1, 3))]),
        ("C2^3", 6, [_cyc(6, (0, 1)), _cyc(6, (2, 3)), _cyc(6, (4, 5))]),
        ("S3xS3", 6, [_cyc(6, (0, 1)), _cyc(6, (0, 1, 2)), _cyc(6, (3, 4)), _cyc(6, (3, 4, 5))]),
        ("C3xS3", 6, [_cyc(6, (0, 1, 2)), _cyc(6, (3, 4)), _cyc(6, (3, 4, 5))]),
        ("A4xC2", 6, [_cyc(6, (0, 1, 2)), _cyc(6, (1, 2, 3)), _cyc(6, (4, 5))]),
        ("S4xC2", 6, [_cyc(6, (0, 1)), _cyc(6, (0, 1, 2, 3)), _cyc(6, (4, 5))]),
        ("D4xC2", 6, [_cyc(6, (0, 1, 2, 3)), _cyc(6, (0, 2)), _cyc(6, (4, 5))]),
        ("C4xC4", 8, [_cyc(8, (0, 1, 2, 3)), _cyc(8, (4, 5, 6, 7))]),
        ("C4xC12", 16, [_cyc(16, (0, 1, 2, 3)), _cyc(16, tuple(range(4, 16)))]),
        ("D24", 24, [_cyc(24, tuple(range(24))), _cyc(24, *[(i, 23 - i) for i in range(12)])]),
    ]
    return groups


# (least atoms, most atoms, specs, also checked with --exhaustive).
SLOTS = [(1, 3, 8, True), (4, 5, 8, True), (6, 7, 6, True), (8, 8, 2, True),
         (9, 16, 8, False), (17, 32, 8, False), (33, 64, 3, False), (90, 100, 1, False)]
TOY_SLOTS = [(1, 3, 2, True), (4, 7, 2, True), (9, 16, 1, False)]
MAX_POINTS = 60
MAX_ORDER = 48
# The shapes are drawn once; a run's seed only changes their presentation,
# so the cost of a pass does not depend on the seed.
SHAPE_SEED = 0

# The fixed table beyond the exhaustive gate: S3 on S3 ⊔ S3/C2, 14 atoms.
S3_MIXED = ("s3_mixed", 3, [[1, 0, 2], [1, 2, 0]], [("trivial", []), ("stab01", [[1, 0, 2]])])


def battery_shapes(toy: bool = False) -> list[tuple]:
    """(group name, degree, generators, subgroup generators, exhaustive)
    for every slot, drawn once from SHAPE_SEED."""
    rng = random.Random(SHAPE_SEED)
    slots = TOY_SLOTS if toy else SLOTS
    groups = [(nm, deg, gens, oracle.closure(gens, deg)) for nm, deg, gens in _catalogue()]
    groups = [g for g in groups if len(g[3]) <= MAX_ORDER]
    filled: list[list] = [[] for _ in slots]
    for _ in range(200_000):
        if all(len(f) == s[2] for f, s in zip(filled, slots)):
            break
        gname, degree, gens, elements = rng.choice(groups)
        subgroups = []
        points = 0
        for _ in range(rng.randint(1, 2)):
            ks = sorted({elements[rng.randrange(len(elements))] for _ in range(rng.randint(0, 2))})
            points += len(elements) // len(oracle.closure(ks, degree))
            subgroups.append(ks)
        if points > MAX_POINTS:
            continue
        rank = oracle.burnside_rank(*oracle.coset_action(degree, gens, subgroups))
        for f, (lo, hi, count, exhaustive) in zip(filled, slots):
            if lo <= rank <= hi and len(f) < count:
                f.append((gname, degree, gens, subgroups, exhaustive))
                break
    else:
        raise RuntimeError("battery slots could not be filled")
    return [shape for f in filled for shape in f]


def _present(degree, gens, subgroups, rng: random.Random):
    """Another presentation of the same action: as many random generators
    plus one as the shape has, and each subgroup conjugated by a random
    element.  Points and arrows are renumbered; sizes stay the same."""
    elements = oracle.closure(gens, degree)
    for _ in range(1000):
        new = [rng.choice(elements) for _ in range(len(gens) + 1)]
        if len(oracle.closure(new, degree)) == len(elements):
            break
    else:
        new = list(gens) + [elements[0]]
    subs = []
    for ks in subgroups:
        g = rng.choice(elements)
        g_inv = tuple(sorted(range(degree), key=lambda i: g[i]))
        subs.append([oracle.compose(oracle.compose(g, k), g_inv) for k in ks])
    return new, subs


def battery_specs(seed: int, toy: bool = False) -> list[tuple[str, dict, bool]]:
    """(name, coset object, exhaustive): every shape, presented from the seed."""
    rng = random.Random(seed)
    out = []
    for gname, degree, gens, subgroups, exhaustive in battery_shapes(toy):
        gens, subgroups = _present(degree, gens, subgroups, rng)
        name = f"b{len(out):02d}_{gname}"
        out.append((name, _coset_obj(name, degree, gens,
                                     [(f"K{k}", ks) for k, ks in enumerate(subgroups)]),
                    exhaustive))
    return out


def _mutants(seed: int, specs, toy: bool) -> list[tuple[str, dict, set[str]]]:
    """Abstract tables made from small battery tables, each changed so
    that it breaks at least one law evaluated by ``oracle.Table``.  The
    base tables are fixed; the seed picks what is changed."""
    rng = random.Random(seed)
    small = [obj for _, obj, ex in specs if ex and 4 <= Realized(obj).rank <= 7]
    kinds = ["left", "mu", "comp", "mu"][: 2 if toy else 4]
    out = []
    for i, kind in enumerate(kinds):
        for base in small[2 * i:] + small[:2 * i]:
            mutant = _mutate(f"mutant{i}_{kind}", base, kind, rng)
            if mutant:
                out.append(mutant)
                break
        else:
            raise RuntimeError(f"no {kind} mutant found")
    return out


def _mutate(name: str, base: dict, kind: str, rng: random.Random):
    for _ in range(20):
        obj = oracle.realized_table(name, base["degree"], base["group_generators"],
                                    [(s["name"], s["generators"]) for s in base["subgroups"]])
        units = set(obj["unit_arrows"].values())
        if kind == "left":
            cand = [a["name"] for a in obj["arrows"] if a["name"] not in units]
            if not cand:
                return None
            g = rng.choice(cand)
            t = Table(obj)
            obj["left"] = {g: t.left[t.names.index(g)] + 1}
        elif kind == "mu":
            cand = [m for m in obj["mu"] if m["a"] not in units]
            if not cand:
                return None
            rng.choice(cand)["value"] += 1
        else:
            cand = [c for c in obj["comp"] if len(c["result"]) >= 2]
            if not cand:
                return None
            rec = rng.choice(cand)
            drop = rec["result"].pop(rng.randrange(len(rec["result"])))
            obj["mu"] = [m for m in obj["mu"] if not (
                m["a"] == drop and m["g"] == rec["left"] and m["gp"] == rec["right"])]
        broken = Table(obj).broken_laws()
        if broken:
            return obj["name"], obj, broken
    return None


def check_battery(seed: int, workdir: Path, toy: bool = False) -> list[Op]:
    specs = battery_specs(seed, toy)
    ops = []
    for name, obj, exhaustive in specs:
        path = _write(workdir / f"{name}.json", obj)

        def check_sampled(res, obj=obj):
            doc = _json(res)
            expect(doc["ok"], "a realized table fails check")
            rank = Realized(obj).rank
            left_def = next(w for w in doc["weights"] if w["name"] == "left-def")
            expect(left_def["checked"] == rank,
                   f"left-def covers {left_def['checked']} arrows, Burnside's lemma gives {rank}")

        def check_passes(res):
            expect(res.code == 0, f"exit {res.code}: {res.err.strip()[:200]}")

        ops.append(Op(f"sampled:{name}",
                      ["check", path, "--format", "json", "--samples", str(SAMPLES)],
                      check_sampled))
        if exhaustive:
            ops.append(Op(f"exhaustive:{name}", ["check", path, "--exhaustive"], check_passes))

    for name, obj, broken in _mutants(seed, specs, toy):
        path = _write(workdir / f"{name}.json", obj)

        def check_mutant(res, broken=broken):
            _no_traceback(res)
            expect(res.code == 1, f"mutant exits {res.code}, expected 1")
            named = _names_of(res.err)
            expect(broken <= named, f"mutant breaks {sorted(broken)}, program names {sorted(named)}")

        ops.append(Op(f"sampled:{name}",
                      ["check", path, "--format", "json", "--samples", str(SAMPLES)],
                      check_mutant))
        ops.append(Op(f"exhaustive:{name}", ["check", path, "--exhaustive"], check_mutant))

    name, degree, gens, subgroups = S3_MIXED
    path = _write(workdir / f"{name}.json", _coset_obj(name, degree, gens, subgroups))

    def check_gated(res):
        if not refused(res):
            expect(res.code == 0, f"exit {res.code}: {res.err.strip()[:200]}")

    ops.append(Op(f"exhaustive:{name}", ["check", path, "--exhaustive"], check_gated, gate=True))
    return ops


# ---------------------------------------------------------------------------
# cli-small

COMMANDS = ("atoms", "algebra", "check", "kms", "evolve", "convolve", "site")
TOY_FIXTURES = ("s3_cosets", "hg3_mutated")
# The site enumeration gate is 12 atoms; s3_mixed has 14.
SITE_GATED = {"s3_mixed"}


def _literal(terms: dict[str, object]) -> str:
    out = ""
    for nm, c in terms.items():
        term = f"{abs(c)}*[{nm}]"
        sign = "-" if c < 0 else "+"
        out = f"{out} {sign} {term}" if out else ("-" if c < 0 else "") + term
    return out


class Fixture:
    """One input file of cli-small, with everything the oracles need."""

    def __init__(self, path: Path):
        self.path = path
        self.name = path.stem
        obj = json.loads(path.read_text())
        self.obj = obj
        # a realized table satisfies every law, so only abstract ones get a Table
        self.realized = Realized(obj) if obj["kind"] != "abstract" else None
        self.table = None if self.realized else Table(obj)
        self.names = self.realized.names if self.realized else self.table.names

    def chi_defined(self, g: int) -> bool:
        return self.table is None or self.table.chi_defined(g)

    def mu(self, a: int, g: int, gp: int):
        if self.table is not None:
            return self.table.mu.get((a, g, gp), 0)
        M = self.realized.membership
        x, y = self.realized.reps[a]
        return int(((M[x, :] == g) & (M[:, y] == gp)).sum())


def cli_small(seed: int, workdir: Path, toy: bool = False) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for src in sorted(FIXTURES.glob("*.json")):
        if toy and src.stem not in TOY_FIXTURES:
            continue
        path = workdir / src.name
        shutil.copyfile(src, path)
        fx = Fixture(path)
        n = len(fx.names)
        defined = [g for g in range(n) if fx.chi_defined(g)]
        picks = sorted(rng.sample(defined, min(2, len(defined))))
        elem = {fx.names[g]: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4)) for g in picks}
        t = rng.choice((0.25, 0.5, 1.5, 2.0))
        if fx.name == "s3_cosets":
            f = g = {"a1": 1}
        else:
            f = {fx.names[k]: rng.randint(1, 3) for k in sorted(rng.sample(range(n), min(2, n)))}
            g = {fx.names[k]: rng.randint(1, 3) for k in sorted(rng.sample(range(n), min(2, n)))}
        for cmd in COMMANDS:
            extra = []
            if cmd == "check":
                extra = ["--samples", str(SAMPLES)]
            elif cmd == "evolve":
                # "=" keeps a literal with a leading minus from reading as a flag
                extra = ["--t", str(t), f"--element={_literal(elem)}"]
            elif cmd == "convolve":
                extra = [f"--f={_literal(f)}", f"--g={_literal(g)}"]
            for fmt in ("table", "json"):
                ops.append(Op(f"{cmd}:{fmt}:{fx.name}",
                              [cmd, str(path), "--format", fmt, *extra],
                              _small_check(fx, cmd, fmt, elem, f, g),
                              gate=cmd == "site" and fx.name in SITE_GATED))
    return ops


def _small_check(fx: Fixture, cmd: str, fmt: str, elem, f, g):
    n = len(fx.names)
    ix = {nm: i for i, nm in enumerate(fx.names)}

    def check(res: Result):
        _no_traceback(res)
        if cmd == "check":
            broken = fx.table.broken_laws() if fx.table else set()
            if broken:
                expect(res.code == 1, f"exit {res.code}, table breaks {sorted(broken)}")
                named = _names_of(res.err)
                expect(broken <= named, f"breaks {sorted(broken)}, program names {sorted(named)}")
            else:
                expect(res.code == 0, f"exit {res.code}: {res.err.strip()[:200]}")
            return
        if cmd == "kms" and not all(fx.chi_defined(k) for k in range(n)):
            # chi is undefined for some arrow: the identity cannot be evaluated
            expect(res.code in (1, 2), f"exit {res.code} where chi is undefined")
            return
        if cmd == "kms":
            holds = fx.table.kms_holds() if fx.table else True
            expect(res.code == (0 if holds else 1), f"kms exit {res.code}, identity holds: {holds}")
            if fmt == "json":
                doc = json.loads(res.out)
                expect(doc["checked"] == n * n, f"kms checked {doc['checked']}, not {n * n}")
            return
        if cmd == "site" and refused(res):
            return
        doc = _json(res) if fmt == "json" else None
        expect(res.code == 0, f"exit {res.code}: {res.err.strip()[:200]}")
        if doc is None:
            return
        if cmd == "atoms" or cmd == "algebra":
            if fx.realized:
                pairs = [(a, b) for a in range(n) for b in range(n)]
                (fx.realized.check_algebra(doc, pairs) if cmd == "algebra"
                 else fx.realized.check_atoms(doc))
            else:
                expect([a["id"] for a in doc["atoms"]] == fx.names, "arrow names differ from input")
                if cmd == "algebra":
                    got = oracle.mu_from_json(doc)
                    want = {k: ("inf" if v == oracle.INF else v) for k, v in fx.table.mu.items()}
                    expect(got == want, "mu differs from the input table")
        elif cmd == "evolve":
            terms = {t["id"]: complex(t["value"]) for t in doc["terms"]}
            expect(set(terms) == set(elem), "evolve changes the support")
            for nm, c in elem.items():
                expect(abs(abs(terms[nm]) - abs(float(c))) < 1e-9,
                       f"evolve changes |coefficient| of {nm}: {abs(terms[nm])} vs {abs(float(c))}")
        elif cmd == "convolve":
            want: dict[str, object] = {}
            for gn, fv in f.items():
                for hn, hv in g.items():
                    for a in range(n):
                        m = fx.mu(a, ix[gn], ix[hn])
                        if m:
                            want[fx.names[a]] = want.get(fx.names[a], 0) + fv * hv * m
            want = {k: ("inf" if v == oracle.INF else v) for k, v in want.items() if v}
            got = {t["id"]: t["value"] for t in doc["terms"]}
            expect(got == want, f"convolve gives {got}, expected {want}")
            if fx.name == "s3_cosets":
                expect(got == {"a0": 2, "a1": 1}, "Hecke relation [d][d] = 2[1] + [d] fails")
        elif cmd == "site":
            units = len(set(fx.realized.units)) if fx.realized else len(fx.obj["units"])
            expect(len(doc["objects"]) == 2 ** units,
                   f"site has {len(doc['objects'])} objects, expected {2 ** units}")

    return check


WORKLOADS = {
    "realize-ladder": realize_ladder,
    "check-battery": check_battery,
    "cli-small": cli_small,
}
