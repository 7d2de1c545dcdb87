"""Spans and counts around the program's public functions, from outside.

The command line module calls each stage through a name bound in
``hyperq.cli`` (and ``hyperq.io`` for coset enumeration).  ``Tracer``
rebinds those names to timing wrappers while a traced pass runs and
restores them afterwards, so untraced passes run the program untouched.
A name that a later version no longer binds is listed as absent and its
metrics read 0.

Every span records (name, start, end, parent).  The runner opens one
``cli.main`` span per operation; its self time, what the command spends
outside every traced child, is reported as ``cli.render_s``.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter

# (module, attribute, span name)
WRAPPED = (
    ("hyperq.cli", "load_input", "io.load_input"),
    ("hyperq.cli", "parse_element", "io.parse_element"),
    ("hyperq.io", "coset_union_action", "realization.coset_union_action"),
    ("hyperq.cli", "orbit_atoms", "realization.orbit_atoms"),
    ("hyperq.cli", "weights", "realization.weights"),
    ("hyperq.cli", "check_hg_axioms", "hypergroupoid.check_hg_axioms"),
    ("hyperq.cli", "to_quantale", "hypergroupoid.to_quantale"),
    ("hyperq.cli", "check_axioms", "quantale.check_axioms"),
    ("hyperq.cli", "site", "quantale.site"),
    ("hyperq.cli", "validate_weights", "algebra.validate_weights"),
    ("hyperq.cli", "kms_check", "algebra.kms_check"),
    ("hyperq.cli", "sigma", "algebra.sigma"),
    ("hyperq.cli", "convolve_ext", "algebra.convolve_ext"),
)
OP_SPAN = "cli.main"

COUNTS = (
    "io.input_bytes",
    "realization.points", "realization.arrows", "realization.mu_entries",
    "hypergroupoid.composable_triples",
    "quantale.triples_checked", "quantale.check_axioms_refused", "quantale.site_elements",
    "algebra.weight_instances", "algebra.kms_pairs",
    "cli.stdout_bytes",
)


def time_metric(span: str) -> str:
    return "cli.render_s" if span == OP_SPAN else f"{span}_s"


TIMES = tuple(time_metric(name) for *_, name in WRAPPED) + (time_metric(OP_SPAN),)


def _composable_triples(H) -> int:
    by_src, by_tgt = Counter(H.src), Counter(H.tgt)
    return sum(by_src[H.tgt[y]] * by_tgt[H.src[y]] for y in range(len(H.src)))


def _count(name, counts, args, kwargs, result, exc):
    """Work done by one call, read from its arguments and result."""
    if name == "io.load_input":
        counts["io.input_bytes"] += os.path.getsize(args[0])
    elif name == "realization.orbit_atoms" and exc is None:
        counts["realization.points"] += result.n_points
        counts["realization.arrows"] += result.n_arrows
    elif name == "realization.weights" and exc is None:
        counts["realization.mu_entries"] += len(result.mu)
    elif name == "hypergroupoid.check_hg_axioms":
        counts["hypergroupoid.composable_triples"] += _composable_triples(args[0])
    elif name == "quantale.check_axioms":
        if exc is not None:
            counts["quantale.check_axioms_refused"] += type(exc).__name__ == "BoundExceeded"
        elif kwargs.get("mode") == "exhaustive":
            counts["quantale.triples_checked"] += (1 << len(args[0].atom_names)) ** 3
        else:
            counts["quantale.triples_checked"] += kwargs.get("samples", 0)
    elif name == "quantale.site" and exc is None:
        counts["quantale.site_elements"] += 1 << len(args[0].atom_names)
    elif name == "algebra.validate_weights" and exc is None:
        counts["algebra.weight_instances"] += sum(r.checked for r in result.results)
    elif name == "algebra.kms_check" and exc is None:
        counts["algebra.kms_pairs"] += result.checked


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent]
        self.counts: Counter = Counter()
        self.stack: list[int] = []
        self.absent: list[str] = []
        self.count_errors: Counter = Counter()
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int):
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.close(sid)
                self._record(name, args, kwargs, None, exc)
                raise
            self.close(sid)
            self._record(name, args, kwargs, result, None)
            return result

        return traced

    def _record(self, name, args, kwargs, result, exc):
        try:
            _count(name, self.counts, args, kwargs, result, exc)
        except (AttributeError, TypeError, IndexError, OSError):
            self.count_errors[name] += 1

    def install(self):
        self.absent = []
        for module, attr, name in WRAPPED:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{module}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def self_times(self, first: int = 0) -> Counter:
        """Summed self time by metric over spans[first:]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans[first:]:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter({m: 0.0 for m in TIMES})
        for sid in range(first, len(self.spans)):
            name, start, end, _ = self.spans[sid]
            out[time_metric(name)] += (end - start) - child[sid]
        return out

    def dump(self) -> dict:
        return {
            "absent": self.absent,
            "count_errors": dict(self.count_errors),
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p in self.spans],
        }
