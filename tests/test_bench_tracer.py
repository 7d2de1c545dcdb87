"""The benchmark's tracer, run around in-process commands.

``hqbench/spans.py`` rebinds names of ``hyperq.cli`` to timing wrappers
and reads its counts off their arguments and results.  A count it
cannot read, because a name or attribute it reads is gone, is tallied
in ``count_errors`` and reads 0; nothing in the benchmark fails on it.
So here every command that the counts come from runs traced, on an
action and on an abstract input, and every count must be read: no name
absent, no count error, and the mu entries counted once per weighted
table that a command realized.  The benchmark is only imported.
"""

import importlib.util
import pathlib

import pytest

from conftest import DATA
from hyperq import cli
from hyperq.io import load_input
from hyperq.realization import orbit_atoms, weights

_SPANS = pathlib.Path(__file__).parent.parent / "hqbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("hqbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["s3_mixed", "delta_abstract"])
def test_every_count_is_read(name, capsys):
    path = str(DATA / f"{name}.json")
    spec, _ = load_input(path)
    W = spec.weighted or weights(orbit_atoms(spec.action))
    g = f"[{W.base.arrow_names[-1]}]"
    calls = [["algebra", path], ["kms", path], ["check", path, "--samples", "50"],
             ["convolve", path, "--f", g, "--g", g]]
    tracer = _spans().Tracer()
    tracer.install()
    try:
        codes = [cli.main(argv) for argv in calls]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0, 0]
    assert tracer.absent == []
    assert dict(tracer.count_errors) == {}
    realized = len(calls) if spec.weighted is None else 0
    assert tracer.counts["realization.mu_entries"] == realized * len(W.values)
    for count in ("hypergroupoid.composable_triples", "algebra.weight_instances",
                  "algebra.kms_pairs"):
        assert tracer.counts[count] > 0, count
