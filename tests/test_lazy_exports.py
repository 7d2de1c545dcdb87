"""The Q-valued sets are exported by the package on first use.

Importing the command line must not load ``hyperq.qsets``, which it
never reads; the package's names, ``__all__`` and ``dir`` still list
them, and ``from hyperq import qset`` still works.
"""

import os
import pathlib
import subprocess
import sys

import hyperq

SRC = str(pathlib.Path(hyperq.__file__).parent.parent)


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_importing_the_cli_leaves_qsets_unloaded():
    assert _run("import sys, hyperq.cli; print('hyperq.qsets' in sys.modules)") == "False\n"


def test_qsets_names_are_listed_and_load_on_use():
    out = _run(
        "import sys, hyperq\n"
        "listed = 'qset' in hyperq.__all__ and 'qsets' in dir(hyperq)\n"
        "before = ('hyperq.qsets' in sys.modules, sorted(hyperq.__all__), dir(hyperq))\n"
        "from hyperq import qset\n"
        "from hyperq.qsets import qset as direct\n"
        "after = ('hyperq.qsets' in sys.modules, sorted(hyperq.__all__), dir(hyperq))\n"
        "print(listed, before[0], after[0], before[1:] == after[1:], qset is direct)\n")
    assert out == "True False True True True\n"


def test_dir_lists_submodules_imported_later():
    out = _run("import hyperq, hyperq.cli, hyperq.fixtures\n"
               "names = dir(hyperq)\n"
               "print('cli' in names, 'fixtures' in names, 'qset' in names,"
               " '__getattr__' in names, '_QSETS_NAMES' in names)\n")
    assert out == "True True True False False\n"


def test_every_listed_name_resolves():
    # a star import reads every name of __all__
    names = {}
    exec("from hyperq import *", names)
    assert all(name in names for name in hyperq.__all__)
    assert names["qset"] is hyperq.qsets.qset


def test_unknown_names_raise_attribute_error():
    assert not hasattr(hyperq, "no_such_name")
