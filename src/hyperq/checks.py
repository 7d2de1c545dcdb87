"""The result type every law checker returns.

A ``Report`` holds one ``Check`` per law, in a fixed order.  A check
names its law, says whether it passed and how many instances it covered
(0 where the checker does not count them), keeps its failures (the
first few failing instances, or the first failing tuple of a search that
stops there) and a note on what was covered.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    checked: int = 0
    failures: tuple = ()
    note: str = ""

    @property
    def counterexample(self):
        """The first failure, or None when the law holds."""
        return self.failures[0] if self.failures else None


@dataclass(frozen=True)
class Report:
    results: tuple[Check, ...] = ()

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, name: str) -> Check:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def failing(self) -> tuple[Check, ...]:
        return tuple(r for r in self.results if not r.passed)


def first_failure(name: str, found, note: str = "", checked: int = 0) -> Check:
    """The check of a search over ``checked`` instances that stops at its
    first failing instance ``found``, or passes when ``found`` is None."""
    return Check(name, found is None, checked, () if found is None else (found,), note)
