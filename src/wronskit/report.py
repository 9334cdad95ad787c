"""Structured pass/fail records shared by every verifier in the package, and
the base of its small value classes."""

from __future__ import annotations

import time


class Record:
    """A value class with the semantics of a dataclass but without its import,
    which would load inspect, ast, dis and tokenize into every fresh process:
    the fields are the ``__slots__``, in order, and equality, repr and
    pickling go by them.  Unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A Record whose fields cannot be reassigned or deleted; it hashes by
    them.  Its ``__init__`` sets each field with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class VerificationReport(FrozenRecord):
    """Outcome of one exact check.

    ``passed`` is defined as exact equality of the rendered ``expected`` and
    ``computed`` strings, so a report can never claim success while showing a
    mismatch.  ``note`` carries side observations (empirical status, exponent
    bookkeeping) that do not affect the verdict.
    """

    __slots__ = ("check", "params", "expected", "computed", "passed", "millis", "note")

    def __init__(self, check: str, params: dict[str, object], expected: str, computed: str,
                 passed: bool, millis: float, note: str = ""):
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "millis", millis)
        object.__setattr__(self, "note", note)

    def line(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        ps = ", ".join(f"{k}={v}" for k, v in self.params.items())
        out = f"{self.check} [{ps}]: expected {self.expected}, computed {self.computed} -> {verdict}"
        if self.note:
            out += f"  ({self.note})"
        return out


def finish_report(check: str, params: dict[str, object], expected: object, computed: object,
                  started: float, note: str = "") -> VerificationReport:
    """Close a timed check; pass iff the two values render identically.  The
    report keeps ``params`` itself, not a copy: every caller passes a dict
    built for this one report."""
    expected = str(expected)
    computed = str(computed)
    return VerificationReport(check, params, expected, computed, expected == computed,
                              (time.perf_counter() - started) * 1000.0, note)
