"""Runtime knobs: one precedence rule for every ambient setting.

Four run-wide choices -- the numeric policy (``REPRO_DTYPE``), cross-camera
sharing (``REPRO_SHARING``), batched execution (``REPRO_BATCH``) and the
execution backend (``REPRO_BACKEND``) -- resolve the same way:

1. an explicit argument at the call site;
2. an ambient override installed with :meth:`Knob.use` (a
   :class:`contextvars.ContextVar`, so it nests and is thread/async-safe);
3. the knob's environment variable, re-read on every call so tests can
   repoint it with a plain ``monkeypatch.setenv``;
4. the knob's default.

Each owning module declares one :class:`Knob` and binds its public names
(``active_policy``, ``use_sharing``, ``resolve_batching``, ...) straight to
the knob's methods.  :meth:`Knob.active` runs on every allocation in the
data and learn layers, so it stays one ``ContextVar.get``, one environment
read and (when the variable is set) one dict lookup.

Count- and duration-like settings (``REPRO_JOBS``, ``REPRO_LEASE_TTL``,
...) have no override layer; :func:`positive_env` is their one parser.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Mapping

from repro.errors import ConfigurationError

__all__ = ["Knob", "positive_env"]


class Knob:
    """One ambient choice: a label, an env var, a parser and a default.

    Args:
        label: What the knob selects, as error messages name it
            (``"numeric policy"``).
        env: The environment variable consulted below any override.
        parse: An alias table (lower-case spelling -> value) or a callable
            validating a non-blank, stripped, lower-cased spelling and
            returning its value.
        default: The value when nothing is set (also what a blank
            spelling means).
    """

    def __init__(
        self,
        label: str,
        env: str,
        parse: Mapping[str, object] | Callable[[str], object],
        default: object = None,
    ) -> None:
        self.label = label
        self.env = env
        self.parse = parse
        self.default = default
        self._table = parse if isinstance(parse, Mapping) else None
        self._override: ContextVar = ContextVar(env, default=None)

    def resolve(self, spec):
        """A value from a spelling, an existing value, or None (default)."""
        if spec is None:
            return self.default
        if not isinstance(spec, str):
            return spec
        key = spec.strip().lower()
        if not key:
            return self.default
        if self._table is None:
            try:
                return self.parse(key)
            except ConfigurationError as exc:
                raise ConfigurationError(f"{exc} (see {self.env})") from None
        try:
            return self._table[key]
        except KeyError:
            known = ", ".join(sorted({str(v) for v in self._table.values()}))
            raise ConfigurationError(
                f"unknown {self.label} {spec!r} "
                f"(set {self.env} to one of: {known})"
            ) from None

    def active(self):
        """The value in effect: override > environment > default."""
        override = self._override.get()
        if override is not None:
            return override
        return self.resolve(os.environ.get(self.env))

    @contextmanager
    def use(self, spec):
        """Force a value for the dynamic extent of the ``with`` block.

        Nests (the previous override is restored on exit) and beats the
        environment.  ``use(None)`` installs nothing, so a command can
        pass an optional CLI value straight through.
        """
        if spec is None:
            yield None
            return
        value = self.resolve(spec)
        token = self._override.set(value)
        try:
            yield value
        finally:
            self._override.reset(token)


def positive_env(name: str, kind: type = int):
    """``$name`` as a validated positive ``kind``; None when unset or blank.

    Garbage, zero and negative values raise :class:`ConfigurationError`
    naming the variable instead of silently falling back to a default.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = kind(raw)
        valid = value > 0
    except ValueError:
        valid = False
    if not valid:
        noun = "integer" if kind is int else "number"
        raise ConfigurationError(
            f"{name} must be a positive {noun}, got {raw!r}"
        )
    return value
