"""Flat parameter vectors, config checks, per-step records, and training
traces.

Everything downstream works on plain 1-D float64 numpy arrays. Doubles are
mandatory: at float32 the backtracking search is known to collapse the step
size once losses stop resolving in single precision.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field, fields

import numpy as np

ParamVector = np.ndarray

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK63 = 0x7FFFFFFFFFFFFFFF
FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class ConfigError(ValueError):
    """An invalid configuration value. A TypeError raised inside a factory
    or a config class is a bug, and is never turned into one."""


# The types a value of each annotation may have, and what it must be in the
# error message's words; any other class takes its instances.
_TYPES = {int: (int, np.integer), float: (int, float, np.integer, np.floating)}
_NOUNS = {int: "an integer", float: "a real number", bool: "true or false",
          str: "a string", dict: "an object", np.ndarray: "an array"}
_PLURALS = {int: "integers", dict: "objects"}
_type_hints = functools.cache(typing.get_type_hints)


@functools.cache
def _range_rule(bounds):
    """(whether a value is in a declared range, the range in words)"""
    if isinstance(bounds, tuple):
        return bounds.__contains__, f"one of {bounds}"
    if bounds[0] in "([":
        lo, hi = (float(x) for x in bounds[1:-1].split(","))
        return (lambda v: (lo < v if bounds[0] == "(" else lo <= v) and
                (v < hi if bounds[-1] == ")" else v <= hi)), f"in {bounds}"
    op, limit = bounds.split()
    limit = float(limit)
    return (lambda v: v > limit if op == ">" else v >= limit), bounds


def _checked(name: str, value, hint, bounds, noun: str):
    ok = isinstance(value, _TYPES.get(hint, hint)) and \
        (hint is bool or not isinstance(value, bool))
    if ok and hint is float:
        # finite, and an int no larger than the largest float
        ok = abs(value) <= sys.float_info.max if isinstance(value, int) \
            else math.isfinite(value)
    if not ok:
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    if bounds is not None:
        in_range, rule = _range_rule(bounds)
        if not in_range(value):
            raise ConfigError(f"{name} must be {rule}, got {value!r}")
    return hint(value) if hint in _TYPES else value


def check_value(name: str, value, hint, bounds=None):
    """``value`` checked against the annotation ``hint`` and the range
    ``bounds``, as a field of that type holds it (an int given for a float
    becomes a float); raises ConfigError naming ``name``, or TypeError for
    an annotation it has no rule for. The rules are listed in README.md
    under "Config"."""
    if hint in _NOUNS:
        return _checked(name, value, hint, bounds, _NOUNS[hint])
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and args[1:] == (type(None),):
        return None if value is None else \
            check_value(name, value, args[0], bounds)
    if origin in (list, tuple) and args[0] in _PLURALS \
            and args[1:] in ((), (...,)):
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{name} must be a non-empty list of "
                              f"{_PLURALS[args[0]]}, got {value!r}")
        checked = origin(_checked(name, x, args[0], bounds,
                                  _PLURALS[args[0]]) for x in value)
        if args[0] is int and len(set(checked)) < len(checked):
            raise ConfigError(f"{name} must not repeat a value, "
                              f"got {value!r}")
        return checked
    if origin is not None or not isinstance(hint, type) \
            or hint in (list, tuple):
        raise TypeError(f"no config check for {name}: {hint}")
    return _checked(name, value, hint, bounds, f"a {hint.__name__}")


@functools.cache
def field_rules(cls) -> dict:
    """Init field name -> (annotation, range) of config dataclass ``cls``;
    cached, so each class's rules are resolved once."""
    return {f.name: (_type_hints(cls)[f.name], f.metadata.get("range"))
            for f in fields(cls) if f.init}


def check_fields(config) -> None:
    """Check each init field of dataclass ``config`` with ``check_value``
    against its annotation and its ``"range"`` metadata, and store the
    checked value through the instance dict."""
    given = vars(config)
    for name, (hint, bounds) in field_rules(type(config)).items():
        given[name] = check_value(name, given[name], hint, bounds)


def checked_arguments(**bounds):
    """Decorator: each call's arguments are checked with ``check_value``
    against the function's annotations and ``bounds`` (parameter name ->
    range); arguments left at their defaults are not. The signature is
    read once, when the function is decorated."""
    def decorate(fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            hints = _type_hints(fn)
            for name, value in bound.arguments.items():
                bound.arguments[name] = check_value(
                    name, value, hints[name], bounds.get(name))
            return fn(*bound.args, **bound.kwargs)
        return checked
    return decorate


def check_keys(config: dict, known, required, where: str = "") -> None:
    """Raise ConfigError for a key of ``config`` not in ``known``, or a
    ``required`` key it lacks; ``where`` names the config."""
    where = f"{where} " if where else ""
    extra = set(config) - set(known)
    if extra:
        raise ConfigError(f"unknown {where}config fields: {sorted(extra)}")
    missing = set(required) - set(config)
    if missing:
        raise ConfigError(f"missing {where}config fields: {sorted(missing)}")


@functools.cache
def call_keys(fn) -> tuple[tuple, tuple]:
    """The keyword arguments callable ``fn`` takes (a dataclass: its init
    fields), and those without a default, as ``check_keys`` reads them."""
    params = inspect.signature(fn).parameters.values()
    return (tuple(p.name for p in params),
            tuple(p.name for p in params if p.default is p.empty))


def norm_sq(v: ParamVector) -> float:
    """Squared Euclidean norm of a vector."""
    v = np.asarray(v)
    return float(v @ v)


def axpy(alpha: float, x: ParamVector, y: ParamVector) -> ParamVector:
    """Return ``y + alpha * x`` as a new vector; inputs are untouched."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"axpy shape mismatch: {x.shape} vs {y.shape}")
    return y + alpha * x


def fnv_fold(h: int, keys) -> int:
    """The 64-bit FNV-1a state after folding integer ``keys`` into ``h``;
    each key enters as its low 64 bits (two's complement)."""
    for x in keys:
        h ^= int(x) & _MASK64
        h = (h * _FNV_PRIME) & _MASK64
    return h


def stream_key(*keys: int) -> int:
    """Mix integer keys into a stable 63-bit stream identifier (FNV-1a)."""
    return fnv_fold(FNV_OFFSET, keys) & _MASK63


def stream_key_from(h: int, k1: int, k2: int) -> int:
    """``stream_key(*prefix, k1, k2)`` for ``h = fnv_fold(FNV_OFFSET,
    prefix)`` and Python ints ``k1``, ``k2``, whose bits above the low 64
    never reach the low 64 bits of ``^`` and ``*``, so need no mask."""
    h = ((h ^ k1) * _FNV_PRIME) & _MASK64
    return ((h ^ k2) * _FNV_PRIME) & _MASK63


def seeded_rng(*keys: int) -> np.random.Generator:
    """Counter-based generator keyed by integers.

    Identical keys yield identical streams on every platform, which is what
    makes traces bit-reproducible. No global RNG state is ever touched.
    """
    key = np.array([stream_key(*keys), len(keys) + 1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class EvalResult:
    """Mini-batch loss and its gradient at one point (``None`` when the
    evaluation was asked for the loss only)."""

    loss: float
    grad: ParamVector | None


@dataclass
class StepRecord:
    """What one optimizer step did: step size, loss before the step,
    raw squared gradient norm, whether a search ran and how hard; and, in
    memory only (neither written nor compared), SaLSa's ``h``/``s`` after
    the step (NaN before its first search commits, and for other kinds),
    ``gave_up``, a search that accepted no candidate (the step took
    eta_min), and ``evals``, the step's ``loss_grad`` calls (None on a
    loaded trace)."""

    k: int
    eta: float
    loss: float
    grad_norm_sq: float
    searched: bool
    backtracks: int
    batch_seed: int
    h: float = field(default=math.nan, compare=False)
    s: float = field(default=math.nan, compare=False)
    gave_up: bool = field(default=False, compare=False)
    evals: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"step index must be >= 0, got {self.k}")
        # eta may be exactly 0 only on non-searched steps (warmup ramp of the
        # fixed-lr baselines starts at 0); searched steps always have eta > 0.
        if self.searched and self.eta <= 0:
            raise ValueError(f"searched step with eta={self.eta}")
        if not self.searched and self.eta < 0:
            raise ValueError(f"negative eta={self.eta}")
        if self.grad_norm_sq < 0:
            raise ValueError(f"negative grad_norm_sq={self.grad_norm_sq}")
        if self.backtracks < 0:
            raise ValueError(f"negative backtracks={self.backtracks}")
        if not self.searched and self.backtracks != 0:
            raise ValueError("non-searched step cannot have backtracks")


def canonical_json(payload) -> str:
    """The one JSON encoding of traces and reports: sorted keys, no
    whitespace, a trailing newline, floats as their shortest repr."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


CSV_HEADER = "k,eta,loss,grad_norm_sq,searched,backtracks,batch_seed"
_TRACE_FIELDS = CSV_HEADER.split(",")


def _record_value(name: str, value, hint: type, text: bool):
    """A loaded ``StepRecord`` field: from a CSV token when ``text``, else
    a JSON value. An int field takes an int and not a bool, a float field
    an int or a float (NaN and +-inf too: a diverged run's trace holds
    them), ``searched`` a bool, written ``true``/``false`` in CSV."""
    if hint is bool:
        if value in ("true", "false") if text else isinstance(value, bool):
            return value is True or value == "true"
    elif text or (isinstance(value, (int, hint))
                  and not isinstance(value, bool)):
        try:
            return hint(value)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be {_NOUNS[hint]}, got {value!r}")


def _load_records(trace, rows, text: bool) -> None:
    """Append one ``StepRecord`` per CSV row of tokens (``text``) or JSON
    record object to ``trace``; a bad one raises ValueError naming its
    1-based data row or record number."""
    hints = {name: _type_hints(StepRecord)[name] for name in _TRACE_FIELDS}
    for n, values in enumerate(rows, 1):
        try:
            if text and len(values) != len(hints):
                raise ValueError(f"expected {len(hints)} fields, "
                                 f"got {len(values)}")
            if not text:
                if not isinstance(values, dict) or set(values) != set(hints):
                    raise ValueError(f"expected an object with the fields "
                                     f"{list(hints)}, got {values!r}")
                values = [values[name] for name in hints]
            trace.append(StepRecord(*(
                _record_value(name, value, hint, text)
                for (name, hint), value in zip(hints.items(), values))))
        except ValueError as e:
            raise ValueError(f"{'data row' if text else 'record'} {n}: "
                             f"{e}") from None


def _check_order(prev: StepRecord, record: StepRecord) -> None:
    if record.k <= prev.k:
        raise ValueError(f"records must have strictly increasing k: "
                         f"{record.k} after {prev.k}")


@dataclass
class TrainingTrace:
    """Ordered per-step records plus run metadata.

    Serializes to CSV (records only, fixed header) and JSON (records array
    plus metadata object). Both encodings are byte-stable for a given trace:
    floats are written with shortest round-trip repr and JSON keys are
    sorted.
    """

    metadata: dict
    records: list[StepRecord] = field(default_factory=list)

    def __post_init__(self):
        # the loaders' checks, so every trace built can be read back
        if not isinstance(self.metadata, dict):
            raise ValueError(f"trace JSON metadata must be an object, "
                             f"got {self.metadata!r}")
        for prev, record in zip(self.records, self.records[1:]):
            _check_order(prev, record)

    def append(self, record: StepRecord) -> None:
        if self.records:
            _check_order(self.records[-1], record)
        self.records.append(record)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.k},{r.eta!r},{r.loss!r},{r.grad_norm_sq!r},"
                f"{'true' if r.searched else 'false'},{r.backtracks},{r.batch_seed}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "TrainingTrace":
        """Read a trace written by ``to_csv``; raises ValueError for a bad
        header or row, naming the row (see ``_load_records``). Only
        trailing empty lines are dropped: a blank line inside the data is
        a one-field row, and every row keeps its number in the file."""
        lines = text.splitlines()
        while lines and not lines[-1]:
            lines.pop()
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError("missing or malformed trace CSV header")
        trace = cls(metadata={})
        _load_records(trace, [ln.split(",") for ln in lines[1:]], text=True)
        return trace

    def to_json(self) -> str:
        return canonical_json({
            "metadata": self.metadata,
            "records": [{name: getattr(r, name) for name in _TRACE_FIELDS}
                        for r in self.records],
        })

    @classmethod
    def from_json(cls, text: str) -> "TrainingTrace":
        """Read a trace written by ``to_json``; raises ValueError for a bad
        record, naming it (see ``_load_records``), for a key other than
        ``metadata`` and ``records``, and for a ``metadata`` that is not an
        object."""
        payload = json.loads(text)
        if not isinstance(payload, dict) or \
                not isinstance(payload.get("records"), list):
            raise ValueError("trace JSON must be an object with a records "
                             "list")
        extra = sorted(set(payload) - {"metadata", "records"})
        if extra:
            raise ValueError(f"unknown trace JSON fields: {extra}")
        trace = cls(metadata=payload.get("metadata", {}))
        _load_records(trace, payload["records"], text=False)
        return trace
