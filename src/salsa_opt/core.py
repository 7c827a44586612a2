"""Flat parameter vectors, per-step records, and training traces.

Everything downstream works on plain 1-D float64 numpy arrays. Doubles are
mandatory: at float32 the backtracking search is known to collapse the step
size once losses stop resolving in single precision.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

ParamVector = np.ndarray

_MASK64 = 0xFFFFFFFFFFFFFFFF


def param_vector(values) -> ParamVector:
    """Coerce to a finite 1-D float64 vector."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"parameter vector must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("parameter vector contains non-finite entries")
    return v


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


def stream_key(*keys: int) -> int:
    """Mix integer keys into a stable 63-bit stream identifier (FNV-1a)."""
    h = 0xCBF29CE484222325
    for x in keys:
        h ^= int(x) & _MASK64
        h = (h * 0x100000001B3) & _MASK64
    return h & 0x7FFFFFFFFFFFFFFF


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
    raw squared gradient norm, whether a search ran and how hard."""

    k: int
    eta: float
    loss: float
    grad_norm_sq: float
    searched: bool
    backtracks: int
    batch_seed: int

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

    def append(self, record: StepRecord) -> None:
        if self.records and record.k <= self.records[-1].k:
            raise ValueError(
                f"records must have strictly increasing k: "
                f"{record.k} after {self.records[-1].k}"
            )
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
    def from_csv(cls, text: str, metadata: dict | None = None) -> "TrainingTrace":
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError("missing or malformed trace CSV header")
        trace = cls(metadata=metadata or {})
        for ln in lines[1:]:
            k, eta, loss, gsq, searched, bts, bseed = ln.split(",")
            trace.append(
                StepRecord(
                    k=int(k),
                    eta=float(eta),
                    loss=float(loss),
                    grad_norm_sq=float(gsq),
                    searched=searched == "true",
                    backtracks=int(bts),
                    batch_seed=int(bseed),
                )
            )
        return trace

    def to_json(self) -> str:
        return canonical_json({
            "metadata": self.metadata,
            "records": [asdict(r) for r in self.records],
        })

    @classmethod
    def from_json(cls, text: str) -> "TrainingTrace":
        payload = json.loads(text)
        trace = cls(metadata=payload.get("metadata", {}))
        for r in payload["records"]:
            trace.append(StepRecord(**r))
        return trace
