"""Labeled tensor-product spaces.

A :class:`TensorSpace` is an ordered tuple of ``(label, dimension)`` pairs.
Subsystem order is significant: matrices are stored in the row-major Kronecker
convention, so the first subsystem varies slowest.  Labels must be unique
within a space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import LabelCollisionError, UnknownLabelError, ValidationError, _positive_int


def _as_label_set(labels: str | Iterable[str]) -> tuple[str, ...]:
    """Normalize a label argument to a tuple, accepting a bare string."""
    if isinstance(labels, str):
        return (labels,)
    out = tuple(str(x) for x in labels)
    if len(set(out)) != len(out):
        raise ValidationError(f"repeated labels in {out!r}")
    return out


@dataclass(frozen=True)
class TensorSpace:
    """An ordered collection of labeled finite-dimensional subsystems."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        cleaned = []
        seen: set[str] = set()
        for entry in self.subsystems:
            try:
                label, dim = entry
            except (TypeError, ValueError):
                raise ValidationError(f"subsystem entry {entry!r} is not a (label, dim) pair")
            label = str(label)
            if not label:
                raise ValidationError("subsystem labels must be non-empty strings")
            dim = _positive_int(
                dim, f"dimension of {label!r} must be a positive integer, got {dim!r}")
            if label in seen:
                raise LabelCollisionError(f"label {label!r} appears twice")
            seen.add(label)
            cleaned.append((label, dim))
        if not cleaned:
            raise ValidationError("a tensor space needs at least one subsystem")
        object.__setattr__(self, "subsystems", tuple(cleaned))

    @staticmethod
    def of(*subsystems: tuple[str, int]) -> "TensorSpace":
        return TensorSpace(tuple(subsystems))

    @staticmethod
    def single(label: str, dim: int) -> "TensorSpace":
        return TensorSpace(((label, dim),))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def positions(self, labels: str | Iterable[str]) -> tuple[int, ...]:
        """Indices of the given labels in subsystem order."""
        wanted = _as_label_set(labels)
        index = {label: i for i, (label, _) in enumerate(self.subsystems)}
        missing = [x for x in wanted if x not in index]
        if missing:
            raise UnknownLabelError(f"labels {missing!r} not in space {self.labels!r}")
        return tuple(index[x] for x in wanted)

    def dim_of(self, labels: str | Iterable[str]) -> int:
        return math.prod(self.dims[i] for i in self.positions(labels))

    def tensor(self, other: "TensorSpace") -> "TensorSpace":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise LabelCollisionError(f"labels {sorted(overlap)!r} present on both factors")
        return TensorSpace(self.subsystems + other.subsystems)

    def restrict(self, labels: str | Iterable[str]) -> "TensorSpace":
        """Sub-space holding only ``labels``, in this space's original order."""
        wanted = set(_as_label_set(labels))
        missing = wanted - set(self.labels)
        if missing:
            raise UnknownLabelError(f"labels {sorted(missing)!r} not in space {self.labels!r}")
        return TensorSpace(tuple(s for s in self.subsystems if s[0] in wanted))

    def reorder(self, labels: Iterable[str]) -> "TensorSpace":
        """Same subsystems, listed in the order given by ``labels``."""
        order = _as_label_set(labels)
        if set(order) != set(self.labels) or len(order) != len(self.labels):
            raise UnknownLabelError(
                f"reorder labels {order!r} must be a permutation of {self.labels!r}")
        by_label = dict(self.subsystems)
        return TensorSpace(tuple((x, by_label[x]) for x in order))
