"""Named parameter (or gradient) arrays that share one contiguous
float64 buffer, so an optimizer updates a whole network in one pass."""

from __future__ import annotations

import math
from collections.abc import Mapping, MutableMapping
from itertools import accumulate

import numpy as np

from ..errors import DataValidationError


class FlatParams(MutableMapping):
    """Name -> array, every array a reshaped view of a consecutive slice
    of the contiguous vector ``flat``, laid out in the order of
    ``shapes``.

    Assigning a name copies the values into its view instead of
    rebinding it, so the entries never stop being views of ``flat``;
    the names and shapes are fixed. ``values``, when given, must hold
    every name.
    """

    def __init__(
        self, shapes: Mapping[str, tuple[int, ...]], values: Mapping[str, np.ndarray] | None = None
    ):
        self.shapes = dict(shapes)
        if values is not None:
            missing = sorted(set(self.shapes) - set(values))
            if missing:
                raise DataValidationError(f"missing parameters {missing}")
            # checked before the buffer exists: a model file's spec may
            # declare shapes far larger than the values it holds
            values = {name: self._checked(name, value) for name, value in values.items()}
        sizes = [math.prod(shape) for shape in self.shapes.values()]
        self.flat = np.zeros(sum(sizes))
        self._slices = {
            name: slice(stop - size, stop)
            for name, size, stop in zip(self.shapes, sizes, accumulate(sizes))
        }
        self._views = {
            name: self.flat[s].reshape(self.shapes[name]) for name, s in self._slices.items()
        }
        for name, value in (values or {}).items():
            self._views[name][...] = value

    def _checked(self, name: str, value) -> np.ndarray:
        """``value`` as a float64 array of the shape of ``name``."""
        if name not in self.shapes:
            raise DataValidationError(f"unknown parameter {name!r}")
        value = np.asarray(value, dtype=np.float64)
        if value.shape != tuple(self.shapes[name]):
            raise DataValidationError(
                f"parameter {name} has shape {value.shape}, expected {tuple(self.shapes[name])}"
            )
        return value

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        self._views[name][...] = self._checked(name, value)

    def __delitem__(self, name: str) -> None:
        raise TypeError("the parameter names of a FlatParams are fixed")

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def __reduce__(self):
        # pickling the views would copy each one apart from the buffer
        return FlatParams, (self.shapes, self._views)

    def span(self, names: tuple[str, ...]) -> np.ndarray | None:
        """The slice of ``flat`` that holds ``names`` back to back, in
        that order, or None when they are not laid out so."""
        slices = [self._slices.get(name) for name in names]
        if None in slices or any(a.stop != b.start for a, b in zip(slices, slices[1:])):
            return None
        return self.flat[slices[0].start : slices[-1].stop]
