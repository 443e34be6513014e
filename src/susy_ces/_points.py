"""The one boundary between array callers and the scalar core.

Every function that accepts arrays takes its points apart with
:func:`flat`, works on them one by one in Python ``float`` and
``complex``, and puts the results back with :func:`shaped`.  A point's
bits therefore never depend on whether it came alone or inside an
array: numpy's array loops round complex products differently from
Python (they fuse multiply and add), so no value is computed by them.
A Python ``int``/``float``/``complex`` (``numpy.float64`` and
``numpy.complex128`` included, being subclasses) is a scalar and gives
a scalar back; anything else is an array, and numpy is imported only
then, to read it and to shape the result.
"""
from __future__ import annotations


def flat(x, kind: type = float) -> tuple[list, tuple | None]:
    """(values, shape): the points of ``x`` as a flat list of ``kind``.

    ``shape`` is None for a scalar ``x`` and the array's shape otherwise.
    """
    if isinstance(x, (int, float, complex)):
        return [kind(x)], None
    import numpy as np
    a = np.asarray(x, dtype=kind)
    return a.ravel().tolist(), a.shape


def shaped(values: list, shape: tuple | None, kind: type = float):
    """``values`` back in the form :func:`flat` took them from.

    The lone value for a scalar (``shape`` None), else an ndarray of
    ``kind`` and ``shape``.
    """
    if shape is None:
        return values[0]
    import numpy as np
    return np.array(values, dtype=kind).reshape(shape)
