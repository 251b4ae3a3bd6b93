"""Helpers the test modules share."""

import numpy as np

from geocl import autodiff as ad


def weighted_sum(x, w):
    """sum(x * w), one node over ``x``: a fixed linear functional, the scalar
    probe of a backward. ``w`` is a scalar or an array of ``x``'s shape, and
    the gradient of ``x`` is ``w`` in ``x``'s shape."""
    w = np.broadcast_to(w, np.shape(ad._value(x)))
    return ad._make(np.asarray(ad._value(x) * w, order="C").sum(), (x,),
                    lambda g: ad._accum(x, g * w))
