"""Causal semantics, unfolding, and distributability analysis for finite
1-safe labelled Petri nets."""

from .model import *
from .semantics import *
from .distributability import *
from .unfolding import *
from .equivalence import *
from .transforms import *

__all__ = (model.__all__ + semantics.__all__ + distributability.__all__ + unfolding.__all__
           + equivalence.__all__ + transforms.__all__)
