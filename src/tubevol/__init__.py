"""tubevol: volume bounds for drilling and filling closed geodesics in
hyperbolic 3-manifolds, with a dataset verification pipeline."""

import importlib

from . import hypkernel
from .errors import DomainError, IngestError, NonLoxodromicError, ParseError
from .hypkernel import Factor, TubeData, V3, V8, VolumePair

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "Factor",
    "IngestError",
    "NonLoxodromicError",
    "ParseError",
    "TubeData",
    "V3",
    "V8",
    "VolumePair",
    "census",
    "hypkernel",
    "kleinian",
    "surgery",
    "svgplot",
    "topobounds",
]

# the other modules load on first use, so that a command imports only its own
_LAZY_MODULES = ("census", "kleinian", "surgery", "svgplot", "topobounds")


def __getattr__(name):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
