"""tubevol: volume bounds for drilling and filling closed geodesics in
hyperbolic 3-manifolds, with a dataset verification pipeline."""

from . import census, hypkernel, kleinian, surgery, svgplot, topobounds
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
