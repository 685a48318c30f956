"""Certified composition calculus for identity-nonexpansive decompositions.

Submodules: ``calculus`` (descriptor arithmetic and composition rules),
``operators`` (evaluatable maps, resolvents; a quadratic's proximal map
is the resolvent of its gradient),
``splitting`` (Douglas-Rachford / forward-backward plans and drivers),
``verifier`` (sampled membership checks and named cases), ``figures``
(2D region rasters and SVG emission), ``cli`` (command-line entry point).
"""

from . import calculus, figures, operators, splitting, verifier
from .calculus import ClassLabel, INParams, ScaledConic, classify, from_label
from .errors import (
    BuildError,
    DomainError,
    GuardError,
    NumericError,
    OpSplitError,
    StepSizeError,
)

__version__ = "0.1.0"

__all__ = [
    "calculus",
    "operators",
    "splitting",
    "verifier",
    "figures",
    "INParams",
    "ScaledConic",
    "ClassLabel",
    "classify",
    "from_label",
    "OpSplitError",
    "DomainError",
    "GuardError",
    "StepSizeError",
    "BuildError",
    "NumericError",
    "__version__",
]
