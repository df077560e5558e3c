"""Numerical verification of determinant and Pfaffian integration identities
for biorthogonal ensembles.

The package evaluates both sides of two continuous identities (a determinant
integration formula and its Pfaffian extension), their discrete analogues
(Cauchy-Binet and a Pfaffian minor summation), and builds biorthogonal
function systems whose normalization constants reproduce the same partition
functions.
"""

from .biortho import BiorthogonalSystem, biorthogonalize, partition_function
from .ensembles import (
    EnsembleSpec,
    FunctionFamily,
    KernelFunction,
    build_ensemble,
)
from .identities import Check, VerifyConfig, verify_andreief
from .quadrature import Domain

__version__ = "0.1.0"

__all__ = [
    "BiorthogonalSystem",
    "Check",
    "Domain",
    "EnsembleSpec",
    "FunctionFamily",
    "KernelFunction",
    "VerifyConfig",
    "__version__",
    "biorthogonalize",
    "build_ensemble",
    "partition_function",
    "verify_andreief",
]
