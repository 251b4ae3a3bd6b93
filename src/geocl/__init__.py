"""geocl: continual learning in dynamically expanding mixed-curvature spaces."""

from .errors import (ConfigurationError, ContractViolation, DegenerateAngleError,
                     GeoclError, NumericalDomainError)
from .product import FactorSpec, MixedSpace

__version__ = "0.1.0"

__all__ = [
    "FactorSpec", "MixedSpace", "GeoclError", "ConfigurationError",
    "NumericalDomainError", "DegenerateAngleError", "ContractViolation", "__version__",
]
