"""Green functions, Green energies and certified lower bounds on the
compact harmonic manifolds (spheres, projective spaces over R, C, H and
the Cayley plane)."""

__version__ = "0.4.0"

from .manifold import Configuration, Family, ManifoldSpec
from .green import RadialGreenProfile, build_profile, get_profile
from .energy import EnergyReport
from .bounds import BoundCoefficients, BoundReport

__all__ = [
    "__version__",
    "Family",
    "ManifoldSpec",
    "RadialGreenProfile",
    "build_profile",
    "get_profile",
    "Configuration",
    "EnergyReport",
    "BoundCoefficients",
    "BoundReport",
]
