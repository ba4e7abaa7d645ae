"""Exact computer algebra for regular multiplier Hopf algebras.

Core layers:

* ``scalars`` / ``elements`` / ``linalg``: Gaussian-rational scalars,
  finite-support vectors and tensors, deterministic exact linear algebra;
* ``algebras`` / ``mha`` / ``sweedler``: non-degenerate algebras and
  multipliers, the covering-map presentation of regular multiplier Hopf
  algebras, the Sweedler-expression evaluator;
* ``aqg``: integrals, cointegrals, the modular automorphism and the
  finite-dimensional dual;
* ``instances``: K(G), CG, matrix and tensor algebras, canonical pairs;
* ``actions`` / ``smash`` / ``pairing`` / ``duality``: module algebras and
  their extensions, smash products, dual pairs with the Heisenberg and
  rank-one structure, the dual action and the bismash duality theorem;
* ``cli``: suite runner emitting machine-readable verification reports.
"""

from .scalars import I, ONE, ZERO, Scalar, sc
from .elements import Element, flip, tensor
from .linalg import LinearMap, linear_solve
from .algebras import Algebra, Multiplier, multiplier_product
from .mha import RegularMHA, find_local_units, verify_mha_axioms
from .sweedler import ConstLeg, DeltaLeg, SweedlerExpr, sweedler_eval

__all__ = [
    "Algebra",
    "ConstLeg",
    "DeltaLeg",
    "Element",
    "I",
    "LinearMap",
    "Multiplier",
    "ONE",
    "RegularMHA",
    "Scalar",
    "SweedlerExpr",
    "ZERO",
    "find_local_units",
    "flip",
    "linear_solve",
    "multiplier_product",
    "sc",
    "sweedler_eval",
    "tensor",
    "verify_mha_axioms",
]

__version__ = "0.1.0"
