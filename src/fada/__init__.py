"""Exact symbolic computation in formal affine Demazure algebras.

The package models the twisted group algebra of an affine Weyl group over a
formal group algebra, on either the big (affine) or small (finite) torus,
with exact integer arithmetic throughout.  On top of that sit the dual
bases with their GKM divisibility conditions, the Peterson subalgebra with
its basis and structure constants, connective-theory recursions, and
closed-form rank-one tables.
"""

from .errors import (ConfigError, FadaError, MembershipError,
                     NotApplicableError, PrecisionError,
                     UnsupportedTheoryError, WindowExceededError)
from .fgl import FormalGroupLaw, from_descriptor
from .roots import (AffineElt, AffineWeylGroup, FiniteRootDatum,
                    FiniteWeylElt, Window)
from .scalars import Scalar
from .algebra import AlgebraElement, Localized, TorusAlgebra
from .twisted import (BraidReport, ExpansionTables, TwistedAlgebra,
                      TwistedElement, braid_check)
from .duals import (DualElement, GkmReport, bullet, characteristic, dual_x,
                    gkm_check_big, gkm_check_small, odot, pair, phi, pr_star,
                    restrict_to_translations, w_invariance_report)
from .peterson import (CentralizerReport, PetersonContext, PetersonExpansion,
                       StructurePair, antipode, centralizer_check,
                       centralizer_report, coproduct, coproduct_multiply,
                       counit, is_translation_supported, pr)
from .connective import (ConnectiveContext, RecursionReport, check_recursion,
                         connective_scalar, conjugation_check,
                         dynkin_involution, hecke_action_check)
from .a1hat import (appendix_crosscheck, eta_sigma_closed, mu_unit,
                    mu_unit_inverse, s_leq, s_leq_coeffs, sigma, sigma_index,
                    sigma_word)

__version__ = "0.1.0"

__all__ = [
    "AffineElt", "AffineWeylGroup", "AlgebraElement", "BraidReport",
    "CentralizerReport", "ConfigError", "ConnectiveContext", "DualElement",
    "ExpansionTables", "FadaError", "FiniteRootDatum", "FiniteWeylElt",
    "FormalGroupLaw", "GkmReport", "Localized", "MembershipError",
    "NotApplicableError", "PetersonContext", "PetersonExpansion",
    "PrecisionError", "RecursionReport", "Scalar", "StructurePair",
    "TorusAlgebra", "TwistedAlgebra", "TwistedElement",
    "UnsupportedTheoryError", "Window", "WindowExceededError",
    "antipode", "appendix_crosscheck", "braid_check", "bullet",
    "centralizer_check", "centralizer_report", "characteristic",
    "check_recursion", "conjugation_check", "connective_scalar", "coproduct",
    "coproduct_multiply", "counit", "dual_x", "dynkin_involution",
    "eta_sigma_closed", "from_descriptor", "gkm_check_big",
    "gkm_check_small", "hecke_action_check", "is_translation_supported",
    "mu_unit", "mu_unit_inverse", "odot",
    "pair", "phi", "pr", "pr_star", "restrict_to_translations", "s_leq",
    "s_leq_coeffs", "sigma", "sigma_index", "sigma_word",
    "w_invariance_report",
]
