"""riplab: a numerical laboratory for restricted-isometry phenomena.

Builds seeded subgaussian measurement matrices, measures their
restricted-isometry accuracy exactly and by Monte Carlo, constructs
covering nets with separation/cover certificates, and runs approximate
sparse-reconstruction experiments with kernel-diameter bounds.
"""

from .ensembles import (EnsembleSpec, MeasurementMatrix, Psi2Estimate,
                        estimate_psi2, generate)
from .geometry import BallDescriptor, Rearrangement, member, rearrange, top_m_l2
from .nets import (HullDecomposition, Net, cover_check, difference_set_net,
                   gaussian_width, greedy_separated_net, hull_decompose, sparse_set_net)
from .recon import (KernelBasis, ReconResult, hull_membership, kernel_basis,
                    kernel_diameter_lower, kernel_diameter_upper, l1_minimize,
                    recon_experiment)
from .spectral import (RipReport, SupportSet, check_uup, gram_extremal_eigs,
                       max_passing_sparsity, rip_exact, rip_monte_carlo, verify_on_net)
from .concentration import (TailReport, bernstein_psi2_consistency,
                            expectation_check, tail_profile)

__version__ = "0.1.0"

__all__ = [
    "BallDescriptor", "EnsembleSpec", "HullDecomposition", "KernelBasis",
    "MeasurementMatrix", "Net", "Psi2Estimate", "Rearrangement", "ReconResult",
    "RipReport", "SupportSet", "TailReport", "bernstein_psi2_consistency",
    "check_uup", "cover_check", "difference_set_net", "estimate_psi2",
    "expectation_check", "gaussian_width", "generate", "gram_extremal_eigs",
    "greedy_separated_net", "hull_decompose", "hull_membership", "kernel_basis",
    "kernel_diameter_lower", "kernel_diameter_upper", "l1_minimize",
    "max_passing_sparsity", "member", "rearrange", "recon_experiment", "rip_exact",
    "rip_monte_carlo", "sparse_set_net", "tail_profile", "top_m_l2", "verify_on_net",
]
