"""Thermodynamic formalism on subshifts of finite type.

Pressure and Gibbs chains for locally constant potentials, the Birkhoff-ratio
dimension spectrum, bounded-sum word families and their mass distributions,
and distribution-function probes for chain measures pushed onto an interval
through an affine iterated function system.
"""

__version__ = "0.1.0"

from .errors import (CapacityError, EmptyLevelSetError, InfeasibleError,
                     InsufficientContextError, NumericalError, ToolkitError,
                     UnsupportedSpecError, ValidationError)
from .sft import (EMPTY_WORD, BlockCoder, InfixSet, SftSpec, Word,
                  higher_block_recode, word_power)
from .potentials import (LocallyConstantPotential, WordSumBounds, add_constant,
                         align_depth, combine, cylinder_diam_psi, d_psi)
from .thermo import (GibbsChain, SpectrumPoint, alpha_range, beta, beta_prime,
                     full_dim_alpha, gibbs_chain, pressure, spectrum_at,
                     subaction, birkhoff_sup, LEGENDRE_CONVENTION)
from .wordsets import (BoundaryWords, PostfixSet, VerifyReport, WindowFamily,
                       boundary_words, build_postfix_set, counterexample_word,
                       in_frequent_set, in_repetition_free_set,
                       separating_word, verify_postfix, window_family)
from .massdist import (MassCertificate, MassDistribution, build_mass_distribution,
                       choose_base_length)
from .ifs import AffineIfs, CdfModel, CertifiedPoint, HolderProbe
from .model import ModelBundle, load_model
