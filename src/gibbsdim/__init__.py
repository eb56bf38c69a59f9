"""Thermodynamic formalism on subshifts of finite type.

Pressure and Gibbs chains for locally constant potentials, the Birkhoff-ratio
dimension spectrum, bounded-sum word families and their mass distributions,
and distribution-function probes for chain measures pushed onto an interval
through an affine iterated function system.

The names below are imported from their modules on first use, so a command
that needs only the pressure layer never loads the word-set, mass-tree or
IFS modules.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("CapacityError", "EmptyLevelSetError", "InfeasibleError",
               "InsufficientContextError", "NumericalError", "ToolkitError",
               "UnsupportedSpecError", "ValidationError"),
    "sft": ("EMPTY_WORD", "BlockCoder", "InfixSet", "SftSpec", "Word",
            "higher_block_recode", "word_power"),
    "potentials": ("LocallyConstantPotential", "WordSumBounds", "add_constant",
                   "combine", "cylinder_diam_psi", "cylinder_log_diam_psi", "d_psi"),
    "thermo": ("GibbsChain", "SpectrumPoint", "alpha_range", "beta", "beta_prime",
               "full_dim_alpha", "gibbs_chain", "pressure", "spectrum_at",
               "subaction", "birkhoff_sup", "LEGENDRE_CONVENTION"),
    "wordsets": ("BoundaryWords", "PostfixSet", "VerifyReport", "WindowFamily",
                 "boundary_words", "build_postfix_set", "counterexample_word",
                 "in_frequent_set", "in_repetition_free_set", "separating_word",
                 "verify_postfix", "window_family"),
    "massdist": ("MassCertificate", "MassDistribution", "build_mass_distribution",
                 "choose_base_length"),
    "ifs": ("AffineIfs", "CdfModel", "CertifiedPoint", "HolderProbe"),
    "model": ("ModelBundle", "load_model"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
