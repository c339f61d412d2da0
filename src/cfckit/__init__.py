"""cfckit: continuous functional calculus for complex matrices, numerically,
over the scalar rings C, R and R>=0, with junk-value semantics, quasispectra,
minimal unitization, and an interpolation-based uniqueness oracle.

`import cfckit` loads the calculus itself; the names of the law checker,
the spectra and the unitization load their modules on first use (PEP 562).
"""

__version__ = "0.1.0"

import importlib
import sys
import types

from .cfc import (
    CfcOutcome,
    ScalarFunction,
    SpectralPlan,
    builtin_function,
    cfc,
    cfc_builtin,
    cfc_n,
    neg_part,
    plan,
    pos_part,
)
from .eigen import (
    cluster_with_labels,
    elemental_subalgebra,
    is_nonneg,
    is_selfadjoint,
    is_star_normal,
)
from .matrix_core import PredicateReport, StarSubalgebra, adjoint, operator_norm
from .scalars import ScalarRing, embed, restrict_scalar, truncated_sub

# The public names of each module that loads on first use.
_LAZY = {
    "oracle": ("LawReport", "StarPolynomial", "cfc_oracle", "check_laws"),
    "spectrum": ("QuasiregularWitness", "SpectrumResult", "is_quasiregular",
                 "quasispectrum_intrinsic", "quasispectrum_via_unitization", "spectrum"),
    "unitization": ("UnitizationElement", "uni_mul", "uni_norm", "uni_represent", "uni_star"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "CfcOutcome", "ScalarFunction", "SpectralPlan", "builtin_function", "cfc",
    "cfc_builtin", "cfc_n", "neg_part", "plan", "pos_part", "cluster_with_labels",
    "PredicateReport", "StarSubalgebra", "adjoint", "elemental_subalgebra",
    "is_nonneg", "is_selfadjoint", "is_star_normal", "operator_norm",
    "ScalarRing", "embed", "restrict_scalar", "truncated_sub", *_HOME,
]


def __getattr__(name):
    """A lazy public name: its module is loaded and every public name of that
    module is bound here, so the next lookup is a plain one.  A lazy module
    whose name is no public name (oracle, unitization) is loaded as itself,
    so `cfckit.oracle` works as it did when the package imported it."""
    if name in _LAZY and name not in _HOME:
        return importlib.import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    for public in _LAZY[module]:
        globals()[public] = getattr(loaded, public)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The import system binds each submodule it loads as an attribute of
    this package; a public name keeps its meaning over a submodule of the
    same name (the function `spectrum` over the module, as `cfc` over its
    own), whichever of them is loaded first."""

    def __setattr__(self, name, value):
        if not (isinstance(value, types.ModuleType) and name in __all__):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
