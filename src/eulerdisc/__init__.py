"""Exact principal A-determinants and Euler discriminants of hyperplane
arrangement families, with the wavefunction construction on top.

The public names are imported from their submodules on first use
(PEP 562), so importing the package, as `python -m eulerdisc.cli` does,
loads none of the pipelines.
"""

__version__ = "0.1.0"

_SUBMODULES = {
    "cosmo": ("coefficient_family", "cosmo_euler_disc", "cosmo_pad", "facet_forms", "wavefunction"),
    "discriminant": ("DiscriminantReport", "ParamFamily", "degree_check", "euler_disc",
                     "pad_dense", "pad_sparse", "witness_point"),
    "errors": ("EulerDiscError", "HypothesisError", "InputError", "SizeLimitError"),
    "graphs": ("BipartiteSubgraph", "CosmoGraph", "PatternGraph"),
    "lattice": ("edge_config", "f_vector", "facets", "normalized_volume", "subdiagram_volume",
                "volume_and_f_vector"),
    "matroid": ("beta", "signed_euler_char"),
}
_ORIGIN = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
