"""Symbolic engine for symmetric-group coset combinatorics,
Kazhdan-Lusztig multiplicities, segment bookkeeping, generalized
Steinberg constituent multiplicities, formal Tits complexes, and an
Ext-dimension rule table.

``import parastein`` runs none of the six computing modules.  It puts
each of them in ``sys.modules`` and on the package through
``importlib.util.LazyLoader``, which runs a module's code on the first
attribute read from it.  So a CLI process runs only the modules its verb
reads, plus what those import, while every module is already registered
for tools that look it up by name.  ``from parastein import X`` still
works for every name listed in ``_SOURCE``: the module ``__getattr__``
(PEP 562) reads it from its module at each lookup, so it is always the
module's current binding.  Before CPython 3.12, ``LazyLoader`` does not
guard a first attribute read against a second thread doing the same;
the package starts no threads.
"""

# Where each exported name is defined.
_SOURCE = {
    name: module
    for module, names in {
        "cosets": "BlockSet coset_matrix double_coset_count_oracle min_double_coset_reps "
        "modulus_exponents parse_blockset",
        "ext_calc": "ExtAnswer ExtQuery RepDescriptor char_group_dim consistency_check_thm_main "
        "ext_dim",
        "kl_mult": "kl_poly parabolic_verma_mult",
        "segments": "Segment jacquet_decomposition jh_factors pi_I_segments pi_base_twists",
        "steinberg_mult": "ConstituentLabel analytic_tits_euler_check check_complex_squares_zero "
        "enumerate_constituents smooth_tits_euler_check steinberg_multiplicity "
        "steinberg_multiplicity_oracle",
        "weyl_core": "BoundExceededError MultiWeyl Perm bruhat_leq enumerate_group "
        "enumerate_parabolic identity inverse length multiply parse_perm reduced_word "
        "simple_reflection support",
    }.items()
    for name in names.split()
}


def _register_lazily(names) -> None:
    import importlib.util
    import sys

    for name in names:
        spec = importlib.util.find_spec(f"{__name__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        globals()[name] = module


_register_lazily(("weyl_core", "cosets", "kl_mult", "segments", "steinberg_mult", "ext_calc"))
del _register_lazily


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_SOURCE[name]], name)


__version__ = "0.1.0"
