"""Reliability-thresholded coverage metrics for sampled completion logs.

Computes cover@tau (the fraction of tasks solvable with per-trial success
probability at least tau), pass@k in both exact-profile and unbiased-subset
form, maj@n / cons@n consensus scores, and excess-AUC dominance comparisons
between models — with the step-curve algebra carried out in exact rational
arithmetic.
"""

__version__ = "0.1.0"

# submodule -> the names the package exports from it.  Each submodule is
# imported the first time one of its names is used (PEP 562), so that a
# command loads only the modules it runs.
_EXPORTS = {
    "curves": (
        "CoverCurve", "PassCurve", "beta_mass_below", "beta_weighted_pass", "export_curve", "fraction_nonzero",
        "pass_curve", "uniform_auc",
    ),
    "dominance": (
        "CrossoverResult", "DominanceReport", "auc_plus_cover", "avg_auc_plus", "bootstrap_bands", "build_cover_curve",
        "check_cover_dominance", "dominance_report", "find_crossover", "rank_models",
    ),
    "ingest": (
        "ParseError", "RunManifest", "aggregate", "apply_grading", "build_manifest", "canonical_answer", "cons_at_n",
        "counts_from_log", "grade", "load_run", "parse_gold", "parse_records", "persist_run",
    ),
    "metrics": (
        "cover_at_tau", "estimate_success", "maj_at_n", "majority_threshold", "pass_at_k_exact",
        "pass_at_k_unbiased",
    ),
    "records": ("GoldAnswer", "SampleRecord", "SuccessProfile", "TaskCounts", "as_unit_rational"),
    "synth": (
        "GuesserSpec", "ProfileSpec", "make_profile", "simulate_completions", "simulate_guesser",
        "toy_model_a", "toy_model_b",
    ),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:  # `covertau.metrics` without `import covertau.metrics`, as when every module loaded
        return import_module(f".{name}", __name__)
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
