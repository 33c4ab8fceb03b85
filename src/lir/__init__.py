"""Language information removal for multilingual embeddings.

Fit per-language identity components (the leading right singular vectors of
a language's embedding matrix), remove them from embeddings by projection,
and measure the effect with retrieval, transfer-classification, and PCA
harnesses.

Importing the package loads none of its modules: each public name and each
submodule is imported on first use (PEP 562), so a CLI command loads only the
modules it runs.
"""

import importlib

# The public names by the submodule that defines them.
_EXPORTS = {
    "core": (
        "ComponentBasis",
        "EmbeddingRecord",
        "EmbeddingTable",
        "EvalReport",
        "RetrievalDataset",
        "SvdResult",
        "TransferReport",
        "check_collection",
        "corpus_fingerprint",
    ),
    "errors": (
        "ConfigError",
        "CorruptBasis",
        "DatasetError",
        "DegenerateLabels",
        "DimensionError",
        "DuplicateKey",
        "FormatError",
        "InvalidMatrix",
        "InvalidVector",
        "LanguageMismatch",
        "LirError",
        "MissingBasis",
        "NoRelevantError",
        "NumericalFailure",
        "ParseError",
        "RankError",
        "TruncatedFile",
        "ZeroVectorError",
    ),
    "evaluation": (
        "LogisticConfig",
        "RankedList",
        "average_precision",
        "evaluate_retrieval",
        "evaluate_transfer",
        "export_projection",
        "predict_logistic",
        "train_logistic",
    ),
    "linalg": ("jacobi_eigh", "pca_project", "project_out", "project_out_scaled", "svd"),
    "removal": (
        "BatchRemoval",
        "RemovalMode",
        "fit_decomposition",
        "remove_batch",
    ),
    "synth": ("SynthConfig", "SynthResult", "generate"),
}
_SUBMODULES = ("cli", "io", *_EXPORTS)
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name or submodule, imported on first use and kept in the
    package's globals, so later lookups never reach this function."""
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
