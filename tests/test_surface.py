import gaussdual

PUBLIC = [
    "DimensionMismatch",
    "DualModel",
    "DualityCheck",
    "GaussDualError",
    "GenSpec",
    "InfeasibleStructure",
    "LadderModel",
    "LogDetReport",
    "ModelFormatError",
    "NotPositiveDefinite",
    "STRUCTURES",
    "SparseSymMatrix",
    "SpdFactor",
    "ValidationReport",
    "ZReport",
    "build_dual",
    "duality_check",
    "generate",
    "load_model",
    "local_logdets",
    "logdet_block_tridiagonal",
    "logdet_dense",
    "logdet_sigma_direct",
    "logdet_sigma_via_duality",
    "save_model",
    "spd_factorize",
    "spd_inverse",
    "symmetrize",
    "validate",
    "z_constants",
]


def test_public_names_are_pinned_and_import():
    # A name added to or dropped from the package's surface is a decision:
    # change this list with it.
    assert sorted(gaussdual.__all__) == PUBLIC
    namespace = {}
    exec("from gaussdual import *", namespace)
    assert PUBLIC == sorted(n for n in namespace if not n.startswith("__"))
