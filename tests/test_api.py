import inspect

import cfckit


def test_exports_resolve_once_and_take_no_cluster_tol():
    """Every name in cfckit.__all__ resolves and is listed once, and no
    exported callable takes a cluster_tol: the cluster scale is derived from
    ||a||_F."""
    assert len(cfckit.__all__) == len(set(cfckit.__all__))
    for name in cfckit.__all__:
        obj = getattr(cfckit, name)
        if callable(obj):
            assert "cluster_tol" not in inspect.signature(obj).parameters, name
