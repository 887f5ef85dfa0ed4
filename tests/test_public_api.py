"""Every package's public names resolve through its lazy exports.

Package ``__init__``s name their re-exports' home modules instead of
importing them (:mod:`repro._lazy`).  Each name in a package's
``__all__`` must still resolve with ``getattr``, be listed by ``dir()``
and stay bound once resolved; an unknown name must raise
``AttributeError``; and ``from repro import *`` must bind the whole of
``repro.__all__``.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.core",
    "repro.experiments",
    "repro.metacomputing",
    "repro.obs",
    "repro.predictors",
    "repro.scheduler",
    "repro.scheduler.policies",
    "repro.service",
    "repro.stats",
    "repro.utils",
    "repro.waitpred",
    "repro.workloads",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    mod = importlib.import_module(package)
    assert len(mod.__all__) == len(set(mod.__all__))
    listed = dir(mod)
    for name in mod.__all__:
        value = getattr(mod, name)
        assert name in listed
        assert vars(mod)[name] is value  # bound after the first lookup


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    mod = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(mod, "no_such_name")
    assert not hasattr(mod, "no_such_name")


def test_star_import_binds_all_of_repro():
    import repro

    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= namespace.keys()
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name)

