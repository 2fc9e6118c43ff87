"""What a process pays to start: ``import ceda`` loads no numpy, and ``ceda.cli`` runs BLAS
on the calling thread unless ``OPENBLAS_NUM_THREADS`` says otherwise."""

import importlib
import os
import subprocess
import sys

import pytest

import ceda

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ceda.__file__)))


def run_child(code, **env_changes):
    """Run ``code`` in a fresh interpreter on this source tree, with ``env_changes`` applied
    (None removes a variable); its stdout, stripped."""
    env = {**os.environ, "PYTHONPATH": SRC, **env_changes}
    env = {k: v for k, v in env.items() if v is not None}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120,
        check=True,
    )
    return proc.stdout.strip()


def test_import_ceda_loads_no_numpy():
    assert run_child("import sys, ceda; print('numpy' in sys.modules)") == "False"


def test_every_exported_name_is_its_submodules_object():
    for name in ceda.__all__:
        obj = getattr(ceda, name)
        assert obj is getattr(importlib.import_module(obj.__module__), name)
    namespace = {}
    exec("from ceda import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(ceda.__all__)
    assert set(ceda.__all__) <= set(dir(ceda))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ceda.no_such_name
    assert not hasattr(ceda, "no_such_name")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_process_runs_blas_on_the_calling_thread():
    probe = (
        "import os, ceda.cli\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    )
    assert run_child(probe, OPENBLAS_NUM_THREADS=None) == "1 1"


def test_a_user_set_blas_thread_count_is_kept():
    probe = "import os, ceda.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_child(probe, OPENBLAS_NUM_THREADS="2") == "2"
