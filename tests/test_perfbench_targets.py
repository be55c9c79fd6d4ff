"""perfbench traces the program through names it looks up from outside
(perfbench/spans.py). A rename in the program breaks those look-ups; these
checks make it fail here instead, without installing any wrapper."""

import importlib.util
import inspect
import os

import pytest

from talentrank import _kernels, search_service

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_targets_resolve(spans):
    """Tracer.install reads each target as owner.__dict__[attr]."""
    targets = spans.layer_targets()
    assert targets
    for owner, attr, name, kind, _ in targets:
        assert attr in owner.__dict__, name
        raw = owner.__dict__[attr]
        if kind == "classmethod":
            assert isinstance(raw, classmethod), name
        else:
            assert inspect.isfunction(raw), name


def test_server_roots_resolve():
    """install_server_roots wraps the handler's own do_GET and do_POST."""
    for attr in ("do_GET", "do_POST"):
        assert inspect.isfunction(search_service._Handler.__dict__.get(attr)), attr


def test_span_attributes_read_the_arguments_they_name():
    """The retrieve span reads args[2] as the limit, the second-pass span
    args[0] as the candidates."""
    assert list(inspect.signature(search_service.retrieve).parameters)[2] == "limit"
    assert list(inspect.signature(search_service.second_pass_rank).parameters)[0] == "candidates"


def test_machine_record_reads_kernel_flag():
    """Every perfbench run's machine record reads _kernels.NUMBA_ENABLED."""
    assert isinstance(_kernels.NUMBA_ENABLED, bool)
