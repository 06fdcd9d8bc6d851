"""The benchmark's tracer patches functions by name in several modules.
Each site must hold the same function object as the first one, or a
traced benchmark run stops with RuntimeError; this test makes such a
refactor fail here instead."""

import importlib.util
from pathlib import Path

import pytest

from branchspec import (
    cli,
    flowavg,
    quantization,
    schrodinger,
    skeleton,
    specfun,
    zerocount,
)

TRACING = Path(__file__).resolve().parent.parent / "benchmark" / "tracing.py"
MODULES = {"cli": cli, "zerocount": zerocount, "quantization": quantization,
           "specfun": specfun, "skeleton": skeleton,
           "schrodinger": schrodinger, "flowavg": flowavg}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name,sites", [(name, sites) for name, sites, _
                                        in tracing.TARGETS])
def test_trace_sites_share_one_function(name, sites):
    owner, attr = tracing._resolve(MODULES[sites[0][0]], sites[0][1])
    first = getattr(owner, attr)
    assert callable(first)
    for mod, path in sites[1:]:
        owner, attr = tracing._resolve(MODULES[mod], path)
        assert getattr(owner, attr) is first, f"{mod}.{path} is not {name}"
