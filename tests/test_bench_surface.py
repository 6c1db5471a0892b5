"""The package surface the benchmark in perfbench/ relies on still resolves.

The benchmark's timed runs leave tracing off, so a renamed traced function or
a changed result shape would otherwise break only a traced run.  These tests
import perfbench's modules (writing no bytecode there) and change nothing in it.
"""
import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from icvmd.nn.layers import conv_backward, conv_forward, init_conv
from icvmd.nn.model import ModelConfig, init_params, model_forward
from icvmd.vmd import VmdConfig, vmd_decompose

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    """Import a perfbench module by name, as its own scripts do."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return importlib.import_module


def test_every_traced_target_exists(bench):
    spans = bench("spans")
    assert len(spans.LAYER_TARGETS) == 22
    for module, name, _, _ in spans.LAYER_TARGETS:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def test_the_workloads_import(bench):
    workloads = bench("workloads")
    assert set(workloads.PIPELINES) == {"icvmd_features", "icvmd_sat", "raw_nn"}
    # The workloads decompose with the config the pipelines use.
    assert workloads.default_icvmd_config() == VmdConfig()


def test_the_info_extractors_read_real_results(bench):
    spans = bench("spans")
    t = np.arange(256)
    side = np.cos(2 * np.pi * 0.1 * t) + 0.5 * np.cos(2 * np.pi * 0.3 * t)
    cfg = VmdConfig()
    assert spans._side_info((side, cfg), {}, vmd_decompose(side, cfg)) >= 1

    x = np.random.default_rng(0).normal(size=(3, 2, 40)).astype(np.float32)
    layer = init_conv(np.random.default_rng(1), 5, 2, 3, 2)
    y, cache = conv_forward(x, layer)
    info = spans._conv_forward_info((x, layer), {}, (y, cache))
    assert info["flop"] == 2 * 3 * 5 * 2 * 3 * 40
    assert info["cache_bytes"] > 0
    assert spans._conv_backward_info((y, cache), {}, conv_backward(y, cache))["flop"] == 2 * info["flop"]

    params = init_params(ModelConfig(segment_len=10), n_classes=3, seed=0)
    result = model_forward(params, x, x)
    assert spans._forward_info((params, x, x), {}, result) == 3
