"""The cross-dispatch gate: every pinned full-precision value holds under
each SIMD level and OpenBLAS core this host can select.

numpy picks its SIMD kernels at import (NEP 38), and a DYNAMIC_ARCH
OpenBLAS picks its CPU core at load, so both are fixed for the life of a
process.  Each setting therefore runs one child, ``python -c``, that imports
only numpy and the library and prints ``_digests.dispatch_digests()``; the
child must give the default build's values.  A setting this host cannot
select is skipped, with the reason.
"""
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import _digests

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# Every variable that selects a kernel, cleared in each child before its
# own setting is applied.
SWITCHES = ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES",
            "OPENBLAS_CORETYPE")

# The /proc/cpuinfo flags each OpenBLAS core's kernels need.
CORE_FLAGS = {"Haswell": ("avx2", "fma"), "Prescott": ("pni",)}

CHILD = ("import json, sys; sys.path[:0] = sys.argv[1:]; import _digests; "
         "print(json.dumps(_digests.dispatch_digests()))")


def _numpy_cpu():
    """numpy's dispatch targets and the host's CPU features."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return umath.__cpu_dispatch__, umath.__cpu_features__


def _cpu_flags() -> set[str] | None:
    """The host CPU's flags from /proc/cpuinfo, or None if unreadable."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "flags":
            return set(value.split())
    return None


def _dynamic_openblas() -> str | None:
    """None if numpy's BLAS is a DYNAMIC_ARCH OpenBLAS, else why not."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy.show_config() reports no BLAS build"
    name = blas.get("name", "unnamed")
    configuration = blas.get("openblas configuration", "")
    if "openblas" not in name.lower() or "DYNAMIC_ARCH" not in configuration:
        return (f"numpy's BLAS, {name}, is not a DYNAMIC_ARCH OpenBLAS, "
                f"which alone reads OPENBLAS_CORETYPE")
    return None


def _setting(name: str) -> dict[str, str]:
    """The environment variables of one setting; skip it if this host cannot
    select it."""
    if name == "numpy_baseline":
        dispatch, features = _numpy_cpu()
        targets = [t for t in dispatch if features.get(t)]
        if not targets:
            pytest.skip("numpy has no dispatch target above its baseline "
                        "that this CPU runs")
        return {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    reason = _dynamic_openblas()
    if reason:
        pytest.skip(reason)
    flags = _cpu_flags()
    if flags is None:
        pytest.skip("cannot read the CPU flags from /proc/cpuinfo")
    missing = [f for f in CORE_FLAGS[name] if f not in flags]
    if missing:
        pytest.skip(f"OpenBLAS core {name} needs CPU flags this host lacks: "
                    f"{', '.join(missing)}")
    return {"OPENBLAS_CORETYPE": name}


@pytest.fixture(scope="module")
def default_digests() -> dict[str, str]:
    """The default build's values: the pinned digests, the shipped
    ``hedge_vs_ftl`` CSV pin, and the tables computed in this process."""
    pins = json.loads((resources.files("boundslab.lab.presets") / "pins.json")
                      .read_text(encoding="utf-8"))
    return {**_digests.PINNED,
            "tables": _digests.hex_digest(_digests.table_values()),
            "hedge_vs_ftl.csv": pins["hedge_vs_ftl"]["csv"]}


@pytest.mark.parametrize("name", ["numpy_baseline", "Haswell", "Prescott"])
def test_every_pinned_value_holds_under_the_setting(name, default_digests):
    env = {k: v for k, v in os.environ.items() if k not in SWITCHES}
    env.update(_setting(name))
    child = subprocess.run([sys.executable, "-c", CHILD, str(SRC), str(TESTS)],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == default_digests


@pytest.mark.parametrize("blas, flags, reason", [
    ({"name": "accelerate"}, {"avx2", "fma", "pni"},
     "numpy's BLAS, accelerate, is not a DYNAMIC_ARCH OpenBLAS, which alone "
     "reads OPENBLAS_CORETYPE"),
    ({"name": "scipy-openblas", "openblas configuration": "OpenBLAS 0.3 "
      "USE64BITINT Haswell"}, {"avx2", "fma", "pni"},
     "numpy's BLAS, scipy-openblas, is not a DYNAMIC_ARCH OpenBLAS, which "
     "alone reads OPENBLAS_CORETYPE"),
    ({"name": "scipy-openblas", "openblas configuration": "DYNAMIC_ARCH"},
     {"pni", "avx"}, "OpenBLAS core Haswell needs CPU flags this host lacks: "
     "avx2, fma"),
    ({"name": "scipy-openblas", "openblas configuration": "DYNAMIC_ARCH"},
     None, "cannot read the CPU flags from /proc/cpuinfo"),
], ids=["other_blas", "single_core_openblas", "older_cpu", "no_cpuinfo"])
def test_a_core_this_host_cannot_select_is_skipped_by_name(
        monkeypatch, blas, flags, reason):
    monkeypatch.setattr(np, "show_config", lambda mode: {
        "Build Dependencies": {"blas": blas}})
    monkeypatch.setattr(sys.modules[__name__], "_cpu_flags", lambda: flags)
    with pytest.raises(pytest.skip.Exception, match=f"^{re.escape(reason)}$"):
        _setting("Haswell")
