"""Every site the benchmark traces still resolves to an attribute of illumest.

bench/spans.py replaces functions at these "module:attr" sites while tracing
and fails when one is gone, so renaming a function or dropping an import in
`src/` breaks the benchmark. This is a fast check of that contract; the full
one is `python3 bench/selftest.py`.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    """Import bench/spans.py by path, writing no bytecode next to it."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def test_every_traced_site_resolves():
    spans = load_spans()
    sites = [s for group, _ in spans.SPAN_SITES.values() for s in group]
    sites += [s for group in spans.COUNT_SITES.values() for s in group]
    missing = []
    for site in sites:
        try:
            owner, attr = spans.resolve(site)
        except (ImportError, AttributeError):
            missing.append(site)
            continue
        # Patches.replace reads the attribute from the owner's own __dict__.
        if attr not in vars(owner):
            missing.append(site)
    assert len(sites) > 20
    assert not missing, f"trace sites that no longer resolve: {missing}"
