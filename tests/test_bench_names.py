"""The names the benchmark in perfbench/ looks up in domcert.

perfbench/tracer.py wraps domcert functions by name from outside the package,
and perfbench/worker.py reads the membership caches.  Renaming or deleting one
of those functions breaks `perfbench/run.py --trace 1` although no library
test calls the benchmark, so these tests load its modules the way it does.
"""

import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracer"), importlib.import_module("worker")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_targets_cover_every_span_name_the_metrics_read(bench):
    tracer, _ = bench
    names = {name for name, _ in tracer._targets().values()}
    assert {
        "linprog.solve_lp", "linprog.solve_square", "linprog.support_function",
        "linprog.max_min_over_simplex", "domination._support_function_nonneg",
    } <= names
    # span names are the quoted dotted strings of layer_metrics that are not
    # metric keys (those are followed by a colon)
    source = inspect.getsource(tracer.layer_metrics)
    read = set(re.findall(r'"([a-z]+\.[A-Za-z_][\w.]*)"(?!:)', source))
    assert read and read <= names, sorted(read - names)


def test_install_and_uninstall_restore_every_name(bench):
    tracer, _ = bench
    from domcert import domination, linprog, transfer

    originals = (linprog.solve_lp, linprog.support_function,
                 domination.support_function, domination._support_function_nonneg,
                 transfer.max_min_over_simplex)
    t = tracer.Tracer()
    t.install()
    try:
        assert domination.support_function.__wrapped__ is originals[2]
        assert domination._support_function_nonneg.__wrapped__ is originals[3]
        assert transfer.max_min_over_simplex.__wrapped__ is originals[4]
    finally:
        t.uninstall()
    assert (linprog.solve_lp, linprog.support_function,
            domination.support_function, domination._support_function_nonneg,
            transfer.max_min_over_simplex) == originals


def test_membership_cache_info(bench):
    _, worker = bench
    hits, misses = worker.membership_cache_info()
    assert hits >= 0 and misses >= 0
