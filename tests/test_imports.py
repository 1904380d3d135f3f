"""Imports follow the layer graph: a command pays for the layers it runs.

Package ``__init__``\\ s are export tables (``repro._lazy``) and leaf
modules import leaves, so ``import repro`` loads nothing, a cached
``repro sweep`` never loads the simulator, and ``repro advise`` never
loads the HTTP daemon.  A lazy table rots silently — a name missing
from it only fails when somebody reads it — so every table entry is
resolved here.
"""

from __future__ import annotations

import gc
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys
import tempfile

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parents[1]
LOADED_MODULES = pathlib.Path(__file__).parent / "support" / "loaded_modules.py"

#: every package whose ``__init__`` re-exports names
PACKAGES = ("repro", *(
    f"repro.{info.name}"
    for info in pkgutil.iter_modules(repro.__path__) if info.ispkg))

#: what answering a sweep from the cache must not load
SIMULATOR = ("numpy", "repro.runtime", "repro.actions", "repro.schedules",
             "repro.analysis.throughput", "repro.serve")


def _run(*argv: str) -> subprocess.CompletedProcess:
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *argv], env=env,
                          text=True, capture_output=True, check=True)


def _imported_by(*repro_argv: str) -> set[str]:
    """Modules a real ``repro ...`` process held at exit — lazily
    exported ones included, which ``-X importtime`` does not log."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "modules.txt"
        _run(str(LOADED_MODULES), str(out), *repro_argv)
        return set(out.read_text().split())


def test_packages_cover_the_tree():
    assert {"repro.analysis", "repro.sweep", "repro.runtime",
            "repro.actions", "repro.schedules", "repro.serve",
            "repro.synthesis"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_its_leaf(package):
    module = importlib.import_module(package)
    leaves = [importlib.import_module(f"{package}.{info.name}")
              for info in pkgutil.iter_modules(module.__path__)]
    listed = set(dir(module))
    assert len(set(module.__all__)) == len(module.__all__) > 0
    for name in module.__all__:
        value = getattr(module, name)
        assert name in listed, name
        if name == "__version__":
            continue
        assert any(getattr(leaf, name, leaf) is value
                   for leaf in leaves), f"{package}.{name}"
        # exports and submodules share one namespace: keep them apart
        assert not any(leaf.__name__ == f"{package}.{name}"
                       for leaf in leaves), name
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def test_star_import_and_from_import():
    namespace: dict = {}
    exec("from repro.sweep import *", namespace)
    assert set(repro.sweep.__all__) <= set(namespace)
    from repro import simulate
    from repro.runtime.simulator import simulate as leaf
    assert simulate is leaf is repro.runtime.simulate


def test_bare_import_loads_no_layer():
    proc = _run("-c", "import sys, repro; print(*sorted("
                "m for m in sys.modules if m.startswith('repro.')))")
    assert proc.stdout.split() == ["repro._lazy"]


def test_cli_import_loads_no_cluster_or_engine():
    """The CLI's options are the request tables of ``repro.sweep.spec``;
    cluster presets resolve only when a request is decoded (the CI
    cold-import step pins the same)."""
    proc = _run("-c", "import sys, repro.cli; print(*sorted("
                "m for m in sys.modules if m.startswith('repro.')))")
    loaded = proc.stdout.split()
    assert "repro.sweep.spec" in loaded
    assert not [m for m in loaded
                if m.startswith(("repro.cluster", "repro.sweep.engine"))]


def test_cached_sweep_never_loads_the_simulator(tmp_path):
    argv = ("sweep", "--clusters", "FC", "--model", "tiny", "-n", "4",
            "--batch", "8", "--layouts", "4x1,2x2", "--schemes", "gpipe",
            "hanayo", "--cache", str(tmp_path / "c"),
            "--json", str(tmp_path / "t.json"), "--top", "3")
    cold = _imported_by(*argv)
    assert {"numpy", "repro.runtime.batched",
            "repro.analysis.throughput"} <= cold
    warm = _imported_by(*argv)
    assert "repro.sweep.cache" in warm and "repro.analysis.result" in warm
    assert not {m for m in warm
                if m in SIMULATOR or m.startswith(
                    tuple(f"{s}." for s in SIMULATOR))}


def test_search_never_loads_the_event_cores():
    """Candidates are timed on legality's order, not by the runtime, and
    are tuples of Python ints, so the search loads no NumPy (the CI
    cold-import step pins the same)."""
    proc = _run("-c", "import sys, repro.synthesis.search; print(*sorted("
                "m for m in sys.modules if m.startswith(('repro.', 'numpy'))))")
    assert not {"numpy", "repro.runtime.batched",
                "repro.runtime.events"} & set(proc.stdout.split())


def test_uncontended_trace_never_loads_the_lane_axis(tmp_path):
    """An uncontended ``execute_plan`` is the single-lane core alone."""
    loaded = _imported_by("trace", "--scheme", "hanayo", "-p", "4", "-b",
                          "8", "-w", "2", "-o", str(tmp_path / "t.json"))
    assert "repro.runtime.events" in loaded
    assert not {"numpy", "repro.runtime.batched"} & loaded


def test_lazily_exported_modules_are_seen(tmp_path):
    """``trace`` reaches the simulator and the schedule factory only
    through the ``repro.runtime`` / ``repro.schedules`` export tables,
    i.e. through ``importlib.import_module``: the positive control for
    every "never loads" check in this file."""
    loaded = _imported_by("trace", "--scheme", "hanayo", "-p", "4", "-b",
                          "8", "-w", "2", "-o", str(tmp_path / "t.json"))
    assert {"repro.runtime.simulator", "repro.schedules.factory"} <= loaded


def test_advise_does_not_load_the_daemon():
    loaded = _imported_by("advise", "--model", "tiny", "-n", "4",
                          "--batch", "8", "--json")
    assert "repro.serve.queries" in loaded
    assert not {"http.server", "repro.serve.server",
                "repro.serve.batcher"} & loaded


def test_advise_query_module_is_numpy_free():
    """The advisor lowers to the sweep engine: the simulator loads with
    the first measurement, not with the module."""
    proc = _run("-c", "import sys, repro.serve.queries; print(*sorted("
                "m for m in sys.modules if m.startswith(('repro.', 'numpy'))))")
    assert not {"numpy", "repro.analysis.throughput"} & set(
        proc.stdout.split())


class TestFreezeOnFullCollection:
    """``repro.__main__.run`` — the process entry point, never
    ``cli.main`` — freezes what a full collection kept, except under
    ``serve``, whose evicted plans are garbage only the collector
    frees."""

    @pytest.fixture
    def entry(self, monkeypatch):
        import repro.__main__ as entry
        seen = []
        monkeypatch.setattr(
            entry, "main",
            lambda: seen.append(entry._freeze_survivors in gc.callbacks)
            or 0)
        monkeypatch.setattr(entry.gc, "freeze", lambda: seen.append("frozen"))
        before = gc.callbacks[:]
        gc.disable()    # no real collection may reach the patched hook
        yield entry, seen
        gc.callbacks[:] = before
        gc.enable()

    def test_registered_for_sweep(self, entry, monkeypatch):
        entry, seen = entry
        monkeypatch.setattr(sys, "argv", ["repro", "sweep"])
        assert entry.run() == 0
        assert seen == [True, "frozen"]

    def test_not_registered_for_serve(self, entry, monkeypatch):
        entry, seen = entry
        monkeypatch.setattr(sys, "argv", ["repro", "serve", "--port", "0"])
        assert entry.run() == 0
        assert seen == [False, "frozen"]

    def test_callback_freezes_only_after_a_full_collection(self, entry):
        entry, seen = entry
        entry._freeze_survivors("start", {"generation": 2})
        entry._freeze_survivors("stop", {"generation": 1})
        assert seen == []
        entry._freeze_survivors("stop", {"generation": 2})
        assert seen == ["frozen"]

    def test_cli_main_leaves_gc_callbacks_alone(self, capsys):
        from repro.cli import main
        before = gc.callbacks[:]
        assert main(["simulate", "-p", "2", "-b", "2"]) == 0
        assert gc.callbacks == before
        assert gc.get_freeze_count() == 0
