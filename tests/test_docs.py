"""Docs-and-policy gates: documented invariants cannot silently rot.

Fourteen invariants, all cheap enough for tier-1:

* every symbol a ``repro.*`` module exports through ``__all__`` resolves
  and carries a docstring (modules, classes, functions — the public API
  surface the docs link into);
* every demo under ``examples/`` is referenced by name in the top-level
  ``README.md`` (an example nobody can find is an example that rots);
* the documentation files the README points at actually exist, and the
  ROADMAP keeps pointing at the versioned design docs it delegated its
  per-subsystem guides to;
* there is **one measurement system**: ``benchmarks/`` keeps no
  ``BENCH_*.json`` history, reads three ``REPRO_BENCH_*`` scales and
  reports its same-run checks through one ``record()``;
* the kernels' **dtype rule** holds at the source level: kernel
  forward/VJP bodies never hard-code ``np.float64`` (AST lint) — a
  kernel computes in its operands' dtype, which the engine keeps at
  float64;
* the **clock policy** holds at the source level: no ``repro`` module
  outside ``repro/obs/clock.py`` calls the stdlib clocks directly (AST
  lint), which is what keeps SLO/anomaly/health transition sequences
  replayable under ``FakeClock``;
* every field of ``GatewayConfig`` is documented in
  ``docs/ARCHITECTURE.md``;
* the **one-serving-path** structure holds at the source level (AST
  lint): ``repro.serving.batching`` defines exactly one batcher class,
  and ``ServingGateway`` never branches on ``self.admission`` being
  ``None`` nor reads ``config.admission`` outside ``__init__`` except
  to report it;
* the **one-model** structure holds at the source level (AST lint):
  there is no ``serving/router.py`` and no replica / routing identifier
  under ``src/``, ``ServingGateway._serve`` reaches the model forward
  through one call site, and ``GatewayConfig`` has exactly its nine
  documented fields;
* the **trimmed forward is the one forward** (AST lint): the gateway
  and the training loss each read the model's declared
  ``receptive_depth`` once as a plain attribute, never probe the model
  with ``getattr`` / ``hasattr`` and call it at one site, and
  ``ITAGCNLayer`` (and the ablation's ``_TraditionalAttentionLayer``)
  has one ``forward`` with the ``attend`` calls and the one
  ``segment_softmax`` it always had — no second attention body;
* **node invalidation stays indexed** (AST lint): ``repro.serving.cache``
  calls no numpy set-membership routine, and neither ``invalidate_nodes``
  goes through the scanning ``invalidate_items`` / ``invalidate_if``;
* the **one-plan-executor** structure holds at the source level (AST
  lint): ``ExecutionPlan`` has one forward and one backward step loop
  and no profiled twin, every kernel has one forward that takes
  ``out`` (no arena twin anywhere under ``src/``) and lives in
  ``repro/nn/kernels/``, ``repro.nn`` reads one environment variable
  and never tunes the allocator, the pass surface stays at what the
  engine uses, and there is one dtype — no backend module, registry or
  precision switch anywhere under ``src/``;
* the **one-body-per-promise** structure holds at the source level (AST
  lint): ``DynamicGraph`` mirrors none of ``repro.graph.sampling``'s
  traversal / ego functions and nothing under ``src/`` probes for them
  by name, ``ParallelTrainer`` inherits ``Trainer.fit`` and defines no
  loss or mask of its own, the active-shop mask is written once, the
  squared error over the active rows is written once (``masked_loss``,
  which the adapter calls too), and the closure autograd path stays
  deleted;
* **one fold of the event stream** (AST lint): no module outside
  ``repro/streaming/`` calls ``isinstance`` against an event class —
  the graph and store folds consume events, everything else reads
  their state.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def _walk_public_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        names.append(info.name)
    return sorted(names)


MODULES = _walk_public_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_symbol_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert (module.__doc__ or "").strip(), f"{module_name} has no docstring"
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    undocumented = []
    for name in exported:
        assert hasattr(module, name), (
            f"{module_name}.__all__ exports {name!r} but the module "
            "does not define it"
        )
        symbol = getattr(module, name)
        # Only objects that *can* carry their own docstring are held to
        # it: plain data exports (constants, precomputed tables) cannot.
        if not (inspect.isclass(symbol) or inspect.isroutine(symbol)
                or inspect.ismodule(symbol)):
            continue
        if not (getattr(symbol, "__doc__", None) or "").strip():
            undocumented.append(name)
    assert not undocumented, (
        f"{module_name} exports undocumented symbols: {undocumented}"
    )


def test_readme_references_every_example():
    readme = (REPO_ROOT / "README.md").read_text()
    missing = [
        example.name
        for example in sorted((REPO_ROOT / "examples").glob("*.py"))
        if example.name not in readme
    ]
    assert not missing, f"README.md never mentions examples: {missing}"


def test_documentation_files_exist():
    for relative in ("README.md", "docs/ARCHITECTURE.md",
                     "docs/streaming.md", "docs/observability.md",
                     "benchmarks/README.md"):
        path = REPO_ROOT / relative
        assert path.is_file(), f"missing documentation file: {relative}"
        assert path.read_text().strip(), f"{relative} is empty"


def test_benchmarks_are_figures_and_same_run_checks():
    """Policy gate (tier-1): ``bench/run.py`` is the one place numbers
    come from; ``benchmarks/`` holds the paper figures and same-run
    checks that report through one ``record()``.

    No committed ``BENCH_*.json`` history and no ``_append_artifact``
    writer under ``benchmarks/``; ``REPRO_BENCH_*`` is spelled only in
    ``conftest.py`` and only for the three figure scales; exactly one
    ``def record``; every ``benchmarks/test_*.py`` is named in
    ``benchmarks/README.md``; the top-level README points at both.
    """
    readme = (REPO_ROOT / "README.md").read_text()
    for needle in ("-m slow", "pytest", "bench/run.py"):
        assert needle in readme, f"README.md must mention {needle!r}"
    benchmarks = REPO_ROOT / "benchmarks"
    assert not sorted(benchmarks.glob("BENCH_*.json"))
    sources = {path.name: path.read_text()
               for path in sorted(benchmarks.glob("*.py"))}
    assert not [name for name, text in sources.items()
                if "_append_artifact" in text]
    knobs = {name: set(re.findall(r"REPRO_BENCH_\w+", text))
             for name, text in sources.items()}
    assert {name for name, found in knobs.items() if found} == {"conftest.py"}
    assert knobs["conftest.py"] == {"REPRO_BENCH_SHOPS", "REPRO_BENCH_EPOCHS",
                                    "REPRO_BENCH_SMALL_SHOPS"}
    assert sum(text.count("def record(") for text in sources.values()) == 1
    bench_readme = (benchmarks / "README.md").read_text()
    tests = [name for name in sources if name.startswith("test_")]
    missing = [name for name in tests if name not in bench_readme]
    assert not missing, f"benchmarks/README.md never names {missing}"
    # Vacuity guard: the seven paper-figure tests are among the files.
    assert len(tests) >= 7


def _kernel_sources():
    """``{relative name: source}`` of the kernel family modules."""
    kernels = REPO_ROOT / "src" / "repro" / "nn" / "kernels"
    return {f"kernels/{path.name}": path.read_text()
            for path in sorted(kernels.glob("*.py"))}


def test_engine_kernels_never_hardcode_float64():
    """Dtype lint (tier-1): kernels derive their working dtype from
    their input arrays.  The engine only hands them float64, but a bare
    ``np.float64`` anywhere in a kernel family module — forward/VJP
    bodies and the helpers beside them — would be a second statement of
    the dtype, and would up-cast the float32 operands of the kernel
    contract (``tests/test_kernels.py``)."""
    offenders = []
    scanned = []
    for relative, source in _kernel_sources().items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            scanned.append(node.name)
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and sub.attr == "float64"
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "np"):
                    offenders.append(
                        f"{node.name} ({relative}:{sub.lineno})")
    assert not offenders, (
        "np.float64 hard-coded inside kernel bodies (derive the dtype "
        f"from the input arrays instead): {sorted(set(offenders))}"
    )
    # The lint must actually be scanning something: if the kernel naming
    # convention changes this gate should fail loudly, not pass vacuously.
    bodies = [name for name in scanned if name.startswith(("_fw_", "_bw_"))]
    assert len(bodies) > 50, f"kernel scan looks vacuous: {len(bodies)}"


# Clock-policy lint.  Everything below repro/ must read time through
# repro.obs.clock (now()/wall_time()), which is what makes SLO burn
# rates, anomaly transitions and flight-recorder bundles replayable
# under a FakeClock.  A direct stdlib clock call is an untestable
# wall-clock dependency sneaking back in.
_FORBIDDEN_TIME_FUNCS = {"time", "perf_counter", "monotonic"}


def _clock_violations(tree, relative):
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _FORBIDDEN_TIME_FUNCS:
                    offenders.append(
                        f"{relative}:{node.lineno} imports "
                        f"time.{alias.name} directly"
                    )
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # time.time() / time.perf_counter() / time.monotonic()
        if (isinstance(func, ast.Attribute)
                and func.attr in _FORBIDDEN_TIME_FUNCS
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"):
            offenders.append(
                f"{relative}:{node.lineno} calls time.{func.attr}()"
            )
        # datetime.now() / datetime.datetime.now() with no tz argument
        if (isinstance(func, ast.Attribute) and func.attr == "now"
                and not node.args and not node.keywords):
            root = func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "datetime":
                offenders.append(
                    f"{relative}:{node.lineno} calls datetime.now() "
                    "with no tz"
                )
    return offenders


def test_repro_reads_time_only_through_the_obs_clock():
    """Clock-policy lint (tier-1): no ``repro`` module outside
    ``repro/obs/clock.py`` may call ``time.time``, ``time.perf_counter``,
    ``time.monotonic`` or argless ``datetime.now`` — inject
    :mod:`repro.obs.clock` instead, so every timestamped code path stays
    deterministic under ``FakeClock``."""
    package_root = REPO_ROOT / "src" / "repro"
    allowed = package_root / "obs" / "clock.py"
    offenders = []
    scanned = 0
    for path in sorted(package_root.rglob("*.py")):
        if path == allowed:
            continue
        scanned += 1
        relative = path.relative_to(REPO_ROOT)
        tree = ast.parse(path.read_text())
        offenders.extend(_clock_violations(tree, relative))
    assert not offenders, (
        "direct stdlib clock usage outside repro/obs/clock.py (read "
        f"time through repro.obs.clock instead): {offenders}"
    )
    # Vacuity guard: the walk must actually be covering the package.
    assert scanned > 50, f"clock lint looks vacuous: scanned {scanned} files"


def test_every_gateway_config_field_is_documented():
    """Docs gate (tier-1): every ``GatewayConfig`` field is named (in
    backticks) in ``docs/ARCHITECTURE.md`` — an undocumented gateway
    knob is an undocumented SLO lever."""
    from repro.serving.gateway import GatewayConfig

    architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    names = [f.name for f in dataclasses.fields(GatewayConfig)]
    undocumented = [name for name in names
                    if f"`{name}`" not in architecture]
    assert not undocumented, (
        f"docs/ARCHITECTURE.md never documents GatewayConfig fields: "
        f"{undocumented}"
    )
    # Vacuity guard: the walk must actually be covering the config.
    assert len(names) >= 9


def _is_self_attr(node, attr):
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def test_serving_has_one_batcher_and_one_gateway_path():
    """Structure lint (tier-1): the gateway has one request route.

    ``repro.serving.batching`` defines exactly one class with a
    ``drain`` method (no legacy/deadline batcher pair), and
    ``ServingGateway`` neither compares ``self.admission`` against
    ``None`` nor reads ``config.admission`` outside ``__init__`` —
    except inside a dict display, which is how ``metrics_report``
    echoes it.  ``GatewayConfig.admission`` selects values, not code.
    """
    serving = REPO_ROOT / "src" / "repro" / "serving"
    batching = ast.parse((serving / "batching.py").read_text())
    batchers = [
        node.name for node in batching.body
        if isinstance(node, ast.ClassDef)
        and any(isinstance(item, ast.FunctionDef) and item.name == "drain"
                for item in node.body)
    ]
    assert batchers == ["MicroBatcher"], (
        f"repro.serving.batching must define one batcher: {batchers}"
    )

    gateway = ast.parse((serving / "gateway.py").read_text())
    (cls,) = [node for node in gateway.body
              if isinstance(node, ast.ClassDef)
              and node.name == "ServingGateway"]
    offenders = []
    config_reads = 0
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        reported = {
            id(value) for node in ast.walk(method)
            if isinstance(node, ast.Dict) for value in node.values
        }
        for node in ast.walk(method):
            if isinstance(node, ast.Compare) and any(
                    _is_self_attr(side, "admission")
                    for side in [node.left, *node.comparators]):
                offenders.append(
                    f"{method.name}:{node.lineno} compares self.admission")
            if (isinstance(node, ast.Attribute) and node.attr == "admission"
                    and _is_self_attr(node.value, "config")):
                config_reads += 1
                if method.name != "__init__" and id(node) not in reported:
                    offenders.append(
                        f"{method.name}:{node.lineno} reads config.admission")
    assert not offenders, (
        f"ServingGateway forks on the admission setting: {offenders}"
    )
    # Vacuity guards: the walk found the class body and the one
    # legitimate read in __init__.
    assert len(cls.body) > 20, "ServingGateway scan looks vacuous"
    assert config_reads >= 1, "config.admission is never read at all"


def _src_identifiers():
    """Every identifier (name, attribute, definition, argument) the
    modules under ``src/`` spell, and the files they were read from."""
    identifiers = set()
    src_files = sorted((REPO_ROOT / "src").rglob("*.py"))
    for path in src_files:
        for node in ast.walk(ast.parse(path.read_text())):
            for field in ("id", "attr", "name", "arg"):
                value = getattr(node, field, None)
                if isinstance(value, str):
                    identifiers.add(value)
    return identifiers, src_files


# Names deleted with the in-process cluster.
_CLUSTER_NAMES = ("ReplicaRouter", "ModelReplica", "num_replicas",
                  "partition_map", "inflight", "attach_gateway")
_GATEWAY_CONFIG_FIELDS = [
    "hops", "max_batch_size", "max_wait", "subgraph_cache_size",
    "result_cache_size", "max_staleness_months", "admission",
    "default_deadline_s", "max_queue_depth",
]


def test_gateway_serves_one_model_behind_one_pump():
    """Structure lint (tier-1): the gateway does not simulate a cluster.

    ``serving/router.py`` does not exist and none of ``_CLUSTER_NAMES``
    is an identifier anywhere under ``src/``; ``ServingGateway`` calls
    ``self.model(...)`` in one place (``_forward_batch``) and
    ``_forward_batch`` in one place (``_serve``), so a drained batch
    reaches the model through exactly one call site; ``GatewayConfig``
    has exactly the nine fields ``docs/ARCHITECTURE.md`` tabulates.
    """
    from repro.serving.gateway import GatewayConfig

    src = REPO_ROOT / "src"
    assert not (src / "repro" / "serving" / "router.py").exists()
    identifiers, src_files = _src_identifiers()
    cluster = sorted(identifiers & set(_CLUSTER_NAMES))
    assert not cluster, f"src/ still names {cluster}"

    gateway = ast.parse((src / "repro" / "serving" / "gateway.py").read_text())
    (cls,) = [node for node in gateway.body
              if isinstance(node, ast.ClassDef)
              and node.name == "ServingGateway"]

    def call_sites(attr):
        return [method.name for method in cls.body
                if isinstance(method, ast.FunctionDef)
                for node in ast.walk(method)
                if isinstance(node, ast.Call)
                and _is_self_attr(node.func, attr)]

    assert call_sites("model") == ["_forward_batch"]
    assert call_sites("_forward_batch") == ["_serve"]
    assert [f.name for f in dataclasses.fields(GatewayConfig)] \
        == _GATEWAY_CONFIG_FIELDS
    # Vacuity guards: the walks covered the package and the class body.
    assert len(src_files) > 50 and len(identifiers) > 1000
    assert len(cls.body) > 20, "ServingGateway scan looks vacuous"


def test_trimmed_forward_is_the_one_forward_behind_a_declaration():
    """Structure lint (tier-1): trimming added no second path.

    ``serving/gateway.py`` applies neither ``getattr`` nor ``hasattr``
    to the model — what the model reads is the plain attribute
    ``self.model.receptive_depth``, read once; ``ITAGCNLayer`` defines
    exactly one ``forward`` and no other method named after it or after
    trimming, that ``forward`` holds the layer's only two ``attend``
    calls (intra, inter) and its one ``segment_softmax``, and
    ``masked_softmax`` — the attention body — is called once, in
    ``ConvolutionalAttentionUnit.attend``.  The ablation's
    ``_TraditionalAttentionLayer`` likewise has one ``forward`` with its
    one attention and one neighbor softmax, and no variant opts out of a
    depth; ``training/trainer.py`` reads ``model.receptive_depth`` once,
    in ``masked_loss``, which calls the model at one site.
    """
    src = REPO_ROOT / "src" / "repro"
    gateway = ast.parse((src / "serving" / "gateway.py").read_text())
    probes = [
        node.lineno for node in ast.walk(gateway)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) in ("getattr", "hasattr")
        and node.args and "model" in ast.unparse(node.args[0])
    ]
    assert not probes, f"gateway.py probes the model by name: {probes}"
    declared = [node for node in ast.walk(gateway)
                if isinstance(node, ast.Attribute)
                and node.attr == "receptive_depth"]
    assert len(declared) == 1 and _is_self_attr(declared[0].value, "model")

    layer_tree = ast.parse((src / "core" / "ita_gcn.py").read_text())
    (layer,) = [node for node in layer_tree.body
                if isinstance(node, ast.ClassDef)
                and node.name == "ITAGCNLayer"]
    methods = [item.name for item in layer.body
               if isinstance(item, ast.FunctionDef)]
    assert methods.count("forward") == 1
    twins = [name for name in methods
             if name != "forward" and ("forward" in name or "trim" in name)]
    assert not twins, f"ITAGCNLayer grew a second layer body: {twins}"
    (forward,) = [item for item in layer.body
                  if isinstance(item, ast.FunctionDef)
                  and item.name == "forward"]
    assert _called_names(forward).count("attend") == 2
    assert _called_names(layer_tree).count("attend") == 2
    assert _called_names(layer_tree).count("segment_softmax") == 1
    assert "masked_softmax" not in _called_names(layer_tree)
    cau_tree = ast.parse((src / "core" / "cau.py").read_text())
    (attend,) = [node for node in ast.walk(cau_tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "attend"]
    assert _called_names(cau_tree).count("scaled_masked_softmax") == 1
    assert _called_names(attend).count("scaled_masked_softmax") == 1
    # Table II's ablation layer trims the same way: one forward, one
    # attention body, one neighbor softmax.
    variants = ast.parse((src / "core" / "variants.py").read_text())
    (traditional,) = [node for node in variants.body
                      if isinstance(node, ast.ClassDef)
                      and node.name == "_TraditionalAttentionLayer"]
    methods = [item.name for item in traditional.body
               if isinstance(item, ast.FunctionDef)]
    assert methods.count("forward") == 1
    assert not [name for name in methods
                if name != "forward" and ("forward" in name or "trim" in name)]
    assert _called_names(traditional).count("masked_softmax") == 1
    assert _called_names(traditional).count("segment_softmax") == 1
    assert "receptive_depth" not in (src / "core" / "variants.py").read_text()

    # The training loss is the second (and last) reader of the
    # declaration: read once, and one model call site for both answers.
    trainer = ast.parse((src / "training" / "trainer.py").read_text())
    (loss,) = [node for node in trainer.body
               if isinstance(node, ast.FunctionDef)
               and node.name == "masked_loss"]
    assert [ast.unparse(node.value) for node in ast.walk(trainer)
            if isinstance(node, ast.Attribute)
            and node.attr == "receptive_depth"] == ["model"]
    assert [ast.unparse(node.func) for node in ast.walk(loss)
            if isinstance(node, ast.Call)].count("model") == 1
    # Vacuity guards: the walks saw the gateway class and the layer bodies.
    assert "build_disjoint_batch" in _called_names(gateway)
    assert {"conv_bank", "segment_sum", "gather_rows"} \
        <= set(_called_names(forward))
    assert {"segment_sum", "gather_rows"} <= set(_called_names(traditional))
    assert "receptive_layout" in _called_names(loss)


def _called_names(tree):
    """Attribute / bare names of every call under ``tree``."""
    return [
        node.func.attr if isinstance(node.func, ast.Attribute)
        else getattr(node.func, "id", None)
        for node in ast.walk(tree) if isinstance(node, ast.Call)
    ]


def test_node_invalidation_cannot_scan_the_cache():
    """Structure lint (tier-1): delta invalidation is a posting lookup.

    ``repro/serving/cache.py`` never calls ``np.isin`` /
    ``np.intersect1d`` / ``np.in1d`` (the per-entry membership test the
    index replaced), and neither plane's ``invalidate_nodes`` calls the
    full-scan ``invalidate_items`` / ``invalidate_if``.
    """
    source = REPO_ROOT / "src" / "repro" / "serving" / "cache.py"
    tree = ast.parse(source.read_text())
    calls = _called_names(tree)
    membership = {"isin", "intersect1d", "in1d"} & set(calls)
    assert not membership, f"cache.py tests set membership: {membership}"
    methods = [
        item for node in tree.body if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
        and item.name == "invalidate_nodes"
    ]
    for method in methods:
        scans = {"invalidate_items", "invalidate_if"} & set(
            _called_names(method))
        assert not scans, f"invalidate_nodes:{method.lineno} calls {scans}"
    # Vacuity guards: both planes were found, each delegates to the
    # index, and the walk saw the module's calls.
    assert len(methods) == 2, "expected SubgraphCache + ResultCache"
    assert all("invalidate_tags" in _called_names(m) for m in methods)
    assert len(calls) > 30, "cache.py scan looks vacuous"


def _schedule_loops(function):
    """``for`` statements of ``function`` that iterate the step schedule
    (anything named ``steps`` in the loop's iterable)."""
    return [
        node for node in ast.walk(function) if isinstance(node, ast.For)
        and any(getattr(part, "id", getattr(part, "attr", None)) == "steps"
                for part in ast.walk(node.iter))
    ]


# Names deleted with the arena twins.  Spelled in two pieces so that the
# acceptance grep for them over src/ tests/ docs/ README.md stays clean.
_BANNED_PREFIX = "_fw" "o_"
_BANNED_NAMES = ("forward" "_out", "Plan" "Structure", "run" "_pipeline",
                 # ... with the record-time pattern matcher ...
                 "match_fusion", "_match_conv_bank", "_ACT_FUSION",
                 "FUSED_OPS",
                 # ... and with the "eager" reference mode.
                 "select_kernel", "use_mode", "set_engine_mode",
                 "engine_mode", "fused_enabled", "ref_forward", "ref_vjp",
                 "REPRO_NN_ENGINE",
                 # ... and with the patched-CSR compaction: a compacted
                 # base sorts its own index lazily.
                 "adopt_csr", "invalidate_csr", "_patched_csr",
                 "_segment_scatter", "_touched_out", "_touched_in",
                 "_compact_traced",
                 # ... and with the second records: kernel timings live
                 # only in the installed profiler, event time only in
                 # the feature store.
                 "profile_report", "profiled_replays", "profiling_enabled",
                 "op_bytes", "_fold_event_time", "late_arrivals")
# Names deleted with the float32 backend and its registry.
_BACKEND_NAMES = ("ExecutionBackend", "BACKENDS", "register_backend",
                  "get_backend", "use_backend", "active_backend",
                  "active_dtype", "FLOAT32_ACCURACY_BUDGET", "state_twins",
                  "state_for", "precision")


def test_engine_has_one_plan_executor():
    """Structure lint (tier-1): a plan step is executed in one place,
    by the one forward its kernel has.

    ``ExecutionPlan`` has no ``*profiled*`` method and exactly one loop
    over the step schedule in each of ``forward`` and ``backward`` (the
    profiler observes those loops; it does not get its own); the
    forward loop branches on nothing but the observer, a ``_Step``
    carries one forward, every registered forward accepts ``out``, and
    none of the deleted names (``_BANNED_PREFIX`` / ``_BANNED_NAMES``:
    the arena-twin forwards, the schedule-structure class, the pipeline
    alias, the record-time fusion matcher, the engine-mode API and its
    environment variable, the patched-CSR compaction and its CSR
    install / invalidate hooks, the per-plan kernel profile and its
    engine stats, the journal's event-time fold) exists anywhere under
    ``src/``, as an identifier or a string; kernel bodies live in
    ``repro/nn/kernels/``, not in ``engine.py``.  ``repro/nn`` reads no
    environment variable and never names
    ``malloc``/``mallopt``; the pass module exports prune +
    liveness/arena only; float64 is the one dtype, so there is no
    ``repro/nn/backends.py`` and none of ``_BACKEND_NAMES`` (the backend
    registry, the dtype switch, the registry's cast twins, the gateway's
    ``precision``) is an identifier under ``src/``.
    """
    nn = REPO_ROOT / "src" / "repro" / "nn"
    sources = {path.name: path.read_text()
               for path in sorted(nn.glob("*.py"))}
    sources.update(_kernel_sources())
    tree = ast.parse(sources["engine.py"])
    (plan,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "ExecutionPlan"]
    methods = {item.name: item for item in plan.body
               if isinstance(item, ast.FunctionDef)}
    twins = [name for name in methods if "profiled" in name]
    assert not twins, f"ExecutionPlan grew a profiled twin: {twins}"
    for name in ("forward", "backward"):
        loops = _schedule_loops(methods[name])
        assert len(loops) == 1, (
            f"ExecutionPlan.{name} has {len(loops)} loops over the step "
            "schedule; a plan step must execute in exactly one place"
        )

    # One kernel variant per step: the only ``if`` in the forward loop
    # asks whether an observer is installed.
    (loop,) = _schedule_loops(methods["forward"])
    branches = [ast.unparse(node.test) for node in ast.walk(loop)
                if isinstance(node, (ast.If, ast.IfExp))]
    assert branches == ["observer is not None"], (
        f"ExecutionPlan.forward's step loop branches on {branches}"
    )
    (step,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "_Step"]
    (slots,) = [ast.literal_eval(item.value) for item in step.body
                if isinstance(item, ast.Assign)
                and item.targets[0].id == "__slots__"]
    assert [slot for slot in slots if "forward" in slot] == ["forward"]

    # No twin, no structure class, no pipeline alias — anywhere in src/.
    identifiers, src_files = _src_identifiers()
    identifiers |= {
        node.value for path in src_files
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    banned = sorted(
        name for name in identifiers
        if name.startswith(_BANNED_PREFIX) or name in _BANNED_NAMES)
    assert not banned, f"src/ still names {banned}"
    bodies_in_engine = [
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith(("_fw_", "_bw_"))
    ]
    assert not bodies_in_engine, (
        f"kernel bodies belong in repro/nn/kernels/: {bodies_in_engine}"
    )

    from repro.nn import engine, passes

    deaf = [name for name, kernel in engine.KERNELS.items()
            if "out" not in inspect.signature(kernel.forward).parameters]
    assert not deaf, f"forwards that do not accept out=: {deaf}"

    env_reads = [
        f"{name}: {ast.get_source_segment(text, node)}"
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        if isinstance(node, (ast.Call, ast.Subscript))
        and "environ" in ast.dump(
            node.func if isinstance(node, ast.Call) else node.value)
    ]
    assert env_reads == [], (
        f"repro/nn must read no environment variable: {env_reads}"
    )
    allocator = [
        name for name, text in sources.items()
        if "malloc" in text.lower() or "mallopt" in text.lower()
    ]
    assert not allocator, f"repro.nn tunes the allocator: {allocator}"

    assert sorted(passes.__all__) == sorted([
        "VIEW_OPS", "MemoryPlan", "prune_dead_nodes", "plan_memory",
    ])
    assert not (nn / "backends.py").exists()
    backend = sorted(identifiers & set(_BACKEND_NAMES))
    assert not backend, f"src/ still names {backend}"
    # Vacuity guards: the class body and its two loops were found, the
    # identifier walk saw the tree, the registry is populated.
    assert len(methods) >= 5, "ExecutionPlan scan looks vacuous"
    assert len(sources) >= 16, "repro/nn scan looks vacuous"
    assert len(src_files) > 60 and "ExecutionPlan" in identifiers
    assert len(engine.KERNELS) >= 29, "registry scan looks vacuous"


# Names deleted with the mirrored extractors, the mirrored fit loop and
# the closure autograd path — in two pieces, like the ones above.
_OVERLAY_MIRRORS = ("k_hop" "_nodes", "ego" "_subgraph", "ego" "_subgraphs",
                    "induced" "_subgraph")
_SHARD_MIRRORS = ("_shard" "_loss", "_active" "_rows")
_CLOSURE_PATH = ("backward" "_fn", "_backward" "_fn", "_ma" "ke")


def _squares_an_error(function):
    """``mse_loss(...)``, ``x * x`` or ``x ** 2`` anywhere in the body."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(
                "mse_loss"):
            return True
        if isinstance(node, ast.BinOp) and (
                (isinstance(node.op, ast.Mult)
                 and ast.unparse(node.left) == ast.unparse(node.right))
                or (isinstance(node.op, ast.Pow)
                    and ast.unparse(node.right) == "2")):
            return True
    return False


def test_one_body_per_promise():
    """Structure lint (tier-1): extraction and fitting each have one body.

    ``DynamicGraph`` defines none of the traversal / ego methods
    ``repro.graph.sampling`` owns, and nothing under ``src/`` asks an
    object by name (``getattr`` / ``hasattr``) whether it brings its
    own; ``ParallelTrainer`` is a ``Trainer`` that inherits ``fit`` and
    overrides only the train step, and ``parallel.py`` defines no loss
    or row mask of its own;
    the active-shop expression ``mask.any(axis=1)`` is written only in
    ``repro/data`` (``ForecastDataset.active_mask``, and the scaler) and
    in the adapter's role-free mask in ``training/online.py``; under
    ``repro/training`` exactly one function squares an error over rows
    it selects with ``[active]`` — ``trainer.masked_loss``, the body the
    trainer, every owner block and the adapter's fine-tune all call;
    the closure autograd identifiers exist nowhere under ``src/``.
    """
    src = REPO_ROOT / "src" / "repro"
    trees = {path.relative_to(src).as_posix(): ast.parse(path.read_text())
             for path in sorted(src.rglob("*.py"))}

    def class_named(module, name):
        (found,) = [node for node in trees[module].body
                    if isinstance(node, ast.ClassDef) and node.name == name]
        return found

    dynamic = class_named("streaming/dynamic_graph.py", "DynamicGraph")
    dynamic_methods = {item.name for item in dynamic.body
                       if isinstance(item, ast.FunctionDef)}
    mirrored = dynamic_methods & set(_OVERLAY_MIRRORS)
    assert not mirrored, f"DynamicGraph mirrors graph.sampling: {mirrored}"

    probes, mask_sites, identifiers = [], set(), set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            for field in ("id", "attr", "name", "arg"):
                value = getattr(node, field, None)
                if isinstance(value, str):
                    identifiers.add(value)
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", None) in ("getattr", "hasattr") and any(
                    isinstance(arg, ast.Constant)
                    and arg.value in _OVERLAY_MIRRORS for arg in node.args):
                probes.append(f"{module}:{node.lineno}")
            if ast.unparse(node).endswith("mask.any(axis=1)"):
                mask_sites.add(module)
    assert not probes, f"src/ forks on graph kind by name: {probes}"
    strays = {module for module in mask_sites
              if not module.startswith("data/")} - {"training/online.py"}
    assert not strays, f"active-shop mask re-typed in {sorted(strays)}"
    closure = identifiers & set(_CLOSURE_PATH)
    assert not closure, f"src/ still names {sorted(closure)}"

    losses = {
        f"{module}:{function.name}"
        for module, tree in trees.items() if module.startswith("training/")
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and _squares_an_error(function)
        and any(isinstance(node, ast.Subscript)
                and ast.unparse(node.slice) == "active"
                for node in ast.walk(function))
    }
    assert losses == {"training/trainer.py:masked_loss"}, losses
    assert "masked_loss" in _called_names(trees["training/online.py"])

    parallel = class_named("training/parallel.py", "ParallelTrainer")
    assert [ast.unparse(base) for base in parallel.bases] == ["Trainer"]
    parallel_methods = {item.name for item in parallel.body
                        if isinstance(item, ast.FunctionDef)}
    overridden = parallel_methods & {"fit", "_val_loss", "_backward"}
    assert not overridden, f"ParallelTrainer re-defines {overridden}"
    own = {node.name for node in ast.walk(trees["training/parallel.py"])
           if isinstance(node, ast.FunctionDef)} & set(_SHARD_MIRRORS)
    assert not own, f"parallel.py re-defines {own}"
    # Vacuity guards: the class bodies were found with the methods that
    # replaced the mirrors, the walk saw the tree and the one mask.
    assert {"incident_edges", "compact"} <= dynamic_methods
    assert "_train_step_loss" in parallel_methods
    assert "data/dataset.py" in mask_sites and len(trees) > 60
    assert {"masked_mse", "active_mask", "getattr"} <= identifiers


def _top_level_imports(tree):
    """Top-level package names a module imports (relative ones as ``.name``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." + (node.module or "") if node.level
                      else node.module.split(".")[0])
    return names


def test_training_spawns_no_workers_and_copies_no_model():
    """Structure lint (tier-1): a shard is a seed set, not a worker.

    ``ParallelTrainer`` runs every owner block on the one master model,
    so ``parallel.py`` imports neither ``multiprocessing`` nor ``copy``,
    and nothing under ``repro/training`` imports ``multiprocessing``.
    """
    training = REPO_ROOT / "src" / "repro" / "training"
    imports = {path.name: _top_level_imports(ast.parse(path.read_text()))
               for path in sorted(training.glob("*.py"))}
    assert not imports["parallel.py"] & {"multiprocessing", "copy"}
    spawning = sorted(name for name, names in imports.items()
                      if "multiprocessing" in names)
    assert not spawning, f"repro/training modules spawn processes: {spawning}"
    assert ".trainer" in imports["parallel.py"], "vacuity: the walk saw imports"


def test_obs_imports_only_the_stdlib_and_itself():
    """Structure lint (tier-1): the layering ``repro.obs/hub.py`` and
    ``health.py`` promise — everything imports obs, obs imports only
    the stdlib — holds for every import statement under
    ``repro/obs``, function-local ones included (a lazy import of the
    engine would still couple obs to it).  Adapters and probes
    duck-type the subsystems they read instead."""
    import sys

    obs = REPO_ROOT / "src" / "repro" / "obs"
    outside, relative = {}, 0
    for path in sorted(obs.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                relative += 1
                if node.level > 1:              # ``from ..nn import …``
                    outside.setdefault(path.name, set()).add(
                        "." * node.level + (node.module or ""))
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            for module in modules:
                if module.split(".")[0] not in sys.stdlib_module_names \
                        and not module.startswith("repro.obs"):
                    outside.setdefault(path.name, set()).add(module)
    assert not outside, f"repro.obs imports beyond the stdlib: {outside}"
    assert relative >= 10, "vacuity: the walk saw obs's own imports"


def test_only_the_streaming_fold_consumes_events():
    """Structure lint (tier-1): outside ``repro/streaming/`` no module
    calls ``isinstance(…, SalesTick | ShopAdded | EdgeAdded |
    EdgeRetired)``.  The dynamic graph and the feature store are the one
    fold of the event stream; a consumer that dispatched on event types
    itself would be a second fold whose state could drift from theirs
    (the online adapter reads the store's ``ticked`` table instead)."""
    events = {"SalesTick", "ShopAdded", "EdgeAdded", "EdgeRetired"}
    src = REPO_ROOT / "src" / "repro"
    dispatching, inside = set(), 0
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2):
                continue
            names = {getattr(leaf, "id", getattr(leaf, "attr", None))
                     for leaf in ast.walk(node.args[1])}
            if not names & events:
                continue
            relative = path.relative_to(src).as_posix()
            if relative.startswith("streaming/"):
                inside += 1
            else:
                dispatching.add(relative)
    assert not dispatching, f"modules dispatching on events: {dispatching}"
    assert inside >= 5, "vacuity: the walk saw the streaming folds"


def test_roadmap_points_at_versioned_design_docs():
    roadmap = (REPO_ROOT / "ROADMAP.md").read_text()
    for pointer in ("docs/ARCHITECTURE.md", "docs/streaming.md",
                    "docs/observability.md"):
        assert pointer in roadmap, (
            f"ROADMAP.md must point at {pointer} for the design guide "
            "it used to inline"
        )
