"""Function-body lines of ``src/repro/`` the repo benchmark reaches, one row per package.

Runs the four ``bench/run.py`` workloads in their ``--quick`` form,
untraced and traced, in this process under ``sys.setprofile`` (every
thread included), matches the called code objects to AST function
spans and counts a line for the innermost function that holds it.
``bench/run.py`` is imported read-only; it writes ``bench/out/`` in the
tree it runs.  About 40 s on two CPUs::

    python tools/reachability.py            # this tree
    python tools/reachability.py OTHER_TREE # e.g. a parent checkout

``docs/reachability.md`` holds the table for the committed tree.
"""

import ast
import collections
import contextlib
import io
import sys
import threading
from pathlib import Path

tree = Path(sys.argv[1] if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent).resolve()
src = tree / "src" / "repro"
sys.path.insert(0, str(tree / "bench"))
import run  # noqa: E402  (bench/run.py of the tree under test)

called = set()


def profiler(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(profiler), threading.setprofile(profiler)
try:
    with contextlib.redirect_stdout(io.StringIO()):
        for workload in run.MODULES:          # the four workloads, untraced + traced
            for trace in ("0", "1"):
                assert run.main(["--workload", workload, "--quick",
                                 "--trace", trace]) == 0, (workload, trace)
finally:
    sys.setprofile(None), threading.setprofile(None)

rows = collections.defaultdict(lambda: [0, 0, 0, 0])   # lines hit/all, functions hit/all
for path in sorted(src.rglob("*.py")):
    functions = [node for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    owner = {}                                # line -> innermost function holding it
    for node in sorted(functions, key=lambda n: n.lineno - n.end_lineno):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        node.hit = (str(path), first) in called or (str(path), node.lineno) in called
        owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node))
    if not functions:
        continue
    row = rows[path.relative_to(src).parts[0].removesuffix(".py")]
    row[0] += sum(node.hit for node in owner.values())
    row[1] += len(owner)
    row[2] += sum(node.hit for node in functions)
    row[3] += len(functions)
print(f"{'package':12s} {'lines reached':>15s} {'share':>6s} {'functions':>11s}")
for package, (hit, lines, fn_hit, fns) in sorted(
        rows.items(), key=lambda item: -item[1][0] / max(item[1][1], 1)):
    print(f"{package:12s} {hit:7d}/{lines:<7d} {hit / max(lines, 1):6.0%} {fn_hit:5d}/{fns:<5d}")
total = [sum(column) for column in zip(*rows.values())]
print(f"{'src/repro':12s} {total[0]:7d}/{total[1]:<7d} {total[0] / total[1]:6.0%} "
      f"{total[2]:5d}/{total[3]:<5d}")
