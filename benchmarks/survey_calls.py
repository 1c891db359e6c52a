"""Call survey: which ``src/repro`` function bodies no workload runs.

Runs the repo's workload corpus under a ``sys.setprofile`` call
recorder and counts, per module, the function-body lines whose function
was never called. The corpus:

* the six ``examples/*.py``;
* ``pytest benchmarks/`` (the paper experiments, ablations and the obs
  exemplar; pytest-benchmark timing disabled);
* every ``benchmarks/perf_*.py --quick``;
* one traced perfbench run per workload (``--seconds`` each, seed 1).

The recorder is a ``sitecustomize`` module put first on ``PYTHONPATH``,
so every Python process the corpus starts loads it, fleet workers
included. It records the code object of every ``call`` event, chains
any profiler the program installs itself (``perf_kernel.py`` counts
calls with its own), and writes what it saw at interpreter exit and at
``os._exit``, which is how forked pool workers leave.

A line counts as a function-body line of its innermost ``def`` (the
lines after the ``def`` line through its end, docstring included, blank
and comment-only lines not); it is *never called* if that ``def``'s
code object never got a call event. The numbers are exact for the
corpus, so a function that only tests call counts as never called.

Usage (in a throwaway checkout: the perf scripts rewrite their
``BENCH_*_quick.json`` files and the benchmarks rewrite ``artifacts/``)::

    python benchmarks/survey_calls.py run --out /tmp/survey [--seconds 15]
    python benchmarks/survey_calls.py count /tmp/survey [--functions]

``run`` records the corpus and then prints the table; ``count`` prints
it again from a finished recording. Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import glob
import os
import subprocess
import sys
import tempfile
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
WORKLOADS = ("traffic-serial", "cruise-serial", "cell-fleet-traced")

#: the recorder every corpus process loads; ``{out}`` is the record dir
SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_OUT = {out!r}
_PREFIX = {prefix!r}
_seen = set()
_chained = [None]
_setprofile = sys.setprofile


def _record(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
    chained = _chained[0]
    if chained is not None:
        chained(frame, event, arg)


def _chain(fn):
    _chained[0] = fn
    _setprofile(_record)


def _dump():
    real = {{}}
    rows = set()
    for c in list(_seen):
        name = real.get(c.co_filename)
        if name is None:
            name = real[c.co_filename] = os.path.realpath(c.co_filename)
        if name.startswith(_PREFIX):
            rows.add(f"{{name[len(_PREFIX):]}}\\t{{c.co_firstlineno}}"
                     f"\\t{{c.co_name}}")
    if rows:
        path = os.path.join(_OUT, f"calls-{{os.getpid()}}.txt")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\\n".join(sorted(rows)) + "\\n")


def _exit(code, _real=os._exit):
    _dump()
    _real(code)


sys.setprofile = _chain
sys.getprofile = lambda: _chained[0]
os._exit = _exit
atexit.register(_dump)
threading.setprofile(_record)
_setprofile(_record)
'''


def corpus(seconds: int) -> Iterator[Tuple[str, List[str]]]:
    """(label, argv) of every corpus run, in order."""
    for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py"))):
        yield os.path.basename(path), [sys.executable, path]
    yield "pytest benchmarks", [sys.executable, "-m", "pytest", "-q",
                                "-p", "no:cacheprovider",
                                "--benchmark-disable", "benchmarks"]
    for path in sorted(glob.glob(os.path.join(ROOT, "benchmarks",
                                              "perf_*.py"))):
        yield os.path.basename(path), [sys.executable, path, "--quick"]
    for workload in WORKLOADS:
        yield f"perfbench {workload}", [
            sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload, "--seed", "1",
            "--seconds", str(seconds), "--trace", "1"]


def record(out: str, seconds: int) -> None:
    """Run the corpus under the recorder, writing call records to *out*."""
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="survey_site_") as site:
        with open(os.path.join(site, "sitecustomize.py"), "w",
                  encoding="utf-8") as handle:
            handle.write(SITECUSTOMIZE.format(
                out=os.path.abspath(out), prefix=PACKAGE + os.sep))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [site, SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                           else []))
        for label, argv in corpus(seconds):
            rc = subprocess.run(argv, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL).returncode
            print(f"  {label}: exit {rc}", file=sys.stderr)


def called_functions(out: str) -> Set[Tuple[str, int, str]]:
    called: Set[Tuple[str, int, str]] = set()
    for path in glob.glob(os.path.join(out, "calls-*.txt")):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                filename, first, name = line.rstrip("\n").split("\t")
                called.add((filename, int(first), name))
    return called


def _code_lines(source: List[str]) -> Set[int]:
    """1-based numbers of lines that are neither blank nor comments."""
    return {number for number, text in enumerate(source, start=1)
            if text.strip() and not text.strip().startswith("#")}


def function_lines(path: str) -> Dict[Tuple[str, int, str], Set[int]]:
    """Body lines of every ``def`` in *path*, each line given to its
    innermost ``def``, keyed like a recorded code object: (path in the
    package, first line, name)."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    code = _code_lines(text.splitlines())
    module = os.path.relpath(path, PACKAGE)
    owner: Dict[int, Tuple[str, int, str]] = {}

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                key = (module, first, child.name)
                for line in range(child.body[0].lineno,
                                  child.end_lineno + 1):
                    owner[line] = key  # nested defs overwrite below
            visit(child)

    visit(ast.parse(text))
    lines: Dict[Tuple[str, int, str], Set[int]] = {}
    for line, key in owner.items():
        if line in code:
            lines.setdefault(key, set()).add(line)
    return lines


def count(out: str, functions: bool = False) -> None:
    """Print never-called and total function-body lines per module."""
    called = called_functions(out)
    rows = []
    lines_total = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"),
                                 recursive=True)):
        lines = function_lines(path)
        total = sum(len(body) for body in lines.values())
        lines_total += total
        unrun = {key: body for key, body in lines.items()
                 if key not in called}
        never = sum(len(body) for body in unrun.values())
        if never:
            rows.append((os.path.relpath(path, SRC), never, total, unrun))
    never_total = sum(row[1] for row in rows)
    width = max((len(row[0]) for row in rows), default=10)
    print(f"{'module':<{width}}  never  of lines")
    for module, never, total, unrun in sorted(rows, key=lambda r: -r[1]):
        whole = "  (whole module)" if never == total else ""
        print(f"{module:<{width}}  {never:>5}  {total:>8}{whole}")
        if functions:
            for (_, first, name), body in sorted(unrun.items()):
                print(f"    {name} (line {first}): {len(body)}")
    print(f"{'total':<{width}}  {never_total:>5}  {lines_total:>8}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="record the corpus, then count")
    run_p.add_argument("--out", required=True, help="record directory")
    run_p.add_argument("--seconds", type=int, default=15,
                       help="length of each perfbench run")
    run_p.add_argument("--functions", action="store_true",
                       help="also list each never-called function")
    count_p = sub.add_parser("count", help="count a finished recording")
    count_p.add_argument("out", help="record directory")
    count_p.add_argument("--functions", action="store_true",
                         help="also list each never-called function")
    opts = parser.parse_args()
    if opts.command == "run":
        record(opts.out, opts.seconds)
    count(opts.out, opts.functions)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
