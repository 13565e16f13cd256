"""Mutation run over src/rotframes: which small faults does Tier-1 catch?

Each mutant changes one site of one module. The module is parsed with
ast, changed, and written back with ast.unparse into a copy of the tree
(src, tests, rfbench, README.md and pyproject.toml, which Tier-1 reads),
never into the working tree. Tier-1 then runs on the copy with -x, and
the mutant is recorded as killed by the first test that failed ("exit N"
where pytest stopped without naming one, "timeout" where it hung), or
as "survived". Uses the standard library only.

Operators (--ops, comma-separated):

  swap    < and <=, > and >=, == and != (each operator of a comparison),
          + and -, * and / (binary and augmented), `and` and `or`; the
          record's operator names the swap, as in "swap <= -> <"
  force   each `if` statement and ternary condition forced True, and
          forced False (two mutants per condition)
  delete  each statement removed (`pass` where it was alone in its
          block); a `with` statement is replaced by its body. Docstrings
          are not statements here.

Before any mutant, the tree with every module round-tripped through
ast.unparse must pass Tier-1, and its time sets the per-mutant timeout.

Usage:

    python tools/mutate.py --ops force --out tools/mutants_force.json
    python tools/mutate.py --ops swap --sample 40 --seed 7 --out swap.json

--sample N runs N mutants drawn with random.Random(--seed); without it
every mutant runs, and the seed is only recorded. One worker runs per CPU
(os.cpu_count()), each on its own copy.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import json
import os
import queue
import random
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "rotframes"
COPIED = ("src", "tests", "rfbench", "README.md", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", "results")
# -o pythonpath= drops pyproject's pythonpath, which would put the working
# tree's src ahead of the copy's and let every mutant survive
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-o", "pythonpath=")

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.And: "and", ast.Or: "or"}
BODIES = ("body", "orelse", "finalbody")


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _sites(tree: ast.Module, ops: set[str]):
    """(node, operator, detail) of every mutable site, in ast.walk order;
    detail is the index of a comparison's operator, or the statement's
    (owner, field, index) for a deletion."""
    for node in ast.walk(tree):
        if "swap" in ops:
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    if type(op) in SWAPS:
                        yield node, "swap", i
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
                if type(node.op) in SWAPS:
                    yield node, "swap", None
        if "force" in ops and isinstance(node, (ast.If, ast.IfExp)):
            yield node, "force_true", None
            yield node, "force_false", None
        if "delete" in ops:
            for field in BODIES:
                block = getattr(node, field, None)
                if not isinstance(block, list):  # an IfExp's branches are expressions
                    continue
                for i, stmt in enumerate(block):
                    if not _is_docstring(stmt):
                        yield stmt, "delete", (node, field, i)


def _apply(node: ast.AST, operator: str, detail) -> str | None:
    """Mutate node in place; for a swap, say which operator became which."""
    if operator == "swap":
        old = node.ops[detail] if isinstance(node, ast.Compare) else node.op
        new = SWAPS[type(old)]()
        if isinstance(node, ast.Compare):
            node.ops[detail] = new
        else:
            node.op = new
        return f"{SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"
    if operator in ("force_true", "force_false"):
        node.test = ast.Constant(operator == "force_true")
    else:
        owner, field, i = detail
        block = getattr(owner, field)
        replacement = node.body if isinstance(node, (ast.With, ast.AsyncWith)) else []
        block[i:i + 1] = replacement
        if not block:
            block.append(ast.Pass())
    return None


def mutants(name: str, text: str, ops: set[str]) -> list[dict]:
    """Every mutant of the module name with source text: its site and
    mutated source."""
    plain = ast.unparse(ast.parse(text))
    found = []
    for k in itertools.count():
        tree = ast.parse(text)  # a fresh tree per mutant
        site = next(itertools.islice(_sites(tree, ops), k, None), None)
        if site is None:
            break
        node, operator, detail = site
        segment = ast.get_source_segment(text, node) or ""
        if isinstance(node, ast.Compare):  # the one comparison of a chain
            operands = [node.left, *node.comparators][detail:detail + 2]
            segment = f" {SYMBOLS[type(node.ops[detail])]} ".join(map(ast.unparse, operands))
        change = _apply(node, operator, detail)
        source = ast.unparse(ast.fix_missing_locations(tree))
        if source == plain:
            continue
        found.append({
            "file": name,
            "line": node.lineno,
            "operator": operator if change is None else f"{operator} {change}",
            "code": segment.splitlines()[0].strip() if segment else "",
            "source": source,
        })
    return found


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=IGNORED)
        else:
            shutil.copy2(src, dest / name)


def _first_failure(output: str) -> str | None:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def _pytest(copy: Path, timeout: float | None) -> tuple[str, float]:
    """'passed', the first failing test, or 'timeout'; and the wall time."""
    # no bytecode cache: a module restored within the second it was mutated,
    # at the same size, would otherwise run the mutant's cached bytecode
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *PYTEST], cwd=copy, env=env, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return "timeout", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    if proc.returncode == 0:
        return "passed", elapsed
    return _first_failure(proc.stdout) or f"exit {proc.returncode}", elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--ops", default="swap,force,delete",
                        help="comma-separated operators: swap, force, delete")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    parser.add_argument("--sample", type=int, default=None,
                        help="run this many mutants, drawn with --seed")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    ops = {op.strip() for op in args.ops.split(",") if op.strip()}
    if not ops or ops - {"swap", "force", "delete"}:
        parser.error(f"unknown operators in --ops {args.ops!r}")
    workers = os.cpu_count() or 1

    # the sources as read now: the working tree may change during the run
    original = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
                for path in sorted((ROOT / PACKAGE).glob("*.py"))}
    found = [m for name, text in original.items() for m in mutants(name, text, ops)]
    chosen = list(range(len(found)))
    if args.sample is not None and args.sample < len(found):
        chosen = sorted(random.Random(args.seed).sample(chosen, args.sample))

    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        copies = []
        for w in range(workers):
            copy = Path(scratch) / f"w{w}"
            _copy_tree(copy)
            for name, text in original.items():
                (copy / name).write_text(text, encoding="utf-8")
            copies.append(copy)
        # the round-tripped tree must pass before any mutant means anything
        for name, text in original.items():
            (copies[0] / name).write_text(ast.unparse(ast.parse(text)), encoding="utf-8")
        outcome, baseline = _pytest(copies[0], None)
        for name, text in original.items():
            (copies[0] / name).write_text(text, encoding="utf-8")
        if outcome != "passed":
            print(f"the unmutated round-tripped tree fails: {outcome}", file=sys.stderr)
            return 1
        timeout = 3.0 * baseline + 30.0
        print(f"{len(chosen)} of {len(found)} mutants, {workers} workers, "
              f"baseline {baseline:.1f} s", file=sys.stderr)

        free: queue.Queue[Path] = queue.Queue()
        for copy in copies:
            free.put(copy)

        def run(index: int) -> tuple[int, str]:
            mutant = found[index]
            copy = free.get()
            target = copy / mutant["file"]
            try:
                target.write_text(mutant["source"], encoding="utf-8")
                result, _ = _pytest(copy, timeout)
            finally:
                target.write_text(original[mutant["file"]], encoding="utf-8")
                free.put(copy)
            return index, "survived" if result == "passed" else result

        results = {}
        start = time.perf_counter()
        with ThreadPoolExecutor(workers) as pool:
            for done, (index, result) in enumerate(pool.map(run, chosen), 1):
                results[index] = result
                if result == "survived":
                    m = found[index]
                    print(f"survived: {m['file']}:{m['line']} {m['operator']} {m['code']}",
                          file=sys.stderr)
                if done % 25 == 0:
                    print(f"{done}/{len(chosen)} in {time.perf_counter() - start:.0f} s",
                          file=sys.stderr)
        wall = time.perf_counter() - start

    records = sorted(({key: found[i][key] for key in ("file", "line", "operator", "code")}
                      | {"result": results[i]} for i in chosen),
                     key=lambda r: (r["file"], r["line"], r["operator"]))
    survived = sum(r["result"] == "survived" for r in records)
    head = {
        "operators": sorted(ops),
        "seed": args.seed,
        "sample": args.sample,
        "found": len(found),
        "mutants": len(records),
        "killed": len(records) - survived,
        "survived": survived,
        "timeouts": sum(r["result"] == "timeout" for r in records),
        "workers": workers,
        "baseline_s": round(baseline, 1),
        "wall_s": round(wall, 1),
        "pytest": " ".join(PYTEST[2:]),
    }
    # one line per key of the head, then one line per mutant
    fields = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in head.items()]
    rows = ",\n  ".join(json.dumps(r) for r in records)
    fields.append(f' "results": [\n  {rows}\n ]' if rows else ' "results": []')
    Path(args.out).write_text("{\n" + ",\n".join(fields) + "\n}\n", encoding="utf-8")
    print(f"{head['killed']} killed, {survived} survived, {wall:.0f} s -> {args.out}",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
