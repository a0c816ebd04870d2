"""Pass 2 escape rules: executor captures (RPR011), shm lifetime (RPR012).

RPR011 looks at every ``.submit(...)`` call: captured arguments that the
submitting function keeps mutating race the worker (any backend), and
process-backend submissions additionally must pickle -- instances of
classes with no module-level definition and no ``__reduce__`` cannot.

RPR012 follows each ``SharedMemory(create=True)`` handle across function
boundaries: the handle is proven released when an enclosing ``finally``
unlinks it (directly or through a releaser helper), or when it is returned
and *every* call site's binding is proven released in turn.  This is the
cross-function proof that replaces the per-file RPR004 check (and its
suppression) for split-lifetime patterns like ``_ArrayPacker.pack()``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from tools.repro_lint.engine import Violation
from tools.repro_lint.flow.callgraph import (CallGraph, LocalTypes,
                                             _annotation_dotted,
                                             resolve_call_target)
from tools.repro_lint.flow.locks import MUTATOR_METHODS, FunctionSummary
from tools.repro_lint.flow.symbols import (ClassModel, FunctionModel,
                                           ModuleModel, Program)

__all__ = ["check_executor_escape", "check_shm_lifetime"]

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_MAX_PROOF_DEPTH = 5


def _sorted_modules(program: Program) -> list[ModuleModel]:
    return [program.modules_by_path[path]
            for path in sorted(program.modules_by_path)]


def _owned_walk(function: FunctionModel,
                module: ModuleModel) -> Iterator[ast.AST]:
    """Nodes of ``function`` excluding those owned by nested defs."""
    for node in ast.walk(function.node):
        if node is function.node:
            continue
        if module.owner.get(node) is function:
            yield node


# ----------------------------------------------------------------------
# RPR011 -- executor escape analysis
# ----------------------------------------------------------------------
def _is_process_executor(receiver: ast.AST, function: FunctionModel,
                         module: ModuleModel, program: Program,
                         types: LocalTypes | None) -> bool:
    try:
        text = ast.unparse(receiver).lower()
    except Exception:  # pragma: no cover - unparse is total on valid trees
        text = ""
    if "process" in text or "procpool" in text:
        return True
    if isinstance(receiver, ast.Name) and types is not None:
        type_name = types.type_name(receiver.id) or ""
        if "Process" in type_name:
            return True
        cls = types.classes.get(receiver.id)
        if cls is not None and "Process" in cls.name:
            return True
    if isinstance(receiver, ast.Call):
        target = resolve_call_target(receiver, function, module, program,
                                     types)
        if isinstance(target, ClassModel):
            return "Process" in target.name
        if isinstance(target, FunctionModel):
            returns = _annotation_dotted(
                target.node.returns,
                program.modules.get(target.module, module))
            return bool(returns and "Process" in returns)
    return False


def _loops_around(node: ast.AST, module: ModuleModel) -> set[ast.AST]:
    return {ancestor for ancestor in module.context.ancestors(node)
            if isinstance(ancestor, _LOOPS)}


def _mutations_of(name: str, function: FunctionModel,
                  module: ModuleModel) -> list[ast.AST]:
    """In-place mutations of local ``name`` (rebinding does not count)."""
    found: list[ast.AST] = []
    for node in _owned_walk(function, module):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATOR_METHODS \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == name:
            found.append(node)
        elif isinstance(node, (ast.Subscript, ast.Attribute)) \
                and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == name:
            found.append(node)
    return found


def _captured_args(call: ast.Call) -> list[ast.expr]:
    captured = [arg for arg in call.args[1:]
                if not isinstance(arg, ast.Starred)]
    captured.extend(keyword.value for keyword in call.keywords
                    if keyword.value is not None)
    return captured


def check_executor_escape(program: Program, graph: CallGraph,
                          summaries: dict[str, FunctionSummary]
                          ) -> Iterator[Violation]:
    for module in _sorted_modules(program):
        for function in module.all_functions.values():
            types = graph.types.get(function.qualname)
            for node in _owned_walk(function, module):
                if not isinstance(node, ast.Call) \
                        or not isinstance(node.func, ast.Attribute) \
                        or node.func.attr != "submit" or not node.args:
                    continue
                submit_loops = _loops_around(node, module)
                for arg in _captured_args(node):
                    if isinstance(arg, ast.Name):
                        for mutation in _mutations_of(arg.id, function,
                                                      module):
                            after = mutation.lineno > node.lineno
                            shared_loop = bool(
                                submit_loops
                                & _loops_around(mutation, module))
                            if not (after or shared_loop):
                                continue
                            yield Violation(
                                path=module.path, line=node.lineno,
                                col=node.col_offset, rule="RPR011",
                                message=(
                                    f"'{arg.id}' is submitted to an "
                                    f"executor but mutated afterwards "
                                    f"(line {mutation.lineno}): the "
                                    f"worker races the mutation (thread "
                                    f"pool) or pickles a moving "
                                    f"target (process pool); "
                                    f"snapshot it first, e.g. "
                                    f"submit(task, tuple({arg.id}))"))
                            break
                if not _is_process_executor(node.func.value, function,
                                            module, program, types):
                    continue
                for arg in _captured_args(node):
                    cls: ClassModel | None = None
                    if isinstance(arg, ast.Name) and types is not None:
                        cls = types.classes.get(arg.id)
                    elif isinstance(arg, ast.Call):
                        target = resolve_call_target(arg, function, module,
                                                     program, types)
                        if isinstance(target, ClassModel):
                            cls = target
                    if cls is None or cls.module_level or cls.has_reduce:
                        continue
                    yield Violation(
                        path=module.path, line=node.lineno,
                        col=node.col_offset, rule="RPR011",
                        message=(
                            f"instance of {cls.name!r} (defined inside a "
                            f"function) is submitted to a process "
                            f"executor: the spawn backend pickles "
                            f"arguments and nested classes do not "
                            f"pickle; move {cls.name} to module level or "
                            f"give it __reduce__ (see "
                            f"tests/api/test_pickling.py)"))


# ----------------------------------------------------------------------
# RPR012 -- shared-memory lifetime dataflow
# ----------------------------------------------------------------------
def _is_shm_create(node: ast.Call, module: ModuleModel) -> bool:
    dotted = module.context.resolve_call(node)
    if dotted is None or not dotted.endswith("SharedMemory"):
        return False
    return any(keyword.arg == "create"
               and isinstance(keyword.value, ast.Constant)
               and keyword.value.value is True
               for keyword in node.keywords)


def _find_releasers(program: Program) -> dict[str, int]:
    """Functions that ``unlink()`` one of their parameters -> param index."""
    releasers: dict[str, int] = {}
    for module in program.modules.values():
        for function in module.all_functions.values():
            params = [arg.arg for arg in function.node.args.args]
            for node in _owned_walk(function, module):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "unlink" \
                        and isinstance(node.func.value, ast.Name) \
                        and node.func.value.id in params:
                    releasers[function.qualname] = params.index(
                        node.func.value.id)
                    break
    return releasers


def _finally_releases(var: str, function: FunctionModel,
                      module: ModuleModel, program: Program,
                      graph: CallGraph, releasers: dict[str, int]) -> bool:
    types = graph.types.get(function.qualname)
    for node in _owned_walk(function, module):
        if not isinstance(node, ast.Try) or not node.finalbody:
            continue
        for statement in node.finalbody:
            for child in ast.walk(statement):
                if not isinstance(child, ast.Call):
                    continue
                if isinstance(child.func, ast.Attribute) \
                        and child.func.attr == "unlink" \
                        and isinstance(child.func.value, ast.Name) \
                        and child.func.value.id == var:
                    return True
                target = resolve_call_target(child, function, module,
                                             program, types)
                if isinstance(target, FunctionModel):
                    index = releasers.get(target.qualname)
                    if index is not None and len(child.args) > index \
                            and isinstance(child.args[index], ast.Name) \
                            and child.args[index].id == var:
                        return True
    return False


def _returned_positions(var: str, function: FunctionModel,
                        module: ModuleModel) -> list[int | None]:
    """How ``var`` escapes via return: None = whole value, int = tuple slot."""
    positions: list[int | None] = []
    for node in _owned_walk(function, module):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        if isinstance(node.value, ast.Name) and node.value.id == var:
            positions.append(None)
        elif isinstance(node.value, ast.Tuple):
            for index, element in enumerate(node.value.elts):
                if isinstance(element, ast.Name) and element.id == var:
                    positions.append(index)
    return positions


def _binding_at_call_site(call: ast.Call, position: int | None,
                          caller: FunctionModel,
                          module: ModuleModel) -> str | None:
    """Name the call's result (or tuple slot) is bound to at this site."""
    for node in _owned_walk(caller, module):
        if not isinstance(node, ast.Assign) or node.value is not call \
                or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if position is None:
            if isinstance(target, ast.Name):
                return target.id
        elif isinstance(target, ast.Tuple) \
                and position < len(target.elts) \
                and isinstance(target.elts[position], ast.Name):
            return target.elts[position].id
    return None


def _prove_released(var: str, function: FunctionModel, module: ModuleModel,
                    program: Program, graph: CallGraph,
                    releasers: dict[str, int], report: tuple[str, int],
                    depth: int, seen: frozenset[tuple[str, str]]
                    ) -> tuple[str, int, str] | None:
    """None if released on every path; else (path, line, reason)."""
    if (function.qualname, var) in seen:
        return None
    seen = seen | {(function.qualname, var)}
    if depth <= 0:
        return (*report, f"release of '{var}' could not be proven within "
                f"{_MAX_PROOF_DEPTH} call levels")
    if _finally_releases(var, function, module, program, graph, releasers):
        return None
    positions = _returned_positions(var, function, module)
    if not positions:
        return (*report,
                f"'{var}' neither reaches unlink() in a finally of "
                f"{function.name}() nor is returned to a caller that "
                f"could release it")
    callers = graph.callers_of.get(function.qualname, ())
    if not callers:
        return (*report,
                f"'{var}' escapes {function.name}() via return but no "
                f"call site was found to prove it is unlinked")
    for site in callers:
        caller = program.functions.get(site.caller)
        caller_module = program.modules_by_path.get(site.path)
        if caller is None or caller_module is None:
            return (*report, f"'{var}' is returned from {function.name}() "
                    f"to an unresolvable caller")
        for position in positions:
            bound = _binding_at_call_site(site.node, position, caller,
                                          caller_module)
            if bound is None:
                return (caller_module.path, site.node.lineno,
                        f"result of {function.name}() carries a live "
                        f"SharedMemory segment but is not bound to a "
                        f"name that reaches unlink()")
            failure = _prove_released(
                bound, caller, caller_module, program, graph, releasers,
                (caller_module.path, site.node.lineno), depth - 1, seen)
            if failure is not None:
                return failure
    return None


def check_shm_lifetime(program: Program, graph: CallGraph,
                       summaries: dict[str, FunctionSummary]
                       ) -> Iterator[Violation]:
    releasers = _find_releasers(program)
    for module in _sorted_modules(program):
        for function in module.all_functions.values():
            for node in _owned_walk(function, module):
                if not isinstance(node, ast.Call) \
                        or not _is_shm_create(node, module):
                    continue
                bound = _binding_at_call_site(node, None, function, module)
                report = (module.path, node.lineno)
                if bound is None:
                    failure = (*report,
                               "SharedMemory(create=True) result is not "
                               "bound to a simple name; the segment "
                               "cannot be proven to reach unlink()")
                else:
                    failure = _prove_released(
                        bound, function, module, program, graph, releasers,
                        report, _MAX_PROOF_DEPTH, frozenset())
                if failure is None:
                    continue
                path, line, reason = failure
                yield Violation(
                    path=path, line=line, col=0, rule="RPR012",
                    message=(
                        f"shared-memory segment may leak: {reason}; every "
                        f"path must unlink() the segment (directly or via "
                        f"a releaser helper in a finally, or by returning "
                        f"it to a caller that does -- see "
                        f"repro.api._procpool._release_segment)"))
