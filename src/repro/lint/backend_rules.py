"""Backend-conformance rules BKD001–BKD003 of the shapes analyzer.

The PR that extracted :mod:`repro.backend` made the gpu package
numpy-free: every array op goes through the ``xp`` namespace, so a
CuPy/torch substrate can drop in without touching kernel code. These
rules keep that boundary from eroding:

* ``BKD001`` — a gpu module imports numpy again.
* ``BKD002`` — a gpu module reads an attribute through a numpy-bound
  alias (``np.sum``, ``numpy.float64``, a ``from numpy import ...``
  name): raw array ops are only legal inside the backend package.
* ``BKD003`` — an ``xp.<op>`` read names an op the backend protocol
  does not declare: the op would work on the numpy substrate and
  explode on any other, so the protocol surface
  (:data:`repro.backend.protocol.REQUIRED_OPS`) is the source of
  truth.

Each rule is a function ``rule(index, config, emit)``; ``config`` is a
:class:`repro.lint.project.LintConfig`.
"""

from __future__ import annotations

import ast

from ..backend.protocol import REQUIRED_OPS
from .dataflow import ModuleInfo, ProjectIndex

#: Backend-conformance rules: rule ID -> (severity, one-line doc).
BKD_RULES = {
    "BKD001": ("error", "numpy imported inside a backend-ported gpu "
                        "module"),
    "BKD002": ("error", "raw numpy attribute read outside the backend "
                        "substrate"),
    "BKD003": ("error", "xp op is not declared by the backend "
                        "protocol"),
}

#: Dunder/introspection attributes BKD003 ignores on the namespace.
_XP_EXEMPT = {"name"}


def _gpu_modules(index: ProjectIndex, config):
    for module in index.modules:
        if module.matches(config.gpu_globs) \
                and not module.matches(config.backend_globs):
            yield module


def _numpy_bindings(module: ModuleInfo
                    ) -> tuple[dict[int, str], set[str], set[str]]:
    """(import lineno -> rendered form, alias roots, bare names).

    Alias roots are local names whose attributes resolve into numpy
    (``import numpy as np`` binds ``np``); bare names are direct
    ``from numpy import sum``-style bindings.
    """
    imports: dict[int, str] = {}
    roots: set[str] = set()
    bare: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" \
                        or alias.name.startswith("numpy."):
                    local = (alias.asname
                             or alias.name.split(".")[0])
                    roots.add(local)
                    imports[node.lineno] = f"import {alias.name}" + (
                        f" as {alias.asname}" if alias.asname else "")
        elif isinstance(node, ast.ImportFrom):
            if node.module and (node.module == "numpy"
                                or node.module.startswith("numpy.")):
                for alias in node.names:
                    bare.add(alias.asname or alias.name)
                imports[node.lineno] = (
                    f"from {node.module} import "
                    + ", ".join(a.name for a in node.names))
    return imports, roots, bare


def rule_bkd001(index: ProjectIndex, config, emit) -> None:
    for module in _gpu_modules(index, config):
        imports, _, _ = _numpy_bindings(module)
        for lineno, rendered in sorted(imports.items()):
            emit("BKD001", module, lineno,
                 f"{rendered!r}: gpu kernels are backend-ported and "
                 "must not import numpy; array ops go through the xp "
                 "namespace so substrates stay swappable",
                 "import the namespace instead: "
                 "from ..backend import Array, xp")


def rule_bkd002(index: ProjectIndex, config, emit) -> None:
    for module in _gpu_modules(index, config):
        _, roots, bare = _numpy_bindings(module)
        roots = roots | {"np", "numpy"}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and isinstance(node.value.ctx, ast.Load) \
                    and node.value.id in roots:
                emit("BKD002", module, node.value.lineno,
                     f"raw numpy read {node.value.id}.{node.attr} in "
                     "a gpu module: array ops outside the backend "
                     "package bypass the substrate protocol",
                     f"use xp.{node.attr} (extend the protocol if "
                     "the op is missing)")
            elif isinstance(node, ast.Name) \
                    and isinstance(node.ctx, ast.Load) \
                    and node.id in bare:
                emit("BKD002", module, node.lineno,
                     f"{node.id!r} was imported from numpy into a "
                     "gpu module: the call bypasses the substrate "
                     "protocol",
                     "route the op through the xp namespace")


def rule_bkd003(index: ProjectIndex, config, emit) -> None:
    ops = set(config.backend_ops
              if config.backend_ops is not None else REQUIRED_OPS)
    ops |= _XP_EXEMPT
    for module in _gpu_modules(index, config):
        seen: set[tuple[int, str]] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute) \
                    or not isinstance(node.value, ast.Name) \
                    or node.value.id != config.backend_name:
                continue
            if node.attr in ops or node.attr.startswith("__"):
                continue
            key = (node.lineno, node.attr)
            if key in seen:
                continue
            seen.add(key)
            emit("BKD003", module, node.lineno,
                 f"{config.backend_name}.{node.attr} is not declared "
                 "by the backend protocol: the op resolves on the "
                 "numpy substrate by accident and breaks on any "
                 "other",
                 "add the op to repro.backend.protocol.REQUIRED_OPS "
                 "(and every substrate) or use a declared op")


#: Rule id -> implementation, in execution order.
BKD_CHECKS = {
    "BKD001": rule_bkd001,
    "BKD002": rule_bkd002,
    "BKD003": rule_bkd003,
}
