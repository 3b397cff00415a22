"""Automatic kernel synthesis: compile a scalar loop body into a block kernel.

The batched fast path (:mod:`repro.runtime.kernels`) historically required
each app to ship a hand-written ``kernel(block_entries, kctx)``.  This module
closes that gap: starting from the loop body's AST, the ``ArrayRef`` /
``IndexBinding`` records, and the subscript classification that
:mod:`repro.analysis.loop_info` already extracted, it *generates* the kernel
source, compiles it against the body's own environment, and hands the
callable to the executor — hand kernels become an override, not a
requirement.

Two synthesis tiers are tried in order:

* **vector** — for straight-line affine bodies whose every DistArray
  subscript is a whole-column, whole-row, or point access addressed by loop
  indices (SGD MF, GloVe, ...).  Entries are split into dependence levels
  (:func:`~repro.runtime.kernels.conflict_free_levels`) and each level
  executes as one index-array gather → NumPy-expression → scatter, with
  the scalar body replayed verbatim for single-entry levels.  Reductions
  keep the scalar form (strided ``vecdot``), ``**`` routes through
  :func:`~repro.runtime.kernels.scalar_pow`, so results stay bit-identical
  to the interpreter.
* **block-loop** — for bodies with inner loops, branches, or buffered
  writes (SLR, ...).  The original statements are kept, but DistArray
  subscripts become direct dense-array accesses with per-read-site accounting
  lists, and buffered writes collect into one ordered
  :meth:`~repro.runtime.kernels.KernelContext.buffer_add` per buffer —
  removing the per-element broker dispatch that dominates scalar runs.

Bodies neither tier can prove safe fall back to the scalar interpreter and
the reason surfaces as a lint diagnostic: **W501** (unsupported construct)
or **W502** (state-dependent access pattern — batching would break the
accounting contract).  **W503** marks a successful synthesis the *plan*
refuses to batch (e.g. parameter-server loops without buffered writes).
Correctness of whatever is emitted is enforced downstream by
``equivalence_check`` (bitwise state + accounting against the scalar
interpreter) and sanitized runs.
"""

from __future__ import annotations

import ast
import copy
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis import ast_utils
from repro.analysis.lint import Diagnostic, location_of
from repro.analysis.loop_info import LoopInfo, _axes_for_ref
from repro.analysis.subscript import SubscriptKind
from repro.errors import AnalysisError
from repro.runtime import kernels as _kernels

__all__ = ["SynthResult", "synthesize_kernel", "synth_report"]


#: Names the generated source reserves for itself (injected helpers and the
#: kernel's own parameters).  A body using any of them cannot be compiled.
_RESERVED_NAMES = {
    "_snp", "_vecdot", "_scalar_pow", "_levels_of", "_FULL", "block", "kctx",
    "_synth_kernel", "_lo", "_idx", "_vals", "_prep", "_groups", "_n", "_e",
}
#: Prefixes of generated temporaries; body names must not collide.
_RESERVED_PREFIXES = (
    "_s_", "_nd_", "_ix", "_rd", "_bi_", "_bv_",
    "_k0", "_k1", "_k2", "_k3", "_g0", "_g1", "_g2", "_g3",
    "_t0", "_t1", "_t2", "_t3", "_t4", "_t5", "_t6", "_t7", "_t8", "_t9",
    "_v_", "_vv", "_pt",
)

#: NumPy functions whose vectorized form is bit-identical to applying the
#: scalar form per element (same libm call per lane).
_NP_UNARY = {"sqrt", "exp", "log", "log1p", "abs", "tanh", "square", "negative"}
_NP_BINARY = {"minimum", "maximum"}

#: Builtins considered pure for the block-loop tier's taint analysis.
_PURE_BUILTINS = {
    "int", "float", "bool", "len", "abs", "min", "max", "round", "range",
    "zip", "enumerate", "tuple", "list", "sum", "divmod", "pow",
}

try:  # numpy < 2 lacks vecdot; keep the strided row-wise reduction exact
    _vecdot = np.vecdot
except AttributeError:  # pragma: no cover - depends on installed numpy

    def _vecdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.array([x @ y for x, y in zip(a, b)])


class _Fallback(Exception):
    """Internal: a tier cannot compile this body.

    ``code`` is the lint code the failure maps to when no later tier
    succeeds (W501 unsupported construct / W502 state-dependent access).
    """

    def __init__(self, code: str, message: str, node: Optional[ast.AST] = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.node = node


@dataclass
class SynthResult:
    """Outcome of one synthesis attempt.

    ``kernel`` is ``None`` when both tiers fell back; then ``diagnostics``
    holds the W50x explaining why.  ``notes`` records non-fatal detail (for
    example why the vector tier was skipped when the block-loop tier still
    succeeded).
    """

    kernel: Optional[Callable[..., Any]] = None
    source: Optional[str] = None
    tier: Optional[str] = None  # "vector" | "block-loop" | None
    diagnostics: List[Diagnostic] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def engaged(self) -> bool:
        """Whether synthesis produced a runnable kernel."""
        return self.kernel is not None

    def describe(self) -> str:
        """Human-readable report: tier, notes, diagnostics, source."""
        lines: List[str] = []
        if self.engaged:
            lines.append(f"synthesized kernel (tier: {self.tier})")
        else:
            lines.append("synthesis fell back to the scalar interpreter")
        for note in self.notes:
            lines.append(f"  note: {note}")
        for diag in self.diagnostics:
            lines.append(f"  {diag.describe()}")
        if self.source:
            lines.append("generated source:")
            for src_line in self.source.rstrip().splitlines():
                lines.append("    " + src_line)
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# shared helpers
# --------------------------------------------------------------------------- #


def _pattern_of(axes: Sequence[Any]) -> Tuple[Tuple[Any, ...], ...]:
    """Canonical, hashable form of a subscript classification."""
    return tuple((a.kind, a.dim_idx, a.const) for a in axes)


def _binding_names(target: ast.expr) -> Set[str]:
    """Names *bound* by an assignment/loop target (``x``, ``a, b``) —
    subscript and attribute stores mutate, they do not rebind."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        out: Set[str] = set()
        for element in target.elts:
            out |= _binding_names(element)
        return out
    if isinstance(target, ast.Starred):
        return _binding_names(target.value)
    return set()


def _assigned_names(tree: ast.AST) -> Set[str]:
    """Every name the body binds (assignments, loop targets, defs)."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= _binding_names(target)
        elif isinstance(node, ast.For):
            names |= _binding_names(node.target)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.NamedExpr):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _used_names(tree: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _check_common(info: LoopInfo) -> None:
    """Preconditions both tiers share; raises :class:`_Fallback` (W501)."""
    if info.tree is None:
        raise _Fallback("W501", "loop body source is not recoverable")
    for name, array in info.arrays.items():
        if getattr(array, "sparse", False):
            raise _Fallback(
                "W501", f"array {name!r} is sparse (no dense backing to batch over)"
            )
        if not getattr(array, "is_materialized", False):
            raise _Fallback("W501", f"array {name!r} is not materialized")
    used = _used_names(info.tree)
    bad = sorted(
        n for n in used
        if n in _RESERVED_NAMES or n.startswith(_RESERVED_PREFIXES)
    )
    if bad:
        raise _Fallback(
            "W501", f"body uses names reserved by the generator: {', '.join(bad)}"
        )
    assigned = _assigned_names(info.tree)
    shadowed = sorted(
        assigned & (set(info.arrays) | set(info.buffers) | set(info.accumulators))
    )
    if shadowed:
        raise _Fallback(
            "W501",
            f"body reassigns DistArray/buffer names: {', '.join(shadowed)}",
        )


def _subscript_elements(node: ast.Subscript) -> Tuple[ast.expr, ...]:
    if isinstance(node.slice, ast.Tuple):
        return tuple(node.slice.elts)
    return (node.slice,)


# --------------------------------------------------------------------------- #
# tier 1: vectorized gather/compute/scatter over dependence levels
# --------------------------------------------------------------------------- #

# Orientation of a vectorized value over a group of n entries:
#   "pure" - scalar, same for every entry        (env constants, literals)
#   "lane" - shape (n,), one value per entry     (point reads, reductions)
#   "col"  - shape (K, n), lanes along axis 1    (whole-column gathers)
#   "row"  - shape (n, K), lanes along axis 0    (whole-row gathers)


@dataclass
class _Val:
    code: str
    orient: str
    view_of: Optional[Tuple[str, Tuple]] = None  # (array, pattern) for views


class _Vectorizer:
    """Compile a straight-line affine body to gather/compute/scatter form."""

    def __init__(self, info: LoopInfo, env: Dict[str, Any]):
        self.info = info
        self.env = env
        self.bindings: Dict[str, ast_utils.IndexBinding] = {
            info.index_param: ast_utils.IndexBinding(dim_idx=None)
        }
        self.locals: Dict[str, _Val] = {}
        self.patterns: Dict[str, Tuple] = {}
        self.written: Dict[str, Tuple] = {}
        self.vec_lines: List[str] = []
        self.replay_stmts: List[ast.stmt] = []
        self._temp = 0

    # -------- small utilities -------------------------------------------- #

    def _fail(self, message: str, node: Optional[ast.AST] = None) -> None:
        raise _Fallback("W501", message, node)

    def _temp_name(self) -> str:
        self._temp += 1
        return f"_t{self._temp}"

    @staticmethod
    def _gidx(dim: int, const: int) -> str:
        """Group-relative index-array expression for ``key[dim] + const``."""
        return f"_g{dim}" if const == 0 else f"(_g{dim} + {const})"

    @staticmethod
    def _kidx(dim: int, const: int) -> str:
        """Whole-block index-array expression (accounting)."""
        return f"_k{dim}" if const == 0 else f"(_k{dim} + {const})"

    def _classify(self, node: ast.Subscript) -> Tuple[str, str, Tuple]:
        """Classify an array subscript; returns (array name, kind, pattern).

        ``kind`` is ``"col"`` / ``"row"`` / ``"pt"``; anything else falls
        back.  Enforces one subscript pattern per array.
        """
        base = node.value
        if not isinstance(base, ast.Name) or base.id not in self.info.arrays:
            self._fail("subscript on a non-DistArray value", node)
        name = base.id
        array = self.info.arrays[name]
        elements = _subscript_elements(node)
        try:
            axes = _axes_for_ref(
                array, name, elements, self.bindings,
                self.info.num_iter_dims, None,
            )
        except AnalysisError as exc:
            raise _Fallback("W501", str(exc), node)
        kinds = tuple(a.kind for a in axes)
        if len(axes) == 2 and kinds == (SubscriptKind.SLICE_ALL, SubscriptKind.INDEX):
            kind = "col"
        elif len(axes) == 2 and kinds == (SubscriptKind.INDEX, SubscriptKind.SLICE_ALL):
            kind = "row"
        elif all(k is SubscriptKind.INDEX for k in kinds):
            kind = "pt"
        else:
            self._fail(f"unsupported subscript shape on {name!r}", node)
        pattern = _pattern_of(axes)
        known = self.patterns.get(name)
        if known is None:
            self.patterns[name] = pattern
        elif known != pattern:
            self._fail(f"array {name!r} accessed through multiple patterns", node)
        return name, kind, pattern

    # -------- expression translation -------------------------------------- #

    def _combine(self, left: _Val, right: _Val, template: str,
                 node: ast.AST) -> _Val:
        """Elementwise combination with orientation broadcasting."""
        lo, ro = left.orient, right.orient
        lc, rc = left.code, right.code
        if {lo, ro} == {"col", "row"}:
            self._fail("mixing column- and row-oriented values", node)
        if lo == "row" and ro == "lane":
            rc = f"({rc})[:, None]"
        elif ro == "row" and lo == "lane":
            lc = f"({lc})[:, None]"
        rank = {"pure": 0, "lane": 1, "col": 2, "row": 2}
        orient = left.orient if rank[lo] >= rank[ro] else right.orient
        return _Val(template.format(l=lc, r=rc), orient)

    def _expr(self, node: ast.expr) -> _Val:
        # A loop-index expression (key[d] ± c or an alias) is a lane of ints.
        indexed = ast_utils._index_expr(node, self.bindings)
        if indexed is not None:
            return _Val(self._gidx(*indexed), "lane")
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                self._fail("non-numeric constant", node)
            return _Val(repr(node.value), "pure")
        if isinstance(node, ast.Name):
            if node.id in self.locals:
                return self.locals[node.id]
            if node.id in self.bindings:
                self._fail("whole loop-index tuple used as a value", node)
            if node.id == self.info.value_param:
                return _Val("_vv", "lane")
            if node.id in self.info.arrays or node.id in self.info.buffers:
                self._fail(f"bare DistArray reference {node.id!r}", node)
            value = self.env.get(node.id)
            if isinstance(value, (int, float, np.integer, np.floating)) and \
                    not isinstance(value, bool):
                return _Val(node.id, "pure")
            self._fail(f"unsupported name {node.id!r}", node)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            v = self._expr(node.operand)
            return _Val(f"(-{v.code})", v.orient)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return self._expr(node.operand)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            return self._gather(node)
        self._fail(f"unsupported expression ({type(node).__name__})", node)

    def _binop(self, node: ast.BinOp) -> _Val:
        op = node.op
        if isinstance(op, ast.MatMult):
            left, right = self._expr(node.left), self._expr(node.right)
            # Keep the reduction in the scalar body's exact sequential form:
            # row-wise vecdot over strided operands (see kernels contract).
            if left.orient == "col" and right.orient == "col":
                return _Val(f"_vecdot(({left.code}).T, ({right.code}).T)", "lane")
            if left.orient == "row" and right.orient == "row":
                return _Val(f"_vecdot({left.code}, {right.code})", "lane")
            self._fail("matmul on non-gather operands", node)
        if isinstance(op, ast.Pow):
            left, right = self._expr(node.left), self._expr(node.right)
            if left.orient == "pure" and right.orient == "pure":
                return _Val(f"({left.code} ** {right.code})", "pure")
            # Vectorized ** is not bit-identical to scalar pow; use the
            # python-level elementwise helper.
            return self._combine(left, right, "_scalar_pow({l}, {r})", node)
        ops = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
        sym = ops.get(type(op))
        if sym is None:
            self._fail(f"unsupported operator {type(op).__name__}", node)
        left, right = self._expr(node.left), self._expr(node.right)
        return self._combine(left, right, f"({{l}} {sym} {{r}})", node)

    def _call(self, node: ast.Call) -> _Val:
        if node.keywords:
            self._fail("call with keyword arguments", node)
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if self.env.get(func.value.id) is np:
                args = [self._expr(a) for a in node.args]
                if func.attr in _NP_UNARY and len(args) == 1:
                    (a,) = args
                    return _Val(f"_snp.{func.attr}({a.code})", a.orient)
                if func.attr in _NP_BINARY and len(args) == 2:
                    return self._combine(
                        args[0], args[1], f"_snp.{func.attr}({{l}}, {{r}})", node
                    )
                if func.attr == "power" and len(args) == 2:
                    return self._combine(
                        args[0], args[1], "_scalar_pow({l}, {r})", node
                    )
                self._fail(f"unsupported numpy call np.{func.attr}", node)
        if isinstance(func, ast.Name) and func.id in ("min", "max") \
                and len(node.args) == 2 and func.id not in self.env:
            left, right = (self._expr(a) for a in node.args)
            if left.orient == "pure" and right.orient == "pure":
                return _Val(f"{func.id}({left.code}, {right.code})", "pure")
            np_name = "minimum" if func.id == "min" else "maximum"
            return self._combine(left, right, f"_snp.{np_name}({{l}}, {{r}})", node)
        if isinstance(func, ast.Name) and func.id == "abs" \
                and len(node.args) == 1 and func.id not in self.env:
            a = self._expr(node.args[0])
            if a.orient == "pure":
                return _Val(f"abs({a.code})", "pure")
            return _Val(f"_snp.abs({a.code})", a.orient)
        self._fail("unsupported call", node)

    def _gather(self, node: ast.Subscript) -> _Val:
        name, kind, pattern = self._classify(node)
        axes = pattern
        if kind == "col":
            dim, const = axes[1][1], axes[1][2]
            code = f"_nd_{name}.take({self._gidx(dim, const)}, axis=1)"
            return _Val(code, "col", view_of=(name, pattern))
        if kind == "row":
            dim, const = axes[0][1], axes[0][2]
            code = f"_nd_{name}.take({self._gidx(dim, const)}, axis=0)"
            return _Val(code, "row", view_of=(name, pattern))
        parts = ", ".join(self._gidx(a[1], a[2]) for a in axes)
        return _Val(f"_nd_{name}[{parts}]", "lane")

    # -------- statement translation --------------------------------------- #

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return  # docstring / bare constant
        if not isinstance(node, ast.Assign):
            self._fail(
                f"unsupported statement ({type(node).__name__})", node
            )
        if len(node.targets) != 1:
            self._fail("chained assignment", node)
        target = node.targets[0]
        if isinstance(target, ast.Tuple):
            self._unpack(node, target)
            return
        if isinstance(target, ast.Name):
            self._assign_name(node, target)
            return
        if isinstance(target, ast.Subscript):
            self._assign_subscript(node, target)
            return
        self._fail("unsupported assignment target", node)

    def _unpack(self, node: ast.Assign, target: ast.Tuple) -> None:
        """``i, j = key`` — per-dimension index aliases."""
        value = node.value
        if (
            isinstance(value, ast.Name)
            and value.id in self.bindings
            and self.bindings[value.id].is_whole_key
            and len(target.elts) == self.info.num_iter_dims
            and all(isinstance(e, ast.Name) for e in target.elts)
        ):
            for dim, elt in enumerate(target.elts):
                self._bind(elt.id, ast_utils.IndexBinding(dim_idx=dim), node)
            self.replay_stmts.append(node)
            return
        self._fail("tuple assignment (only `i, j = key` is supported)", node)

    def _bind(self, name: str, binding: ast_utils.IndexBinding,
              node: ast.AST) -> None:
        if name in self.bindings or name in self.locals:
            self._fail(f"reassignment of {name!r}", node)
        self.bindings[name] = binding

    def _assign_name(self, node: ast.Assign, target: ast.Name) -> None:
        name = target.id
        # Pure index aliases produce no vector code.
        indexed = ast_utils._index_expr(node.value, self.bindings)
        if indexed is not None:
            self._bind(name, ast_utils.IndexBinding(*indexed), node)
            self.replay_stmts.append(node)
            return
        if isinstance(node.value, ast.Name) and \
                node.value.id in self.bindings and \
                self.bindings[node.value.id].is_whole_key:
            self._bind(name, ast_utils.IndexBinding(dim_idx=None), node)
            self.replay_stmts.append(node)
            return
        if name in self.locals or name in self.bindings:
            self._fail(f"reassignment of {name!r}", node)
        value = self._expr(node.value)
        view = value.view_of if isinstance(node.value, ast.Subscript) else None
        temp = f"_v_{name}"
        self.vec_lines.append(f"{temp} = {value.code}")
        self.locals[name] = _Val(temp, value.orient, view_of=view)
        self.replay_stmts.append(node)

    def _assign_subscript(self, node: ast.Assign, target: ast.Subscript) -> None:
        name, kind, pattern = self._classify(target)
        value = self._expr(node.value)
        axes = pattern
        temp = self._temp_name()
        code = value.code
        if kind == "col":
            if value.orient == "row":
                self._fail("row-oriented value stored into a column", node)
            dest = f"_nd_{name}[:, {self._gidx(axes[1][1], axes[1][2])}]"
        elif kind == "row":
            if value.orient == "col":
                self._fail("column-oriented value stored into a row", node)
            if value.orient == "lane":
                code = f"({code})[:, None]"
            dest = f"_nd_{name}[{self._gidx(axes[0][1], axes[0][2])}, :]"
        else:  # pt
            if value.orient in ("col", "row"):
                self._fail("matrix-oriented value stored into a point", node)
            parts = ", ".join(self._gidx(a[1], a[2]) for a in axes)
            dest = f"_nd_{name}[{parts}]"
        self.vec_lines.append(f"{temp} = {code}")
        self.vec_lines.append(f"{dest} = {temp}")
        self.written[name] = pattern
        # The scalar body sees writes through earlier captured *views*;
        # rebind any view-local of this array to the freshly stored values
        # (within a dependence level the scatter is exactly the update).
        for local in self.locals.values():
            if local.view_of == (name, pattern):
                local.code = temp
        self.replay_stmts.append(node)

    # -------- assembly ----------------------------------------------------- #

    def build(self) -> str:
        info = self.info
        _check_common(info)
        if info.buffers:
            raise _Fallback("W501", "buffered writes (vector tier)")
        if info.accumulators:
            raise _Fallback(
                "W501",
                "accumulator update inside the body (not batchable: the "
                "equivalence checker cannot rewind accumulators)",
            )
        try:
            first = next(iter(info.iteration_space.entries()), None)
        except Exception:
            first = None
        if first is not None and not isinstance(
            first[1], (int, float, np.integer, np.floating)
        ):
            raise _Fallback("W501", "non-scalar entry values (vector tier)")
        assert info.tree is not None
        for stmt in info.tree.body:
            self._stmt(stmt)
        if not self.written:
            raise _Fallback("W501", "no vectorizable DistArray writes")
        # Every array has one index pattern (``_classify`` refuses a
        # second), so entries that differ on every loop dimension of the
        # written patterns touch disjoint elements of every written array:
        # a level of such entries may run as one batch.
        conflict_dims = sorted({
            axis[1] for pattern in self.written.values()
            for axis in pattern if axis[0] is SubscriptKind.INDEX
        })
        if not conflict_dims:
            raise _Fallback("W501", "writes are not addressed by loop indices")
        return self._emit(conflict_dims)

    def _emit(self, conflict_dims: List[int]) -> str:
        info = self.info
        dims = list(range(info.num_iter_dims))
        need_pt: Dict[Tuple, str] = {}
        acct_lines = self._accounting(need_pt)

        lines: List[str] = []
        out = lines.append
        out("def _synth_kernel(block, kctx):")
        out("    _prep = kctx.cache.get('_synth')")
        out("    if _prep is None:")
        out("        _n = len(block)")
        for d in dims:
            out(f"        _k{d} = _snp.fromiter("
                f"(_e[0][{d}] for _e in block), _snp.intp, _n)")
        out("        _vals = _snp.fromiter((_e[1] for _e in block), "
            "_snp.float64, _n)")
        group_args = ", ".join(f"_k{d}" for d in conflict_dims)
        out(f"        _groups = _levels_of([{group_args}])")
        for key, pt_name in need_pt.items():
            zip_args = ", ".join(
                f"(_k{d} + {c}).tolist()" if c else f"_k{d}.tolist()"
                for d, c in key
            )
            out(f"        {pt_name} = list(zip({zip_args}))")
        prep_names = [f"_k{d}" for d in dims] + ["_vals", "_groups"] + \
            list(need_pt.values())
        out(f"        kctx.cache['_synth'] = _prep = ({', '.join(prep_names)})")
        out(f"    ({', '.join(prep_names)}) = _prep")
        for name in self.patterns:
            out(f"    _nd_{name} = {name}.values")
        out("    for _idx in _groups:")
        out("        if len(_idx) == 1:")
        out("            _lo = _idx[0]")
        for line in self._replay_lines():
            out("            " + line)
        out("            continue")
        used_dims = sorted({
            axis[1] for pattern in self.patterns.values()
            for axis in pattern if axis[0] is SubscriptKind.INDEX
        })
        for d in used_dims:
            out(f"        _g{d} = _k{d}[_idx]")
        out("        _vv = _vals[_idx]")
        for line in self.vec_lines:
            out("        " + line)
        lines.extend(acct_lines)
        return "\n".join(lines) + "\n"

    def _accounting(self, need_pt: Dict[Tuple, str]) -> List[str]:
        """One ``account_*`` read declaration per static read site."""
        out: List[str] = []
        for name, refs in self.info.refs.items():
            for ref in refs:
                pattern = _pattern_of(ref.axes)
                if self.patterns.get(name) != pattern:
                    raise _Fallback(
                        "W501",
                        f"accounting mismatch for {name!r} (untranslated site)",
                    )
                if ref.is_write:
                    continue
                kinds = tuple(a[0] for a in pattern)
                if kinds == (SubscriptKind.SLICE_ALL, SubscriptKind.INDEX):
                    idx = self._kidx(pattern[1][1], pattern[1][2])
                    out.append(f"    kctx.account_col_reads({name}, {idx})")
                elif kinds == (SubscriptKind.INDEX, SubscriptKind.SLICE_ALL):
                    idx = self._kidx(pattern[0][1], pattern[0][2])
                    out.append(f"    kctx.account_row_reads({name}, {idx})")
                elif len(pattern) == 1:
                    idx = self._kidx(pattern[0][1], pattern[0][2])
                    out.append(f"    kctx.account_point_reads({name}, {idx})")
                else:
                    key = tuple((a[1], a[2]) for a in pattern)
                    pt_name = need_pt.setdefault(key, f"_pt{len(need_pt)}")
                    out.append(f"    kctx.account_reads({name}, {pt_name})")
        return out

    def _replay_lines(self) -> List[str]:
        """The original scalar statements, renamed for single-entry groups.

        Scalar NumPy indexing gives the replay branch the body's exact view
        semantics, so heavy-conflict blocks stay bit-identical without any
        orientation machinery.
        """
        info = self.info
        assigned = set(self.locals) | {
            n for n in self.bindings if n != info.index_param
        }
        arrays = set(self.patterns)
        index_param, value_param = info.index_param, info.value_param

        class _Rename(ast.NodeTransformer):
            def visit_Name(self, node: ast.Name) -> ast.Name:
                if node.id == index_param:
                    return ast.copy_location(
                        ast.Name(id="_s_key", ctx=node.ctx), node
                    )
                if value_param is not None and node.id == value_param:
                    return ast.copy_location(
                        ast.Name(id=f"_s_{value_param}", ctx=node.ctx), node
                    )
                if node.id in assigned:
                    return ast.copy_location(
                        ast.Name(id=f"_s_{node.id}", ctx=node.ctx), node
                    )
                if node.id in arrays:
                    return ast.copy_location(
                        ast.Name(id=f"_nd_{node.id}", ctx=node.ctx), node
                    )
                return node

        key_parts = ", ".join(
            f"_k{d}[_lo]" for d in range(info.num_iter_dims)
        )
        lines = [f"_s_key = ({key_parts},)"]
        if value_param is not None:
            lines.append(f"_s_{value_param} = _vals[_lo]")
        renamer = _Rename()
        for stmt in self.replay_stmts:
            new = renamer.visit(copy.deepcopy(stmt))
            ast.fix_missing_locations(new)
            lines.extend(ast.unparse(new).splitlines())
        return lines


# --------------------------------------------------------------------------- #
# tier 2: block-loop compilation with direct dense access + bulk accounting
# --------------------------------------------------------------------------- #


class _BlockLoop:
    """Keep the body's statements; replace broker dispatch with direct
    dense-array access, per-site accounting lists, and one ordered
    ``buffer_add`` per buffer."""

    def __init__(self, info: LoopInfo, env: Dict[str, Any]):
        self.info = info
        self.env = env
        self.tainted: Set[str] = set()
        self.sites: List[Tuple[str, str]] = []  # read sites: (list name, array)
        self.touched: Set[str] = set()  # arrays read or written
        self._counter = 0

    # -------- taint analysis ---------------------------------------------- #

    def _expr_tainted(self, node: ast.expr) -> bool:
        """Whether an expression may depend on mutable array state (or other
        per-epoch-varying state such as RNG draws)."""
        for sub_node in ast.walk(node):
            if isinstance(sub_node, ast.Name) and sub_node.id in self.tainted:
                return True
            if isinstance(sub_node, ast.Subscript):
                base = sub_node.value
                if isinstance(base, ast.Name) and (
                    base.id in self.info.arrays or base.id in self.info.buffers
                ):
                    return True
            if isinstance(sub_node, ast.Call):
                func = sub_node.func
                if not (
                    isinstance(func, ast.Name)
                    and func.id in _PURE_BUILTINS
                    and func.id not in self.env
                ) and not (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and self.env.get(func.value.id) is np
                ):
                    return True
            if isinstance(sub_node, (ast.Lambda, ast.NamedExpr)):
                return True
        return False

    def _compute_taints(self, tree: ast.FunctionDef) -> None:
        """Fixpoint over the whole body (handles backward flow in loops)."""
        changed = True
        while changed:
            changed = False
            for node in ast.walk(tree):
                names: List[str] = []
                tainted = False
                if isinstance(node, ast.Assign):
                    tainted = self._expr_tainted(node.value)
                    for target in node.targets:
                        names.extend(_binding_names(target))
                elif isinstance(node, ast.AugAssign) and \
                        isinstance(node.target, ast.Name):
                    tainted = self._expr_tainted(node.value)
                    names.append(node.target.id)
                elif isinstance(node, ast.For):
                    tainted = self._expr_tainted(node.iter)
                    names.extend(_binding_names(node.target))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    tainted = True
                    names.append(node.name)
                if tainted:
                    for name in names:
                        if name not in self.tainted:
                            self.tainted.add(name)
                            changed = True

    # -------- expression rewriting ---------------------------------------- #

    def _new_id(self) -> int:
        self._counter += 1
        return self._counter

    def _index_source(self, node: ast.Subscript) -> str:
        """Runtime index value of a subscript, as source (slices become
        ``slice()`` objects so the value can be recorded for accounting)."""
        def convert(element: ast.expr) -> str:
            if isinstance(element, ast.Slice):
                if element.step is not None:
                    raise _Fallback("W501", "stepped slice subscript", element)
                if element.lower is None and element.upper is None:
                    return "_FULL"
                lo = "None" if element.lower is None else ast.unparse(element.lower)
                hi = "None" if element.upper is None else ast.unparse(element.upper)
                return f"slice({lo}, {hi})"
            return ast.unparse(element)

        if isinstance(node.slice, ast.Tuple):
            return "(" + ", ".join(convert(e) for e in node.slice.elts) + ")"
        return convert(node.slice)

    def _array_of(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            if node.value.id in self.info.arrays:
                return node.value.id
        return None

    def _buffer_of(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            if node.value.id in self.info.buffers:
                return node.value.id
        return None

    @staticmethod
    def _contains_array_read(node: ast.AST, names: Set[str]) -> bool:
        for sub_node in ast.walk(node):
            if isinstance(sub_node, ast.Subscript) and \
                    isinstance(sub_node.value, ast.Name) and \
                    sub_node.value.id in names:
                return True
        return False

    def _rewrite_reads(self, node: ast.expr) -> Tuple[ast.expr, List[str]]:
        """Hoist every DistArray read in an expression into pre-lines.

        Returns the rewritten expression and the hoisted source lines, in
        left-to-right evaluation order.
        """
        pre: List[str] = []
        outer = self
        array_names = set(self.info.arrays) | set(self.info.buffers)

        class _Reads(ast.NodeTransformer):
            def _guard(self, node_: ast.AST, what: str) -> None:
                if outer._contains_array_read(node_, array_names):
                    raise _Fallback(
                        "W501", f"DistArray access inside {what}", node_
                    )

            def visit_BoolOp(self, node_: ast.BoolOp) -> ast.AST:
                self._guard(node_, "a short-circuit boolean")
                return node_

            def visit_IfExp(self, node_: ast.IfExp) -> ast.AST:
                self._guard(node_, "a conditional expression")
                return node_

            def visit_Compare(self, node_: ast.Compare) -> ast.AST:
                if len(node_.ops) > 1:
                    self._guard(node_, "a chained comparison")
                    return node_
                return self.generic_visit(node_)

            def visit_Lambda(self, node_: ast.Lambda) -> ast.AST:
                self._guard(node_, "a lambda")
                return node_

            def visit_ListComp(self, node_: ast.AST) -> ast.AST:
                self._guard(node_, "a comprehension")
                return node_

            visit_SetComp = visit_ListComp
            visit_DictComp = visit_ListComp
            visit_GeneratorExp = visit_ListComp

            def visit_NamedExpr(self, node_: ast.NamedExpr) -> ast.AST:
                raise _Fallback("W501", "assignment expression (:=)", node_)

            def visit_Name(self, node_: ast.Name) -> ast.AST:
                # Any array subscript was already replaced, so a surviving
                # bare DistArray name escapes the batching contract (for
                # example handed whole to a helper function).
                if node_.id in outer.info.arrays or \
                        node_.id in outer.info.buffers:
                    raise _Fallback(
                        "W501",
                        f"bare DistArray reference {node_.id!r}",
                        node_,
                    )
                return node_

            def visit_Attribute(self, node_: ast.Attribute) -> ast.AST:
                if isinstance(node_.value, ast.Name) and (
                    node_.value.id in outer.info.arrays
                    or node_.value.id in outer.info.buffers
                ):
                    raise _Fallback(
                        "W501",
                        f"method/attribute access on DistArray "
                        f"{node_.value.id!r}",
                        node_,
                    )
                return self.generic_visit(node_)

            def visit_Subscript(self, node_: ast.Subscript) -> ast.AST:
                buffer_name = outer._buffer_of(node_)
                if buffer_name is not None:
                    raise _Fallback(
                        "W501", f"read of buffer {buffer_name!r}", node_
                    )
                array_name = outer._array_of(node_)
                if array_name is None:
                    return self.generic_visit(node_)
                for element in ast.walk(node_.slice):
                    if isinstance(element, ast.Name) and \
                            element.id in outer.tainted:
                        raise _Fallback(
                            "W502",
                            f"read of {array_name!r} through a "
                            f"state-dependent subscript",
                            node_,
                        )
                if outer._contains_array_read(node_.slice, array_names):
                    raise _Fallback(
                        "W502",
                        f"read of {array_name!r} subscripted by another "
                        f"DistArray read",
                        node_,
                    )
                site = outer._new_id()
                list_name = f"_rd{site}"
                outer.sites.append((list_name, array_name))
                outer.touched.add(array_name)
                pre.append(f"_ix{site} = {outer._index_source(node_)}")
                pre.append(f"{list_name}.append(_ix{site})")
                return ast.copy_location(
                    ast.parse(f"_nd_{array_name}[_ix{site}]", mode="eval").body,
                    node_,
                )

        new = _Reads().visit(copy.deepcopy(node))
        ast.fix_missing_locations(new)
        return new, pre

    # -------- statement rewriting ----------------------------------------- #

    def _stmt(self, node: ast.stmt, indent: str, out: List[str]) -> None:
        if isinstance(node, ast.Expr):
            if isinstance(node.value, (ast.Constant, ast.Name)):
                return  # docstring or no-op
            new, pre = self._rewrite_reads(node.value)
            out.extend(indent + line for line in pre)
            out.append(indent + ast.unparse(new))
            return
        if isinstance(node, ast.Assign):
            self._assign(node, indent, out)
            return
        if isinstance(node, ast.AugAssign):
            self._augassign(node, indent, out)
            return
        if isinstance(node, ast.If):
            if self._expr_tainted(node.test):
                raise _Fallback(
                    "W502", "branch on a state-dependent condition", node
                )
            test, pre = self._rewrite_reads(node.test)
            out.extend(indent + line for line in pre)
            out.append(indent + f"if {ast.unparse(test)}:")
            self._block(node.body, indent + "    ", out)
            if node.orelse:
                out.append(indent + "else:")
                self._block(node.orelse, indent + "    ", out)
            return
        if isinstance(node, ast.For):
            if node.orelse:
                raise _Fallback("W501", "for/else", node)
            if self._expr_tainted(node.iter):
                raise _Fallback(
                    "W502", "loop over a state-dependent iterable", node
                )
            iter_new, pre = self._rewrite_reads(node.iter)
            out.extend(indent + line for line in pre)
            out.append(
                indent
                + f"for {ast.unparse(node.target)} in {ast.unparse(iter_new)}:"
            )
            self._block(node.body, indent + "    ", out)
            return
        if isinstance(node, ast.Return):
            if node.value is None or (
                isinstance(node.value, ast.Constant) and node.value.value is None
            ):
                out.append(indent + "continue")
                return
            raise _Fallback("W501", "return with a value", node)
        if isinstance(node, (ast.Pass, ast.Break, ast.Continue)):
            out.append(indent + ast.unparse(node))
            return
        if isinstance(node, ast.FunctionDef):
            if self._contains_array_read(
                node, set(self.info.arrays) | set(self.info.buffers)
            ):
                raise _Fallback(
                    "W501", "nested function touching a DistArray", node
                )
            out.extend(indent + line for line in ast.unparse(node).splitlines())
            return
        raise _Fallback(
            "W501", f"unsupported statement ({type(node).__name__})", node
        )

    def _block(self, stmts: Sequence[ast.stmt], indent: str,
               out: List[str]) -> None:
        before = len(out)
        for stmt in stmts:
            self._stmt(stmt, indent, out)
        if len(out) == before:
            out.append(indent + "pass")

    def _assign(self, node: ast.Assign, indent: str, out: List[str]) -> None:
        if len(node.targets) != 1:
            raise _Fallback("W501", "chained assignment", node)
        target = node.targets[0]
        array_name = self._array_of(target)
        buffer_name = self._buffer_of(target)
        value, pre = self._rewrite_reads(node.value)
        value_src = ast.unparse(value)
        if array_name is None and buffer_name is None:
            if isinstance(target, ast.Tuple) and not all(
                isinstance(e, ast.Name) for e in target.elts
            ):
                raise _Fallback("W501", "complex unpacking target", node)
            if isinstance(target, ast.Subscript):
                # Local-container store; its index may still read an array.
                target, target_pre = self._rewrite_reads(target)
                pre = pre + target_pre
            out.extend(indent + line for line in pre)
            out.append(indent + f"{ast.unparse(target)} = {value_src}")
            return
        assert isinstance(target, ast.Subscript)
        if array_name is not None and self._write_index_tainted(target):
            raise _Fallback(
                "W502",
                f"write to {array_name!r} through a state-dependent subscript",
                target,
            )
        n = self._new_id()
        out.extend(indent + line for line in pre)
        out.append(indent + f"_v{n} = {value_src}")
        out.append(indent + f"_ix{n} = {self._index_source(target)}")
        if array_name is not None:
            self.touched.add(array_name)
            out.append(indent + f"_nd_{array_name}[_ix{n}] = _v{n}")
        else:
            out.append(indent + f"_bi_{buffer_name}.append(_ix{n})")
            out.append(indent + f"_bv_{buffer_name}.append(_v{n})")

    def _write_index_tainted(self, target: ast.Subscript) -> bool:
        if self._expr_tainted(target.slice):
            return True
        return False

    def _augassign(self, node: ast.AugAssign, indent: str,
                   out: List[str]) -> None:
        target = node.target
        array_name = self._array_of(target)
        if self._buffer_of(target) is not None:
            raise _Fallback("W501", "augmented assignment to a buffer", node)
        value, pre = self._rewrite_reads(node.value)
        value_src = ast.unparse(value)
        op_map = {
            ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
        }
        if array_name is None:
            sym = op_map.get(type(node.op))
            if not isinstance(target, (ast.Name, ast.Subscript)) or sym is None:
                raise _Fallback("W501", "unsupported augmented assignment", node)
            if isinstance(target, ast.Subscript):
                target, target_pre = self._rewrite_reads(target)
                pre = pre + target_pre
            out.extend(indent + line for line in pre)
            out.append(indent + f"{ast.unparse(target)} {sym}= {value_src}")
            return
        assert isinstance(target, ast.Subscript)
        sym = op_map.get(type(node.op))
        if sym is None:
            raise _Fallback("W501", "unsupported augmented operator", node)
        if self._write_index_tainted(target):
            raise _Fallback(
                "W502",
                f"update of {array_name!r} through a state-dependent "
                f"subscript",
                target,
            )
        n = self._new_id()
        read_list = f"_rd{n}"
        self.sites.append((read_list, array_name))
        self.touched.add(array_name)
        out.append(indent + f"_ix{n} = {self._index_source(target)}")
        out.append(indent + f"{read_list}.append(_ix{n})")
        out.extend(indent + line for line in pre)
        out.append(indent + f"_nd_{array_name}[_ix{n}] {sym}= {value_src}")

    # -------- assembly ----------------------------------------------------- #

    def build(self) -> str:
        info = self.info
        _check_common(info)
        if info.accumulators:
            raise _Fallback(
                "W501",
                "accumulator update inside the body (not batchable: the "
                "equivalence checker cannot rewind accumulators)",
            )
        assert info.tree is not None
        self._compute_taints(info.tree)
        body_lines: List[str] = []
        for stmt in info.tree.body:
            self._stmt(stmt, "        ", body_lines)
        if not body_lines:
            body_lines.append("        pass")

        lines: List[str] = ["def _synth_kernel(block, kctx):"]
        for name in sorted(self.touched):
            lines.append(f"    _nd_{name} = {name}.values")
        for list_name, _array in self.sites:
            lines.append(f"    {list_name} = []")
        for buffer_name in info.buffers:
            lines.append(f"    _bi_{buffer_name} = []")
            lines.append(f"    _bv_{buffer_name} = []")
        value_param = info.value_param if info.value_param else "_unused_value"
        lines.append(f"    for {info.index_param}, {value_param} in block:")
        lines.extend(body_lines)
        for list_name, array in self.sites:
            lines.append(f"    kctx.account_reads({array}, {list_name})")
        for buffer_name in info.buffers:
            lines.append(
                f"    kctx.buffer_add({buffer_name}, "
                f"_bi_{buffer_name}, _bv_{buffer_name})"
            )
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# entry points
# --------------------------------------------------------------------------- #


def _compile_kernel(source: str, env: Dict[str, Any],
                    info: LoopInfo) -> Callable[..., Any]:
    glb = dict(env)
    glb.update(
        _snp=np,
        _vecdot=_vecdot,
        _scalar_pow=_kernels.scalar_pow,
        _levels_of=_kernels.conflict_free_levels,
        _FULL=slice(None),
    )
    code = compile(source, f"<synth:{info.source_file or 'loop body'}>", "exec")
    exec(code, glb)
    return glb["_synth_kernel"]


def synthesize_kernel(body: Callable[..., Any], info: LoopInfo) -> SynthResult:
    """Synthesize a block kernel for an analyzed loop body.

    Tries the vector tier, then the block-loop tier.  On success the
    result's ``kernel`` satisfies the contract in
    :mod:`repro.runtime.kernels` (bit-identical state, identical
    accounting, deterministic declarations).  On failure the result carries
    a W501/W502 diagnostic naming the first construct the block-loop tier
    could not handle (the vector tier's reason is kept as a note).
    """
    env = ast_utils.resolve_free_variables(body)
    result = SynthResult()
    vector_reason: Optional[_Fallback] = None
    try:
        source = _Vectorizer(info, env).build()
        result.tier = "vector"
    except _Fallback as fallback:
        vector_reason = fallback
        try:
            source = _BlockLoop(info, env).build()
            result.tier = "block-loop"
            result.notes.append(
                f"vector tier unavailable: {vector_reason.message}"
            )
        except _Fallback as block_fallback:
            location = location_of(
                block_fallback.node, info.source_file
            ) if block_fallback.node is not None else location_of(
                info.tree, info.source_file
            )
            result.diagnostics.append(
                Diagnostic(
                    code=block_fallback.code,
                    message=f"synthesis fell back: {block_fallback.message}",
                    location=location,
                    hint="the scalar interpreter runs this loop; pass a "
                         "hand kernel or simplify the body to batch it",
                )
            )
            if vector_reason.message != block_fallback.message:
                result.notes.append(
                    f"vector tier unavailable: {vector_reason.message}"
                )
            return result
    try:
        result.kernel = _compile_kernel(source, env, info)
        result.source = source
    except Exception as exc:  # defensive: emitted code must always compile
        result.tier = None
        result.diagnostics.append(
            Diagnostic(
                code="W501",
                message=f"synthesis fell back: generated kernel failed to "
                        f"compile ({exc})",
                location=location_of(info.tree, info.source_file),
            )
        )
    return result


def synth_report(
    body: Callable[..., Any],
    iteration_space: Any,
    ordered: bool = False,
) -> Tuple[SynthResult, List[Diagnostic]]:
    """Analyze + synthesize without executing (CLI/demo helper).

    Returns the synthesis result plus the loop's full diagnostic list
    (analysis warnings, the W50x fallback codes, and W503 when the chosen
    plan refuses batched execution of a successfully synthesized kernel).
    """
    from repro.analysis.loop_info import analyze_loop_body
    from repro.analysis.strategy import choose_plan
    from repro.runtime.executor import kernel_batching_legal

    info = analyze_loop_body(body, iteration_space, ordered=ordered)
    plan = choose_plan(info)
    result = synthesize_kernel(body, info)
    diagnostics = list(info.diagnostics) + list(result.diagnostics)
    if result.engaged:
        legal, reason = kernel_batching_legal(info, plan)
        if not legal:
            diagnostics.append(
                Diagnostic(
                    code="W503",
                    message=f"synthesized kernel is unused: {reason}",
                    location=location_of(info.tree, info.source_file),
                )
            )
    return result, diagnostics
