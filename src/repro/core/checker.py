"""The flow-sensitive static checker run just in time at method entry.

Given a method's IR body, its declared signature (possibly an intersection
of arms), and the receiver's class, this module re-creates the paper's
typing judgment ``TT |- <Gamma, e> => <Gamma', tau>``:

* the type environment is threaded through statements (flow-sensitive, so
  assignments change variables' types);
* conditionals join branch environments and branch types exactly as (TIf),
  with an occurrence-typing extension for ``is None`` / ``isinstance``
  tests (documented extension; can be disabled);
* method calls are (TApp): look up the callee's signature in the *current*
  type table under the receiver's static type, record the lookup as a
  dependency for cache invalidation, check arguments against parameters,
  produce the declared return type;
* union receivers check once per arm and union the returns (section 4);
* intersection signatures (overloads) select the first arm that fits;
* code blocks are checked against the callee's block type, including
  lightweight inference of method-level type variables (``map``'s ``u``);
* ``cast(e, "T")`` gives ``e`` type ``T`` statically (counted for Table 1).

The outcome records every signature and field type consulted, which the
cache stores as the entry's dependency set (Definition 1, part 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Optional, Set, Tuple

from ..ril import ir
from ..ril.registry import MethodIR, ParamSpec
from ..rtypes import (
    ANY, BOOL, BOT, NIL,
    AnyType, BlockType, BoolType, BotType, ClassObjectType, FiniteHashType,
    GenericType, IntersectionType, MethodType, NilType, NominalType,
    OptionalParam, RequiredParam, SingletonType, StructuralType, TupleType,
    Type, UnionType, VarType, VarargParam,
    array_of, free_vars, instantiate_for_receiver, instantiate_walk,
    is_subtype, join, join_all, parse_type, substitute, union_of,
)
from .errors import StaticTypeError, TypeSignatureError

Env = Dict[str, Type]
Key = Tuple[str, str]

_MAX_LOOP_PASSES = 10


@dataclass
class CheckOutcome:
    """What one successful method check produced and consulted."""

    deps: Set[Key] = dc_field(default_factory=set)
    field_deps: Set[Key] = dc_field(default_factory=set)
    used_generated: Set[Key] = dc_field(default_factory=set)
    cast_sites: Set[Tuple[str, str, int]] = dc_field(default_factory=set)


class Checker:
    """Checks method bodies against the engine's current type table."""

    def __init__(self, engine):
        self.engine = engine

    # -- entry point ---------------------------------------------------------

    def check_method(self, mir: MethodIR, arms: List[MethodType],
                     self_type: Type) -> CheckOutcome:
        """Check ``mir``'s body against every signature arm.

        Raises :class:`StaticTypeError` on the first violation.
        """
        run = _Run(self.engine, mir)
        for arm in arms:
            env = run.initial_env(arm, self_type)
            run.expected_ret = arm.ret
            body_t, out_env = run.visit(mir.body, env)
            if not _always_returns(mir.body):
                # Falling off the end returns nil in the host language.
                if not run.le(NIL, arm.ret):
                    run.fail(mir.body,
                             f"method may return nil but is declared to "
                             f"return {arm.ret}")
        return run.outcome


class _Run:
    """One checking run: environment plumbing plus the visit dispatcher."""

    def __init__(self, engine, mir: MethodIR):
        self.engine = engine
        self.mir = mir
        self.hier = engine.hier
        self.types = engine.types
        self.outcome = CheckOutcome()
        self.expected_ret: Type = ANY
        #: the cache-free oracle re-walks every receiver instantiation.
        self.instantiate = (instantiate_walk if engine.caches_disabled
                            else instantiate_for_receiver)

    # -- helpers -------------------------------------------------------------

    def le(self, s: Type, t: Type) -> bool:
        return is_subtype(s, t, self.hier)

    def join2(self, a: Type, b: Type) -> Type:
        return join(a, b, self.hier)

    def fail(self, node: ir.Node, message: str) -> None:
        line = getattr(node, "pos", ir.NOWHERE).line
        if line and self.mir.source_line > 0:
            # Lowered from the method's own source, which starts at
            # ``source_line`` of ``source_file``.
            line += self.mir.source_line - 1
        raise StaticTypeError(
            message, owner=self.mir.owner, method=self.mir.name,
            line=line or None, source_file=self.mir.source_file)

    def initial_env(self, arm: MethodType, self_type: Type) -> Env:
        env: Env = {"self": self_type}
        for name, ty in self.mir.captures.items():
            env[name] = ty if isinstance(ty, Type) else parse_type(str(ty))
        specs = list(self.mir.params)
        block = arm.block
        if block is not None and specs and not specs[-1].vararg:
            # The host passes the code block as the final parameter.
            env[specs[-1].name] = block.sig
            specs = specs[:-1]
        fixed = [p for p in specs if not p.vararg]
        rest = [p for p in specs if p.vararg]
        max_arity = arm.max_arity()
        if max_arity is not None and not rest and max_arity > len(fixed):
            raise TypeSignatureError(
                f"{self.mir.owner}#{self.mir.name}: signature {arm} has more "
                f"parameters than the method accepts")
        for i, spec in enumerate(fixed):
            ty = arm.param_type_at(i)
            if ty is None:
                raise TypeSignatureError(
                    f"{self.mir.owner}#{self.mir.name}: signature {arm} has "
                    f"no type for parameter {spec.name!r}")
            if spec.optional and not self.le(NIL, ty):
                ty = union_of(ty, NIL)
            env[spec.name] = ty
        if rest:
            vararg_types = [p.ty for p in arm.params
                            if isinstance(p, VarargParam)]
            extra = [arm.param_type_at(i)
                     for i in range(len(fixed), len(arm.params))]
            pool = vararg_types or [t for t in extra if t is not None] or [ANY]
            env[rest[0].name] = array_of(join_all(pool, self.hier))
        return env

    def join_env(self, a: Env, b: Env) -> Env:
        """(TIf)'s environment join: keep variables bound on both sides."""
        out: Env = {}
        for name, ta in a.items():
            tb = b.get(name)
            if tb is not None:
                out[name] = self.join2(ta, tb)
        return out

    # -- dispatcher ----------------------------------------------------------

    def visit(self, node: ir.Node, env: Env) -> Tuple[Type, Env]:
        method = getattr(self, f"_visit_{type(node).__name__}", None)
        if method is None:  # pragma: no cover - all nodes covered
            self.fail(node, f"checker cannot handle {type(node).__name__}")
        return method(node, env)

    # -- literals ------------------------------------------------------------

    def _visit_NilLit(self, node, env):
        return NIL, env

    def _visit_BoolLit(self, node, env):
        return BOOL, env

    def _visit_IntLit(self, node, env):
        return NominalType("Integer"), env

    def _visit_FloatLit(self, node, env):
        return NominalType("Float"), env

    def _visit_StrLit(self, node, env):
        return NominalType("String"), env

    def _visit_SymLit(self, node, env):
        return SingletonType(node.name, "Symbol"), env

    def _visit_ArrayLit(self, node, env):
        elems = []
        for e in node.elems:
            t, env = self.visit(e, env)
            elems.append(t)
        return TupleType(tuple(elems)), env

    def _visit_HashLit(self, node, env):
        fields = []
        literal_keys = True
        key_ts, val_ts = [], []
        for k, v in node.pairs:
            kt, env = self.visit(k, env)
            vt, env = self.visit(v, env)
            key_ts.append(kt)
            val_ts.append(vt)
            if isinstance(k, ir.SymLit):
                fields.append((k.name, vt))
            elif isinstance(k, ir.StrLit):
                fields.append((k.value, vt))
            else:
                literal_keys = False
        if literal_keys and fields:
            return FiniteHashType(tuple(fields)), env
        if not node.pairs:
            return GenericType("Hash", (ANY, ANY)), env
        return GenericType(
            "Hash",
            (join_all(key_ts, self.hier),
             join_all(val_ts, self.hier))), env

    def _visit_RangeLit(self, node, env):
        lo_t, env = self.visit(node.lo, env)
        hi_t, env = self.visit(node.hi, env)
        for t, which in ((lo_t, node.lo), (hi_t, node.hi)):
            if not self.le(t, NominalType("Integer")):
                self.fail(which, f"range bound must be an Integer, got {t}")
        return GenericType("Range", (NominalType("Integer"),)), env

    def _visit_StrFormat(self, node, env):
        # Interpolation calls to_s, defined on Object: any type is fine.
        for part in node.parts:
            if isinstance(part, ir.Node):
                _, env = self.visit(part, env)
        return NominalType("String"), env

    # -- names ---------------------------------------------------------------

    def _visit_SelfRef(self, node, env):
        return env["self"], env

    def _visit_VarRead(self, node, env):
        if node.name in env:
            return env[node.name], env
        # Ruby's bare-name ambiguity: an unbound name is treated as a
        # no-argument method on self — exactly how the paper's Talks
        # errors ("undefined variable old_talk") surface.
        return self.check_call(node, env, env["self"], node.name, [], None,
                               bare_name=node.name)

    def _visit_ConstRead(self, node, env):
        if not self.hier.is_known(node.name):
            self.fail(node, f"uninitialized constant {node.name}")
        return ClassObjectType(node.name), env

    def _visit_IVarRead(self, node, env):
        ft, owner = self._field_lookup(env["self"], node.name)
        if ft is not None:
            self.outcome.field_deps.add((owner, node.name))
            return ft, env
        return self.check_call(node, env, env["self"], node.name, [], None)

    def _visit_VarWrite(self, node, env):
        t, env = self.visit(node.value, env)
        new_env = dict(env)
        new_env[node.name] = t
        return t, new_env

    def _visit_IVarWrite(self, node, env):
        vt, env = self.visit(node.value, env)
        ft, owner = self._field_lookup(env["self"], node.name)
        if ft is not None:
            self.outcome.field_deps.add((owner, node.name))
            if not self.le(vt, ft):
                self.fail(node, f"cannot assign {vt} to field "
                                f"{owner}.{node.name} of type {ft}")
            return vt, env
        t, env = self.check_call(node, env, env["self"], f"{node.name}=",
                                 [vt], None, arg_nodes=[node.value])
        return vt, env

    def _field_lookup(self, self_type: Type,
                      name: str) -> Tuple[Optional[Type], str]:
        cls = _class_name_of(self_type)
        if cls is None:
            return None, ""
        for ancestor in self._safe_ancestors(cls):
            ft = self.types.lookup_field(ancestor, name)
            if ft is not None:
                return ft, ancestor
        return None, ""

    def _safe_ancestors(self, cls: str):
        if not self.hier.is_known(cls):
            return [cls]
        return list(self.hier.ancestors(cls))

    # -- control flow ----------------------------------------------------------

    def _visit_Seq(self, node, env):
        t: Type = NIL
        for stmt in node.stmts:
            t, env = self.visit(stmt, env)
        return t, env

    def _visit_If(self, node, env):
        _, env = self.visit(node.test, env)
        env_true, env_false = self._narrow(node.test, env)
        t1, out1 = self.visit(node.then, env_true)
        t2, out2 = self.visit(node.orelse, env_false)
        return self.join2(t1, t2), self.join_env(out1, out2)

    def _visit_While(self, node, env):
        def bind(e: Env) -> Env:
            _, after_test = self.visit(node.test, e)
            true_env, _ = self._narrow(node.test, after_test)
            return true_env

        stable = self._loop_fixpoint(bind, node.body, env)
        _, after_test = self.visit(node.test, stable)
        return NIL, after_test

    def _visit_ForEach(self, node, env):
        it_t, env = self.visit(node.iterable, env)
        elem = self._element_type(node, it_t)

        def bind(e: Env) -> Env:
            out = dict(e)
            out[node.var] = elem
            return out

        stable = self._loop_fixpoint(bind, node.body, env)
        return it_t, stable

    def _loop_fixpoint(self, bind, body, env: Env) -> Env:
        current = env
        for _ in range(_MAX_LOOP_PASSES):
            _, out = self.visit(body, bind(current))
            merged = self.join_env(current, out)
            if merged == current:
                return current
            current = merged
        return current

    def _element_type(self, node, t: Type) -> Type:
        if isinstance(t, AnyType):
            return ANY
        if isinstance(t, GenericType) and t.name in ("Array", "Set", "Range"):
            return t.args[0] if t.args else ANY
        if isinstance(t, NominalType) and t.name in ("Array", "Set", "Range"):
            return ANY
        if isinstance(t, TupleType):
            if not t.elems:
                return ANY
            return join_all(t.elems, self.hier)
        if isinstance(t, GenericType) and t.name == "Hash":
            return t.args[0]  # host iteration over a Hash yields keys
        if isinstance(t, FiniteHashType):
            return union_of(*(SingletonType(k, "Symbol")
                              for k, _ in t.fields)) if t.fields else ANY
        if isinstance(t, UnionType):
            return join_all([self._element_type(node, a) for a in t.arms],
                            self.hier)
        self.fail(node, f"cannot iterate over a value of type {t}")

    def _visit_Return(self, node, env):
        if node.value is None:
            t: Type = NIL
        else:
            t, env = self.visit(node.value, env)
        if not self.le(t, self.expected_ret):
            self.fail(node, f"returns {t} but is declared to return "
                            f"{self.expected_ret}")
        return BOT, env

    def _visit_Break(self, node, env):
        return BOT, env

    def _visit_Next(self, node, env):
        return BOT, env

    def _visit_Raise(self, node, env):
        if node.value is not None:
            _, env = self.visit(node.value, env)
        return BOT, env

    def _visit_Try(self, node, env):
        body_t, body_env = self.visit(node.body, env)
        branch_ts = [body_t]
        branch_envs = [body_env]
        for handler in node.handlers:
            h_env = dict(env)
            if handler.var is not None:
                h_env[handler.var] = (NominalType(handler.class_name)
                                      if handler.class_name else
                                      NominalType("StandardError"))
            t, out = self.visit(handler.body, h_env)
            branch_ts.append(t)
            branch_envs.append(out)
        if node.orelse is not None:
            t, out = self.visit(node.orelse, body_env)
            branch_ts.append(t)
            branch_envs.append(out)
        merged_env = branch_envs[0]
        for other in branch_envs[1:]:
            merged_env = self.join_env(merged_env, other)
        result = join_all(branch_ts, self.hier)
        if node.final is not None:
            _, merged_env = self.visit(node.final, merged_env)
        return result, merged_env

    # -- boolean forms -----------------------------------------------------------

    def _visit_BoolOp(self, node, env):
        parts = []
        for i, part in enumerate(node.parts):
            t, env = self.visit(part, env)
            parts.append(t)
            if node.op == "and" and i < len(node.parts) - 1:
                env, _ = self._narrow(part, env)
        if node.op == "or":
            # a or b yields a (truthy, so nil is stripped) or b.
            collected = [_remove_nil(t) for t in parts[:-1]] + [parts[-1]]
            return join_all(collected, self.hier), env
        return join_all(parts, self.hier), env

    def _visit_Not(self, node, env):
        _, env = self.visit(node.value, env)
        return BOOL, env

    def _visit_IsNil(self, node, env):
        _, env = self.visit(node.value, env)
        return BOOL, env

    def _visit_IsA(self, node, env):
        _, env = self.visit(node.value, env)
        if not self.hier.is_known(node.class_name):
            self.fail(node, f"uninitialized constant {node.class_name}")
        return BOOL, env

    def _narrow(self, test: ir.Node, env: Env) -> Tuple[Env, Env]:
        """Occurrence-typing extension for nil and isinstance tests."""
        if isinstance(test, ir.Not):
            f, t = self._narrow(test.value, env)
            return t, f
        if isinstance(test, ir.IsNil) and isinstance(test.value, ir.VarRead):
            name = test.value.name
            if name in env:
                env_true = dict(env)
                env_true[name] = NIL
                env_false = dict(env)
                env_false[name] = _remove_nil(env[name])
                return env_true, env_false
        if isinstance(test, ir.IsA) and isinstance(test.value, ir.VarRead):
            name = test.value.name
            if name in env:
                env_true = dict(env)
                env_true[name] = NominalType(test.class_name)
                return env_true, env
        if isinstance(test, ir.VarRead) and test.name in env:
            env_true = dict(env)
            env_true[test.name] = _remove_nil(env[test.name])
            return env_true, env
        if isinstance(test, ir.BoolOp) and test.op == "and":
            env_true = env
            for part in test.parts:
                env_true, _ = self._narrow(part, env_true)
            return env_true, env
        return env, env

    # -- casts -------------------------------------------------------------------

    def _visit_Cast(self, node, env):
        _, env = self.visit(node.value, env)
        try:
            t = parse_type(node.type_text)
        except Exception as exc:
            self.fail(node, f"bad cast type {node.type_text!r}: {exc}")
        self.outcome.cast_sites.add(
            (self.mir.owner, self.mir.name, node.pos.line))
        return t, env

    # -- calls ---------------------------------------------------------------------

    def _visit_BlockFn(self, node, env):
        # A block not attached to a call site (stored in a variable).
        return NominalType("Proc"), env

    def _visit_Call(self, node, env):
        # Bare call: local Proc/block first, then implicit self.
        if node.recv is None:
            bound = env.get(node.name)
            if bound is not None:
                return self._call_proc(node, env, bound)
            arg_ts, env = self._visit_args(node.args, env)
            return self.check_call(node, env, env["self"], node.name,
                                   arg_ts, node.block,
                                   arg_nodes=list(node.args),
                                   bare_name=node.name)
        recv_t, env = self.visit(node.recv, env)
        arg_ts, env = self._visit_args(node.args, env)
        return self.check_call(node, env, recv_t, node.name, arg_ts,
                               node.block, arg_nodes=list(node.args))

    def _visit_args(self, args, env):
        out = []
        for a in args:
            t, env = self.visit(a, env)
            out.append(t)
        return out, env

    def _call_proc(self, node, env, bound: Type):
        """Calling a local variable holding a code block — the block-call
        case the paper notes Hummingbird left unimplemented (section 4);
        we implement it as an extension."""
        arg_ts, env = self._visit_args(node.args, env)
        if isinstance(bound, MethodType):
            if not bound.accepts_arity(len(arg_ts)):
                self.fail(node, f"block takes {len(bound.params)} arguments, "
                                f"given {len(arg_ts)}")
            for i, at in enumerate(arg_ts):
                pt = bound.param_type_at(i)
                if pt is not None and not self.le(at, pt):
                    self.fail(node, f"block argument {i + 1} is {at}, "
                                    f"expected {pt}")
            return bound.ret, env
        if isinstance(bound, (AnyType,)) or (
                isinstance(bound, NominalType) and bound.name == "Proc"):
            return ANY, env
        # The local is not callable: treat as a self-method (Ruby would
        # shadow, but host semantics call the local).
        self.fail(node, f"{node.name} has type {bound} and is not callable")

    def check_call(self, node, env, recv_t: Type, name: str,
                   arg_ts: List[Type], block: Optional[ir.BlockFn],
                   arg_nodes: Optional[list] = None,
                   bare_name: Optional[str] = None) -> Tuple[Type, Env]:
        """(TApp) for one call site; handles union receivers per arm."""
        if isinstance(recv_t, BotType):
            return BOT, env
        if isinstance(recv_t, AnyType):
            if block is not None:
                _, env = self._check_block_body(
                    node, env, block,
                    MethodType(tuple(RequiredParam(ANY)
                                     for _ in block.params), None, ANY), {})
            return ANY, env
        if isinstance(recv_t, UnionType):
            results = []
            for arm in recv_t.arms:
                t, env = self.check_call(node, env, arm, name, arg_ts, block,
                                         arg_nodes, bare_name)
                results.append(t)
            return join_all(results, self.hier), env
        if isinstance(recv_t, MethodType) and name == "call":
            fake = ir.Call(None, "call", (), None, node.pos)
            if not recv_t.accepts_arity(len(arg_ts)):
                self.fail(node, "wrong number of block arguments")
            for i, at in enumerate(arg_ts):
                pt = recv_t.param_type_at(i)
                if pt is not None and not self.le(at, pt):
                    self.fail(node, f"block argument {i + 1} is {at}, "
                                    f"expected {pt}")
            return recv_t.ret, env
        if isinstance(recv_t, StructuralType):
            sig = recv_t.method_map().get(name)
            if sig is None:
                self.fail(node, f"undefined method {name!r} for structural "
                                f"type {recv_t}")
            return self._apply_arms(node, env, recv_t, name, [sig], arg_ts,
                                    block)

        kind = "class" if isinstance(recv_t, ClassObjectType) else "instance"
        cls = _class_name_of(recv_t)
        if cls is None:
            self.fail(node, f"cannot call {name!r} on a value of type "
                            f"{recv_t}")
        found = self.engine.resolve_sig(cls, name, kind)
        if found is None and kind == "class" and name == "new":
            return self._default_new(node, env, recv_t, arg_ts)
        if found is None:
            # Host attributes are public: a zero-argument "call" on another
            # object may be a typed field read (and `name=` a field write).
            field_hit = self._field_as_method(node, env, recv_t, name,
                                              arg_ts, block)
            if field_hit is not None:
                return field_hit
            self._fail_missing(node, recv_t, name, bare_name)
        sig_owner, sig = found
        self.outcome.deps.add((cls, name))
        if sig_owner != cls:
            self.outcome.deps.add((sig_owner, name))
        if sig.generated:
            self.outcome.used_generated.add((sig_owner, name))
        # In a class-method signature, `self` means an *instance* of the
        # receiver class (so Model.find's "(Integer) -> self" gives Talk).
        recv_for_self = (NominalType(cls)
                         if isinstance(recv_t, ClassObjectType) else recv_t)
        arms = [self.instantiate(arm, recv_for_self, self.hier)
                for arm in sig.arms]
        return self._apply_arms(node, env, recv_t, name, arms, arg_ts, block)

    def _field_as_method(self, node, env, recv_t, name, arg_ts, block):
        """Resolve ``obj.attr`` / ``obj.attr = v`` against field types."""
        if block is not None:
            return None
        target = name[:-1] if name.endswith("=") and len(arg_ts) == 1 \
            else name
        if target != name and not target:
            return None
        if name.endswith("=") is False and arg_ts:
            return None
        ft, owner = self._field_lookup(recv_t, target)
        if ft is None:
            return None
        self.outcome.field_deps.add((owner, target))
        if name.endswith("="):
            if not self.le(arg_ts[0], ft):
                self.fail(node, f"cannot assign {arg_ts[0]} to field "
                                f"{owner}.{target} of type {ft}")
            return arg_ts[0], env
        return ft, env

    def _fail_missing(self, node, recv_t, name, bare_name):
        if isinstance(recv_t, NilType):
            self.fail(node, f"undefined method {name!r} for nil")
        if bare_name is not None:
            self.fail(node, f"{bare_name!r} is an unbound local variable "
                            f"and is not a method of {recv_t}")
        self.fail(node, f"{recv_t} does not have method {name!r} "
                        f"in the current type table")

    def _default_new(self, node, env, recv_t: ClassObjectType, arg_ts):
        """``A.new`` with no explicit signature: check the constructor's
        declared type if one exists, else accept as in the formalism's
        (TNew)."""
        init = self.engine.resolve_sig(recv_t.name, "initialize", "instance")
        if init is not None:
            owner, sig = init
            self.outcome.deps.add((recv_t.name, "initialize"))
            if sig.generated:
                self.outcome.used_generated.add((owner, "initialize"))
            arms = [self.instantiate(a, NominalType(recv_t.name), self.hier)
                    for a in sig.arms]
            self._apply_arms(node, env, NominalType(recv_t.name),
                             "initialize", arms, arg_ts, None)
        return NominalType(recv_t.name), env

    def _apply_arms(self, node, env, recv_t, name, arms, arg_ts, block):
        """Select the first intersection arm the call matches."""
        failures = []
        for arm in arms:
            ok, bindings, why = self._match_arm(arm, arg_ts, block)
            if not ok:
                failures.append(f"{arm}: {why}")
                continue
            if block is not None and arm.block is not None:
                ret_bind, env = self._check_block_body(
                    node, env, block, substitute(arm.block.sig, bindings),
                    bindings)
                bindings.update(ret_bind)
            result = substitute(arm.ret, bindings)
            result = _close_vars(result)
            return result, env
        detail = "; ".join(failures) if failures else "no signature arms"
        self.fail(node, f"no matching signature for "
                        f"{_class_name_of(recv_t)}#{name}"
                        f"({', '.join(map(str, arg_ts))})"
                        f"{' with a block' if block else ''} — {detail}")

    def _match_arm(self, arm: MethodType, arg_ts, block):
        if not arm.accepts_arity(len(arg_ts)):
            lo, hi = arm.min_arity(), arm.max_arity()
            expected = str(lo) if hi == lo else f"{lo}..{hi or 'n'}"
            return False, {}, (f"wrong number of arguments "
                               f"(given {len(arg_ts)}, expected {expected})")
        if block is not None and arm.block is None:
            # The paper's Talks error 1/7/12-5: upcoming does not take a
            # block (Ruby would silently ignore it; Hummingbird flags it).
            return False, {}, "does not take a block"
        if block is None and arm.block is not None and not arm.block.optional:
            return False, {}, "expects a block"
        bindings: Dict[str, Type] = {}
        for i, at in enumerate(arg_ts):
            pt = arm.param_type_at(i)
            if pt is None:
                return False, {}, f"no parameter for argument {i + 1}"
            _infer_vars(pt, at, bindings, self.hier)
            bound = substitute(pt, bindings)
            if not self.le(at, _open_vars_to_any(bound)):
                return False, {}, (f"argument {i + 1} is {at}, "
                                   f"expected {pt}")
        return True, bindings, ""

    def _check_block_body(self, node, env, block: ir.BlockFn,
                          sig: MethodType, bindings: Dict[str, Type]):
        """Check a code block argument against the expected block type —
        the first code-block case of section 4."""
        if not sig.accepts_arity(len(block.params)):
            self.fail(node, f"block takes {len(block.params)} parameters "
                            f"but its type is {sig}")
        inner = dict(env)
        for i, pname in enumerate(block.params):
            pt = sig.param_type_at(i)
            inner[pname] = _open_vars_to_any(pt) if pt is not None else ANY
        body_t, out_env = self.visit(block.body, inner)
        ret_bind: Dict[str, Type] = {}
        expected = sig.ret
        if isinstance(expected, VarType) and expected.name not in bindings:
            ret_bind[expected.name] = body_t
        elif not self.le(body_t, _open_vars_to_any(expected)):
            self.fail(node, f"block returns {body_t}, expected {expected}")
        # Blocks share their enclosing scope's locals.
        merged = self.join_env(env, out_env)
        for name in env:
            merged.setdefault(name, env[name])
        return ret_bind, merged


# -- module-level helpers ------------------------------------------------------


def _remove_nil(t: Type) -> Type:
    if isinstance(t, UnionType):
        arms = [a for a in t.arms if not isinstance(a, NilType)]
        if arms:
            return union_of(*arms)
    return t


def _class_name_of(t: Type) -> Optional[str]:
    if isinstance(t, NominalType):
        return t.name
    if isinstance(t, GenericType):
        return t.name
    if isinstance(t, ClassObjectType):
        return t.name
    if isinstance(t, BoolType):
        return "Boolean"
    if isinstance(t, NilType):
        return "NilClass"
    if isinstance(t, SingletonType):
        return t.base
    if isinstance(t, TupleType):
        return "Array"
    if isinstance(t, FiniteHashType):
        return "Hash"
    if isinstance(t, MethodType):
        return "Proc"
    return None


def _infer_vars(expected: Type, actual: Type, bindings: Dict[str, Type],
                hier) -> None:
    """Bind method-level type variables from an (expected, actual) pair."""
    if isinstance(expected, VarType):
        if isinstance(actual, BotType):
            return
        prev = bindings.get(expected.name)
        bindings[expected.name] = (actual if prev is None else
                                   join(prev, actual, hier))
        return
    if isinstance(expected, GenericType) and isinstance(actual, GenericType) \
            and expected.name == actual.name \
            and len(expected.args) == len(actual.args):
        for e, a in zip(expected.args, actual.args):
            _infer_vars(e, a, bindings, hier)
        return
    if isinstance(expected, GenericType) and expected.name == "Array" \
            and isinstance(actual, TupleType) and len(expected.args) == 1:
        for e in actual.elems:
            _infer_vars(expected.args[0], e, bindings, hier)
        return
    if isinstance(expected, GenericType) and expected.name == "Hash" \
            and isinstance(actual, FiniteHashType) \
            and len(expected.args) == 2:
        for k, v in actual.fields:
            _infer_vars(expected.args[0], SingletonType(k, "Symbol"),
                        bindings, hier)
            _infer_vars(expected.args[1], v, bindings, hier)
        return
    if isinstance(expected, UnionType):
        for arm in expected.arms:
            _infer_vars(arm, actual, bindings, hier)


def _open_vars_to_any(t: Type) -> Type:
    """Unbound method-level variables accept anything (raw default)."""
    fv = free_vars(t)
    if not fv:
        return t
    return substitute(t, {v: ANY for v in fv})


def _close_vars(t: Type) -> Type:
    return _open_vars_to_any(t)


def _always_returns(node: ir.Node) -> bool:
    """Conservative: does every path through ``node`` return or raise?"""
    if isinstance(node, (ir.Return, ir.Raise)):
        return True
    if isinstance(node, ir.Seq):
        return any(_always_returns(s) for s in node.stmts)
    if isinstance(node, ir.If):
        return _always_returns(node.then) and _always_returns(node.orelse)
    if isinstance(node, ir.Try):
        handlers_ok = all(_always_returns(h.body) for h in node.handlers)
        return _always_returns(node.body) and handlers_ok
    return False
