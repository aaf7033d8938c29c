"""Tier-3 static check elimination: forward dataflow over RIL.

Tiers 1–2 *accelerate* the per-call work (plan lookup, profile guard,
check-cache membership) — this pass *eliminates* it.  When a tier-2 site
is promoted, :func:`analyze_method` runs a forward abstract
interpretation over the callee's lowered body, seeded by one of the
site's observed profiles (receiver class, argument classes), and reports
which per-call operations are statically discharged:

* **return classes** — the exact RDL class names the body can return,
  computed the same way the pass types a call that recurses into an
  unchecked callee body.
* **frame safety** — whether the body can re-enter intercepted code.
  The checked-frame push/pop around the call exists so *callees* can see
  whether their caller's body was statically checked; a body that
  provably never reaches an intercepted call (directly or through host
  code) does not need the frame at all.
* **blockers** — for everything it could *not* prove, a
  ``(reason, detail)`` pair (``unknown_join``, ``non_leaf_nominal``,
  ``budget_exhausted``, ``whitelist_miss``, ``opaque_code``, …) so the
  provability audit (``python -m repro.ril.audit``) can explain every
  unproved check at every warm site.

The abstract domain maps each variable to a small *finite set* of exact
RDL class names (``AbsVal = Optional[FrozenSet[str]]``), or ``None`` for
unknown.  Joins at ``if``/loop merge points take the set union, widening
to unknown only past :data:`_MAX_CLASS_SET` members — so facts provable
on all branches survive the merge instead of being dropped.  Loops run a
bounded fixpoint (:data:`_LOOP_PASSES` passes) before widening; on
non-convergence the body is re-visited once under the widened
environment so every recorded fact (returns, frame taints, resources)
derives from a sound loop invariant.

Exactness has two sources:

* the **builtin quotient** (:data:`_EXACT_QUOTIENT`): builtin names are
  exact because the isinstance cascade maps every host subclass onto the
  builtin name;
* **leaf application nominals**: a class the hierarchy knows has no
  subclass and is mixed into nothing is exact *today*.  Every such proof
  records a ``("lin", cls)`` resource, so registering a subclass deopts
  each elision that relied on leafness.  Modules never qualify —
  ``include_module`` splices them under existing classes without a
  new-class registration.

Inter-procedural depth: a call on a known receiver first trusts the
*declared* return type when the callee's own checks guarantee it
(``sig.check``, or a non-interceptable builtin).  When declaration alone
is inexact, the pass recurses into the dispatched callee's own RIL body
— up to :data:`_MAX_CALLEE_DEPTH` levels and :data:`_CALLEE_BUDGET`
bodies per site — resolving the body through the host class ``__mro__``
(the IR registry's probe order can disagree with dispatch for
intermediate overrides).  Every link is an ``("ir", owner, name)``
resource and a fingerprinted entry in ``callees``, so redefining any
callee in the chain deopts the caller's elision.

Soundness contract: every mutable fact the pass reads is reported as a
:mod:`repro.core.deps` resource — signature slots (including negative
probes), linearizations (both ancestor walks and leafness), field types
— plus the ``("ir", owner, name)`` edges, so the glue layer
(:mod:`repro.core.elide`) can register the edges on the site's plan
token and any mutation deopts the elided site exactly like a tier-2
plan.

Documented trust boundary: methods of the builtin whitelist
(:data:`_SAFE_BUILTIN_RECEIVERS`) are assumed not to re-enter
intercepted code.  That is the same assumption the engine's own
dynamic checks make — builtin container/string operations that would
invoke a *wrapped* element dunder (``list.index`` calling a wrapped
``__eq__``) are outside the interception model, because the lowering
never emits direct dunder calls and annotations target named methods.
Merely *unregistered* host classes get no such trust: their methods are
opaque host code that may call intercepted methods, so any call on one
forfeits frame elision.

Nil permissiveness: :func:`class_conforms` mirrors the dynamic check's
nil rule (nil conforms to every type), so exactness derived from
declared types admits a nil witness.  The hole is benign for every
consumer here: (1) ``NilClass`` is on the safe-receiver whitelist, so
frame judgments are unaffected; (2) dispatching a method on ``None``
raises before any elided check could run.  The analysis never claims
more than the dynamic checks it replaces would enforce.
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple,
)

from ..core.deps import Resource, field_resource, ir_resource, lin_resource
from ..rdl.registry import INSTANCE
from ..rtypes.subtype import is_subtype
from ..rtypes.types import (
    AnyType, BoolType, BotType, ClassObjectType, FiniteHashType, GenericType,
    IntersectionType, MethodType, NilType, NominalType, SelfType,
    SingletonType, TupleType, Type, UnionType, VarType,
)
from .ir import (
    ArrayLit, BlockFn, BoolLit, BoolOp, Break, Call, Cast, ConstRead, FloatLit,
    ForEach, Handler, HashLit, If, IntLit, IsA, IsNil, IVarRead, IVarWrite,
    NilLit, Next, Node, Not, Raise, RangeLit, Return, SelfRef, Seq, StrFormat,
    StrLit, SymLit, Try, VarRead, VarWrite, While, walk,
)
from .registry import MethodIR

#: An abstract value: a finite set of exact RDL class names, or None
#: (unknown).  Sets are capped at :data:`_MAX_CLASS_SET` members.
AbsVal = Optional[FrozenSet[str]]

#: Joins widen to unknown past this many distinct classes.  Small on
#: purpose: conformance proofs and compiled guard chains are O(set
#: size), and real branches rarely produce more than two classes.
_MAX_CLASS_SET = 4

#: Inter-procedural recursion limits.  Depth bounds the callee chain
#: through any single path; the budget bounds total bodies analyzed per
#: site so wide call fans cannot blow up promotion time.
_MAX_CALLEE_DEPTH = 3
_CALLEE_BUDGET = 6

#: Bounded loop fixpoint passes before widening to unknown.
_LOOP_PASSES = 4

#: Blocker reasons surfaced by the provability audit.
BLOCK_UNKNOWN_JOIN = "unknown_join"
BLOCK_NON_LEAF = "non_leaf_nominal"
BLOCK_BUDGET = "budget_exhausted"
BLOCK_WHITELIST = "whitelist_miss"
BLOCK_OPAQUE = "opaque_code"
BLOCK_CONFORMANCE = "conformance"
BLOCK_NO_IR = "no_ir"

#: A blocker: (reason constant, human-readable detail).
Blocker = Tuple[str, str]

#: Builtin quotient names whose methods are trusted not to re-enter
#: intercepted code (they execute in the host runtime).  This is the
#: frame-safety whitelist: a call is frame-neutral only when both the
#: receiver's and every argument's class is in here (a builtin operator
#: with an application-class argument can dispatch to the argument's
#: reflected dunder, which is opaque).
_SAFE_BUILTIN_RECEIVERS = frozenset({
    "Integer", "Float", "Boolean", "String", "Symbol", "Array", "Hash",
    "Set", "Range", "NilClass", "Time",
})

#: Class names that are *exact* under the ``class_name_of`` quotient:
#: every host value whose class maps to the name keeps mapping to it in
#: any subclass, so a static fact "this expression has class N" is a
#: sound per-value guarantee.  Application nominals are excluded here;
#: hierarchy *leaves* additionally become exact through
#: :func:`classes_of_type`, which records the ``("lin", cls)`` edge.
_EXACT_QUOTIENT = _SAFE_BUILTIN_RECEIVERS | {"Class", "Proc"}

#: Element classes yielded by ``for`` iteration over a builtin, when
#: statically known.  Array/Hash/Set elements are heterogeneous at the
#: class-name level, so they stay unknown.
_ITER_ELEM = {"Range": "Integer", "String": "String"}


def is_vacuous(t: Type) -> bool:
    """True when ``value_conforms(v, t, ...)`` holds for *every* value.

    ``SelfType`` is vacuous because the dynamic check resolves it to
    True unconditionally (``value_conforms``'s Self rule).
    """
    if isinstance(t, (AnyType, VarType, SelfType)):
        return True
    if isinstance(t, UnionType):
        return any(is_vacuous(a) for a in t.arms)
    if isinstance(t, IntersectionType):
        return all(is_vacuous(a) for a in t.arms)
    return False


def class_conforms(name: str, t: Type, hier: Any) -> bool:
    """True when every value of RDL class ``name`` conforms to ``t``.

    The class-determined under-approximation of
    :func:`repro.rtypes.typeof.value_conforms`: whenever this returns
    True, the dynamic check is a provable no-op for values of that
    class.  Value-dependent expectations (singletons, tuples, finite
    hashes, generics with non-vacuous element types, structural types)
    answer False.
    """
    if isinstance(t, (AnyType, VarType, SelfType)):
        return True
    if name == "NilClass":
        # Mirrors value_conforms's None rule: nil conforms to anything.
        return True
    if isinstance(t, (NilType, BotType)):
        return False
    if isinstance(t, UnionType):
        return any(class_conforms(name, a, hier) for a in t.arms)
    if isinstance(t, IntersectionType):
        return all(class_conforms(name, a, hier) for a in t.arms)
    if isinstance(t, BoolType):
        return name == "Boolean"
    if isinstance(t, MethodType):
        return name in ("Proc", "Class")  # both quotients imply callable
    if isinstance(t, GenericType):
        if not all(is_vacuous(a) for a in t.args):
            return False
        t = NominalType(t.name)
    if isinstance(t, NominalType):
        try:
            return bool(is_subtype(NominalType(name), t, hier))
        except Exception:
            return False
    # SingletonType / TupleType / FiniteHashType / ClassObjectType /
    # StructuralType are value-dependent.
    return False


def rdl_class_name(cls: type[Any]) -> str:
    """The RDL class name for host *class* ``cls``.

    Mirrors ``class_name_of``'s isinstance cascade (which depends only
    on the value's class), so ``rdl_class_name(type(v)) ==
    class_name_of(v)`` for every host value.
    """
    import datetime

    from ..rtypes.typeof import Sym

    if cls is type(None):
        return "NilClass"
    if issubclass(cls, bool):
        return "Boolean"
    if issubclass(cls, int):
        return "Integer"
    if issubclass(cls, float):
        return "Float"
    if issubclass(cls, str):
        return "String"
    if issubclass(cls, Sym):
        return "Symbol"
    if issubclass(cls, (list, tuple)):
        return "Array"
    if issubclass(cls, dict):
        return "Hash"
    if issubclass(cls, set):
        return "Set"
    if issubclass(cls, range):
        return "Range"
    if issubclass(cls, (datetime.datetime, datetime.date)):
        return "Time"
    if issubclass(cls, type):
        return "Class"
    # callable(v) is determined by __call__ appearing in type(v)'s MRO
    # dicts (the metaclass never participates for instances).
    if any("__call__" in c.__dict__ for c in cls.__mro__):
        return "Proc"
    return cls.__name__


def exact_class_of_type(t: Type) -> Optional[str]:
    """The single exact RDL class of every value of ``t``, or ``None``.

    Builtin-quotient exactness only; leaf-nominal exactness (which needs
    the hierarchy and records a resource) lives in
    :func:`classes_of_type`.
    """
    if isinstance(t, NilType):
        return "NilClass"
    if isinstance(t, BoolType):
        return "Boolean"
    if isinstance(t, SingletonType):
        return t.base if t.base in _EXACT_QUOTIENT else None
    if isinstance(t, NominalType):
        return t.name if t.name in _EXACT_QUOTIENT else None
    if isinstance(t, GenericType):
        return t.name if t.name in _EXACT_QUOTIENT else None
    if isinstance(t, TupleType):
        return "Array"
    if isinstance(t, FiniteHashType):
        return "Hash"
    if isinstance(t, ClassObjectType):
        return "Class"
    if isinstance(t, MethodType):
        return "Proc"
    return None


def leaf_exact(name: str, hier: Any,
               resources: Optional[List[Resource]] = None) -> bool:
    """Is nominal ``name`` exact because the hierarchy knows it is a leaf?

    Records the ``("lin", name)`` resource into ``resources`` when
    granting exactness, so registering a subclass (which bumps the
    parent's linearization resource) deopts the proof.  Modules never
    qualify: ``include_module`` can splice one under existing classes
    without any new-class registration.
    """
    if hier is None or not hier.is_known(name):
        return False
    if hier.is_module(name):
        return False
    if not hier.is_leaf(name):
        return False
    if resources is not None:
        resources.append(lin_resource(name))
    return True


def classes_of_type(t: Type, hier: Any = None,
                    resources: Optional[List[Resource]] = None,
                    blockers: Optional[List[Blocker]] = None) -> AbsVal:
    """The finite set of exact classes a value of ``t`` can have.

    Decomposes unions into a capped set; every arm must itself be exact
    (builtin quotient, or a hierarchy leaf — recorded as a
    ``("lin", cls)`` resource).  Returns ``None`` past the cap or when
    any arm is inexact, recording a blocker for the audit.
    """
    if isinstance(t, UnionType):
        out: Set[str] = set()
        for a in t.arms:
            part = classes_of_type(a, hier, resources, blockers)
            if part is None:
                return None
            out |= part
            if len(out) > _MAX_CLASS_SET:
                if blockers is not None:
                    blockers.append((BLOCK_UNKNOWN_JOIN,
                                     f"union wider than {_MAX_CLASS_SET}"))
                return None
        return frozenset(out)
    one = exact_class_of_type(t)
    if one is not None:
        return frozenset({one})
    if isinstance(t, NominalType):
        if leaf_exact(t.name, hier, resources):
            return frozenset({t.name})
        if blockers is not None:
            blockers.append((BLOCK_NON_LEAF, t.name))
    return None


def always_returns(node: Optional[Node]) -> bool:
    """True when every path through ``node`` returns or raises."""
    if isinstance(node, (Return, Raise)):
        return True
    if isinstance(node, Seq):
        return any(always_returns(s) for s in node.stmts)
    if isinstance(node, If):
        return always_returns(node.then) and always_returns(node.orelse)
    return False


def _assigned_names(node: Node) -> Set[str]:
    """Every local (and ``@``-prefixed ivar) name written under ``node``."""
    out: Set[str] = set()
    for n in walk(node):
        if isinstance(n, VarWrite):
            out.add(n.name)
        elif isinstance(n, IVarWrite):
            out.add("@" + n.name)
        elif isinstance(n, ForEach):
            out.add(n.var)
        elif isinstance(n, Handler) and n.var:
            out.add(n.var)
    return out


def join_vals(a: AbsVal, b: AbsVal) -> AbsVal:
    """Join two abstract values; widen to unknown past the set cap."""
    if a is None or b is None:
        return None
    merged = a | b
    return merged if len(merged) <= _MAX_CLASS_SET else None


class AnalysisReport:
    """What the forward pass proved about one method body.

    ``ret_classes`` is a frozenset of exact RDL class names the body can
    return (``None`` when any path's class is unknown); implicit
    fall-through contributes ``NilClass``.  ``frame_elidable`` says the
    body provably never re-enters intercepted code.  ``resources`` is
    every DepGraph resource the verdicts read; ``callees`` the consulted
    callee bodies as ``(owner, name, fingerprint)``; ``blockers`` the
    deduplicated ``(reason, detail)`` pairs for everything unprovable.
    """

    __slots__ = ("ret_classes", "frame_elidable", "resources", "callees",
                 "blockers")

    def __init__(self, ret_classes: Optional[FrozenSet[str]],
                 frame_elidable: bool, resources: Tuple[Resource, ...],
                 callees: Tuple[Tuple[str, str, str], ...],
                 blockers: Tuple[Blocker, ...] = ()) -> None:
        self.ret_classes = ret_classes
        self.frame_elidable = frame_elidable
        self.resources = resources
        self.callees = callees
        self.blockers = blockers

    def __repr__(self) -> str:
        return (f"AnalysisReport(ret_classes={self.ret_classes!r}, "
                f"frame_elidable={self.frame_elidable}, "
                f"blockers={self.blockers!r})")


#: A seed for one fixed parameter: an exact class name, a finite set of
#: them, or None (unknown).
ArgSeed = Optional[object]


def _seed_val(seed: ArgSeed) -> AbsVal:
    if seed is None:
        return None
    if isinstance(seed, str):
        return frozenset({seed})
    if isinstance(seed, frozenset):
        return seed if len(seed) <= _MAX_CLASS_SET else None
    return None


def analyze_method(engine: Any, mir: MethodIR, self_class: str,
                   arg_classes: Optional[Sequence[ArgSeed]] = None
                   ) -> AnalysisReport:
    """Run the forward pass over ``mir`` for receiver class ``self_class``.

    ``arg_classes`` seeds the fixed parameters with one of the site's
    observed profiles — entries are exact RDL class names, finite
    frozensets of them, or ``None`` for unknown slots; without it every
    parameter starts unknown, so a verdict that holds is
    profile-independent and needs no profile guard.
    """
    analysis = _Analysis(engine, self_class)
    analysis.seed(mir, arg_classes)
    analysis.visit(mir.body)
    ret_classes: Optional[FrozenSet[str]]
    if analysis.ret_unknown:
        ret_classes = None
    else:
        rets = set(analysis.rets)
        if not always_returns(mir.body):
            rets.add("NilClass")  # implicit fall-through returns nil/None
        ret_classes = frozenset(rets)
    return AnalysisReport(
        ret_classes=ret_classes,
        frame_elidable=analysis.frame,
        resources=tuple(dict.fromkeys(analysis.resources)),
        callees=tuple(dict.fromkeys(analysis.callees)),
        blockers=tuple(dict.fromkeys(analysis.blockers)),
    )


class _Analysis:
    """One forward walk: env of exact class sets, frame flag, return set.

    ``depth``/``active``/``budget`` thread the inter-procedural state:
    child analyses (callee bodies) share the caller's resource, callee,
    and blocker lists but keep their own environment and return state.
    """

    def __init__(self, engine: Any, self_class: str, *,
                 depth: int = 0,
                 active: Optional[Set[Tuple[str, str]]] = None,
                 budget: Optional[List[int]] = None,
                 resources: Optional[List[Resource]] = None,
                 callees: Optional[List[Tuple[str, str, str]]] = None,
                 blockers: Optional[List[Blocker]] = None) -> None:
        self.engine = engine
        self.hier = engine.hier
        self.self_class = self_class
        self.env: Dict[str, AbsVal] = {}
        self.frame = True
        self.rets: Set[str] = set()
        self.ret_unknown = False
        self.depth = depth
        self.active: Set[Tuple[str, str]] = (
            active if active is not None else set())
        self.budget: List[int] = (
            budget if budget is not None else [_CALLEE_BUDGET])
        self.resources: List[Resource] = (
            resources if resources is not None else [])
        self.callees: List[Tuple[str, str, str]] = (
            callees if callees is not None else [])
        self.blockers: List[Blocker] = (
            blockers if blockers is not None else [])

    def seed(self, mir: MethodIR,
             arg_classes: Optional[Sequence[ArgSeed]]) -> None:
        fixed = [p for p in mir.params if not p.vararg]
        if arg_classes:
            for i, p in enumerate(fixed):
                if i < len(arg_classes):
                    self.env[p.name] = _seed_val(arg_classes[i])
        for p in mir.params:
            if p.vararg:
                self.env[p.name] = frozenset({"Array"})  # *args is a tuple
        for name, t in mir.captures.items():
            if isinstance(t, Type):
                self.env[name] = classes_of_type(
                    t, self.hier, self.resources, self.blockers)

    # -- driver -------------------------------------------------------------

    def visit(self, node: Optional[Node]) -> AbsVal:
        if node is None:
            return None
        method = self._DISPATCH.get(type(node))
        if method is None:
            # Unknown node kind: give up on everything it could do.
            self.frame = False
            self.blockers.append((BLOCK_OPAQUE, type(node).__name__))
            return None
        return method(self, node)

    def _taint_unless_safe(self, val: AbsVal, why: str) -> None:
        if val is None or not val <= _SAFE_BUILTIN_RECEIVERS:
            if self.frame:
                self.blockers.append((BLOCK_WHITELIST, why))
            self.frame = False

    # -- literals -----------------------------------------------------------

    def _nil(self, node: Node) -> AbsVal:
        return frozenset({"NilClass"})

    def _bool(self, node: Node) -> AbsVal:
        return frozenset({"Boolean"})

    def _int(self, node: Node) -> AbsVal:
        return frozenset({"Integer"})

    def _float(self, node: Node) -> AbsVal:
        return frozenset({"Float"})

    def _str(self, node: Node) -> AbsVal:
        return frozenset({"String"})

    def _sym(self, node: Node) -> AbsVal:
        return frozenset({"Symbol"})

    def _array(self, node: ArrayLit) -> AbsVal:
        for e in node.elems:
            self.visit(e)
        return frozenset({"Array"})

    def _hash(self, node: HashLit) -> AbsVal:
        for k, v in node.pairs:
            self.visit(k)
            self.visit(v)
        return frozenset({"Hash"})

    def _range(self, node: RangeLit) -> AbsVal:
        self.visit(node.lo)
        self.visit(node.hi)
        return frozenset({"Range"})

    def _strformat(self, node: StrFormat) -> AbsVal:
        for part in node.parts:
            if isinstance(part, Node):
                # Interpolation invokes the part's __format__/__str__ —
                # opaque unless the class is a trusted builtin.
                self._taint_unless_safe(self.visit(part), "str interpolation")
        return frozenset({"String"})

    # -- names --------------------------------------------------------------

    def _selfref(self, node: Node) -> AbsVal:
        # Exact: the compiled wrapper's entry guard pins type(recv).
        return frozenset({self.self_class})

    def _varread(self, node: VarRead) -> AbsVal:
        return self.env.get(node.name)

    def _constread(self, node: Node) -> AbsVal:
        return None  # a global binding read runs no code; value unknown

    def _ivar_opaque(self, name: str) -> bool:
        """True when reading/writing ``self.name`` can run code."""
        pycls = self.engine.host_class(self.self_class)
        if pycls is None:
            return True
        for c in pycls.__mro__:
            if c is object:
                continue
            d = c.__dict__
            if name in d or "__getattr__" in d or "__getattribute__" in d \
                    or "__setattr__" in d:
                return True
        return False

    def _ivarread(self, node: IVarRead) -> AbsVal:
        if self._ivar_opaque(node.name):
            # A getter / property / __getattr__ hook: arbitrary code.
            if self.frame:
                self.blockers.append(
                    (BLOCK_OPAQUE, f"@{node.name} access intercepted"))
            self.frame = False
            return None
        tracked = "@" + node.name
        if tracked in self.env:
            # Tracked by a prior write in this body — even when tracked
            # as unknown (None), the store shadows the declared type.
            return self.env[tracked]
        # A plain attribute read: class comes from the declared field
        # type, resolved through the linearization with negative probes
        # recorded (a field_type added later on a closer ancestor must
        # deopt the site).
        self.resources.append(lin_resource(self.self_class))
        t = None
        try:
            ancestors = tuple(self.hier.ancestors(self.self_class))
        except Exception:
            ancestors = (self.self_class,)
        for ancestor in ancestors:
            self.resources.append(field_resource(ancestor, node.name))
            t = self.engine.types.lookup_field(ancestor, node.name)
            if t is not None:
                break
        if t is None:
            return None
        return classes_of_type(t, self.hier, self.resources, self.blockers)

    def _ivarwrite(self, node: IVarWrite) -> AbsVal:
        val = self.visit(node.value)
        if self._ivar_opaque(node.name):
            if self.frame:
                self.blockers.append(
                    (BLOCK_OPAQUE, f"@{node.name} write intercepted"))
            self.frame = False
        # Track the written class locally: a later read in this body
        # sees the store, not the declared field type.
        self.env["@" + node.name] = val
        return val

    def _varwrite(self, node: VarWrite) -> AbsVal:
        val = self.visit(node.value)
        self.env[node.name] = val
        return val

    # -- control flow -------------------------------------------------------

    def _seq(self, node: Seq) -> AbsVal:
        out: AbsVal = frozenset({"NilClass"})
        for s in node.stmts:
            out = self.visit(s)
        return out

    def _if(self, node: If) -> AbsVal:
        # The truthiness test invokes __bool__ — opaque off-whitelist.
        self._taint_unless_safe(self.visit(node.test), "if truthiness test")
        base = dict(self.env)
        then_val = self.visit(node.then)
        env_then = self.env
        self.env = dict(base)
        else_val = self.visit(node.orelse)
        env_else = self.env
        if always_returns(node.then):
            self.env = env_else
        elif always_returns(node.orelse):
            self.env = env_then
        else:
            # Phi: join both arms' values per name; names present on only
            # one side are dropped (a later read falls back to the
            # declared-type path for ivars, unknown for locals).
            merged: Dict[str, AbsVal] = {}
            for k in env_then.keys() & env_else.keys():
                tv, ev = env_then[k], env_else[k]
                j = join_vals(tv, ev)
                if j is None and (tv is not None or ev is not None):
                    self.blockers.append(
                        (BLOCK_UNKNOWN_JOIN, f"if-join on {k}"))
                merged[k] = j
            self.env = merged
        return join_vals(then_val, else_val)

    def _widen_assigned(self, body: Node) -> None:
        for name in _assigned_names(body):
            self.env[name] = None

    def _fixpoint_body(self, body: Node,
                       pre_visit: Optional[Callable[[], None]] = None
                       ) -> None:
        """Bounded fixpoint over a loop body in the set domain.

        Bodies containing ``Break``/``Next`` publish mid-body states the
        whole-body-exit join can't see — those fall back to upfront
        widening.  On non-convergence within :data:`_LOOP_PASSES`,
        assigned names widen to unknown and the body runs one final time
        under the widened environment, so every recorded fact (returns,
        frame taints, resources) derives from a sound loop invariant —
        the visitors are monotone in the environment, so the final pass
        subsumes anything recorded under the narrower interim states.
        """
        if any(isinstance(n, (Break, Next)) for n in walk(body)):
            self._widen_assigned(body)
            if pre_visit is not None:
                pre_visit()
            self.visit(body)
            return
        assigned = _assigned_names(body)
        entry = dict(self.env)
        for _ in range(_LOOP_PASSES):
            before = dict(self.env)
            if pre_visit is not None:
                pre_visit()
            self.visit(body)
            merged = dict(before)
            changed = False
            for name in assigned:
                old = before.get(name)
                new = join_vals(old, self.env.get(name))
                # The loop may run zero times: the post-state joins the
                # entry state for every assigned name too.
                new = join_vals(new, entry.get(name)) if name in entry \
                    else join_vals(new, None)
                if new != old:
                    changed = True
                merged[name] = new
            self.env = merged
            if not changed:
                return  # last pass ran under the fixpoint env — sound
        for name in assigned:
            if self.env.get(name) is not None:
                self.blockers.append(
                    (BLOCK_UNKNOWN_JOIN, f"loop widen on {name}"))
            self.env[name] = None
        if pre_visit is not None:
            pre_visit()
        self.visit(body)
        # The final visit leaves last-write values in the env, which miss
        # the zero-iteration case — re-widen so post-loop reads stay sound
        # (the visit itself still recorded returns/taints under the sound
        # widened invariant).
        for name in assigned:
            self.env[name] = None

    def _while(self, node: While) -> AbsVal:
        def pre() -> None:
            self._taint_unless_safe(self.visit(node.test),
                                    "while truthiness test")

        pre()
        self._fixpoint_body(node.body, pre)
        return frozenset({"NilClass"})

    def _foreach(self, node: ForEach) -> AbsVal:
        it_val = self.visit(node.iterable)
        # Iteration drives the iterable's iterator protocol.
        self._taint_unless_safe(it_val, "for-iteration protocol")
        elem: AbsVal = None
        if it_val is not None and len(it_val) == 1:
            elem_name = _ITER_ELEM.get(next(iter(it_val)))
            if elem_name is not None:
                elem = frozenset({elem_name})

        entry_bound = node.var in self.env
        entry_val = self.env.get(node.var)

        def pre() -> None:
            self.env[node.var] = elem

        pre()
        self._fixpoint_body(node.body, pre)
        # Post-loop value of the loop variable: the fixpoint value when
        # the body reassigns it, else the element class — joined with the
        # pre-loop binding for the zero-iteration case (an *unbound*
        # pre-loop var raises on a post-loop read, so that path needs no
        # account).
        post = self.env.get(node.var)
        if entry_bound:
            post = join_vals(post, entry_val)
        self.env[node.var] = post
        return frozenset({"NilClass"})

    def _return(self, node: Return) -> AbsVal:
        val = self.visit(node.value) if node.value is not None \
            else frozenset({"NilClass"})
        if val is None:
            self.ret_unknown = True
        else:
            self.rets |= val
        return None

    def _break(self, node: Node) -> AbsVal:
        return None

    def _raise(self, node: Raise) -> AbsVal:
        if node.value is not None:
            self.visit(node.value)
        return None  # never produces a value (and never returns)

    def _try(self, node: Try) -> AbsVal:
        # An exception may transfer control from any point, so every
        # name written anywhere in the statement is unknown throughout.
        for part in (node.body, *node.handlers, node.orelse, node.final):
            if part is not None:
                self._widen_assigned(part)
        self.visit(node.body)
        for h in node.handlers:
            if h.var:
                self.env[h.var] = None
            self.visit(h.body)
        if node.orelse is not None:
            self.visit(node.orelse)
        if node.final is not None:
            self.visit(node.final)
        return None

    # -- operations ---------------------------------------------------------

    def _boolop(self, node: BoolOp) -> AbsVal:
        vals = [self.visit(p) for p in node.parts]
        for val in vals[:-1]:  # every non-final part is truth-tested
            self._taint_unless_safe(val, "boolop truthiness test")
        # `a and b` / `a or b` can yield any operand: join over all of
        # them is the sound result in the set domain.
        out = vals[0]
        for val in vals[1:]:
            out = join_vals(out, val)
        return out

    def _not(self, node: Not) -> AbsVal:
        self._taint_unless_safe(self.visit(node.value), "not truthiness test")
        return frozenset({"Boolean"})

    def _isnil(self, node: IsNil) -> AbsVal:
        self.visit(node.value)
        return frozenset({"Boolean"})

    def _isa(self, node: IsA) -> AbsVal:
        self.visit(node.value)
        return frozenset({"Boolean"})

    def _blockfn(self, node: BlockFn) -> AbsVal:
        # A block not passed to a call is inert until invoked; bare
        # invocation is opaque anyway (see _call), so don't analyze it.
        return frozenset({"Proc"})

    def _cast(self, node: Cast) -> AbsVal:
        self.visit(node.value)
        from ..rtypes import parse_type
        try:
            return classes_of_type(parse_type(node.type_text), self.hier,
                                   self.resources, self.blockers)
        except Exception:
            return None

    def _analyze_block(self, block: BlockFn,
                       elem: AbsVal = None) -> None:
        """Fold a passed block's body effects in (a builtin receiver may
        invoke it any number of times, with our frame on the stack)."""
        saved = self.env
        self.env = dict(saved)
        for p in block.params:
            self.env[p] = elem
        for name in _assigned_names(block.body):
            if name not in block.params:
                self.env[name] = None
        self.visit(block.body)
        self.env = saved

    def _call(self, node: Call) -> AbsVal:
        arg_vals = [self.visit(a) for a in node.args]
        if node.recv is None:
            # Bare call: a local Proc or implicit-self dispatch — both
            # opaque (the Proc body is unknown; implicit self is an
            # interceptable app method).
            if node.block is not None:
                self._analyze_block(node.block)
            if self.frame:
                self.blockers.append(
                    (BLOCK_WHITELIST, f"bare call {node.name}"))
            self.frame = False
            return None
        recv = self.visit(node.recv)
        if recv is None:
            if node.block is not None:
                self._analyze_block(node.block)
            if self.frame:
                self.blockers.append(
                    (BLOCK_WHITELIST, f".{node.name} on unknown receiver"))
            self.frame = False
            return None
        # Frame judgment is set-wide: if *any* possible receiver class
        # is interceptable or off the whitelist, the frame must stay.
        any_unsafe = False
        for cname in sorted(recv):
            interceptable = self.engine.host_class(cname) is not None
            if interceptable or cname not in _SAFE_BUILTIN_RECEIVERS:
                # An intercepted callee reads the checked-frame stack
                # before pushing its own frame; an unregistered host
                # class is opaque code that may reach one.
                if self.frame and not any_unsafe:
                    self.blockers.append(
                        (BLOCK_WHITELIST, f"{cname}.{node.name}"))
                any_unsafe = True
        if any_unsafe:
            self.frame = False
        else:
            # Trusted builtin receiver — but a builtin operator with an
            # off-whitelist argument can dispatch to the argument's
            # reflected dunder (1 + obj -> obj.__radd__).
            for val in arg_vals:
                self._taint_unless_safe(val, f"argument to .{node.name}")
        if node.block is not None:
            elem: AbsVal = None
            if len(recv) == 1:
                elem_name = _ITER_ELEM.get(next(iter(recv)))
                if elem_name is not None:
                    elem = frozenset({elem_name})
            self._analyze_block(node.block, elem)
        # Return set: capped union of each possible receiver's result.
        out: Set[str] = set()
        for cname in sorted(recv):
            interceptable = self.engine.host_class(cname) is not None
            part = self._call_ret(cname, node.name, interceptable, arg_vals)
            if part is None:
                return None
            out |= part
            if len(out) > _MAX_CLASS_SET:
                self.blockers.append(
                    (BLOCK_UNKNOWN_JOIN,
                     f".{node.name} return set wider than {_MAX_CLASS_SET}"))
                return None
        return frozenset(out)

    def _call_ret(self, recv_cls: str, name: str, interceptable: bool,
                  arg_vals: List[AbsVal]) -> AbsVal:
        """Infer the call's return classes, or None if unknown.

        First trusts the *declared* return type when the callee's own
        checks guarantee it (``sig.check``, or a non-interceptable
        builtin whose signature is the specification).  When declaration
        alone is inexact, recurses into the dispatched callee's RIL body
        under the depth/budget limits.
        """
        engine = self.engine
        resolved = engine.resolve_sig(recv_cls, name, INSTANCE,
                                      trace=self.resources)
        if resolved is None:
            if interceptable:
                return self._callee_body_ret(recv_cls, name, arg_vals)
            self.blockers.append(
                (BLOCK_NO_IR, f"{recv_cls}.{name} has no signature"))
            return None
        sig_owner, sig = resolved
        # Body edges: a redefinition of the callee (same signature, new
        # body) must still deopt — the return fact was derived while
        # *this* body was installed.
        self.resources.append(ir_resource(recv_cls, name))
        if sig_owner != recv_cls:
            self.resources.append(ir_resource(sig_owner, name))
        mir = engine.cfgs.lookup(recv_cls, name) or engine.cfgs.lookup(
            sig_owner, name)
        if mir is not None:
            self.callees.append((mir.owner, mir.name, mir.fingerprint))
        # The signature's return type is trusted when the callee's body
        # is statically checked against it (sig.check), or when the
        # callee is a builtin (not interceptable: the signature *is* the
        # specification).  An unchecked app method's annotation is a
        # claim nobody verified — no trust.
        if sig.check or not interceptable:
            out: Set[str] = set()
            exact = True
            any_arm = False
            for arm in sig.intersection():
                # Sound arm exclusion: the dynamic check only ever picks
                # an arm every argument conforms to, so an arm some
                # argument position provably *cannot* satisfy (no class
                # in the known set conforms, even permissively) never
                # contributes its return type.
                if not self._arm_possible(arm, arg_vals):
                    continue
                any_arm = True
                part = classes_of_type(arm.ret, self.hier, self.resources,
                                       self.blockers)
                if part is None:
                    exact = False
                    break
                out |= part
            if exact and any_arm and out and len(out) <= _MAX_CLASS_SET:
                return frozenset(out)
        if not interceptable:
            # A builtin with an inexact declared return: there is no RIL
            # body to recurse into.
            self.blockers.append(
                (BLOCK_CONFORMANCE, f"{recv_cls}.{name} return inexact"))
            return None
        return self._callee_body_ret(recv_cls, name, arg_vals)

    def _arm_possible(self, arm: MethodType, arg_vals: List[AbsVal]) -> bool:
        """Could this intersection arm match a call with these arguments?

        False only on a proof of impossibility: the arity can never
        match, or some position's entire class set fails conformance.
        """
        if not arm.accepts_arity(len(arg_vals)):
            return False
        for j, val in enumerate(arg_vals):
            if val is None:
                continue
            t = arm.param_type_at(j)
            if t is None:
                continue
            if not any(class_conforms(c, t, self.hier) for c in val):
                return False
        return True

    def _callee_body_ret(self, recv_cls: str, name: str,
                         arg_vals: List[AbsVal]) -> AbsVal:
        """Recurse into the dispatched callee body (inter-procedural).

        Resolves the *dispatched* body by walking the host class
        ``__mro__`` — the IR registry's (receiver, declared-owner)
        two-probe order can disagree with dispatch when an intermediate
        class overrides the method, so it is not used here.
        """
        if self.depth + 1 > _MAX_CALLEE_DEPTH:
            self.blockers.append(
                (BLOCK_BUDGET,
                 f"{recv_cls}.{name} past depth {_MAX_CALLEE_DEPTH}"))
            return None
        if self.budget[0] <= 0:
            self.blockers.append(
                (BLOCK_BUDGET, f"{recv_cls}.{name} callee budget exhausted"))
            return None
        engine = self.engine
        pycls = engine.host_class(recv_cls)
        if pycls is None:
            self.blockers.append((BLOCK_NO_IR, f"{recv_cls} not registered"))
            return None
        owner_name: Optional[str] = None
        raw: Any = None
        for k in pycls.__mro__[:-1]:
            if name in k.__dict__:
                raw = k.__dict__[name]
                owner_name = k.__name__
                break
        if raw is None or owner_name is None:
            self.blockers.append(
                (BLOCK_NO_IR, f"{recv_cls}.{name} not on host class"))
            return None
        fn = getattr(raw, "__func__", raw)
        inner = getattr(fn, "__hb_original__", None)
        if inner is not None:
            fn = inner
        key = (owner_name, name)
        if key in self.active:
            # Recursive cycle: cannot conclude anything about the return.
            self.blockers.append(
                (BLOCK_BUDGET, f"{owner_name}.{name} recursive cycle"))
            return None
        self.resources.append(ir_resource(owner_name, name))
        mir = engine.cfgs.lookup(owner_name, name)
        if mir is None:
            try:
                mir = engine.cfgs.register_function(owner_name, name, fn)
            except Exception:
                mir = None
        if mir is None:
            self.blockers.append(
                (BLOCK_NO_IR, f"{owner_name}.{name} not lowerable"))
            return None
        self.callees.append((mir.owner, mir.name, mir.fingerprint))
        self.budget[0] -= 1
        self.active.add(key)
        try:
            child = _Analysis(
                engine, recv_cls,
                depth=self.depth + 1, active=self.active, budget=self.budget,
                resources=self.resources, callees=self.callees,
                blockers=self.blockers)
            child.seed(mir, list(arg_vals))
            child.visit(mir.body)
            if child.ret_unknown:
                return None
            names = set(child.rets)
            if not always_returns(mir.body):
                names.add("NilClass")
            if len(names) > _MAX_CLASS_SET:
                self.blockers.append(
                    (BLOCK_UNKNOWN_JOIN,
                     f"{owner_name}.{name} return set wider than cap"))
                return None
            return frozenset(names)
        finally:
            self.active.discard(key)

    _DISPATCH: Dict[type[Node], Callable[["_Analysis", Any], AbsVal]] = {
        NilLit: _nil, BoolLit: _bool, IntLit: _int, FloatLit: _float,
        StrLit: _str, SymLit: _sym, ArrayLit: _array, HashLit: _hash,
        RangeLit: _range, StrFormat: _strformat, SelfRef: _selfref,
        VarRead: _varread, ConstRead: _constread, IVarRead: _ivarread,
        IVarWrite: _ivarwrite, VarWrite: _varwrite, Seq: _seq, If: _if,
        While: _while, ForEach: _foreach, Return: _return, Break: _break,
        Next: _break, Raise: _raise, Try: _try, BoolOp: _boolop, Not: _not,
        IsNil: _isnil, IsA: _isa, BlockFn: _blockfn, Cast: _cast, Call: _call,
    }
