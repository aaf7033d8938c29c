"""Churn recipes for the serving harness: the full Rails mutation
substrate applied while N request threads are in flight.

Three mutator kinds, one dedicated thread each (the driver accepts a
list of churn callables):

* **retype** — ``engine.types.replace`` of a hot checked method with
  its unchanged signature, plus a fresh-class registration every few
  steps and an identical ``field_type``: a semantics-preserving
  invalidation wave (every app has a target);
* **reload** — a real ``rails.reloader`` dev-mode reload: two
  *textually different but behaviorally identical* versions of a hot
  method's source alternate, so every step is a genuine IR-diff "body
  changed" event — invalidate dependents, recompile, recheck at next
  call — landing mid-traffic;
* **typegen** — re-running the schema-driven type generators
  (``generate_attribute_types`` / ``generate_finder_types``) for a
  model, i.e. the metaprogramming hooks re-annotating every column
  getter/setter and finder while requests are using them.

All three are semantics-preserving, so the differential bar stays
absolute: outcomes under churn must equal the no-churn oracle's.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..apps import World
from ..rails import typegen
from ..rails.reloader import AppVersion, Reloader

Churn = Callable[[int], None]

#: per-app (owner, method, signature) retyped by the retype recipe — a
#: hot, statically-checked method whose plans/derivations are warm.
RETYPE_TARGETS: Dict[str, Tuple[str, str, str]] = {
    "boxroom": ("Folder", "path", "() -> String"),
    "countries": ("Country", "summary_line", "() -> String"),
    "rolify": ("User", "display_name", "() -> String"),
    "pubs": ("Author", "last_name", "() -> String"),
    "cct": ("CardValidator", "masked", "(String) -> String"),
    "talks": ("User", "display_name", "() -> String"),
}

#: alternating-source reload versions per app: (class, method, sig,
#: source A, source B).  A and B compute the same value through
#: different bodies, so the reload's IR diff always fires while the
#: request outcomes stay oracle-identical.
RELOAD_VERSIONS: Dict[str, Tuple[str, str, str, str, str]] = {
    "boxroom": (
        "User", "display_name", "() -> String",
        "def display_name(self):\n"
        "    return f\"{self.name} <{self.email}>\"\n",
        "def display_name(self):\n"
        "    nm = self.name\n"
        "    em = self.email\n"
        "    return f\"{nm} <{em}>\"\n",
    ),
    "rolify": (
        "User", "display_name", "() -> String",
        "def display_name(self):\n"
        "    return f\"{self.name} <{self.email}>\"\n",
        "def display_name(self):\n"
        "    parts = [self.name, \" <\", self.email, \">\"]\n"
        "    return \"\".join(parts)\n",
    ),
}


def retype_churn(world: World) -> Churn:
    """Signature-preserving retype wave + periodic fresh-class noise."""
    engine = world.engine
    owner, method, sig = RETYPE_TARGETS[world.name]
    fresh_count = [0]

    def step(step_index: int) -> None:
        engine.types.replace(owner, method, sig, check=True)
        if step_index % 4 == 0:
            fresh_count[0] += 1
            fresh = type(f"ServingScratch{world.name.title()}"
                         f"{fresh_count[0]}", (object,), {})
            engine.register_class(fresh)
        engine.field_type(owner, "serving_scratch", "Integer")

    return step


def reload_churn(world: World) -> Churn:
    """Dev-mode reload alternating two equivalent sources of a hot
    method — every step is a real body-changed invalidation wave."""
    if world.name not in RELOAD_VERSIONS:
        raise ValueError(f"no reload churn for {world.name!r}")
    app = world.extras["app"]
    cls_name, method, sig, src_a, src_b = RELOAD_VERSIONS[world.name]
    models = world.extras["models"]
    cls = getattr(models, cls_name)
    reloader = Reloader(app)
    reloader.register_class(cls)
    versions = (
        AppVersion("serving-A").add(cls_name, method, sig, src_a),
        AppVersion("serving-B").add(cls_name, method, sig, src_b),
    )
    # Prime with version A so every later apply is a diffed *reload*
    # (body_changed) rather than a first definition.
    reloader.apply(versions[0])

    def step(step_index: int) -> None:
        reloader.apply(versions[(step_index + 1) % 2])

    return step


def typegen_churn(world: World) -> Churn:
    """Re-run the schema-driven generators for the app's user model:
    every column getter/setter and finder is re-annotated (identical
    generated signatures) while traffic consults them."""
    if not world.uses_rails:
        raise ValueError(f"no typegen churn for {world.name!r}")
    app = world.extras["app"]
    models = world.extras["models"]
    cls = models.User
    schema = app.db.table("users").schema

    def step(step_index: int) -> None:
        typegen.generate_attribute_types(app, cls, schema)
        if step_index % 2 == 0:
            typegen.generate_finder_types(app, cls, schema)

    return step


def churn_suite(world: World, kind: str = "full") -> List[Churn]:
    """The mutator-thread recipes for a scenario.

    ``kind``: ``none`` (no mutators), ``retype`` (the single-recipe
    wave, available for every app), or ``full`` (retype +
    dev-mode reload + typegen regeneration, each on its own thread —
    Rails apps only get all three; countries gets retype).
    """
    if kind == "none":
        return []
    if kind == "retype":
        return [retype_churn(world)]
    if kind == "full":
        churns = [retype_churn(world)]
        if world.name in RELOAD_VERSIONS:
            churns.append(reload_churn(world))
        if world.uses_rails:
            churns.append(typegen_churn(world))
        return churns
    raise ValueError(f"unknown churn kind {kind!r}; "
                     f"expected 'none', 'retype', or 'full'")
