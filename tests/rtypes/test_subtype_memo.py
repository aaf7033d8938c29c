"""The memoized subtype relation agrees with the uncached one, and its
cache is invalidated by hierarchy mutations.

The memo (``ClassHierarchy.subtype_cache``) is a bounded LRU keyed
``(s, t)``; each line records the class names its computation
consulted, and a hierarchy mutation evicts exactly the lines whose reads
it touched (dependency-tracked invalidation).  A wrong cache would
silently corrupt both static checking and dynamic argument checks, so
this file property-tests it against a cache-disabled twin hierarchy on
randomized type pairs and pins the LRU behavior (hot pairs stay resident
across overflow; overflow evicts cold lines instead of clearing).
"""

from hypothesis import given, settings, strategies as st

from repro.rtypes import (
    ANY, BOOL, NIL,
    GenericType, MethodType, NominalType, RequiredParam, SingletonType,
    TupleType, VarType,
    default_hierarchy, is_subtype, union_of,
)


def _extended_hierarchy():
    h = default_hierarchy()
    for name in ("User", "Talk", "Widget"):
        h.add_class(name)
    h.add_class("AdminUser", "User")
    return h


#: the memoizing hierarchy under test and a structurally identical twin
#: with the cache disabled (the "fresh uncached engine" oracle).
HOT = _extended_hierarchy()
COLD = _extended_hierarchy()
COLD.subtype_cache.enabled = False

_NOMINALS = ["Object", "Integer", "Float", "Numeric", "String", "Symbol",
             "User", "AdminUser", "Talk", "Widget"]

base_types = st.one_of(
    st.sampled_from([ANY, BOOL, NIL]),
    st.sampled_from(_NOMINALS).map(NominalType),
    st.sampled_from(["a", "b", "owner"]).map(
        lambda s: SingletonType(s, "Symbol")),
    st.integers(min_value=-5, max_value=5).map(
        lambda i: SingletonType(i, "Integer")),
    st.sampled_from(["t", "u"]).map(VarType),
)


def _method(args):
    params, ret = args
    return MethodType(tuple(RequiredParam(p) for p in params), None, ret)


def compound(children):
    return st.one_of(
        st.lists(children, min_size=1, max_size=3).map(
            lambda ts: GenericType("Array", (ts[0],))),
        st.lists(children, min_size=2, max_size=3).map(
            lambda ts: union_of(*ts)),
        st.lists(children, min_size=0, max_size=3).map(
            lambda ts: TupleType(tuple(ts))),
        st.tuples(st.lists(children, max_size=2), children).map(_method),
    )


types = st.recursive(base_types, compound, max_leaves=8)


@given(types, types)
@settings(max_examples=400)
def test_memoized_agrees_with_uncached(s, t):
    assert is_subtype(s, t, HOT) == is_subtype(s, t, COLD)


@given(types, types)
@settings(max_examples=100)
def test_memoized_queries_are_stable(s, t):
    first = is_subtype(s, t, HOT)
    assert all(is_subtype(s, t, HOT) == first for _ in range(3))


def test_cache_counts_hits():
    h = _extended_hierarchy()
    s, t = NominalType("AdminUser"), NominalType("User")
    assert is_subtype(s, t, h)
    before = h.subtype_cache.hits
    assert is_subtype(s, t, h)
    assert h.subtype_cache.hits == before + 1


def test_hierarchy_mutation_invalidates_cached_answers():
    h = default_hierarchy()
    h.add_class("Animal")
    cat, animal = NominalType("Cat"), NominalType("Animal")
    # Cat is unknown: the (cached) answer is False.
    assert not is_subtype(cat, animal, h)
    h.add_class("Cat", "Animal")
    # The registration cleared the memo; the stale False must not survive.
    assert is_subtype(cat, animal, h)


def test_mixin_inclusion_invalidates_cached_answers():
    h = default_hierarchy()
    h.add_class("Post")
    h.add_module("Commentable")
    post, mod = NominalType("Post"), NominalType("Commentable")
    assert not is_subtype(post, mod, h)
    h.include_module("Post", "Commentable")
    assert is_subtype(post, mod, h)


def test_bounded_cache_stays_correct_when_full():
    h = _extended_hierarchy()
    h.subtype_cache.max_entries = 8  # force wraparound
    pairs = [(NominalType(a), NominalType(b))
             for a in _NOMINALS for b in _NOMINALS]
    expected = [is_subtype(s, t, COLD) for s, t in pairs]
    for _ in range(2):  # second sweep re-queries through evictions
        got = [is_subtype(s, t, h) for s, t in pairs]
        assert got == expected
    assert h.subtype_cache.evictions > 0


def test_lru_keeps_hot_pairs_resident_across_overflow():
    """The old full-drop-on-overflow policy evicted the working set with
    the garbage; the LRU keeps a repeatedly-queried pair cached while
    cold churn flows through."""
    h = _extended_hierarchy()
    cache = h.subtype_cache
    cache.max_entries = 16
    hot_s, hot_t = NominalType("AdminUser"), NominalType("User")
    assert is_subtype(hot_s, hot_t, h)
    cold = [(NominalType(a), NominalType(b))
            for a in _NOMINALS for b in _NOMINALS]
    for s, t in cold:
        is_subtype(s, t, h)
        is_subtype(hot_s, hot_t, h)  # keep the hot pair recently used
    assert cache.evictions > 0
    before = cache.hits
    assert is_subtype(hot_s, hot_t, h)
    assert cache.hits == before + 1  # still resident: a hit, not a recompute


def test_mutation_evicts_only_consulting_lines():
    """Dependency-tracked eviction: registering a new class drops the
    lines that observed its absence, not the unrelated working set."""
    h = _extended_hierarchy()
    ghost, user = NominalType("Ghost"), NominalType("User")
    admin = NominalType("AdminUser")
    assert not is_subtype(ghost, user, h)   # reads: Ghost (unknown)
    assert is_subtype(admin, user, h)       # reads: AdminUser
    h.add_class("Ghost", "User")
    # the stale negative answer fell...
    assert is_subtype(ghost, user, h)
    # ...but the unrelated line survived as a live cache hit
    before = h.subtype_cache.hits
    assert is_subtype(admin, user, h)
    assert h.subtype_cache.hits == before + 1


def test_memo_hit_replays_reads_into_active_trace():
    """An outer trace must see the classes a memoized sub-answer
    consulted, or a derivation's hierarchy edges would be incomplete."""
    h = _extended_hierarchy()
    s, t = NominalType("AdminUser"), NominalType("User")
    assert is_subtype(s, t, h)  # prime the memo
    with h.trace() as reads:
        assert is_subtype(s, t, h)  # pure memo hit
    assert "AdminUser" in reads
