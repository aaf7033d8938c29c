"""Checker feature tests: unions, intersections, generics, blocks, fields,
casts, narrowing, nil flow — the section 4 feature set."""

import pytest

from repro import Engine, StaticTypeError


def fresh():
    engine = Engine()
    return engine, engine.api()


class TestUnionReceivers:
    def test_union_receiver_checks_each_arm(self):
        """Section 4: a union receiver is checked once per arm and the
        return types are unioned."""
        engine, hb = fresh()

        class Unions:
            @hb.typed("(%bool) -> Integer or String")
            def pick(self, flag):
                if flag:
                    x = 1
                else:
                    x = "one"
                return x

            @hb.typed("(%bool) -> String")
            def stringify(self, flag):
                value = self.pick(flag)
                return str(value)  # to_s exists on both union arms

        assert Unions().stringify(True) == "1"

    def test_union_receiver_fails_if_any_arm_lacks_method(self):
        engine, hb = fresh()

        class Unions:
            @hb.typed("(%bool) -> Integer or String")
            def pick(self, flag):
                return 1 if flag else "one"

            @hb.typed("(%bool) -> Integer")
            def bad(self, flag):
                value = self.pick(flag)
                return abs(value)  # abs exists on Integer, not String

        with pytest.raises(StaticTypeError, match="abs"):
            Unions().bad(True)


class TestIntersections:
    def test_overloaded_signature_selects_arm(self):
        """The Array#[] pattern: repeated annotations build an
        intersection, calls pick the matching arm."""
        engine, hb = fresh()

        class Over:
            pass

        def scale(self, x):
            return x * 2

        hb.annotate(Over, "scale", "(Integer) -> Integer", check=False)
        hb.annotate(Over, "scale", "(String) -> String", check=False)
        engine.define_method(Over, "scale", scale)

        class Caller:
            @hb.typed("() -> Integer")
            def use_int(self):
                o = Over()
                return o.scale(3)

            @hb.typed("() -> String")
            def use_str(self):
                o = Over()
                return o.scale("ab")

            @hb.typed("() -> Integer")
            def wrong(self):
                o = Over()
                return o.scale(1.5)  # Float matches neither arm

        assert Caller().use_int() == 6
        assert Caller().use_str() == "abab"
        with pytest.raises(StaticTypeError, match="no matching"):
            Caller().wrong()


class TestGenericsAndBlocks:
    def test_map_infers_element_type(self):
        engine, hb = fresh()

        class Blocks:
            @hb.typed("(Array<Integer>) -> Array<String>")
            def labels(self, xs):
                return [str(x) for x in xs]

        assert Blocks().labels([1, 2]) == ["1", "2"]

    def test_map_result_type_mismatch_detected(self):
        engine, hb = fresh()

        class Blocks:
            @hb.typed("(Array<Integer>) -> Array<String>")
            def bad(self, xs):
                return [x + 1 for x in xs]  # Array<Integer>, not String

        with pytest.raises(StaticTypeError):
            Blocks().bad([1])

    def test_block_passed_to_blockless_method_rejected(self):
        """The Talks 1/7/12-5 error class: Ruby ignores the block, the
        checker flags it."""
        engine, hb = fresh()

        class NoBlock:
            @hb.typed("() -> Integer")
            def plain(self):
                return 1

            @hb.typed("() -> Integer")
            def caller(self):
                return self.plain(lambda x: x)

        with pytest.raises(StaticTypeError, match="block"):
            NoBlock().caller()

    def test_calling_the_block_parameter(self):
        """Section 4's *unimplemented* second case, implemented here as an
        extension: calls to the method's own block are checked."""
        engine, hb = fresh()

        class Yields:
            @hb.typed("(Integer) { (Integer) -> Integer } -> Integer")
            def apply_twice(self, x, fn):
                return fn(fn(x))

        assert Yields().apply_twice(3, lambda v: v + 1) == 5

    def test_block_param_argument_type_checked(self):
        engine, hb = fresh()

        class Yields:
            @hb.typed("(Integer) { (Integer) -> Integer } -> Integer")
            def bad(self, x, fn):
                return fn("oops")

        with pytest.raises(StaticTypeError, match="block argument"):
            Yields().bad(1, lambda v: v)

    def test_array_zip_tuple_result(self):
        """The Fig. 3 zip idiom: zip produces Array<[t, u]>."""
        engine, hb = fresh()

        class Zipper:
            @hb.typed("(Array<String>, Array<Integer>) -> Array<String>")
            def pair_up(self, names, counts):
                out: "Array<String>" = []
                for name, count in zip(names, counts):
                    out.append(f"{name}={count}")
                return out

        # zip() lowers to the IR zip selector but must also run natively.
        with pytest.raises(StaticTypeError):
            # bare zip(...) is not supported natively by the IR; apps use
            # the .zip method form — this documents the boundary.
            Zipper().pair_up(["a"], [1])


class TestFieldsAndCasts:
    def test_field_type_read_and_write(self):
        engine, hb = fresh()

        class Holder:
            def __init__(self):
                self.items = [1, 2, 3]

            @hb.typed("() -> Integer")
            def total(self):
                acc = 0
                for i in self.items:
                    acc = acc + i
                return acc

        hb.field_type(Holder, "items", "Array<Integer>")
        assert Holder().total() == 6

    def test_field_write_type_checked(self):
        engine, hb = fresh()

        class Holder:
            def __init__(self):
                self.count = 0

            @hb.typed("() -> nil")
            def corrupt(self):
                self.count = "not a number"
                return None

        hb.field_type(Holder, "count", "Integer")
        with pytest.raises(StaticTypeError, match="count"):
            Holder().corrupt()

    def test_static_cast_gives_type(self):
        engine, hb = fresh()
        cast = engine.cast

        class Caster:
            @hb.typed("() -> Array<Integer>")
            def load(self):
                raw = self.fetch()
                return cast(raw, "Array<Integer>")

        hb.annotate(Caster, "fetch", "() -> %any")

        def fetch(self):
            return [1, 2]

        engine.define_method(Caster, "fetch", fetch)
        assert Caster().load() == [1, 2]
        assert engine.stats.cast_site_count() == 1

    def test_annotated_local_is_generic_cast(self):
        """The paper's a = []; a.rdl_cast('Array<Fixnum>') pattern, via an
        annotated local declaration."""
        engine, hb = fresh()

        class Local:
            @hb.typed("() -> Array<Integer>")
            def fresh_list(self):
                xs: "Array<Integer>" = []
                xs.append(1)
                return xs

            @hb.typed("() -> Array<Integer>")
            def bad_push(self):
                xs: "Array<Integer>" = []
                xs.append("str")
                return xs

        assert Local().fresh_list() == [1]
        with pytest.raises(StaticTypeError):
            Local().bad_push()


class TestNarrowing:
    def test_is_none_narrows(self):
        engine, hb = fresh()

        class Narrow:
            @hb.typed("(String or nil) -> String")
            def orelse(self, s):
                if s is None:
                    return "default"
                return s.upper()

        assert Narrow().orelse(None) == "default"
        assert Narrow().orelse("hi") == "HI"

    def test_isinstance_narrows(self):
        engine, hb = fresh()

        class Narrow:
            @hb.typed("(Integer or String) -> Integer")
            def to_int(self, v):
                if isinstance(v, str):
                    return len(v)
                return abs(v)

        # isinstance lowers to IsA; 'str' is not a known class name, so
        # this needs the host-name spelling:
        with pytest.raises(StaticTypeError):
            Narrow().to_int(3)

class TestStrictNil:
    def test_paper_mode_accepts_nil_flow(self):
        engine, hb = fresh()

        class Loose:
            @hb.typed("() -> String")
            def may_be_nil(self):
                return None

        assert Loose().may_be_nil() is None  # checks, then returns nil
