"""Struct exchange: layout, value tuples, masking, arrays, byte adapters.

The property tests check the generated codec against ``oracle_pack`` /
``oracle_unpack``: the loop-based per-field codec the bridge used before
the codec was generated, kept here as the reference.
"""

import keyword
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.bridge.structs import Field, StructSpec


# -- reference oracle -----------------------------------------------------------


def _oracle_layout(spec):
    """(struct, [(name, count, mask, pos)], n_values), computed per field."""
    fmt = "<"
    layout = []
    pos = 0
    for f in spec.fields:
        code = ("B" if f.width <= 8 else "H" if f.width <= 16
                else "I" if f.width <= 32 else "Q")
        fmt += code * f.count
        layout.append((f.name, f.count, f.mask, pos))
        pos += f.count
    return struct.Struct(fmt), layout, pos


def oracle_pack(spec, **values) -> bytes:
    packer, layout, nvalues = _oracle_layout(spec)
    flat = [0] * nvalues
    taken = 0
    for fname, count, mask, pos in layout:
        if fname not in values:
            continue
        taken += 1
        value = values[fname]
        if count == 1:
            flat[pos] = int(value) & mask
        else:
            if len(value) != count:
                raise ValueError(
                    f"field {fname!r} expects {count} elements, "
                    f"got {len(value)}"
                )
            for i, elem in enumerate(value):
                flat[pos + i] = int(elem) & mask
    if taken != len(values):
        unknown = set(values) - {f.name for f in spec.fields}
        raise KeyError(f"struct {spec.name!r} has no fields {sorted(unknown)}")
    return packer.pack(*flat)


def oracle_unpack(spec, data: bytes) -> dict:
    packer, layout, _ = _oracle_layout(spec)
    if len(data) != packer.size:
        raise ValueError(
            f"struct {spec.name!r} expects {packer.size} bytes, got {len(data)}"
        )
    flat = packer.unpack(data)
    out = {}
    for fname, count, mask, pos in layout:
        if count == 1:
            out[fname] = flat[pos] & mask
        else:
            out[fname] = [flat[pos + i] & mask for i in range(count)]
    return out


def as_tuple(fields: dict) -> tuple:
    """An oracle dict in the value-tuple form (arrays as tuples)."""
    return tuple(tuple(v) if isinstance(v, list) else v
                 for v in fields.values())


# -- strategies -----------------------------------------------------------------

names = st.text("abcdefgh", min_size=1, max_size=4).map(
    lambda n: n + "_x" if keyword.iskeyword(n) else n)
fields_st = st.lists(
    st.builds(Field, name=names, width=st.integers(1, 64),
              count=st.integers(1, 4)),
    min_size=1, max_size=8, unique_by=lambda f: f.name,
)
#: values wider than any field and negative ones, to exercise masking
raw_ints = st.integers(-(1 << 70), 1 << 70)


@st.composite
def spec_and_values(draw):
    """A random spec plus keyword values for a random subset of it."""
    spec = StructSpec("s", draw(fields_st))
    values = {}
    for f in spec.fields:
        if draw(st.booleans()):
            values[f.name] = (draw(raw_ints) if f.count == 1 else
                              draw(st.lists(raw_ints, min_size=f.count,
                                            max_size=f.count)))
    return spec, values


class TestField:
    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            Field("f", 0)
        with pytest.raises(ValueError):
            Field("f", 65)

    def test_nbytes(self):
        assert Field("f", 1).nbytes == 1
        assert Field("f", 12).nbytes == 2
        assert Field("f", 32).nbytes == 4
        assert Field("f", 8, count=3).nbytes == 3

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            Field("f", 8, count=0)


class TestStructSpec:
    def test_size_is_sum_of_fields(self):
        spec = StructSpec("s", [Field("a", 1), Field("b", 32), Field("c", 12)])
        assert spec.size == 1 + 4 + 2

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError):
            StructSpec("s", [Field("a", 1), Field("a", 2)])

    @pytest.mark.parametrize("name", ["class", "not-ident", "_hidden", "1x"])
    def test_field_names_must_be_plain_identifiers(self, name):
        with pytest.raises(ValueError):
            StructSpec("s", [Field(name, 8)])

    def test_pack_unpack_roundtrip(self):
        spec = StructSpec("s", [Field("a", 4), Field("b", 16)])
        data = spec.pack(a=0x9, b=0xBEEF)
        assert spec.unpack(data) == (9, 0xBEEF)

    def test_make_takes_positional_or_keyword_values(self):
        spec = StructSpec("s", [Field("a", 4), Field("b", 16)])
        assert spec.make(9, 0xBEEF) == spec.make(b=0xBEEF, a=9) == (9, 0xBEEF)
        assert spec.make(9, b=1) == (9, 1)

    def test_unspecified_fields_zero(self):
        spec = StructSpec("s", [Field("a", 8), Field("b", 8)])
        assert spec.make(b=7) == (0, 7)
        assert spec.unpack(spec.pack(b=7)) == (0, 7)

    def test_values_masked_to_width(self):
        spec = StructSpec("s", [Field("a", 4)])
        assert spec.make(a=0xFF) == (0xF,)
        assert spec.unpack(spec.pack(a=0xFF)) == (0xF,)

    def test_values_coerced_to_int(self):
        spec = StructSpec("s", [Field("a", 4), Field("v", 4, count=2)])
        assert spec.make(a=True, v=[False, 3.9]) == (1, (0, 3))

    def test_unknown_field_rejected(self):
        spec = StructSpec("s", [Field("a", 8)])
        with pytest.raises(KeyError):
            spec.pack(nope=1)
        with pytest.raises(TypeError):
            spec.make(nope=1)

    def test_array_fields(self):
        spec = StructSpec("s", [Field("v", 16, count=3)])
        assert spec.make(v=[1, 2, 70000]) == ((1, 2, 70000 & 0xFFFF),)
        assert spec.make() == ((0, 0, 0),)
        data = spec.pack(v=[1, 2, 70000])
        assert spec.unpack(data) == ((1, 2, 70000 & 0xFFFF),)

    def test_array_length_checked(self):
        spec = StructSpec("s", [Field("v", 8, count=2)])
        with pytest.raises(ValueError, match="expects 2 elements, got 3"):
            spec.make(v=[1, 2, 3])
        with pytest.raises(ValueError):
            spec.pack(v=[1, 2, 3])

    def test_unpack_length_checked(self):
        spec = StructSpec("s", [Field("a", 8)])
        with pytest.raises(ValueError):
            spec.unpack(b"\0\0")

    def test_zeros(self):
        spec = StructSpec("s", [Field("a", 8), Field("b", 32)])
        assert spec.zeros() == spec.pack() == b"\0" * 5
        assert spec.unpack(spec.zeros()) == spec.make() == (0, 0)

    def test_contains_and_iter(self):
        spec = StructSpec("s", [Field("a", 8)])
        assert "a" in spec and "b" not in spec
        assert [f.name for f in spec] == ["a"]

    def test_byte_layout_is_little_endian_per_field(self):
        spec = StructSpec("s", [Field("a", 16), Field("b", 8)])
        assert spec.pack(a=0x1234, b=0x56) == b"\x34\x12\x56"


@given(
    a=st.integers(min_value=0, max_value=(1 << 12) - 1),
    b=st.integers(min_value=0, max_value=(1 << 48) - 1),
    v=st.lists(st.integers(min_value=0, max_value=255), min_size=4, max_size=4),
)
def test_property_roundtrip(a, b, v):
    spec = StructSpec(
        "s", [Field("a", 12), Field("b", 48), Field("v", 8, count=4)]
    )
    out = spec.unpack(spec.pack(a=a, b=b, v=v))
    assert out == spec.make(a, b, v) == (a, b, tuple(v))


# -- generated codec vs the oracle ------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(spec_and_values())
def test_codec_matches_oracle_on_random_specs(case):
    """Masking, defaults and the little-endian byte image all agree."""
    spec, values = case
    data = oracle_pack(spec, **values)
    assert spec.pack(**values) == data
    assert spec.make(**values) == as_tuple(oracle_unpack(spec, data))


@settings(max_examples=50, deadline=None)
@given(spec_and_values())
def test_positional_make_and_bytes_roundtrip(case):
    spec, values = case
    made = spec.make(**values)
    assert spec.make(*made) == made
    assert spec.unpack(spec.pack(*made)) == made
    assert spec.unpack(spec.pack(**values)) == made


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_unpack_matches_oracle_on_random_bytes(data):
    """Decoding masks every slot to its field width, like the oracle."""
    spec = StructSpec("s", data.draw(fields_st))
    raw = data.draw(st.binary(min_size=spec.size, max_size=spec.size))
    assert spec.unpack(raw) == as_tuple(oracle_unpack(spec, raw))


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_array_length_errors_match_oracle(data):
    spec = StructSpec("s", data.draw(fields_st))
    arrays = [f for f in spec.fields if f.count > 1]
    if not arrays:
        return
    f = data.draw(st.sampled_from(arrays))
    n = data.draw(st.integers(0, 6).filter(lambda n: n != f.count))
    with pytest.raises(ValueError) as want:
        oracle_pack(spec, **{f.name: [1] * n})
    with pytest.raises(ValueError) as got:
        spec.make(**{f.name: [1] * n})
    assert str(got.value) == str(want.value)
    with pytest.raises(ValueError):
        spec.pack(**{f.name: [1] * n})


@settings(max_examples=50, deadline=None)
@given(spec_and_values(), names)
def test_unknown_field_errors_match_oracle(case, extra):
    spec, values = case
    if extra in spec:
        return
    values[extra] = 1
    with pytest.raises(KeyError) as want:
        oracle_pack(spec, **values)
    with pytest.raises(KeyError) as got:
        spec.pack(**values)
    assert str(got.value) == str(want.value)
