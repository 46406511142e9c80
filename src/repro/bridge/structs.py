"""Input/output struct exchange between gem5 and the shared library.

The paper's wrapper contract passes "a void pointer to a predefined data
structure" into ``tick`` and returns results "on another data structure".
Both sides agree on a :class:`StructSpec` (an ordered set of
fixed-width fields) and never reach into each other's state.

In the paper that struct lives in one address space with gem5, so the
exchange costs no serialization.  Ours does the same: each tick the
RTLObject and the shared library hand each other a *value tuple* — one
masked int per field in spec order, a tuple of ints for an array field.
:meth:`StructSpec.make` builds such a tuple; it is generated once per
spec (``exec``, like the RTL kernel's codegen backend), so it runs no
per-field loop.

Bytes appear only at the byte adapters :meth:`StructSpec.pack` and
:meth:`StructSpec.unpack`, for callers that want the C-struct image.
Like a C struct, every field occupies a power-of-two slot (1/2/4/8
bytes per element, little-endian), so the layout is one
:class:`struct.Struct` format.

Example::

    PMU_IN = StructSpec("pmu_in", [
        Field("events", 20),              # event_enable[0-19] bits
        Field("awvalid", 1), Field("awaddr", 12), Field("wdata", 32),
        Field("arvalid", 1), Field("araddr", 12),
    ])
    inputs = PMU_IN.make(events=0b101, arvalid=1, araddr=0x100)
    # -> (5, 0, 0, 0, 1, 256); the library's drive() unpacks it in order
    buf = PMU_IN.pack(events=0b101, arvalid=1, araddr=0x100)  # 14 bytes
    assert PMU_IN.unpack(buf) == inputs
"""

from __future__ import annotations

import keyword
import struct
from dataclasses import dataclass
from typing import Callable, Iterator


def _slot_for(width: int) -> tuple[int, str]:
    """(bytes, struct code) of the smallest power-of-two slot."""
    if width <= 8:
        return 1, "B"
    if width <= 16:
        return 2, "H"
    if width <= 32:
        return 4, "I"
    return 8, "Q"


@dataclass(frozen=True)
class Field:
    """One fixed-width unsigned field; ``count > 1`` makes it an array."""

    name: str
    width: int          # bits
    count: int = 1

    def __post_init__(self) -> None:
        if self.width <= 0 or self.width > 64:
            raise ValueError(f"field {self.name!r}: width must be in 1..64")
        if self.count <= 0:
            raise ValueError(f"field {self.name!r}: count must be positive")

    @property
    def nbytes(self) -> int:
        return _slot_for(self.width)[0] * self.count

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


def _tuple_src(items: list[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


def _generate(spec: "StructSpec") -> tuple[Callable, Callable, Callable]:
    """Source-generate ``make``, ``encode`` and ``decode`` for *spec*.

    Field names become ``make``'s parameters; every helper the code
    needs is a global whose name starts with ``_``, which no field name
    may, so the two never collide.
    """
    ns: dict = {
        "_int": int, "_len": len, "_ValueError": ValueError,
        "_pack": spec._struct.pack, "_unpack": spec._struct.unpack,
    }
    params: list[str] = []
    body: list[str] = []
    made: list[str] = []      # make's return items
    flat: list[str] = []      # encode's struct arguments
    decoded: list[str] = []   # decode's return items
    pos = 0
    for i, f in enumerate(spec.fields):
        n, mask = f.name, f"{f.mask:#x}"
        if f.count == 1:
            params.append(f"{n}=0")
            body.append(f"    {n} = _int({n}) & {mask}")
            flat.append(f"t[{i}]")
            decoded.append(f"f[{pos}] & {mask}")
        else:
            # a defaulted array is this zero tuple itself: nothing to check
            zero = f"_zero_{n}"
            ns[zero] = (0,) * f.count
            params.append(f"{n}={zero}")
            body += [
                f"    if {n} is not {zero}:",
                f"        if _len({n}) != {f.count}:",
                f"            raise _ValueError(\"field {n!r} expects "
                f"{f.count} elements, got %d\" % _len({n}))",
                f"        {n} = " + _tuple_src(
                    [f"_int({n}[{k}]) & {mask}" for k in range(f.count)]),
            ]
            flat += [f"t[{i}][{k}]" for k in range(f.count)]
            decoded.append(_tuple_src(
                [f"f[{pos + k}] & {mask}" for k in range(f.count)]))
        made.append(n)
        pos += f.count
    src = "\n".join([
        f"def make({', '.join(params)}):",
        *body,
        f"    return {_tuple_src(made)}",
        "def encode(t):",
        f"    return _pack({', '.join(flat)})",
        "def decode(data):",
        "    f = _unpack(data)",
        f"    return {_tuple_src(decoded)}",
    ])
    exec(compile(src, f"<struct {spec.name}>", "exec"), ns)
    return ns["make"], ns["encode"], ns["decode"]


class StructSpec:
    """An ordered, fixed-layout struct definition shared by both sides.

    ``make(*values, **fields)`` returns the value tuple: positional
    values fill fields in order, keywords by name, fields left out are
    zero.  Values go through ``int()`` and are masked to their declared
    width (hardware truncation); an array field takes a sequence of
    exactly ``count`` elements and comes back as a tuple.
    """

    def __init__(self, name: str, fields: list[Field]) -> None:
        self.name = name
        self.fields = list(fields)
        seen: set[str] = set()
        for f in self.fields:
            if f.name in seen:
                raise ValueError(f"duplicate field {f.name!r} in struct {name!r}")
            if (not f.name.isidentifier() or keyword.iskeyword(f.name)
                    or f.name.startswith("_")):
                raise ValueError(
                    f"field {f.name!r} in struct {name!r}: names must be "
                    "identifiers that are not keywords and do not start "
                    "with '_'"
                )
            seen.add(f.name)
        self._names = frozenset(seen)

        # one flat little-endian struct format
        fmt = "<" + "".join(_slot_for(f.width)[1] * f.count for f in self.fields)
        self._struct = struct.Struct(fmt)
        self.size = self._struct.size
        self._zeros = b"\0" * self.size
        self.make, self._encode, self._decode = _generate(self)

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[Field]:
        return iter(self.fields)

    # -- byte adapters ---------------------------------------------------------

    def pack(self, *values, **fields) -> bytes:
        """The C-struct bytes of ``make(*values, **fields)``.

        Raises ``KeyError`` for a keyword that names no field.
        """
        if not self._names.issuperset(fields):
            unknown = set(fields) - self._names
            raise KeyError(
                f"struct {self.name!r} has no fields {sorted(unknown)}"
            )
        return self._encode(self.make(*values, **fields))

    def unpack(self, data: bytes) -> tuple:
        """Decode C-struct bytes into a value tuple."""
        if len(data) != self.size:
            raise ValueError(
                f"struct {self.name!r} expects {self.size} bytes, "
                f"got {len(data)}"
            )
        return self._decode(data)

    def zeros(self) -> bytes:
        return self._zeros

    def __repr__(self) -> str:  # pragma: no cover
        return f"<StructSpec {self.name} {self.size}B, {len(self.fields)} fields>"
