"""Shared-library wrapper and RTLObject for the RTL cache (Fig. 2a).

The cache RTL stores actual data, so CPU reads served by this object
return bytes that flowed through the hardware model: request in through
the input struct, 512-bit line fills in through the fill lanes, data
word back out through the output struct.
"""

from __future__ import annotations

import importlib.resources
from typing import Optional, TextIO

from ...bridge.rtl_object import RTLObject
from ...bridge.shared_library import RTLSharedLibrary
from ...bridge.structs import Field, StructSpec
from ...hdl.verilog import compile_verilog
from ...soc.event import ClockDomain
from ...soc.packet import Packet
from ...soc.simobject import SimObject, Simulation

LINE_BYTES = 64
FILL_LANES = 8  # 8 x 64-bit words = one 512-bit line

RTLCACHE_INPUT = StructSpec(
    "rtlcache_in",
    [
        Field("req_valid", 1),
        Field("req_write", 1),
        Field("req_addr", 32),
        Field("req_wdata", 64),
        Field("fill_valid", 1),
        Field("fill_data", 64, count=FILL_LANES),
    ],
)

RTLCACHE_OUTPUT = StructSpec(
    "rtlcache_out",
    [
        Field("resp_valid", 1),
        Field("resp_rdata", 64),
        Field("resp_was_hit", 1),
        Field("miss_valid", 1),
        Field("miss_addr", 32),
        Field("wt_valid", 1),
        Field("wt_addr", 32),
        Field("wt_data", 64),
        Field("hits", 32),
        Field("misses", 32),
    ],
)

RTLCACHE_ECC_OUTPUT = StructSpec(
    "rtlcache_ecc_out",
    RTLCACHE_OUTPUT.fields + [Field("corrections", 32)],
)


def load_rtl_cache_source() -> str:
    return (
        importlib.resources.files("repro.models.rtlcache")
        .joinpath("rtl_cache.v")
        .read_text(encoding="utf-8")
    )


def load_rtl_cache_ecc_source() -> str:
    return (
        importlib.resources.files("repro.models.rtlcache")
        .joinpath("rtl_cache_ecc.v")
        .read_text(encoding="utf-8")
    )


class RTLCacheSharedLibrary(RTLSharedLibrary):
    """tick/reset wrapper around the compiled rtl_cache design."""

    input_spec = RTLCACHE_INPUT
    output_spec = RTLCACHE_OUTPUT

    def __init__(
        self,
        idxw: int = 6,
        trace_stream: Optional[TextIO] = None,
        trace_enabled: bool = False,
        backend: str = "codegen",
    ) -> None:
        rtl = compile_verilog(
            load_rtl_cache_source(), top="rtl_cache", params={"IDXW": idxw}
        )
        super().__init__(rtl, trace_stream=trace_stream,
                         trace_enabled=trace_enabled, backend=backend)
        self.lines = 1 << idxw

    #: RTL output signals in output-struct field order
    out_signals: tuple[str, ...] = (
        "resp_valid", "resp_rdata", "resp_was_hit", "miss_valid",
        "miss_addr", "wt_valid", "wt_addr", "wt_data", "hit_count",
        "miss_count",
    )

    def drive(self, inputs: tuple) -> None:
        poke = self.sim.poke
        req_valid, req_write, req_addr, req_wdata, fill_valid, fill_data = (
            inputs[:6]
        )
        poke("req_valid", req_valid)
        poke("req_write", req_write)
        poke("req_addr", req_addr)
        poke("req_wdata", req_wdata)
        poke("fill_valid", fill_valid)
        line = 0
        for i, word in enumerate(fill_data):
            line |= word << (64 * i)
        poke("fill_data", line)

    def collect(self) -> tuple:
        peek = self.sim.peek
        return self.output_spec.make(*[peek(n) for n in self.out_signals])


class RTLCacheECCSharedLibrary(RTLCacheSharedLibrary):
    """tick/reset wrapper around the parity-protected cache variant.

    Same port discipline as the base cache plus a ``corrections``
    counter — a parity mismatch on a read hit refetches the line from
    memory instead of serving corrupted data.
    """

    output_spec = RTLCACHE_ECC_OUTPUT
    out_signals = RTLCacheSharedLibrary.out_signals + ("corrections",)

    def __init__(
        self,
        idxw: int = 6,
        trace_stream: Optional[TextIO] = None,
        trace_enabled: bool = False,
        backend: str = "codegen",
    ) -> None:
        rtl = compile_verilog(
            load_rtl_cache_ecc_source(), top="rtl_cache_ecc",
            params={"IDXW": idxw},
        )
        RTLSharedLibrary.__init__(self, rtl, trace_stream=trace_stream,
                                  trace_enabled=trace_enabled, backend=backend)
        self.lines = 1 << idxw


class RTLCacheObject(RTLObject):
    """Places the RTL cache between a requestor and the memory system.

    cpu_side[0] accepts 8-byte reads/writes; mem_side[0] issues 64-byte
    line fills and 8-byte write-throughs.
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        library: Optional[RTLCacheSharedLibrary] = None,
        clock: Optional[ClockDomain] = None,
        batch_cycles: int = 64,
        parent: Optional[SimObject] = None,
    ) -> None:
        super().__init__(sim, name, library or RTLCacheSharedLibrary(),
                         clock=clock, batch_cycles=batch_cycles, parent=parent)
        self._current: Optional[Packet] = None   # request held at the pins
        self._waiting_fill = False
        self._fill_words: Optional[list[int]] = None
        self.st_rtl_hits = self.stats.formula(
            "rtl_hits", lambda: self.library.sim.peek("hit_count"))
        self.st_rtl_misses = self.stats.formula(
            "rtl_misses", lambda: self.library.sim.peek("miss_count"))
        if "corrections" in self.library.sim.module.signals:
            # parity-protected variant: detected-and-corrected upsets
            self.st_rtl_corrections = self.stats.formula(
                "rtl_corrections",
                lambda: self.library.sim.peek("corrections"))

    # -- struct exchange ---------------------------------------------------

    def idle_cycles(self) -> int:
        """Batch freely while no request, fill or response is in play.

        With ``req_valid``/``fill_valid`` both low the cache RTL holds
        its state, so every intermediate output struct is all-zero and
        skipping it is exact.
        """
        if (self._current is None and not self.cpu_req_queue
                and not self._waiting_fill and self._fill_words is None
                and not self.mem_resp_queue):
            return self.batch_cycles
        return 1

    def _request_pins(self) -> tuple[int, int, int, int]:
        """(req_valid, req_write, req_addr, req_wdata) for the request
        held at the pins (all zero when none is)."""
        pkt = self._current
        if pkt is None:
            return 0, 0, 0, 0
        wdata = 0
        if pkt.is_write and pkt.data is not None:
            wdata = int.from_bytes(pkt.data[:8].ljust(8, b"\0"), "little")
        return 1, int(pkt.is_write), pkt.addr & 0xFFFF_FFFF, wdata

    def _fill_pins(self) -> tuple[int, list]:
        """(fill_valid, fill_data) delivering a pending line fill once."""
        words, self._fill_words = self._fill_words, None
        if words is None:
            return 0, [0] * FILL_LANES
        return 1, words

    def build_input(self) -> tuple:
        if self._current is None and self.cpu_req_queue:
            self._current = self.cpu_req_queue.popleft()
        # Hold the request at the pins until the RTL responds (the cache
        # derives index/tag from req_addr, including at fill time).
        return self.library.input_spec.make(
            *self._request_pins(), *self._fill_pins()
        )

    def consume_output(self, outputs: tuple) -> None:
        (resp_valid, resp_rdata, _was_hit, miss_valid, miss_addr,
         wt_valid, wt_addr, wt_data) = outputs[:8]
        if miss_valid:
            self._waiting_fill = True
            self.send_mem_read(miss_addr, LINE_BYTES)
        if wt_valid:
            self.send_mem_write(
                wt_addr, 8, data=wt_data.to_bytes(8, "little"),
            )
        if resp_valid:
            pkt = self._current
            if pkt is None:
                raise RuntimeError(f"{self.name}: response with no request")
            self._current = None
            self._waiting_fill = False
            if pkt.is_read:
                self.respond_cpu(
                    pkt, resp_rdata.to_bytes(8, "little")[: pkt.size],
                )
            else:
                self.respond_cpu(pkt)

        # deliver a pending fill for the next tick
        while self.mem_resp_queue:
            resp = self.mem_resp_queue.popleft()
            if resp.is_read and resp.size == LINE_BYTES:
                data = resp.data or b"\0" * LINE_BYTES
                self._fill_words = [
                    int.from_bytes(data[8 * i : 8 * i + 8], "little")
                    for i in range(FILL_LANES)
                ]
            # write-through acks need no action
