"""Shared-library wrapper for the NVDLA model (paper Fig. 4).

Mirrors the NVIDIA-provided wrapper classes the paper adapts: a *CSB
wrapper* translating configuration-bus operations, and an *AXI responder
wrapper* whose ideal-memory behaviour is replaced by forwarding requests
to the RTLObject through the output struct (exactly the modification the
paper describes in §4.2).
"""

from __future__ import annotations

from ...bridge.shared_library import BehavioralSharedLibrary
from ...bridge.structs import Field, StructSpec
from .core import NVDLACore

#: max read responses / acks the bridge delivers per accelerator cycle
RESP_LANES = 4
#: max requests the engine can emit per cycle (writes + reads)
REQ_LANES = NVDLACore.REQS_PER_CYCLE

NVDLA_INPUT = StructSpec(
    "nvdla_in",
    [
        Field("csb_valid", 1),
        Field("csb_write", 1),
        Field("csb_addr", 12),
        Field("csb_wdata", 32),
        Field("credit", 8),                 # in-flight budget this cycle
        Field("rd_resp_count", 3),
        Field("rd_resp_seqs", 32, count=RESP_LANES),
        Field("wr_acks", 3),
    ],
)

NVDLA_OUTPUT = StructSpec(
    "nvdla_out",
    [
        Field("csb_rvalid", 1),
        Field("csb_rdata", 32),
        Field("rd_count", 3),
        Field("rd_seqs", 32, count=REQ_LANES),
        Field("rd_addrs", 48, count=REQ_LANES),
        Field("rd_ports", 1, count=REQ_LANES),
        Field("wr_count", 3),
        Field("wr_addrs", 48, count=REQ_LANES),
        Field("irq", 1),
    ],
)


class NVDLASharedLibrary(BehavioralSharedLibrary):
    """tick/reset wrapper around :class:`NVDLACore`."""

    input_spec = NVDLA_INPUT
    output_spec = NVDLA_OUTPUT

    def __init__(self) -> None:
        super().__init__()
        self.core = NVDLACore()

    def reset(self) -> None:
        super().reset()
        self.core.reset()

    def model_state(self) -> dict:
        return self.core.state_dict()

    def load_model_state(self, state: dict) -> None:
        self.core.load_state(state)

    def step(self, inputs: tuple) -> tuple:
        (csb_valid, csb_write, csb_addr, csb_wdata, credit,
         rd_resp_count, rd_resp_seqs, wr_acks) = inputs
        core = self.core

        # CSB wrapper: one operation per cycle, same-cycle read data.
        csb_rvalid = 0
        csb_rdata = 0
        if csb_valid:
            if csb_write:
                core.csb_write(csb_addr, csb_wdata)
            else:
                csb_rdata = core.csb_read(csb_addr)
                csb_rvalid = 1

        # AXI responder wrapper: deliver responses, collect requests.
        result = core.step(credit, rd_resp_seqs[:rd_resp_count], wr_acks)
        reads, writes = result["reads"], result["writes"]
        if len(reads) > REQ_LANES or len(writes) > REQ_LANES:
            raise RuntimeError(
                f"NVDLA core emitted {len(reads)} reads and {len(writes)} "
                f"writes in one cycle; the output struct has {REQ_LANES} "
                "lanes of each"
            )
        if not (reads or writes):
            # most cycles issue nothing: every lane keeps make's zeros
            return self.output_spec.make(csb_rvalid, csb_rdata,
                                         irq=result["irq"])
        rd_pad = [0] * (REQ_LANES - len(reads))
        return self.output_spec.make(
            csb_rvalid,
            csb_rdata,
            len(reads),
            [r[0] for r in reads] + rd_pad,
            [r[1] for r in reads] + rd_pad,
            [r[2] for r in reads] + rd_pad,
            len(writes),
            writes + [0] * (REQ_LANES - len(writes)),
            result["irq"],
        )
