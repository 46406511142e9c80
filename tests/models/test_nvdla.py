"""NVDLA engine + wrapper: CSB, streaming, credits, completion."""

import pytest

from repro.models.nvdla import NVDLACore, NVDLASharedLibrary
from repro.models.nvdla.wrapper import REQ_LANES, RESP_LANES
from repro.models.nvdla.core import (
    LayerConfig,
    NVDLA_ID_VALUE,
    REG_BLOCKS_PER_OUT,
    REG_COMPUTE_X16,
    REG_ID,
    REG_IN_BLOCKS,
    REG_IN_ADDR_LO,
    REG_IRQ_CLEAR,
    REG_OP_ENABLE,
    REG_OUT_ADDR_LO,
    REG_PERF_CYCLES,
    REG_PERF_STALLS,
    REG_STATUS,
    REG_W_BLOCKS,
)


def configured_core(in_blocks=32, w_blocks=4, compute_x16=16,
                    blocks_per_out=4, sram=0) -> NVDLACore:
    core = NVDLACore()
    core.cfg = LayerConfig(
        in_addr=0x1000_0000, w_addr=0x2000_0000, out_addr=0x3000_0000,
        in_blocks=in_blocks, w_blocks=w_blocks, compute_x16=compute_x16,
        blocks_per_out=blocks_per_out, sram_mode=sram,
    )
    core.csb_write(REG_OP_ENABLE, 1)
    return core


def outputs(lib, out: tuple) -> dict:
    """An output tuple keyed by field name."""
    return {f.name: value for f, value in zip(lib.output_spec, out)}


def run_zero_latency(core: NVDLACore, credit=255, max_cycles=100_000) -> int:
    """Drive the engine with an ideal testbench; returns busy cycles."""
    pending: list[int] = []
    cycles = 0
    while core.busy and cycles < max_cycles:
        out = core.step(credit, pending, wr_acks=0)
        pending = [r[0] for r in out["reads"]]
        core._writes_acked = core._writes_issued
        cycles += 1
    assert not core.busy, "engine did not finish"
    return cycles


class TestCSB:
    def test_id_register(self):
        assert NVDLACore().csb_read(REG_ID) == NVDLA_ID_VALUE

    def test_status_busy_and_irq_bits(self):
        core = configured_core()
        assert core.csb_read(REG_STATUS) & 1 == 1
        run_zero_latency(core)
        status = core.csb_read(REG_STATUS)
        assert status & 1 == 0 and status & 2 == 2
        core.csb_write(REG_IRQ_CLEAR, 1)
        assert core.csb_read(REG_STATUS) == 0

    def test_register_writes_readable(self):
        core = NVDLACore()
        core.csb_write(REG_IN_ADDR_LO, 0x1234_0000)
        core.csb_write(REG_IN_BLOCKS, 77)
        assert core.csb_read(REG_IN_ADDR_LO) == 0x1234_0000
        assert core.csb_read(REG_IN_BLOCKS) == 77

    def test_doorbell_with_no_work_rejected(self):
        core = NVDLACore()
        with pytest.raises(ValueError):
            core.csb_write(REG_OP_ENABLE, 1)


class TestStreaming:
    def test_reads_cover_all_blocks_in_order(self):
        core = configured_core(in_blocks=10, w_blocks=3)
        seqs = []
        pending = []
        while core.busy:
            out = core.step(255, pending, wr_acks=0)
            seqs.extend(r[0] for r in out["reads"])
            pending = [r[0] for r in out["reads"]]
            core._writes_acked = core._writes_issued
        assert seqs == list(range(13))

    def test_weights_then_activations_addressing(self):
        core = configured_core(in_blocks=2, w_blocks=2)
        out = core.step(255, [], 0)
        (s0, a0, p0), (s1, a1, p1) = out["reads"]
        assert a0 == 0x2000_0000 and a1 == 0x2000_0040  # weights first
        out = core.step(255, [0, 1], 0)
        (s2, a2, _), (s3, a3, _) = out["reads"]
        assert a2 == 0x1000_0000 and a3 == 0x1000_0040

    def test_sram_mode_routes_activations_to_port1(self):
        core = configured_core(in_blocks=2, w_blocks=1, sram=1)
        out = core.step(255, [], 0)
        ports = [r[2] for r in out["reads"]]
        assert ports[0] == 0      # weight via DBBIF
        assert ports[1] == 1      # activation via SRAMIF

    def test_output_write_count(self):
        core = configured_core(in_blocks=16, w_blocks=0, blocks_per_out=4)
        writes = []
        pending = []
        while core.busy:
            out = core.step(255, pending, wr_acks=0)
            writes.extend(out["writes"])
            pending = [r[0] for r in out["reads"]]
            core._writes_acked = core._writes_issued
        assert len(writes) == 4
        assert writes[0] == 0x3000_0000 and writes[1] == 0x3000_0040

    def test_completion_requires_write_acks(self):
        core = configured_core(in_blocks=4, w_blocks=0)
        pending = []
        for _ in range(1000):
            out = core.step(255, pending, wr_acks=0)
            pending = [r[0] for r in out["reads"]]
            if not core.busy:
                break
        assert core.busy  # writes never acked -> still busy
        core.step(255, [], wr_acks=core._writes_issued)
        assert not core.busy


class TestComputeRate:
    def test_cycles_scale_with_compute_intensity(self):
        fast = configured_core(in_blocks=256, compute_x16=16)
        slow = configured_core(in_blocks=256, compute_x16=64)
        t_fast = run_zero_latency(fast)
        t_slow = run_zero_latency(slow)
        assert 3.0 < t_slow / t_fast < 5.0

    def test_sub_cycle_consumption(self):
        """compute_x16 < 16 consumes more than one block per cycle."""
        core = configured_core(in_blocks=256, compute_x16=8)
        cycles = run_zero_latency(core)
        assert cycles < 256

    def test_perf_counters_published(self):
        core = configured_core(in_blocks=32)
        run_zero_latency(core)
        assert core.csb_read(REG_PERF_CYCLES) > 0
        assert core.csb_read(REG_PERF_STALLS) <= core.csb_read(REG_PERF_CYCLES)


class TestCredits:
    def test_zero_credit_issues_nothing(self):
        core = configured_core()
        out = core.step(0, [], 0)
        assert out["reads"] == [] and out["writes"] == []

    def test_credit_one_serializes(self):
        core = configured_core(in_blocks=8, w_blocks=0, blocks_per_out=100)
        total = 0
        pending = []
        for _ in range(200):
            out = core.step(1, pending, 0)
            assert len(out["reads"]) + len(out["writes"]) <= 1
            total += len(out["reads"])
            pending = [r[0] for r in out["reads"]]
            core._writes_acked = core._writes_issued
            if not core.busy:
                break
        assert total == 8

    def test_low_credit_slower_than_high(self):
        # compute faster than 1 block/cycle so a 1-credit stream starves
        t_low = run_zero_latency(
            configured_core(in_blocks=128, compute_x16=8), credit=1)
        t_high = run_zero_latency(
            configured_core(in_blocks=128, compute_x16=8), credit=255)
        assert t_low > 1.5 * t_high


class TestWrapper:
    def test_struct_roundtrip_through_wrapper(self):
        lib = NVDLASharedLibrary()
        lib.reset()
        # configure via CSB struct traffic
        for addr, value in (
            (REG_IN_ADDR_LO, 0x1000), (REG_OUT_ADDR_LO, 0x2000),
            (REG_IN_BLOCKS, 4), (REG_W_BLOCKS, 0),
            (REG_COMPUTE_X16, 16), (REG_OP_ENABLE, 1),
        ):
            lib.tick(lib.input_spec.make(
                csb_valid=1, csb_write=1, csb_addr=addr, csb_wdata=value
            ))
        assert lib.core.busy
        # run with generous credit, acking everything
        irq_seen = False
        pending: list[int] = []
        for _ in range(200):
            out = outputs(lib, lib.tick(lib.input_spec.make(
                credit=255,
                rd_resp_count=min(len(pending), 4),
                rd_resp_seqs=(pending + [0] * 4)[:4],
                wr_acks=min(lib.core._writes_issued - lib.core._writes_acked, 7),
            )))
            pending = [out["rd_seqs"][i] for i in range(out["rd_count"])]
            if out["irq"]:
                irq_seen = True
                break
        assert irq_seen

    def test_csb_read_through_wrapper(self):
        lib = NVDLASharedLibrary()
        lib.reset()
        out = outputs(lib, lib.tick(lib.input_spec.make(
            csb_valid=1, csb_write=0, csb_addr=REG_ID
        )))
        assert out["csb_rvalid"] == 1
        assert out["csb_rdata"] == NVDLA_ID_VALUE

    def test_write_burst_reaches_the_bridge_in_full(self):
        """Eight queued writes meet credit 8: every write the core issues
        must appear in the output struct, and the layer must complete."""
        lib = NVDLASharedLibrary()
        lib.reset()
        make = lib.input_spec.make
        for addr, value in (
            (REG_IN_ADDR_LO, 0x1000), (REG_OUT_ADDR_LO, 0x8000),
            (REG_IN_BLOCKS, 16), (REG_W_BLOCKS, 0),
            (REG_COMPUTE_X16, 1), (REG_BLOCKS_PER_OUT, 1),
            (REG_OP_ENABLE, 1),
        ):
            lib.tick(make(csb_valid=1, csb_write=1, csb_addr=addr,
                          csb_wdata=value))
        seqs: list[int] = []
        while len(seqs) < 16:
            out = outputs(lib, lib.tick(make(credit=16)))
            seqs += out["rd_seqs"][:out["rd_count"]]
        # every read returns while the bridge grants no credit: compute
        # fills the write queue to its depth
        while seqs:
            lanes, seqs = seqs[:RESP_LANES], seqs[RESP_LANES:]
            lib.tick(make(credit=0, rd_resp_count=len(lanes),
                          rd_resp_seqs=lanes + [0] * (RESP_LANES - len(lanes))))
        assert len(lib.core._writes_pending) == NVDLACore.WRITE_QUEUE_DEPTH

        issued = lib.core._writes_issued
        out = outputs(lib, lib.tick(make(credit=8)))
        assert out["wr_count"] == lib.core._writes_issued - issued
        assert 0 < out["wr_count"] <= REQ_LANES

        written = set(out["wr_addrs"][:out["wr_count"]])
        acks = out["wr_count"]
        for _ in range(100):
            out = outputs(lib, lib.tick(make(credit=8, wr_acks=min(acks, 7))))
            acks -= min(acks, 7)
            acks += out["wr_count"]
            written.update(out["wr_addrs"][:out["wr_count"]])
            if out["irq"]:
                break
        assert out["irq"], "layer never completed"
        assert written == {0x8000 + 64 * i for i in range(16)}

    def test_wrapper_rejects_more_requests_than_lanes(self, monkeypatch):
        lib = NVDLASharedLibrary()
        lib.reset()
        burst = {"reads": [], "writes": [0] * (REQ_LANES + 1), "irq": 0}
        monkeypatch.setattr(lib.core, "step", lambda *args: burst)
        with pytest.raises(RuntimeError, match="lanes"):
            lib.tick(lib.input_spec.make(credit=8))
