"""The shared-library wrapper contract (paper §3.3).

A shared library bundles the Verilator/GHDL-generated model with a
wrapper exposing exactly two entry points to gem5:

* ``tick(inputs) -> outputs`` — advance the model one of *its* clock
  cycles, fed by an input struct, producing an output struct;
* ``reset()`` — reset the modelled hardware.

:class:`SharedLibrary` is that contract.  :class:`RTLSharedLibrary` is
the common implementation for models compiled by our HDL frontends: it
owns the :class:`~repro.rtl.RTLSimulator`, supports waveform tracing
with runtime enable/disable (Table 2's knob), and leaves two hooks —
``drive``/``collect`` — for the model-specific wrapper (PMU, NVDLA, …)
to move struct fields onto RTL pins and back.

Structs cross this boundary as value tuples built by
:meth:`~repro.bridge.structs.StructSpec.make` (one masked int per field
in spec order, a tuple for an array field), the in-process analogue of
the paper's pointer to a C struct: no bytes are packed per tick.
"""

from __future__ import annotations

import abc
from typing import Optional, TextIO

from ..rtl.kernel import RTLModule
from ..rtl.simulator import RTLSimulator
from ..rtl.vcd import VCDWriter
from .structs import StructSpec


class SharedLibrary(abc.ABC):
    """The two-function boundary between gem5 and any RTL model."""

    #: struct layouts; subclasses must define both.
    input_spec: StructSpec
    output_spec: StructSpec

    @abc.abstractmethod
    def tick(self, inputs: tuple) -> tuple:
        """Advance the model one cycle of its own clock: *inputs* is an
        ``input_spec`` value tuple, the result an ``output_spec`` one."""

    def tick_batch(self, inputs: tuple, cycles: int) -> tuple:
        """Advance *cycles* clock cycles holding one input struct steady.

        Semantically identical to calling :meth:`tick` *cycles* times
        with the same inputs and discarding all but the last output — the
        caller (an RTLObject whose I/O is quiescent) guarantees the
        intermediate outputs are ignorable.  The default implementation
        does exactly that; RTL-backed libraries override it with a fused
        batch that drives the pins once.
        """
        if cycles < 1:
            raise ValueError(f"cannot batch {cycles} cycles")
        for _ in range(cycles):
            out = self.tick(inputs)
        return out

    @abc.abstractmethod
    def reset(self) -> None:
        """Reset the modelled hardware."""

    # -- checkpointing (a Verilator feature the paper calls out) ------------

    def checkpoint_state(self) -> dict:
        """JSON-able snapshot of the model's full state."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )

    def load_checkpoint_state(self, state: dict) -> None:
        """Restore a :meth:`checkpoint_state` snapshot."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support checkpointing"
        )


class RTLSharedLibrary(SharedLibrary):
    """Wrapper base for models produced by the HDL toolflows.

    Subclasses implement:

    * :meth:`drive` — move the input tuple's fields onto RTL inputs
      (via ``self.sim.poke``);
    * :meth:`collect` — read RTL outputs into an output tuple
      (``self.output_spec.make(...)``).
    """

    #: name of the design's reset input (asserted by :meth:`reset`)
    reset_signal: str = "rst"

    def __init__(
        self,
        module: RTLModule,
        trace_stream: Optional[TextIO] = None,
        trace_enabled: bool = False,
        backend: str = "codegen",
    ) -> None:
        trace = None
        if trace_stream is not None:
            trace = VCDWriter(module, stream=trace_stream, enabled=trace_enabled)
            # follow the global trace switch (--trace-start/--trace-end)
            from ..trace.control import register_vcd

            register_vcd(trace)
        self.module = module
        self.sim = RTLSimulator(module, trace=trace, backend=backend)
        self.ticks = 0

    # -- waveform control (runtime toggling, as in the paper) ---------------

    @property
    def tracing(self) -> bool:
        return self.sim.trace is not None and self.sim.trace.enabled

    def enable_waveforms(self) -> None:
        if self.sim.trace is None:
            raise RuntimeError(
                "no trace stream was configured for this shared library"
            )
        self.sim.trace.enable()

    def disable_waveforms(self) -> None:
        if self.sim.trace is not None:
            self.sim.trace.disable()

    # -- the contract -----------------------------------------------------------

    def tick(self, inputs: tuple) -> tuple:
        self.drive(inputs)
        self.sim.settle()
        self.sim.tick()
        self.ticks += 1
        return self.collect()

    def tick_batch(self, inputs: tuple, cycles: int) -> tuple:
        """Fused batch: drive/collect once, run all cycles inside
        the RTL kernel (one generated loop on the codegen backend).

        Equivalent to *cycles* sequential :meth:`tick` calls with the
        same input: re-driving identical pin values and re-settling an
        already-settled netlist are no-ops, so only the final collect
        differs — which is exactly what the caller asked for.
        """
        if cycles < 1:
            raise ValueError(f"cannot batch {cycles} cycles")
        self.drive(inputs)
        self.sim.settle()
        self.sim.run_cycles(cycles)
        self.ticks += cycles
        return self.collect()

    def reset(self) -> None:
        self.sim.reset(self.reset_signal)
        self.ticks = 0

    # -- checkpointing (a Verilator feature the paper calls out) ------------

    def save_checkpoint(self):
        """Snapshot the RTL model's full state."""
        ckpt = self.sim.save_checkpoint()
        return (ckpt, self.ticks)

    def restore_checkpoint(self, checkpoint) -> None:
        ckpt, ticks = checkpoint
        self.sim.restore_checkpoint(ckpt)
        self.ticks = ticks

    def checkpoint_state(self) -> dict:
        ckpt, ticks = self.save_checkpoint()
        return {
            "cycle": ckpt.cycle,
            "values": list(ckpt.values),
            "mems": [list(m) for m in ckpt.mems],
            "ticks": ticks,
        }

    def load_checkpoint_state(self, state: dict) -> None:
        from ..rtl.simulator import RTLCheckpoint

        ckpt = RTLCheckpoint(
            cycle=state["cycle"],
            values=list(state["values"]),
            mems=[list(m) for m in state["mems"]],
        )
        self.restore_checkpoint((ckpt, state["ticks"]))

    # -- model-specific hooks ------------------------------------------------------

    @abc.abstractmethod
    def drive(self, inputs: tuple) -> None:
        """Apply an input value tuple to the RTL model's input signals."""

    @abc.abstractmethod
    def collect(self) -> tuple:
        """Read the RTL model's outputs into an output value tuple."""


class BehavioralSharedLibrary(SharedLibrary):
    """Wrapper base for cycle-level behavioural models (no HDL kernel).

    Used for large IP where gate-level simulation is impractical in this
    substrate (our NVDLA-class accelerator).  Subclasses implement
    :meth:`step` with the same tick-in/tick-out semantics.
    """

    def __init__(self) -> None:
        self.ticks = 0

    def tick(self, inputs: tuple) -> tuple:
        outputs = self.step(inputs)
        self.ticks += 1
        return outputs

    @abc.abstractmethod
    def step(self, inputs: tuple) -> tuple:
        """Advance one cycle on an input value tuple; return the output
        value tuple (``self.output_spec.make(...)``)."""

    def reset(self) -> None:
        self.ticks = 0

    # -- checkpointing ------------------------------------------------------

    def model_state(self) -> dict:
        """JSON-able model-specific state (override per model)."""
        return {}

    def load_model_state(self, state: dict) -> None:
        if state:
            raise NotImplementedError(
                f"{type(self).__name__} checkpointed model state but "
                "does not implement load_model_state"
            )

    def checkpoint_state(self) -> dict:
        return {"ticks": self.ticks, "model": self.model_state()}

    def load_checkpoint_state(self, state: dict) -> None:
        self.ticks = state["ticks"]
        self.load_model_state(state["model"])
