"""Dual-issue pipelined CPU model with module-activation recording."""

from repro.cpu.alu import branch_taken, execute_alu, execute_alu64, execute_imm
from repro.cpu.core import (
    CORE_MODEL_A,
    CORE_MODEL_B,
    CORE_MODEL_C,
    DCACHE_CONFIG,
    ICACHE_CONFIG,
    Core,
    CoreModel,
)
from repro.cpu.fetch import FetchUnit
from repro.cpu.forwarding import Resolution, resolve_register
from repro.cpu.hazard import can_dual_issue
from repro.cpu.icu import Icu, IcuConfig, IcuRecognition
from repro.cpu.injection import DataBitFault, SelectFault, clear, install
from repro.cpu.memunit import MemoryUnit
from repro.cpu.recording import (
    ActivationLog,
    ForwardingRecord,
    FwdSource,
    HdcuRecord,
    IcuRecord,
)
from repro.cpu.state import RegFile
from repro.cpu.trace import render_pipeline_diagram, trace_rows
from repro.cpu.uop import Uop

__all__ = [
    "branch_taken",
    "execute_alu",
    "execute_alu64",
    "execute_imm",
    "CORE_MODEL_A",
    "CORE_MODEL_B",
    "CORE_MODEL_C",
    "DCACHE_CONFIG",
    "ICACHE_CONFIG",
    "Core",
    "CoreModel",
    "FetchUnit",
    "Resolution",
    "resolve_register",
    "can_dual_issue",
    "Icu",
    "IcuConfig",
    "IcuRecognition",
    "DataBitFault",
    "SelectFault",
    "clear",
    "install",
    "MemoryUnit",
    "ActivationLog",
    "ForwardingRecord",
    "FwdSource",
    "HdcuRecord",
    "IcuRecord",
    "RegFile",
    "render_pipeline_diagram",
    "trace_rows",
    "Uop",
]
