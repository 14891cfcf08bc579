"""Qtenon core: controller cache, SLT, pipeline, interfaces, system."""

from repro.core.barrier import MemoryBarrier
from repro.core.config import QtenonConfig
from repro.core.controller import QuantumController, RunResult
from repro.core.executor import ExecutionLog, StreamExecutor
from repro.core.interfaces import (
    BulkTransfer,
    QccInterface,
    ReorderBufferQueue,
    RoccInterface,
    WriteBufferQueue,
)
from repro.core.pipeline import PipelineReport, PipelineWorkItem, PulsePipeline
from repro.core.qcc import (
    PrivateSegmentError,
    PulseRecord,
    QccAddressError,
    QuantumControllerCache,
    ResolvedAddress,
)
from repro.core.scheduler import (
    RunTimeline,
    TransmissionBatch,
    batch_interval,
    compute_run_timeline,
    plan_transmissions,
    shot_record_bytes,
)
from repro.core.serdes import PulseOutputConfig, PulseOutputPath
from repro.core.slt import (
    QSpace,
    SkipLookupTable,
    SltEntry,
    SltLookupResult,
    slt_index,
    slt_tag,
)
from repro.core.system import (
    HOST_PROGRAM_BASE,
    HOST_RESULT_BASE,
    QtenonFeatures,
    QtenonSystem,
)

__all__ = [
    "QtenonConfig",
    "QuantumControllerCache",
    "PulseRecord",
    "ResolvedAddress",
    "QccAddressError",
    "PrivateSegmentError",
    "SkipLookupTable",
    "QSpace",
    "SltEntry",
    "SltLookupResult",
    "slt_tag",
    "slt_index",
    "PulsePipeline",
    "PipelineWorkItem",
    "PipelineReport",
    "RoccInterface",
    "QccInterface",
    "ReorderBufferQueue",
    "WriteBufferQueue",
    "BulkTransfer",
    "MemoryBarrier",
    "TransmissionBatch",
    "RunTimeline",
    "batch_interval",
    "shot_record_bytes",
    "plan_transmissions",
    "compute_run_timeline",
    "PulseOutputPath",
    "PulseOutputConfig",
    "QuantumController",
    "RunResult",
    "StreamExecutor",
    "ExecutionLog",
    "QtenonSystem",
    "QtenonFeatures",
    "HOST_PROGRAM_BASE",
    "HOST_RESULT_BASE",
]
