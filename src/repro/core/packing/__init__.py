"""VLIW instruction packing: the SDA algorithm and its baselines."""

from typing import Callable, Dict

from repro.core.packing.cfg import BasicBlock, build_cfg
from repro.core.packing.idg import (
    InstructionDependencyGraph,
    PackingWork,
    build_idg,
    packing_work,
)
from repro.core.packing.sda import (
    SdaConfig,
    pack_best,
    pack_block,
    pack_instructions,
)
from repro.core.packing.baselines import (
    pack_soft_to_hard,
    pack_soft_to_none,
    pack_list_schedule,
)

#: Packer name -> callable registry: ``CompilerOptions.packing`` and
#: the schedule-cache fingerprint identify a packer by name.
PACKERS: Dict[str, Callable] = {
    "sda": pack_best,
    "sda_pure": pack_instructions,
    "soft_to_hard": pack_soft_to_hard,
    "soft_to_none": pack_soft_to_none,
    "list": pack_list_schedule,
}


def configured_packer(
    name: str, sda_config: "SdaConfig" = None, machine=None
) -> Callable:
    """A packer callable specialized to an :class:`SdaConfig` and target.

    The registry's bare callables embed the paper's default ``w``/``p``
    and resolve the process-default machine; the autotuner needs to
    vary the former and multi-target compiles the latter.  Only the
    SDA-family packers consume the config — the baselines ignore it by
    construction — while every packer takes the machine description.
    """
    if name not in PACKERS:
        raise KeyError(f"unknown packer {name!r}")
    config = sda_config or SdaConfig()
    if config == SdaConfig() and machine is None:
        return PACKERS[name]
    if name == "sda":
        return lambda body: pack_best(
            body,
            w=config.w,
            soft_penalty=config.soft_penalty,
            machine=machine,
        )
    if name == "sda_pure":
        return lambda body: pack_instructions(body, config, machine)
    if name == "soft_to_hard":
        return lambda body: pack_soft_to_hard(body, machine=machine)
    if name == "soft_to_none":
        return lambda body: pack_soft_to_none(body, machine=machine)
    return lambda body: pack_list_schedule(body, machine=machine)
from repro.core.packing.evaluate import schedule_summary
from repro.core.packing.swp import (
    PipelinedSchedule,
    modulo_schedule,
    pipelined_speedup,
)

__all__ = [
    "BasicBlock",
    "build_cfg",
    "InstructionDependencyGraph",
    "build_idg",
    "PACKERS",
    "PackingWork",
    "packing_work",
    "SdaConfig",
    "configured_packer",
    "pack_best",
    "pack_block",
    "pack_instructions",
    "pack_soft_to_hard",
    "pack_soft_to_none",
    "pack_list_schedule",
    "schedule_summary",
    "PipelinedSchedule",
    "modulo_schedule",
    "pipelined_speedup",
]
