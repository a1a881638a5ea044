"""TDMA multi-hop LoRa MAC protocol model, simulator, and planner.

The package has three layers:

* ``phy`` and ``timebase``: LoRa time-on-air arithmetic and drifting
  tick-quantized node clocks.
* ``protocol`` and ``engine``: the executable MAC model (frame schedule,
  join, forwarding, beacon resynchronization) driven by a deterministic
  discrete-event simulator.
* ``planner``: closed-form dimensioning of frame length, duty cycle and
  mean power draw for a planned deployment.
"""

from .phy import RadioParams, lorawan_time_on_air, symbol_time, time_on_air
from .timebase import (
    GuardConfig,
    VirtualClock,
    local_tick_duration,
    min_guard,
    resync,
    ticks_to_global,
)
from .protocol import (
    FrameSchedule,
    MacPacket,
    NodeState,
    PacketKind,
    SlotTiming,
    build_schedule,
)
from .planner import (
    PlanError,
    PowerProfile,
    app_period,
    check_capacity,
    duty_cycle_estimate,
    mean_power,
    min_app_period,
    recommend_frame,
)
from .scenario import Scenario, load_scenario
from .engine import (
    SimulationTrace,
    Transmission,
    deliver,
    measure_avg_power,
    measure_duty_cycle,
    measure_sync_error,
    run,
    sync_pairs,
    write_trace_csvs,
)

__all__ = [
    "RadioParams",
    "symbol_time",
    "time_on_air",
    "lorawan_time_on_air",
    "VirtualClock",
    "GuardConfig",
    "local_tick_duration",
    "ticks_to_global",
    "resync",
    "min_guard",
    "PacketKind",
    "MacPacket",
    "SlotTiming",
    "FrameSchedule",
    "NodeState",
    "build_schedule",
    "PowerProfile",
    "PlanError",
    "app_period",
    "mean_power",
    "check_capacity",
    "duty_cycle_estimate",
    "min_app_period",
    "recommend_frame",
    "Scenario",
    "load_scenario",
    "Transmission",
    "SimulationTrace",
    "run",
    "deliver",
    "measure_sync_error",
    "measure_duty_cycle",
    "measure_avg_power",
    "sync_pairs",
    "write_trace_csvs",
]

__version__ = "0.1.0"
