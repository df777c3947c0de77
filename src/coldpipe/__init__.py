"""Cold-start-aware pipeline scheduling for LLM inference on heterogeneous
wireless edge devices: exact layer-partition/device-assignment optimization,
baseline strategies, timeline simulation, and Gantt rendering."""

from .cost_tables import CostTables, build
from .device_model import DeviceProfile, RadioParams
from .dp_scheduler import Plan, PlanStage, SolveResult, solve
from .errors import (ColdpipeError, ConfigError, InfeasibleError, LimitError,
                     PlanError)
from .experiment import ResultRow, Scenario, run_sweep
from .model_profile import LayerProfile, ModelConfig, build_profiles
from .timeline import Timeline, evaluate

__version__ = "0.1.0"

__all__ = [
    "ColdpipeError", "ConfigError", "CostTables", "DeviceProfile",
    "InfeasibleError", "LayerProfile", "LimitError", "ModelConfig", "Plan",
    "PlanError", "PlanStage", "RadioParams", "ResultRow", "Scenario",
    "SolveResult", "Timeline", "build", "build_profiles", "evaluate",
    "run_sweep", "solve",
]
