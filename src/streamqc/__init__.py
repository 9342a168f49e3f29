"""Windowed data quality monitoring for record streams.

The engine consumes a stream of timestamped records, groups them into
event-time windows, applies quality checks per window, and emits a stream of
quality records (the meta-stream) describing what it found. Everything is
deterministic: the same input and config produce byte-identical output.
"""

from .model import (
    CheckDefinition,
    ColumnSpec,
    ContextSpec,
    MeasureSpec,
    MetaRecord,
    ModelError,
    Predicate,
    ReferenceSpec,
    ReferenceTable,
    StreamElement,
    Threshold,
    Value,
    ValueRange,
    WindowInstance,
    WindowSpec,
    parse_duration,
    parse_ts,
    ts,
)
from .config import ConfigError, SuiteConfig, load_config, parse_config
from .measures import EngineEnv, MeasureResult, apply_measure
from .monitor import (
    ContextState,
    DeadStreamSpec,
    DetectorSpecs,
    FrozenColumnSpec,
    MonitorEngine,
    SuiteState,
)
from .windowing import PaneStore, RouteOutcome, Watermark

__version__ = "0.1.0"

__all__ = [
    "CheckDefinition", "ColumnSpec", "ConfigError", "ContextSpec",
    "ContextState", "DeadStreamSpec", "DetectorSpecs", "EngineEnv",
    "FrozenColumnSpec", "MeasureResult", "MeasureSpec", "MetaRecord",
    "ModelError", "MonitorEngine", "PaneStore", "Predicate",
    "ReferenceSpec", "ReferenceTable", "RouteOutcome", "StreamElement",
    "SuiteConfig", "SuiteState", "Threshold", "Value", "ValueRange",
    "Watermark", "WindowInstance", "WindowSpec", "apply_measure",
    "load_config", "parse_config", "parse_duration", "parse_ts",
    "ts", "__version__",
]
