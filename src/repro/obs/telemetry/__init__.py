"""The telemetry plane: windowed series, federation, SLOs, tail sampling.

Four cooperating pieces layered on :mod:`repro.obs.metrics`:

* :mod:`~repro.obs.telemetry.windows` — :class:`WindowedHistogram` /
  :class:`WindowedCounter`, exact rate/quantile over the last N seconds;
* :mod:`~repro.obs.telemetry.federation` — :func:`merge_states`, which
  merges shard registries into the cluster's federated ``/metrics`` view;
* :mod:`~repro.obs.telemetry.slo` — declarative :class:`SloSpec` objectives
  with error budgets and multi-window burn-rate alerts (``GET /slo``);
* :mod:`~repro.obs.telemetry.sampler` — the :class:`TailSampler` that keeps
  every error/shed/slow trace plus an ok sample under a hard byte cap.

:class:`TelemetryHub` bundles the windows, the SLO engine and the
sampler behind the one call the serving stack makes: ``observe`` a
finished request.  See docs/OBSERVABILITY.md for the full topology.
"""

from .federation import merge_states
from .hub import TelemetryHub
from .sampler import TailSampler
from .slo import (
    BurnRule,
    DEFAULT_BURN_RULES,
    SloEngine,
    SloSpec,
    default_slos,
)
from .windows import WindowSnapshot, WindowedCounter, WindowedHistogram

__all__ = [
    "BurnRule",
    "DEFAULT_BURN_RULES",
    "SloEngine",
    "SloSpec",
    "TailSampler",
    "TelemetryHub",
    "WindowSnapshot",
    "WindowedCounter",
    "WindowedHistogram",
    "default_slos",
    "merge_states",
]
