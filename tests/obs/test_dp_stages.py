"""``repro.obs.DP_STAGES`` is the one list of the translator's stage names:
the translator's spans, the profile experiment's stages and the repository
benchmark's per-layer metrics all follow it."""

from __future__ import annotations

import ast as pyast
from pathlib import Path

from repro.evalkit.harness import _PROFILE_ORDER, _PROFILE_STAGES
from repro.obs import DP_STAGES, Tracer
from repro.translate import Translator

PERFBENCH_COMMON = (
    Path(__file__).resolve().parents[2] / "perfbench" / "common.py"
)


def _module_constant(path: Path, name: str):
    """The literal value assigned to ``name`` at the top of ``path``, read
    without importing the module."""
    tree = pyast.parse(path.read_text(encoding="utf-8"))
    values = [
        pyast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, pyast.Assign)
        and any(
            isinstance(t, pyast.Name) and t.id == name for t in node.targets
        )
    ]
    assert len(values) == 1, f"{path} assigns {name} {len(values)} times"
    return values[0]


def test_perfbench_stages_are_the_dp_stages():
    assert _module_constant(PERFBENCH_COMMON, "STAGES") == DP_STAGES


def test_translator_times_each_dp_stage(payroll):
    tracer = Tracer()
    Translator(payroll).translate("sum the hours", tracer=tracer)
    names = {
        record["name"] for record in tracer.finished()
        if record["name"].startswith("translate.")
    }
    assert names == {f"translate.{stage}" for stage in DP_STAGES}


def test_profile_reports_each_dp_stage():
    for stage in DP_STAGES:
        assert _PROFILE_STAGES[f"translate.{stage}"] == stage
    assert _PROFILE_ORDER[: len(DP_STAGES)] == DP_STAGES
