"""Shared fixtures: the Fig. 1 payroll workbook in miniature, and the
Prometheus exposition linter from ``scripts/``."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.sheet import CellAddress, CellValue, Table, ValueType, Workbook

PAYROLL_HEADER = [
    "name", "location", "title", "hours", "othours",
    "payrate", "otpayrate", "totalpay",
]
PAYROLL_TYPES = [
    ValueType.TEXT, ValueType.TEXT, ValueType.TEXT,
    ValueType.NUMBER, ValueType.NUMBER,
    ValueType.CURRENCY, ValueType.CURRENCY, ValueType.CURRENCY,
]
PAYROLL_ROWS = [
    ["alice", "capitol hill", "barista", 30, 2, 12, 18, 396],
    ["bob", "capitol hill", "chef", 40, 0, 20, 30, 800],
    ["carol", "queen anne", "barista", 25, 5, 12, 18, 390],
    ["dave", "queen anne", "cashier", 18, 0, 11, 16, 198],
    ["erin", "capitol hill", "barista", 35, 4, 12, 18, 492],
    ["frank", "downtown", "chef", 38, 6, 21, 31, 984],
]


def make_payroll() -> Workbook:
    wb = Workbook()
    wb.add_table(
        Table.from_data(
            "Employees", PAYROLL_HEADER, PAYROLL_ROWS, types=PAYROLL_TYPES
        )
    )
    rates = Table.from_data(
        "PayRates",
        ["title", "payrate"],
        [["barista", 12], ["chef", 20], ["cashier", 11]],
        types=[ValueType.TEXT, ValueType.CURRENCY],
    )
    wb.add_table(rates)
    wb.set_cursor(CellAddress.parse("J2"))
    return wb


@pytest.fixture
def payroll() -> Workbook:
    return make_payroll()


@pytest.fixture
def employees(payroll: Workbook) -> Table:
    return payroll.table("Employees")


def cv_text(s: str) -> CellValue:
    return CellValue.text(s)


def cv_num(x) -> CellValue:
    return CellValue.number(x)


def cv_cur(x) -> CellValue:
    return CellValue.currency(x)


def load_check_prom():
    """``scripts/check_prom.py`` as a module (``scripts/`` is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "check_prom",
        Path(__file__).resolve().parents[1] / "scripts" / "check_prom.py",
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("check_prom", module)
    spec.loader.exec_module(module)
    return module
