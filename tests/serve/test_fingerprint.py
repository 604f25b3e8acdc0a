"""Workbook fingerprints: stability, sensitivity, and the payload registry."""

from __future__ import annotations

import multiprocessing

from repro.serve import (
    WorkbookRegistry,
    load_payload,
    workbook_fingerprint,
    workbook_payload,
)
from repro.sheet import CellValue, FormatFn

from ..conftest import make_payroll


class TestFingerprint:
    def test_identical_content_identical_fingerprint(self):
        assert make_payroll().fingerprint() == make_payroll().fingerprint()

    def test_clone_preserves_fingerprint(self):
        workbook = make_payroll()
        assert workbook.clone().fingerprint() == workbook.fingerprint()

    def test_value_change_changes_fingerprint(self):
        workbook = make_payroll()
        before = workbook.fingerprint()
        workbook.table("Employees").cell(0, 3).value = CellValue.number(31)
        assert workbook.fingerprint() != before

    def test_format_change_changes_fingerprint(self):
        workbook = make_payroll()
        before = workbook.fingerprint()
        workbook.table("Employees").cell(0, 0).apply_formats(
            [FormatFn("bold", True)]
        )
        assert workbook.fingerprint() != before

    def test_cursor_and_scratch_change_fingerprint(self):
        workbook = make_payroll()
        before = workbook.fingerprint()
        workbook.set_cursor("Z9")
        moved = workbook.fingerprint()
        assert moved != before
        workbook.set_value("Z9", CellValue.number(7))
        assert workbook.fingerprint() != moved

    def test_selection_changes_fingerprint(self):
        workbook = make_payroll()
        before = workbook.fingerprint()
        table = workbook.table("Employees")
        workbook.select_rows(table, [0, 2])
        assert workbook.fingerprint() != before

    def test_fingerprint_is_hex_digest(self):
        fingerprint = make_payroll().fingerprint()
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # parses as hex


class TestPayload:
    def test_round_trip_preserves_fingerprint_and_answers(self):
        workbook = make_payroll()
        twin = load_payload(workbook_payload(workbook))
        assert twin.fingerprint() == workbook.fingerprint()
        assert twin.table("Employees").n_rows == 6
        assert twin.cursor == workbook.cursor

    def test_forked_worker_never_sees_stale_memos(self):
        """Revision counters are per process.  A worker forked while the
        gateway's memos were fresh shares their revision numbers; a
        payload pickled after a later write must not carry those memos
        across, or the worker would be served the pre-write index and
        fingerprint."""
        workbook = make_payroll()
        workbook.columnar_index()
        workbook.fingerprint()
        context = multiprocessing.get_context("fork")
        ours, theirs = context.Pipe()
        worker = context.Process(target=_describe_payload, args=(theirs,))
        worker.start()
        try:
            workbook.table("Employees").cell(0, 0).value = CellValue.text(
                "zoe"
            )
            ours.send_bytes(workbook_payload(workbook))
            assert ours.poll(30), "worker did not answer"
            name, zoe, alice, fingerprint = ours.recv()
        finally:
            worker.join(30)
        assert name == "zoe"
        assert zoe == (("Employees", "name"),)
        assert alice == ()
        assert fingerprint == workbook.fingerprint()

    def test_registry_memoises_payload(self):
        registry = WorkbookRegistry()
        workbook = make_payroll()
        fp1, payload1 = registry.register(workbook)
        fp2, payload2 = registry.register(make_payroll())
        assert fp1 == fp2 == workbook_fingerprint(workbook)
        assert payload1 is payload2  # pickled exactly once
        assert len(registry) == 1
        assert registry.fingerprints == [fp1]

    def test_registry_distinguishes_different_workbooks(self):
        registry = WorkbookRegistry()
        first = make_payroll()
        second = make_payroll()
        second.table("Employees").cell(0, 3).value = CellValue.number(99)
        fp1, _ = registry.register(first)
        fp2, _ = registry.register(second)
        assert fp1 != fp2
        assert len(registry) == 2
        assert registry.payload(fp1) is not None


def _describe_payload(conn) -> None:
    """Forked worker: unpickle a workbook and report what it sees."""
    workbook = load_payload(conn.recv_bytes())
    index = workbook.columnar_index()
    conn.send((
        workbook.table("Employees").cell(0, 0).value.payload,
        index.slots("zoe"),
        index.slots("alice"),
        workbook.fingerprint(),
    ))
    conn.close()
