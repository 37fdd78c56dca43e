"""Unit tests for CellReport/GridReport and the ambient collector."""

from repro.guard import (
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_RETRIED,
    STATUS_TIMED_OUT,
    CellReport,
    GridReport,
    record_report,
    reporting,
)


def _sample_report():
    return GridReport(
        name="g",
        cells=[
            CellReport(index=0, config="(1,)", status=STATUS_OK, attempts=1),
            CellReport(
                index=1,
                config="(2,)",
                status=STATUS_RETRIED,
                attempts=2,
                retries=1,
                crashes=1,
            ),
            CellReport(
                index=2,
                config="(3,)",
                status=STATUS_QUARANTINED,
                attempts=1,
                error="Traceback...\nValueError: poisoned",
            ),
            CellReport(
                index=3,
                config="(4,)",
                status=STATUS_TIMED_OUT,
                attempts=3,
                retries=2,
                timeouts=3,
            ),
        ],
        pool_rebuilds=2,
    )


def test_grid_report_accounting():
    report = _sample_report()
    assert report.n_cells == 4
    assert report.n_ok == 1
    assert report.n_retried == 1
    assert report.n_quarantined == 1
    assert report.n_timed_out == 1
    assert report.total_retries == 3
    assert report.total_timeouts == 3
    assert report.total_crashes == 1
    assert not report.ok
    assert [c.index for c in report.failed_cells()] == [2, 3]


def test_cell_ok_property():
    assert CellReport(0, "c", status=STATUS_OK).ok
    assert CellReport(0, "c", status=STATUS_RETRIED).ok
    assert not CellReport(0, "c", status=STATUS_QUARANTINED).ok
    assert not CellReport(0, "c", status=STATUS_TIMED_OUT).ok


def test_render_names_every_non_clean_cell():
    text = _sample_report().render()
    assert "GridReport[g]" in text
    assert "2 pool rebuilds" in text
    # Clean cell 0 is omitted; the three interesting ones appear.
    assert "cell 0" not in text
    assert "cell 1" in text and "retried" in text
    assert "cell 2" in text and "ValueError: poisoned" in text
    assert "cell 3" in text and "timed_out" in text


def test_render_flags_serial_fallback():
    report = GridReport(name="g", serial_fallback=True)
    assert "[serial fallback]" in report.render()


def test_reporting_collects_and_restores():
    record_report(GridReport(name="dropped"))  # no collector → dropped

    with reporting() as outer:
        record_report(GridReport(name="a"))
        with reporting() as inner:
            record_report(GridReport(name="b"))
        record_report(GridReport(name="c"))

    assert [r.name for r in outer] == ["a", "c"]
    assert [r.name for r in inner] == ["b"]


def test_as_dict_round_trips_fields():
    cell = CellReport(
        index=5,
        config="(9,)",
        status=STATUS_RETRIED,
        attempts=2,
        retries=1,
        crashes=1,
        from_journal=False,
        error=None,
    )
    d = cell.as_dict()
    assert d["index"] == 5
    assert d["status"] == STATUS_RETRIED
    assert d["retries"] == 1
    assert d["crashes"] == 1
    assert d["from_journal"] is False
