"""CSV ingestion, series derivation, and the batch analysis drivers."""

import csv
import hashlib
import io
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from currsub import coint, model, pipeline, unitroot
from currsub.errors import (
    CurrsubError,
    DataError,
    DegeneracyError,
    IngestionError,
    ParameterError,
)
from currsub.model import DgpNoise, TrendCoefficients, simulate_dgp
from currsub.pipeline import (
    SCHEMA_EUR_FX,
    SCHEMA_EUR_LEI,
    Dataset,
    DerivedSeries,
    MonteCarloConfig,
    PipelineConfig,
    build_report,
    dataset_csv_text,
    dataset_rows_from_simulation,
    derive_series,
    ingest,
    ingest_rows,
    render_delta_path_csv,
    render_report,
    run_estimation,
    run_montecarlo,
    run_unit_roots,
    write_dataset_csv,
)
from currsub.series import MonthStamp, MonthlySeries

TABLE_COEFFS = TrendCoefficients(
    v0=-0.037619, v1=-0.012215, v2=0.000042, sigma=0.201694
)
NOISE = DgpNoise(spread_sd=0.05, rho=0.5, eps_sd=0.05)
START = MonthStamp(2001, 9)
CONFIG = PipelineConfig()

CSV_FX = """date,m_dom,m_eur,fx,i_dom,i_eur
2001-09,100.0,20.0,2.5,34.0,4.0
2001-10,102.0,21.0,2.6,33.0,4.1
2001-11,101.0,22.0,2.7,32.0,4.2
"""

CSV_LEI = """date,m_dom,m_eur_lei,i_dom,i_eur
2001-09,100.0,50.0,34.0,4.0
2001-10,102.0,54.6,33.0,4.1
2001-11,101.0,59.4,32.0,4.2
"""


def derived_from_sim(sim):
    return DerivedSeries(
        log_money_ratio=sim.log_money_ratio,
        oc_spread_log=sim.oc_spread_log,
    )


class TestIngest:
    def test_fx_schema(self):
        rows, schema = ingest_rows(CSV_FX)
        assert schema == "m_eur_fx"
        assert len(rows) == 3
        assert rows.start == MonthStamp(2001, 9)
        assert rows.fx[0] == 2.5

    def test_lei_schema_fixes_fx_at_one(self):
        rows, schema = ingest_rows(CSV_LEI)
        assert schema == "m_eur_lei"
        assert all(row.fx == 1.0 for row in rows)
        assert rows.m_eur[1] == 54.6

    def test_column_order_free(self):
        shuffled = (
            "fx,i_eur,date,m_dom,i_dom,m_eur\n"
            "2.5,4.0,2001-09,100.0,34.0,20.0\n"
        )
        rows, schema = ingest_rows(shuffled)
        assert schema == "m_eur_fx"
        assert rows.m_eur.tolist() == [20.0]

    def test_unsorted_rows_are_sorted(self):
        scrambled = CSV_FX.splitlines()
        text = "\n".join([scrambled[0], scrambled[3], scrambled[1], scrambled[2]]) + "\n"
        rows, _ = ingest_rows(text)
        assert [str(r.date) for r in rows] == ["2001-09", "2001-10", "2001-11"]

    def test_month_gap_names_missing_month(self):
        text = (
            "date,m_dom,m_eur,fx,i_dom,i_eur\n"
            "2001-09,100.0,20.0,2.5,34.0,4.0\n"
            "2001-11,101.0,22.0,2.7,32.0,4.2\n"
        )
        with pytest.raises(IngestionError, match="2001-10"):
            ingest_rows(text)

    def test_duplicate_month_rejected(self):
        text = (
            "date,m_dom,m_eur,fx,i_dom,i_eur\n"
            "2001-09,100.0,20.0,2.5,34.0,4.0\n"
            "2001-09,101.0,22.0,2.7,32.0,4.2\n"
        )
        with pytest.raises(IngestionError, match="duplicate"):
            ingest_rows(text)

    def test_zero_money_stock_names_row(self):
        text = CSV_FX.replace("2001-10,102.0", "2001-10,0.0")
        with pytest.raises(IngestionError, match="2001-10"):
            ingest_rows(text)

    def test_rate_below_floor_rejected(self):
        text = CSV_FX.replace("34.0", "-99.5")
        with pytest.raises(IngestionError, match="-99"):
            ingest_rows(text)

    def test_padded_header_names_parse_like_plain(self):
        header, body = CSV_FX.split("\n", 1)
        padded = ", ".join(f" {name}" for name in header.split(",")) + " \n" + body
        assert ingest_rows(padded) == ingest_rows(CSV_FX)

    def test_repeated_column_rejected(self):
        header, body = CSV_FX.split("\n", 1)
        text = header + ",i_eur\n" + body.replace("\n", ",9.9\n")
        message = "repeated columns in header: ['i_eur']"
        with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
            ingest_rows(text)

    def test_unknown_header_rejected(self):
        with pytest.raises(IngestionError, match="header"):
            ingest_rows("date,a,b\n2001-09,1,2\n")

    def test_bad_date_names_line(self):
        text = CSV_FX.replace("2001-10", "2001-13")
        with pytest.raises(IngestionError, match="line 3"):
            ingest_rows(text)

    def test_unparseable_number_rejected(self):
        text = CSV_FX.replace("2.6", "abc")
        with pytest.raises(IngestionError, match="fx"):
            ingest_rows(text)

    def test_ragged_row_rejected(self):
        text = CSV_FX + "2001-12,1.0,2.0\n"
        with pytest.raises(IngestionError, match="fields"):
            ingest_rows(text)

    def test_refused_row_named_by_physical_line(self):
        # Blank lines are skipped but still counted: the short row is line 6.
        text = CSV_FX.rsplit("\n", 2)[0] + "\n\n\n2001-11,101.0,22.0\n"
        message = "line 6: wrong number of fields"
        with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
            ingest_rows(text)

    def test_empty_input_rejected(self):
        with pytest.raises(IngestionError, match="empty"):
            ingest_rows("")
        with pytest.raises(IngestionError, match="no data"):
            ingest_rows("date,m_dom,m_eur,fx,i_dom,i_eur\n")

    def test_file_digest_and_missing_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(CSV_FX)
        result = ingest(str(path))
        assert result.schema == "m_eur_fx"
        assert result.digest.startswith("sha256:")
        assert len(result.digest) == len("sha256:") + 64
        with pytest.raises(IngestionError, match="cannot read"):
            ingest(str(tmp_path / "absent.csv"))

    def test_bom_and_crlf_copies_estimate_identically(self, tmp_path):
        plain = dataset_csv_text(
            dataset_rows_from_simulation(simulate_dgp(TABLE_COEFFS, 171, NOISE, 25))
        ).encode("utf-8")
        copies = {
            "plain": plain,
            "bom": b"\xef\xbb\xbf" + plain,
            "crlf": plain.replace(b"\n", b"\r\n"),
            "cr": plain.replace(b"\n", b"\r"),
        }
        rows, bodies, digests = {}, {}, set()
        for name, raw in copies.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(raw)
            ingested = ingest(str(path))
            assert ingested.digest == "sha256:" + hashlib.sha256(raw).hexdigest()
            digests.add(ingested.digest)
            derived = derive_series(ingested.rows, CONFIG)
            doc = build_report(
                CONFIG,
                ingested,
                unit_roots=run_unit_roots(derived, CONFIG),
                estimation=run_estimation(derived, CONFIG),
            )
            del doc["input_digest"]
            rows[name] = ingested.rows
            bodies[name] = render_report(doc, "json")
        assert len(digests) == 4
        assert rows["bom"] == rows["plain"] == rows["crlf"] == rows["cr"]
        assert bodies["bom"] == bodies["plain"] == bodies["crlf"] == bodies["cr"]


def _csv(columns, records, newline="\n", pad=""):
    """CSV text of ``records`` (dicts of raw strings) in ``columns`` order."""
    lines = [",".join(f"{pad}{name}{pad}" for name in columns)]
    lines += [",".join(f"{pad}{rec[name]}{pad}" for name in columns) for rec in records]
    return newline.join(lines) + newline


@st.composite
def _datasets(draw):
    """(columns, records): a valid contiguous monthly dataset as raw strings."""
    columns = draw(st.sampled_from([SCHEMA_EUR_FX, SCHEMA_EUR_LEI]))
    start = MonthStamp(draw(st.integers(1990, 2030)), draw(st.integers(1, 12)))
    positive = st.floats(1e-3, 1e12).map(repr)
    rate = st.floats(-98.0, 500.0).map(repr)
    records = []
    for k in range(draw(st.integers(3, 8))):
        rec = {"date": str(start.shift(k))}
        for name in columns[1:]:
            rec[name] = draw(rate if name.startswith("i_") else positive)
        records.append(rec)
    return columns, records


_PROPERTY_SETTINGS = settings(
    max_examples=40, derandomize=True, deadline=None, database=None
)


class TestIngestProperties:
    @_PROPERTY_SETTINGS
    @given(data=_datasets(), layout=st.data())
    def test_layout_does_not_change_rows(self, data, layout):
        columns, records = data
        expected = ingest_rows(_csv(columns, records))
        text = _csv(
            layout.draw(st.permutations(columns)),
            layout.draw(st.permutations(records)),
            newline=layout.draw(st.sampled_from(["\n", "\r\n"])),
            pad=layout.draw(st.sampled_from(["", " ", "  "])),
        )
        assert ingest_rows(text) == expected

    @_PROPERTY_SETTINGS
    @given(data=_datasets(), layout=st.data())
    def test_blank_lines_do_not_change_rows(self, data, layout):
        columns, records = data
        expected = ingest_rows(_csv(columns, records))
        newline = layout.draw(st.sampled_from(["\n", "\r\n"]))
        lines = _csv(columns, records, newline).split(newline)[:-1]
        blanks = layout.draw(st.lists(st.integers(0, 2), min_size=len(lines),
                                      max_size=len(lines)))
        text = "".join(line + newline * (1 + extra) for line, extra in zip(lines, blanks))
        assert ingest_rows(text) == expected

    @_PROPERTY_SETTINGS
    @given(data=_datasets(), pick=st.data())
    def test_wrong_field_count_names_physical_line(self, data, pick):
        columns, records = data
        k = pick.draw(st.integers(0, len(records) - 1))
        lines = _csv(columns, records).splitlines()
        line = lines[k + 1]
        bad = line + ",1.0" if pick.draw(st.booleans()) else line.rsplit(",", 1)[0]
        blanks = pick.draw(st.integers(0, 3))
        # Blank lines before the bad row are skipped but still counted.
        lines[k + 1 : k + 2] = [""] * blanks + [bad]
        message = f"line {k + 2 + blanks}: wrong number of fields"
        with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
            ingest_rows("\n".join(lines) + "\n")

    @_PROPERTY_SETTINGS
    @given(data=_datasets(), pick=st.data())
    def test_gap_named(self, data, pick):
        columns, records = data
        k = pick.draw(st.integers(1, len(records) - 2))
        before, missing, after = (records[j]["date"] for j in (k - 1, k, k + 1))
        message = f"gap in months: missing {missing} between {before} and {after}"
        with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
            ingest_rows(_csv(columns, records[:k] + records[k + 1 :]))

    @_PROPERTY_SETTINGS
    @given(data=_datasets(), pick=st.data())
    def test_duplicate_month_named(self, data, pick):
        columns, records = data
        k = pick.draw(st.integers(0, len(records) - 1))
        message = f"duplicate month {records[k]['date']}"
        with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
            ingest_rows(_csv(columns, records + [dict(records[k])]))

    @_PROPERTY_SETTINGS
    @given(data=_datasets(), pick=st.data())
    def test_non_finite_value_named(self, data, pick):
        columns, records = data
        k = pick.draw(st.integers(0, len(records) - 1))
        name = pick.draw(st.sampled_from(columns[1:]))
        records[k][name] = pick.draw(st.sampled_from(["nan", "inf", "-inf", "NaN"]))
        field = "m_eur" if name == "m_eur_lei" else name
        message = f"{records[k]['date']}: {field} is not finite"
        with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
            ingest_rows(_csv(columns, records))

    @_PROPERTY_SETTINGS
    @given(data=_datasets(), pick=st.data())
    def test_non_positive_stock_named(self, data, pick):
        columns, records = data
        k = pick.draw(st.integers(0, len(records) - 1))
        name = pick.draw(st.sampled_from([c for c in columns if c.startswith("m_")]))
        records[k][name] = repr(pick.draw(st.floats(-1e6, 0.0)))
        message = f"{records[k]['date']}: money stocks must be > 0"
        with pytest.raises(IngestionError, match=f"^{re.escape(message)}$"):
            ingest_rows(_csv(columns, records))


@dataclass(frozen=True)
class _ReferenceRow:
    """The row record the per-row ingest below builds, with its checks."""

    date: MonthStamp
    m_dom: float
    m_eur: float
    fx: float
    i_dom: float
    i_eur: float

    def __post_init__(self):
        for name in SCHEMA_EUR_FX[1:]:
            if not math.isfinite(float(getattr(self, name))):
                raise IngestionError(f"{self.date}: {name} is not finite")
        if self.m_dom <= 0.0 or self.m_eur <= 0.0:
            raise IngestionError(f"{self.date}: money stocks must be > 0")
        if self.fx <= 0.0:
            raise IngestionError(f"{self.date}: exchange rate must be > 0")
        for name in ("i_dom", "i_eur"):
            if getattr(self, name) <= -99.0:
                raise IngestionError(f"{self.date}: {name} below -99% per annum")


def _reference_ingest_rows(text):
    """CSV ingestion one record at a time, each parsed into a checked row
    object, then sorted and checked for contiguity: the form that
    ``ingest_rows`` replaces, kept as its oracle."""
    reader = csv.reader(io.StringIO(text, newline=None))

    def records():
        try:
            for values in reader:
                yield reader.line_num, values
        except csv.Error as exc:
            raise IngestionError(f"line {reader.line_num}: {exc}") from None

    records = records()
    _, names = next(records, (0, None))
    if names is None:
        raise IngestionError("empty input: no header row")
    header = tuple(name.strip() for name in names)
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise IngestionError(f"repeated columns in header: {repeated}")
    if set(header) == set(SCHEMA_EUR_FX):
        schema, order = "m_eur_fx", ("m_eur", "fx", "m_dom", "i_dom", "i_eur")
    elif set(header) == set(SCHEMA_EUR_LEI):
        schema, order = "m_eur_lei", ("m_eur_lei", "m_dom", "i_dom", "i_eur")
    else:
        raise IngestionError(
            f"header {header} matches neither {SCHEMA_EUR_FX} nor {SCHEMA_EUR_LEI}"
        )
    column = {name: k for k, name in enumerate(header)}
    months = []
    for line, values in records:
        if not values:
            continue
        if len(values) != len(header):
            raise IngestionError(f"line {line}: wrong number of fields")
        raw_date = values[column["date"]].strip()
        try:
            date = MonthStamp.parse(raw_date)
        except DataError as exc:
            raise IngestionError(f"line {line}: {exc}") from None
        parsed = {}
        for name in order:
            raw = values[column[name]]
            try:
                parsed[name] = float(raw)
            except ValueError:
                raise IngestionError(f"{raw_date}: cannot parse {name}={raw!r}") from None
        if schema == "m_eur_lei":
            parsed["m_eur"], parsed["fx"] = parsed.pop("m_eur_lei"), 1.0
        months.append((date.index, _ReferenceRow(date, **parsed)))
    if not months:
        raise IngestionError("no data rows")
    months.sort(key=lambda pair: pair[0])
    for (prev_index, prev), (index, cur) in zip(months, months[1:]):
        if index == prev_index:
            raise IngestionError(f"duplicate month {cur.date}")
        if index != prev_index + 1:
            raise IngestionError(
                f"gap in months: missing {prev.date.shift(1)} between {prev.date} and {cur.date}"
            )
    return tuple(row for _, row in months), schema


def _row_tuples(rows):
    """Each row's month and the float.hex of its values, so -0.0 and 0.0 differ."""
    return [(str(row.date), *(float(getattr(row, c)).hex() for c in SCHEMA_EUR_FX[1:]))
            for row in rows]


# Per kind of defect, the raw values it may put in a field of one record;
# "fields", "duplicate" and "gap" change the record itself.
_DEFECTS = {
    "date": ["2001-13", "01-2001", "", "2001-1", "2001-00", " 2001/01 ", " 1999-13"],
    "parse": ["abc", "", "1..2", "0x10"],
    "nonfinite": ["nan", "inf", "-inf", "NaN"],
    "stock": ["0", "-5.5", "-0.0"],
    "fx": ["0", "-1"],
    "rate": ["-99", "-150.25"],
    "fields": [],
    "duplicate": [],
    "gap": [],
}


def _explicit_records(columns, start=MonthStamp(2001, 11), months=6):
    """Six valid months from ``start`` as raw strings, in month order."""
    values = {"m_dom": "100.5", "m_eur": "20.25", "m_eur_lei": "50.75", "fx": "2.5",
              "i_dom": "-0.0", "i_eur": "4.125"}
    return [{"date": str(start.shift(k)), **{name: values[name] for name in columns[1:]}}
            for k in range(months)]


def _dated(columns, records, dates):
    """The file of ``records`` with their dates replaced by ``dates``."""
    return _csv(columns, [{**rec, "date": date} for rec, date in zip(records, dates)]).encode()


def _extra_field(columns, records):
    lines = _csv(columns, records).split("\n")
    lines[3] += ",1.0"
    return "\n".join(lines).encode()


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")

# Layouts of a file of six months, each from (columns, records) to its bytes.
_LAYOUTS = {
    "plain": lambda cols, recs: _csv(cols, recs).encode(),
    "shuffled": lambda cols, recs: _csv(cols, [recs[k] for k in (3, 0, 5, 1, 4, 2)]).encode(),
    "blank line": lambda cols, recs: _csv(cols, recs).replace("\n", "\n\n", 3).encode(),
    "cr": lambda cols, recs: _csv(cols, recs, newline="\r").encode(),
    "crlf and bom": lambda cols, recs: b"\xef\xbb\xbf" + _csv(cols, recs, "\r\n").encode(),
    "padded dates": lambda cols, recs: _dated(cols, recs, [f"  {r['date']} " for r in recs]),
    "quoted dates": lambda cols, recs: _dated(cols, recs, [f'"{r["date"]}"' for r in recs]),
    "2001-9": lambda cols, recs: _dated(
        cols, recs, ["2001-07", "2001-08", "2001-9", "2001-10", "2001-11", "2001-12"]),
    "arabic-indic dates": lambda cols, recs: _dated(
        cols, recs, [r["date"].translate(_ARABIC_INDIC) for r in recs]),
    "duplicate month": lambda cols, recs: _csv(cols, recs[:4] + recs[3:5]).encode(),
    "gap": lambda cols, recs: _csv(cols, recs[:2] + recs[3:]).encode(),
    "extra field": _extra_field,
    "past 9999-12": lambda cols, recs: _dated(
        cols, recs, ["9999-09", "9999-10", "9999-11", "9999-12", "10000-01", "10000-02"]),
}

# Defects as (record, column position, text), position None for an extra
# field: two in the third record (within a record the field count, then the
# date, then the values in parse order name the refusal), or a field past
# csv's 131,072-character limit before or after another record's defect.
_HUGE = "1" * 131_073
_DEFECT_SETS = {
    "fields and date": [(2, 0, "2002-13"), (2, None, "")],
    "date and value": [(2, 0, "2002-13"), (2, -1, "abc")],
    "value and row rule": [(2, 1, "0"), (2, -1, "abc")],
    "values m_dom and euro stock": [(2, 1, "abc"), (2, 2, "")],
    "values m_dom and column 3": [(2, 1, "abc"), (2, 3, "")],
    "values i_dom and i_eur": [(2, -2, "abc"), (2, -1, "")],
    "row rule, then oversized": [(1, 1, "0"), (4, -1, _HUGE)],
    "value, then oversized": [(1, -2, "abc"), (4, 1, _HUGE)],
    "fields, then oversized": [(1, None, ""), (4, 1, _HUGE)],
    "oversized, then row rule": [(1, -2, _HUGE), (4, 1, "0")],
}


def _defective(changes, order):
    """The layout of six months with ``changes`` made, their records in ``order``."""
    def layout(columns, records):
        for k, position, text in changes:
            if position is None:
                records[k][columns[-1]] += ",1.0"
            else:
                records[k][columns[position]] = text
        return _csv(columns, [records[k] for k in order]).encode()
    return layout


_LAYOUTS.update({f"{name}{suffix}": _defective(changes, order)
                 for name, changes in _DEFECT_SETS.items()
                 for suffix, order in (("", range(6)), (", shuffled", (3, 0, 5, 1, 4, 2)))})

# Field texts whose float() value or refusal NumPy's str parse must repeat.
_EXPLICIT_VALUES = ["1_0", " 1.5", "+inf", "nan", "1e400", "-0", "0x1p3", "",
                    "١٢", "١٢.٥"]


def _ingest_outcome(raw):
    """``ingest``'s rows (months and float.hex) and schema, or its refusal."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as handle:
            handle.write(raw)
        try:
            result = ingest(path)
        except CurrsubError as exc:
            return type(exc), str(exc)
    return _row_tuples(result.rows), result.schema


def _reference_outcome(raw):
    try:
        rows, schema = _reference_ingest_rows(raw.decode("utf-8-sig"))
    except CurrsubError as exc:
        return type(exc), str(exc)
    return _row_tuples(rows), schema


class TestIngestMatchesRowByRowReference:
    @_PROPERTY_SETTINGS
    @given(data=_datasets(), pick=st.data())
    def test_two_defects_shuffled(self, data, pick):
        columns, records = data
        kinds = [kind for kind in _DEFECTS if kind != "fx" or "fx" in columns]
        first, second = pick.draw(st.lists(st.sampled_from(kinds), min_size=2, max_size=2,
                                           unique=True))
        rows = pick.draw(st.lists(st.integers(0, len(records) - 1), min_size=2, max_size=2,
                                  unique=True))
        extra = {}  # record id -> extra field (True) or a dropped last field (False)
        for kind, k in zip((first, second), rows):
            rec = records[k]
            if kind == "date":
                rec["date"] = pick.draw(st.sampled_from(_DEFECTS[kind]))
            elif kind == "fields":
                extra[id(rec)] = pick.draw(st.booleans())
            elif kind in ("duplicate", "gap"):
                continue
            else:
                names = {
                    "stock": [c for c in columns if c.startswith("m_")],
                    "fx": ["fx"],
                    "rate": ["i_dom", "i_eur"],
                }.get(kind, list(columns[1:]))
                rec[pick.draw(st.sampled_from(names))] = pick.draw(
                    st.sampled_from(_DEFECTS[kind])
                )
        for kind, k in zip((first, second), rows):
            if kind == "duplicate":
                records.append(dict(records[k]))
        gaps = [records[k] for kind, k in zip((first, second), rows) if kind == "gap"]
        records = [rec for rec in records if all(rec is not gap for gap in gaps)]
        records = pick.draw(st.permutations(records))
        newline = pick.draw(st.sampled_from(["\n", "\r\n"]))
        lines = [",".join(columns)]
        for rec in records:
            fields = [rec[name] for name in columns]
            if id(rec) in extra:
                fields = fields + ["1.0"] if extra[id(rec)] else fields[:-1]
            lines.append(",".join(fields))
        raw = (newline.join(lines) + newline).encode()
        if pick.draw(st.booleans()):
            raw = b"\xef\xbb\xbf" + raw

        def outcome(run):
            try:
                rows, schema = run()
            except CurrsubError as exc:
                return type(exc), str(exc)
            return _row_tuples(rows), schema

        expected = outcome(lambda: _reference_ingest_rows(raw.decode("utf-8-sig")))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "wb") as handle:
                handle.write(raw)
            got = outcome(lambda: (lambda r: (r.rows, r.schema))(ingest(path)))
        assert got == expected

    @_PROPERTY_SETTINGS
    @given(data=_datasets(), layout=st.data())
    def test_valid_files_give_the_reference_rows(self, data, layout):
        columns, records = data
        text = _csv(
            layout.draw(st.permutations(columns)),
            layout.draw(st.permutations(records)),
            newline=layout.draw(st.sampled_from(["\n", "\r\n", "\r"])),
        )
        rows, schema = ingest_rows(text)
        reference, reference_schema = _reference_ingest_rows(text)
        assert schema == reference_schema
        assert _row_tuples(rows) == _row_tuples(reference)
        assert rows.start == reference[0].date and len(rows) == len(reference)

    @pytest.mark.parametrize("columns", [SCHEMA_EUR_FX, SCHEMA_EUR_LEI])
    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    def test_layout_gives_the_reference_outcome(self, columns, layout):
        raw = _LAYOUTS[layout](columns, _explicit_records(columns))
        assert _ingest_outcome(raw) == _reference_outcome(raw)

    @pytest.mark.parametrize("columns", [SCHEMA_EUR_FX, SCHEMA_EUR_LEI])
    @pytest.mark.parametrize("value", _EXPLICIT_VALUES)
    def test_value_gives_the_reference_outcome(self, columns, value):
        # The value in each value column of the third month of a file in month
        # order: NumPy's column parse must give float()'s bits or refusal.
        for name in columns[1:]:
            records = _explicit_records(columns)
            records[2][name] = value
            raw = _csv(columns, records).encode()
            assert _ingest_outcome(raw) == _reference_outcome(raw)


class TestDataset:
    def _columns(self):
        return {"m_dom": [100.0, 102.0], "m_eur": [20.0, 21.0], "fx": [2.5, 2.6],
                "i_dom": [34.0, 33.0], "i_eur": [4.0, 4.1]}

    def test_columns_are_copied_and_read_only(self):
        columns = {name: np.array(values) for name, values in self._columns().items()}
        data = Dataset(START, **columns)
        columns["m_dom"][0] = -1.0
        assert data.m_dom.tolist() == [100.0, 102.0]
        with pytest.raises(ValueError):
            data.fx[0] = 1.0

    def test_rows_equality_and_length(self):
        data = Dataset(START, **self._columns())
        assert len(data) == 2
        assert [tuple(row) for row in data] == [
            (START, 100.0, 20.0, 2.5, 34.0, 4.0),
            (START.shift(1), 102.0, 21.0, 2.6, 33.0, 4.1),
        ]
        assert data == Dataset(START, **self._columns())
        assert data != Dataset(START.shift(1), **self._columns())
        assert data != Dataset(START, **{**self._columns(), "fx": [2.5, 2.7]})

    def test_first_month_breaking_a_rule_is_refused(self):
        columns = {**self._columns(), "fx": [2.5, 0.0], "i_eur": [-99.0, 4.1]}
        with pytest.raises(IngestionError, match="^2001-09: i_eur below -99% per annum$"):
            Dataset(START, **columns)
        with pytest.raises(IngestionError, match="^2001-10: exchange rate must be > 0$"):
            Dataset(START, **{**columns, "i_eur": [4.0, 4.1]})

    def test_ragged_columns_refused(self):
        with pytest.raises(DataError, match="1-D and of one length"):
            Dataset(START, **{**self._columns(), "m_eur": [20.0]})


class TestDeriveSeries:
    def test_balanced_stocks_zero_log_ratio(self):
        text = (
            "date,m_dom,m_eur,fx,i_dom,i_eur\n"
            "2001-09,50.0,20.0,2.5,34.0,4.0\n"
            "2001-10,52.0,20.8,2.5,33.0,4.1\n"
        )
        rows, _ = ingest_rows(text)
        derived = derive_series(rows, CONFIG)
        assert np.abs(derived.log_money_ratio.values).max() < 1e-12

    def test_equal_rates_zero_spread(self):
        text = (
            "date,m_dom,m_eur,fx,i_dom,i_eur\n"
            "2001-09,50.0,20.0,2.5,7.0,7.0\n"
            "2001-10,52.0,20.8,2.5,6.0,6.0\n"
        )
        rows, _ = ingest_rows(text)
        derived = derive_series(rows, CONFIG)
        assert np.abs(derived.oc_spread_log.values).max() < 1e-12

    def test_hand_worked_costs(self):
        rows, _ = ingest_rows(CSV_FX)
        derived = derive_series(rows, CONFIG)
        # 2001-09's monthly opportunity costs (i + phi)/(1 + i), domestic
        # at 34% a year and euro at 4%, each with the 1% holding cost.
        phi = 1.01 ** (1 / 12) - 1
        oc = [(i + phi) / (1 + i) for i in (1.34 ** (1 / 12) - 1, 1.04 ** (1 / 12) - 1)]
        assert oc == pytest.approx([0.024901, 0.004090], abs=1e-5)
        assert derived.oc_spread_log.values[0] == pytest.approx(
            math.log(oc[0] / oc[1]), rel=1e-12
        )
        assert derived.oc_spread_log.values[0] == pytest.approx(1.8063, abs=1e-3)
        assert derived.log_money_ratio.values[0] == pytest.approx(
            math.log(2.5 * 20.0 / 100.0), abs=1e-12
        )

    def test_calendar_propagates(self):
        rows, _ = ingest_rows(CSV_FX)
        derived = derive_series(rows, CONFIG)
        for s in (derived.log_money_ratio, derived.oc_spread_log):
            assert s.start == MonthStamp(2001, 9)
            assert len(s) == 3

    def test_nonpositive_cost_names_date(self):
        # A deeply negative rate with a tiny phi drives oc below zero.
        config = PipelineConfig(phi_annual=0.0001)
        text = CSV_FX.replace("2001-10,102.0,21.0,2.6,33.0", "2001-10,102.0,21.0,2.6,-55.0")
        rows, _ = ingest_rows(text)
        from currsub.errors import SeriesDomainError

        with pytest.raises(SeriesDomainError, match="2001-10"):
            derive_series(rows, config)


class TestRunUnitRoots:
    def test_grid_shape(self):
        for seed in range(4):
            sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, seed)
            runs = run_unit_roots(derived_from_sim(sim), CONFIG)
            assert len(runs) == 8
            names = [(r.series, r.report.test, r.report.spec) for r in runs]
            assert len(set(names)) == 8
            assert {r.series for r in runs} == {"log_money_ratio", "oc_spread_log"}
            assert {r.report.test for r in runs} == {"ADF", "PP"}
            for run in runs:
                rep = run.report
                cvs = [rep.critical_values[level] for level in ("1%", "5%", "10%")]
                assert cvs[0] < cvs[1] < cvs[2]
                assert 0.0 <= rep.approx_p_value <= 1.0
                assert rep.reject_at == {
                    level: rep.statistic < cv for level, cv in rep.critical_values.items()
                }

    def test_random_walk_dataset_fails_to_reject_everywhere(self):
        rng = np.random.default_rng(0)
        y = MonthlySeries(START, np.cumsum(rng.standard_normal(171)) * 0.05)
        x = MonthlySeries(START, np.cumsum(rng.standard_normal(171)) * 0.05)
        runs = run_unit_roots(DerivedSeries(y, x), CONFIG)
        assert all(not r.report.reject_at["5%"] for r in runs)

    def test_white_noise_dataset_rejects_everywhere(self):
        rng = np.random.default_rng(0)
        y = MonthlySeries(START, rng.standard_normal(171) * 0.05)
        x = MonthlySeries(START, rng.standard_normal(171) * 0.05)
        runs = run_unit_roots(DerivedSeries(y, x), CONFIG)
        assert all(r.report.reject_at["5%"] for r in runs)

    def test_refusal_is_the_first_cell_of_the_lone_grid(self):
        # The spread is constant, so its ADF refuses: oc_spread_log's first
        # cell, grid cell 5. A bandwidth longer than the sample makes the log
        # money ratio's PP refuse first, in grid cell 3, though the ADF runs
        # of both series come before any PP run.
        rng = np.random.default_rng(0)
        y = MonthlySeries(START, np.cumsum(rng.standard_normal(171)) * 0.05)
        x = MonthlySeries(START, np.full(171, 1.7))
        with pytest.raises(DegeneracyError):
            unitroot.adf_test(x, unitroot.INTERCEPT)
        message = "bandwidth 1000 too large for 170 residuals"
        with pytest.raises(DataError, match=f"^{message}$"):
            run_unit_roots(DerivedSeries(y, x), PipelineConfig(bandwidth=1000))

    def test_grid_equals_the_lone_runs(self):
        for seed, config in ((0, CONFIG), (1, PipelineConfig(lags=2, bandwidth=6)), (2, CONFIG)):
            derived = derived_from_sim(simulate_dgp(TABLE_COEFFS, 171, NOISE, seed))
            lone = [
                (name, test(getattr(derived, name), spec, **settings))
                for name in ("log_money_ratio", "oc_spread_log")
                for test, settings in (
                    (unitroot.adf_test, {"lags": config.lags, "max_lags": config.max_lags}),
                    (unitroot.pp_test, {"bandwidth": config.bandwidth}),
                )
                for spec in unitroot.DETERMINISTIC_KINDS
            ]
            runs = run_unit_roots(derived, config)
            assert [(run.series, run.report) for run in runs] == lone
            assert [run.report.statistic.hex() for run in runs] == [
                report.statistic.hex() for _, report in lone
            ]

    def test_fixed_lag_config_respected(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 1)
        runs = run_unit_roots(derived_from_sim(sim), PipelineConfig(lags=2, bandwidth=6))
        for run in runs:
            if run.report.test == "ADF":
                assert run.report.lags_or_bandwidth == 2
            else:
                assert run.report.lags_or_bandwidth == 6


class TestRunEstimation:
    def test_delta_ratio_path_minimum_recovered(self):
        # Estimation noise moves the recovered minimum by double-digit
        # percentages; this frozen draw sits well inside the +-30% band.
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 25)
        est = run_estimation(derived_from_sim(sim), CONFIG)
        assert float(np.min(est.delta_ratio.values)) == pytest.approx(
            0.01015, rel=0.30
        )

    def test_delta_and_ratio_consistent(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 25)
        est = run_estimation(derived_from_sim(sim), CONFIG)
        implied = 1.0 / (1.0 + est.delta_ratio.values)
        assert np.abs(est.delta.values - implied).max() < 1e-12
        assert est.delta_ratio.start == sim.log_money_ratio.start
        assert len(est.delta_ratio) == 171

    def test_correlation_in_range(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 25)
        est = run_estimation(derived_from_sim(sim), CONFIG)
        assert -1.0 <= est.correlation <= 1.0

    def test_zero_variance_spread_degenerate(self):
        y = MonthlySeries(START, np.linspace(0.0, 1.0, 40))
        x = MonthlySeries(START, np.full(40, 1.7))
        with pytest.raises(DegeneracyError):
            run_estimation(DerivedSeries(y, x), CONFIG)

    def test_short_sample_rejected(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 2)
        short = DerivedSeries(
            MonthlySeries(START, sim.log_money_ratio.values[:29]),
            MonthlySeries(START, sim.oc_spread_log.values[:29]),
        )
        with pytest.raises(DataError, match="at least 30"):
            run_estimation(short, CONFIG)

    def test_nonpositive_fitted_sigma_degenerate(self):
        # This draw estimates a slightly negative sigma; the share path
        # is undefined there and must fail as a degeneracy, not a crash.
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 3)
        with pytest.raises(DegeneracyError, match="sigma"):
            run_estimation(derived_from_sim(sim), CONFIG)

    def test_trend_origin_changes_only_labels(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 25)
        base = run_estimation(derived_from_sim(sim), CONFIG)
        moved = run_estimation(
            derived_from_sim(sim),
            PipelineConfig(trend_origin=START.shift(-12)),
        )
        assert moved.fmols.params["sigma"] == pytest.approx(
            base.fmols.params["sigma"], rel=1e-8
        )
        assert moved.fmols.r_squared == pytest.approx(base.fmols.r_squared, abs=1e-8)
        assert moved.fmols.lc_statistic == pytest.approx(
            base.fmols.lc_statistic, rel=1e-8
        )
        assert np.abs(moved.delta_ratio.values - base.delta_ratio.values).max() < 1e-8


class TestPipelineConfig:
    @pytest.mark.parametrize("name", ["lags", "max_lags", "bandwidth"])
    def test_negative_setting_refused(self, name):
        with pytest.raises(ParameterError, match=f"^{name} must be >= 0, got -1$"):
            PipelineConfig(**{name: -1})


class TestRunMonteCarlo:
    def test_summary_key_order(self):
        mc = MonteCarloConfig(n_seeds=10, n_obs=120, coeffs=TABLE_COEFFS, noise=NOISE)
        summary = run_montecarlo(mc)
        assert list(summary) == [
            "n_seeds",
            "n_obs",
            "seed_base",
            "truth",
            "noise",
            "estimates",
            "lc_reject_at_10pct",
            "adf_spread_reject_at_5pct",
            "adf_eps_reject_at_5pct",
        ]
        assert list(summary["truth"].items()) == [
            ("v0", TABLE_COEFFS.v0),
            ("v1", TABLE_COEFFS.v1),
            ("v2", TABLE_COEFFS.v2),
            ("sigma", TABLE_COEFFS.sigma),
        ]
        assert list(summary["noise"].items()) == [
            ("spread_sd", NOISE.spread_sd),
            ("rho", NOISE.rho),
            ("eps_sd", NOISE.eps_sd),
        ]
        assert list(summary["estimates"]) == ["v0", "v1", "v2", "sigma"]

    def test_summary_contents(self):
        mc = MonteCarloConfig(n_seeds=20, n_obs=171, coeffs=TABLE_COEFFS, noise=NOISE)
        summary = run_montecarlo(mc)
        assert summary["n_seeds"] == 20
        assert set(summary["estimates"]) == {"v0", "v1", "v2", "sigma"}
        for stats in summary["estimates"].values():
            assert set(stats) == {"median", "iqr"}
        assert 0.0 <= summary["lc_reject_at_10pct"] <= 1.0

    def test_deterministic_given_seed_base(self):
        mc = MonteCarloConfig(n_seeds=10, n_obs=171, coeffs=TABLE_COEFFS, noise=NOISE)
        assert run_montecarlo(mc) == run_montecarlo(mc)

    def test_seed_base_shifts_draws(self):
        a = run_montecarlo(
            MonteCarloConfig(n_seeds=10, n_obs=171, coeffs=TABLE_COEFFS, noise=NOISE)
        )
        b = run_montecarlo(
            MonteCarloConfig(
                n_seeds=10, n_obs=171, coeffs=TABLE_COEFFS, noise=NOISE, seed_base=99
            )
        )
        assert a["estimates"]["sigma"]["median"] != b["estimates"]["sigma"]["median"]

    def test_too_few_seeds_rejected(self):
        with pytest.raises(ParameterError, match="n_seeds"):
            MonteCarloConfig(n_seeds=5, n_obs=171, coeffs=TABLE_COEFFS, noise=NOISE)

    def test_tiny_sample_propagates_data_error(self):
        mc = MonteCarloConfig(n_seeds=10, n_obs=10, coeffs=TABLE_COEFFS, noise=NOISE)
        with pytest.raises(DataError):
            run_montecarlo(mc)


class TestSyntheticDataset:
    def test_round_trip_reproduces_series(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 7)
        rows = dataset_rows_from_simulation(sim)
        assert len(rows) == 171
        text = dataset_csv_text(rows)
        rows2, schema = ingest_rows(text)
        assert schema == "m_eur_fx"
        derived = derive_series(rows2, CONFIG)
        assert np.abs(
            derived.log_money_ratio.values - sim.log_money_ratio.values
        ).max() < 1e-9
        assert np.abs(
            derived.oc_spread_log.values - sim.oc_spread_log.values
        ).max() < 1e-8

    def test_round_trip_estimation_within_tolerance(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 7)
        direct = coint.fmols(sim.log_money_ratio, sim.oc_spread_log)
        rows2, _ = ingest_rows(dataset_csv_text(dataset_rows_from_simulation(sim)))
        again = run_estimation(derive_series(rows2, CONFIG), CONFIG).fmols
        for name in direct.params:
            assert again.params[name] == pytest.approx(
                direct.params[name], abs=1e-9
            )

    def test_write_dataset_csv(self, tmp_path):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 8)
        rows = dataset_rows_from_simulation(sim)
        path = tmp_path / "sim.csv"
        write_dataset_csv(rows, str(path))
        back = ingest(str(path)).rows
        assert [r.date for r in back] == [r.date for r in rows]
        for a, b in zip(back, rows):
            for name in ("m_dom", "m_eur", "fx", "i_dom", "i_eur"):
                assert getattr(a, name) == pytest.approx(
                    getattr(b, name), rel=1e-11
                )

    def test_extreme_spread_rejected(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 9)
        big = MonthlySeries(
            sim.oc_spread_log.start, sim.oc_spread_log.values + 12.0
        )
        bloated = model.SimulatedDgp(
            log_money_ratio=sim.log_money_ratio,
            oc_spread_log=big,
            eps=sim.eps,
        )
        with pytest.raises(DataError, match="spread too large"):
            dataset_rows_from_simulation(bloated)


class TestReportRendering:
    def _full_report(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 25)
        rows = dataset_rows_from_simulation(sim)
        text = dataset_csv_text(rows)
        ingested_rows, schema = ingest_rows(text)

        class FakeIngest:
            rows = ingested_rows
            digest = "sha256:" + hashlib.sha256(text.encode()).hexdigest()
            schema = "m_eur_fx"

        derived = derive_series(ingested_rows, CONFIG)
        return build_report(
            CONFIG,
            FakeIngest,
            unit_roots=run_unit_roots(derived, CONFIG),
            estimation=run_estimation(derived, CONFIG),
        )

    def test_top_level_keys(self):
        doc = self._full_report()
        for key in (
            "config",
            "input_digest",
            "unit_roots",
            "fmols",
            "delta_path",
            "correlation",
        ):
            assert key in doc
        assert len(doc["unit_roots"]) == 8
        assert len(doc["delta_path"].labels) == 171
        assert doc["config"]["phi_annual"] == 0.01
        assert doc["config"]["bandwidth_policy"] == "newey_west"

    def test_json_rendering_is_byte_stable(self):
        doc = self._full_report()
        a = render_report(doc, "json")
        b = render_report(self._full_report(), "json")
        assert a == b
        parsed = json.loads(a)
        assert parsed["fmols"]["deterministics"] == "quadratic_trend"

    def test_floats_rounded_to_nine_significant_digits(self):
        doc = self._full_report()
        parsed = json.loads(render_report(doc, "json"))
        sigma = parsed["fmols"]["params"]["sigma"]
        assert sigma == float(format(doc["fmols"]["params"]["sigma"], ".9g"))

    def test_csv_rendering(self):
        doc = self._full_report()
        text = render_report(doc, "csv")
        lines = text.splitlines()
        assert lines[0] == "section,key,value"
        assert any(line.startswith("fmols,params.sigma,") for line in lines)
        assert any(line.startswith("unit_roots,0.test,") for line in lines)

    def test_unknown_format_rejected(self):
        with pytest.raises(ParameterError):
            render_report({"config": None}, "yaml")

    def test_delta_path_csv(self):
        sim = simulate_dgp(TABLE_COEFFS, 171, NOISE, 25)
        est = run_estimation(derived_from_sim(sim), CONFIG)
        text = render_delta_path_csv(est)
        lines = text.splitlines()
        assert lines[0] == "date,ratio"
        assert len(lines) == 172
        assert lines[1].startswith("2001-09,")


class TestDeltaPathRows:
    def _doc_and_rows(self):
        """A report with a 40-month delta path, and the row dicts the path stands for."""
        est = run_estimation(derived_from_sim(simulate_dgp(TABLE_COEFFS, 40, NOISE, 25)), CONFIG)
        rows = [{"date": str(est.delta.start.shift(k)), "ratio": ratio, "delta": delta}
                for k, (ratio, delta) in enumerate(zip(est.delta_ratio.values.tolist(),
                                                       est.delta.values.tolist()))]
        return build_report(CONFIG, _FakeIngest, estimation=est), rows

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_plain_list_renders_through_the_general_walk(self, output_format):
        doc, rows = self._doc_and_rows()
        plain = {**doc, "delta_path": rows}
        text = render_report(doc, output_format)
        assert render_report(plain, output_format) == text
        assert _reference_render(plain, output_format) == text


class _FakeIngest:
    """An ingest result for build_report: 40 months from 2001-09."""

    rows = Dataset(START, *np.ones((5, 40)))
    digest = "sha256:" + "0" * 64
    schema = "m_eur_fx"


def _reference_round(obj):
    """The two-pass renderer's first pass: every float to 9 significant
    digits, non-finite ones to None, and a delta path to its row dicts."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(format(float(obj), ".9g"))
    if isinstance(obj, dict):
        return {key: _reference_round(value) for key, value in obj.items()}
    if type(obj) is pipeline._DeltaPath:  # the list of its row dicts
        return [{"date": d, "ratio": _reference_round(r), "delta": _reference_round(x)}
                for d, r, x in zip(*obj)]
    if isinstance(obj, (list, tuple)):
        return [_reference_round(item) for item in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _reference_render(doc, output_format):
    """The two-pass renderer that render_report replaces: round, then
    json.dumps, or a recursive walk into csv rows."""
    doc = _reference_round(doc)
    if output_format == "json":
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["section", "key", "value"])

    def emit(section, payload, prefix=""):
        if isinstance(payload, dict):
            for key, value in payload.items():
                emit(section, value, f"{prefix}{key}.")
        elif isinstance(payload, list):
            for idx, value in enumerate(payload):
                emit(section, value, f"{prefix}{idx}.")
        else:
            writer.writerow([section, prefix.rstrip("."), "" if payload is None else payload])

    for section, payload in doc.items():
        emit(section, payload)
    return out.getvalue()


def _outcome(render, doc, output_format):
    """The rendered text, or the type of the error rendering raised."""
    try:
        return render(doc, output_format)
    except (TypeError, ValueError) as exc:
        return type(exc)


_REFERENCE_DOC = {
    "empty": {"dict": {}, "list": [], "nested": [{}, [], [[]]]},
    "tuple": (1, (2.5, "x"), ()),
    "none_and_bools": {"none": None, "flags": [True, False, None, {"deep": [None, True]}]},
    "ints": [0, -7, 2**70, True],
    "floats": [0.0, -0.0, 1 / 3, np.float64(2 / 3), np.float64(1e-300), 123456789.0,
               1234567891.0, 1e-7, 1e22, -2.5e-310, 1.7976931348623157e308],
    "non_finite": [math.nan, math.inf, -math.inf, np.float64("nan"), {"x": -math.inf}],
    "strings": ["", "plain", "Ünïcödé €", 'quote " and \\ back', "tab\tnew\nline\r",
                "\x00\x1f", "emoji \U0001f600", "comma, in csv"],
    "keys": {"a.": 1.0, "": 2.0, "x.y": {"z..": 3.0}, "€": 4.0, 'q"': 5.0},
    "top_float": 0.1 + 0.2,
    "top_none": None,
}


# Report floats of every kind: NaN, infinities, signed zeros, subnormal,
# tiny and huge values, and np.float64, whose repr differs from a float's.
_REPORT_FLOATS = (
    st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-300,
                       1.7976931348623157e308, 123456789.0, 1234567891.0, 0.1 + 0.2])
)


class TestRendererReference:
    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_edge_cases_match_reference(self, output_format):
        expected = _reference_render(_REFERENCE_DOC, output_format)
        assert render_report(_REFERENCE_DOC, output_format) == expected

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_full_report_matches_reference(self, output_format):
        doc = TestReportRendering()._full_report()
        assert render_report(doc, output_format) == _reference_render(doc, output_format)

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    @pytest.mark.parametrize("bad", [{1, 2}, np.int64(3), np.bool_(True), np.float32(1.5)])
    def test_unserializable_leaf_raises_type_error(self, output_format, bad):
        doc = {"section": {"ok": 1.0, "bad": [bad]}}
        with pytest.raises(TypeError):
            _reference_render(doc, output_format)
        with pytest.raises(TypeError):
            render_report(doc, output_format)

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_montecarlo_document_matches_reference(self, output_format):
        mc = MonteCarloConfig(n_seeds=10, n_obs=120, coeffs=TABLE_COEFFS, noise=NOISE)
        doc = {"config": CONFIG.metadata(), "input_digest": None, "montecarlo": run_montecarlo(mc)}
        assert render_report(doc, output_format) == _reference_render(doc, output_format)

    @_PROPERTY_SETTINGS
    @given(
        rows=st.lists(
            st.fixed_dictionaries(
                {"date": st.text(max_size=8), "ratio": _REPORT_FLOATS, "delta": _REPORT_FLOATS}
            ),
            min_size=1,
            max_size=6,
        ),
        change=st.data(),
        output_format=st.sampled_from(["json", "csv"]),
    )
    def test_random_delta_path_rows_match_reference(self, rows, change, output_format):
        # Delta-path rows, one of them possibly changed in shape or value
        # type, render as the reference renders them.
        k = change.draw(st.integers(0, len(rows) - 1))
        edit = change.draw(st.sampled_from(["none", "value", "drop", "add", "reorder", "key"]))
        row = rows[k]
        if edit == "value":
            row["ratio"] = change.draw(st.none() | st.integers() | st.booleans() | st.just([1.5]))
        elif edit == "drop":
            del row["delta"]
        elif edit == "add":
            row["extra"] = 1.5
        elif edit == "reorder":
            rows[k] = dict(reversed(row.items()))
        elif edit == "key":
            rows[k] = {**row, 7: 1.0}
        doc = {"config": CONFIG.metadata(), "delta_path": rows, "correlation": 0.25}
        if edit == "key":  # json.dumps would write it as "7"; the renderer refuses it
            with pytest.raises(TypeError, match="^keys must be str, not int$"):
                render_report(doc, output_format)
        else:
            assert render_report(doc, output_format) == _reference_render(doc, output_format)

    def test_json_keys_that_are_not_strings(self):
        # Every report key is a string; json.dumps would coerce these.
        for bad_key in (1, False, None, 2.5, np.float64(0.1), (1, 2), math.inf):
            assert _outcome(render_report, {"s": {bad_key: 1}}, "json") is TypeError

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    @pytest.mark.parametrize("bad_key", [1, None, 2.5, (1, 2)])
    def test_keys_that_are_not_strings_refused_at_any_depth(self, output_format, bad_key):
        # Both formats refuse the same documents, with the same message.
        message = f"^keys must be str, not {type(bad_key).__name__}$"
        for doc in ({bad_key: 2.0}, {"s": {bad_key: 2.0}}, {"s": [{"k": {bad_key: 2.0}}]}):
            with pytest.raises(TypeError, match=message):
                render_report(doc, output_format)

    @_PROPERTY_SETTINGS
    @given(
        doc=st.dictionaries(
            st.text(max_size=4),
            st.recursive(
                st.none()
                | st.booleans()
                | st.integers()
                | st.floats()
                | st.floats().map(np.float64)
                | st.text(max_size=6),
                lambda children: st.lists(children, max_size=4)
                | st.lists(children, max_size=3).map(tuple)
                | st.dictionaries(st.text(max_size=4), children, max_size=4),
                max_leaves=20,
            ),
            max_size=5,
        ),
        output_format=st.sampled_from(["json", "csv"]),
    )
    def test_random_documents_match_reference(self, doc, output_format):
        assert render_report(doc, output_format) == _reference_render(doc, output_format)


# Where the 9-digit text and the repr part ways: signed zeros, subnormals
# (whose 9 digits are not their shortest), the fixed/exponent switches of
# format (1e-5, 1e9) and repr (1e-4, 1e16), a rounding carry into 1e9,
# and the largest doubles.
_FLOAT_TEXT_EDGES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.5e-310, 2.225073858507201e-308,
    2.2250738585072014e-308, 1e-5, 1e-4, 9.999999995e-5, 999999999.5, 1e9, 1e15,
    1e16, 123456789.0, 1234567891.0, 0.1 + 0.2, 1.7976931348623157e308,
    -1.7976931348623157e308,
)
_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    _FLOAT_TEXT_EDGES
)


class TestFloatText:
    @_PROPERTY_SETTINGS
    @given(value=st.floats(allow_nan=False, allow_infinity=False))
    def test_text_is_the_repr_of_the_rounded_value(self, value):
        self.test_edge_values(value)

    @pytest.mark.parametrize("value", _FLOAT_TEXT_EDGES)
    def test_edge_values(self, value):
        expected = float.__repr__(float(format(value, ".9g")))
        assert pipeline._float_text(value) == expected
        assert pipeline._float_text(np.float64(value)) == expected

    def test_subnormal_text_is_its_shortest_repr(self):
        assert format(5e-324, ".9g") == "4.94065646e-324"
        assert pipeline._float_text(5e-324) == "5e-324"
        assert pipeline._float_text(1e9) == "1000000000.0"
        assert pipeline._float_text(999999999.5) == "1000000000.0"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_has_no_text(self, value):
        assert pipeline._float_text(value) is None

    @_PROPERTY_SETTINGS
    @given(value=_FINITE_FLOATS)
    def test_csv_cell_is_the_json_text(self, value):
        doc = {"s": {"k": value}}
        json_line = render_report(doc, "json").splitlines()[2]
        csv_line = render_report(doc, "csv").splitlines()[1]
        text = pipeline._float_text(value)
        assert json_line == f'    "k": {text}'
        assert csv_line == f"s,k,{text}"
