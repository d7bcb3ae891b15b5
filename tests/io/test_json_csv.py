"""Tests for the JSON and CSV schedule formats."""

from __future__ import annotations

import pytest

from repro.core.model import Configuration, HostRange, Schedule
from repro.errors import ParseError
from repro.io import csv_fmt, json_fmt


class TestJson:
    def test_roundtrip(self, multi_cluster_schedule):
        back = json_fmt.loads(json_fmt.dumps(multi_cluster_schedule))
        assert len(back) == len(multi_cluster_schedule)
        for t in multi_cluster_schedule:
            b = back.task(t.id)
            assert b.configurations == t.configurations
            assert (b.start_time, b.end_time) == (t.start_time, t.end_time)

    def test_to_dict_shape(self, simple_schedule):
        d = json_fmt.to_dict(simple_schedule)
        assert d["clusters"][0] == {"id": "0", "hosts": 8, "name": "cluster 0"}
        assert d["tasks"][0]["configurations"] == [
            {"cluster": "0", "ranges": [[0, 8]]}]

    def test_meta_preserved(self, simple_schedule):
        simple_schedule.meta["algorithm"] = "heft"
        back = json_fmt.loads(json_fmt.dumps(simple_schedule))
        assert back.meta["algorithm"] == "heft"

    def test_file_roundtrip(self, tmp_path, simple_schedule):
        path = tmp_path / "s.json"
        json_fmt.dump(simple_schedule, path)
        assert len(json_fmt.load(path)) == 2

    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError, match="malformed JSON"):
            json_fmt.loads("{not json")

    def test_non_object_rejected(self):
        with pytest.raises(ParseError, match="expected a JSON object"):
            json_fmt.loads("[1, 2]")

    def test_missing_field_rejected(self):
        with pytest.raises(ParseError, match="missing or malformed"):
            json_fmt.loads('{"clusters": [{"id": "0"}], "tasks": []}')

    @pytest.mark.parametrize("edit,message", [
        (lambda d: d["tasks"][0].update(start="abc"),
         "could not convert string to float: 'abc'"),
        (lambda d: d["tasks"][0]["configurations"][0].update(ranges=[["x", 2]]),
         "invalid literal for int() with base 10: 'x'"),
        (lambda d: d["tasks"][0]["configurations"][0].update(ranges=[[0]]),
         "tuple index out of range"),
        (lambda d: d["clusters"][0].update(hosts="many"),
         "invalid literal for int() with base 10: 'many'"),
        (lambda d: d.update(meta=["algorithm", "heft"]),
         "meta must be an object, got list"),
        (lambda d: d.update(meta="heft"), "meta must be an object, got str"),
    ], ids=["start-abc", "range-not-int", "range-short", "hosts-many",
            "meta-list", "meta-str"])
    def test_bad_values_are_parse_errors(self, simple_schedule, edit, message):
        doc = json_fmt.to_dict(simple_schedule)
        edit(doc)
        with pytest.raises(ParseError) as ei:
            json_fmt.from_dict(doc, source="s.json")
        assert str(ei.value) == f"missing or malformed field: {message} in s.json"

    @pytest.mark.parametrize("edit", [
        lambda d: d["tasks"][0]["configurations"][0].update(ranges=[[2**64, 1]]),
        lambda d: d["tasks"][0]["configurations"][0].update(ranges=[[0, 2**64]]),
        lambda d: d["clusters"][0].update(hosts=2**64),
    ], ids=["start", "nb", "cluster-hosts"])
    def test_host_index_past_int64_is_a_parse_error(self, simple_schedule, edit):
        doc = json_fmt.to_dict(simple_schedule)
        edit(doc)
        with pytest.raises(ParseError, match=r"past int64.* in s\.json"):
            json_fmt.from_dict(doc, source="s.json")

    def test_semantic_error_becomes_parse_error(self):
        doc = ('{"clusters": [{"id": "0", "hosts": 2}], '
               '"tasks": [{"id": "1", "type": "x", "start": 0, "end": 1, '
               '"configurations": [{"cluster": "0", "ranges": [[0, 99]]}]}]}')
        with pytest.raises(ParseError, match="binds host"):
            json_fmt.loads(doc)


class TestCsvHosts:
    def test_format_hosts(self):
        assert csv_fmt.format_hosts([(0, 8)]) == "0-7"
        assert csv_fmt.format_hosts([(0, 3), (6, 7)]) == "0-2,6"
        assert csv_fmt.format_hosts([(5, 6)]) == "5"

    def test_parse_hosts(self):
        assert csv_fmt.parse_hosts("0-7") == [HostRange(0, 8)]
        assert csv_fmt.parse_hosts("0-2,6") == [HostRange(0, 3), HostRange(6, 1)]
        assert csv_fmt.parse_hosts("5") == [HostRange(5, 1)]

    def test_parse_hosts_bad(self):
        with pytest.raises(ParseError):
            csv_fmt.parse_hosts("3-1")
        with pytest.raises(ParseError):
            csv_fmt.parse_hosts("abc")
        with pytest.raises(ParseError):
            csv_fmt.parse_hosts("")


class TestCsv:
    def test_roundtrip(self, multi_cluster_schedule):
        back = csv_fmt.loads(csv_fmt.dumps(multi_cluster_schedule))
        assert len(back) == len(multi_cluster_schedule)
        assert [c.id for c in back.clusters] == ["a", "b"]
        assert back.cluster("a").num_hosts == 4
        t3 = back.task("3")
        assert len(t3.configurations) == 2

    def test_cluster_declarations_in_header(self, simple_schedule):
        text = csv_fmt.dumps(simple_schedule)
        assert text.startswith("# cluster,0,8,cluster 0\n")

    def test_clusters_inferred_when_missing(self):
        text = "task_id,type,start,end,cluster,hosts\n1,x,0,1,0,0-3\n"
        s = csv_fmt.loads(text)
        assert s.cluster("0").num_hosts == 4

    def test_multirow_task_grouped(self):
        text = ("task_id,type,start,end,cluster,hosts\n"
                "1,x,0,1,a,0-1\n"
                "1,x,0,1,b,2-3\n")
        s = csv_fmt.loads(text)
        t = s.task("1")
        assert t.num_hosts == 4
        assert set(t.cluster_ids) == {"a", "b"}

    def test_inconsistent_rows_rejected(self):
        text = ("task_id,type,start,end,cluster,hosts\n"
                "1,x,0,1,a,0-1\n"
                "1,y,0,1,b,2-3\n")
        with pytest.raises(ParseError, match="inconsistent"):
            csv_fmt.loads(text)

    def test_missing_columns_rejected(self):
        with pytest.raises(ParseError, match="missing CSV columns"):
            csv_fmt.loads("task_id,start\n1,0\n")

    def test_comments_and_blank_lines_skipped(self):
        text = ("# a comment\n\n"
                "task_id,type,start,end,cluster,hosts\n"
                "1,x,0,1,0,0\n")
        assert len(csv_fmt.loads(text)) == 1

    def test_empty_file_gives_empty_schedule(self):
        s = csv_fmt.loads("")
        assert len(s) == 0

    def test_file_roundtrip(self, tmp_path, simple_schedule):
        path = tmp_path / "s.csv"
        csv_fmt.dump(simple_schedule, path)
        assert len(csv_fmt.load(path)) == 2


class TestCsvErrorContext:
    """Malformed input must surface as ParseError with line context —
    never as a raw ValueError/ScheduleError from the model layer."""

    HEADER = "# cluster,0,8\ntask_id,type,start,end,cluster,hosts\n"

    def test_short_row_reports_line(self):
        text = self.HEADER + "1,computation,0.0,1.0,0\n"
        with pytest.raises(ParseError, match="fewer fields") as ei:
            csv_fmt.loads(text, source="s.csv")
        assert ei.value.line == 3
        assert ei.value.source == "s.csv"

    def test_long_row_reports_line(self):
        text = self.HEADER + "1,computation,0.0,1.0,0,0-7,extra\n"
        with pytest.raises(ParseError, match="more fields") as ei:
            csv_fmt.loads(text)
        assert ei.value.line == 3

    def test_bad_cluster_size_is_parse_error(self):
        with pytest.raises(ParseError, match="bad cluster declaration") as ei:
            csv_fmt.loads("# cluster,0,0\n")
        assert ei.value.line == 1

    def test_bad_cluster_count_is_parse_error(self):
        with pytest.raises(ParseError, match="bad cluster declaration"):
            csv_fmt.loads("# cluster,0,eight\n")

    def test_end_before_start_is_parse_error(self):
        text = self.HEADER + "1,computation,2.0,1.0,0,0-7\n"
        with pytest.raises(ParseError, match="task '1'") as ei:
            csv_fmt.loads(text)
        assert ei.value.line == 3

    def test_duplicate_task_id_is_parse_error(self):
        text = (self.HEADER
                + "1,computation,0.0,1.0,0,0-7\n"
                + "1,transfer,0.0,1.0,0,0-7\n")
        with pytest.raises(ParseError, match="inconsistent|task '1'") as ei:
            csv_fmt.loads(text)
        assert ei.value.line == 4

    def test_bad_host_spec_reports_line(self):
        text = self.HEADER + "1,computation,0.0,1.0,0,7-0\n"
        with pytest.raises(ParseError, match="bad host spec") as ei:
            csv_fmt.loads(text)
        assert ei.value.line == 3

    @pytest.mark.parametrize("hosts", ["18446744073709551616",
                                       "0-18446744073709551616"])
    def test_host_index_past_int64_reports_line(self, hosts):
        text = self.HEADER + f"1,computation,0.0,1.0,0,{hosts}\n"
        with pytest.raises(ParseError, match="bad host spec") as ei:
            csv_fmt.loads(text, source="s.csv")
        assert ei.value.line == 3

    def test_non_numeric_time_reports_line(self):
        text = self.HEADER + "1,computation,zero,1.0,0,0-7\n"
        with pytest.raises(ParseError, match="non-numeric times") as ei:
            csv_fmt.loads(text)
        assert ei.value.line == 3

    def test_missing_columns_report_header_line(self):
        with pytest.raises(ParseError, match="missing CSV columns") as ei:
            csv_fmt.loads("# a comment\ntask_id,type\n1,computation\n")
        assert ei.value.line == 2

    def test_message_carries_location(self):
        with pytest.raises(ParseError, match=r"in s\.csv at line 3"):
            csv_fmt.loads(self.HEADER + "1,computation,0.0,1.0,0\n",
                          source="s.csv")


@pytest.mark.parametrize("module,name,payload", [
    (json_fmt, "latin1.json", b'{"meta": {"site": "Z\xfcrich"}, "clusters": [], "tasks": []}'),
    (csv_fmt, "latin1.csv", b"# cluster,0,8,Z\xfcrich\n"),
], ids=["json", "csv"])
def test_non_utf8_file_is_parse_error(tmp_path, module, name, payload):
    path = tmp_path / name
    path.write_bytes(payload)
    with pytest.raises(ParseError, match="not UTF-8") as ei:
        module.load(path)
    assert ei.value.source == str(path)
