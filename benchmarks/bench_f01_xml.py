"""Figure 1 — the Jedule XML task definition.

Reproduces the exact document of Figure 1 (a multiprocessor task with
identifier "1", type "computation", executed on cluster 0 by eight
processors 0..7), verifies our parser reads it to the letter, and times the
XML round-trip on a realistically sized schedule (the paper's batch mode
processes "hundreds or thousands of schedules").
"""

from __future__ import annotations

from conftest import pinned, report

from repro.core.model import Schedule
from repro.io import jedule_xml

FIGURE1_DOC = """\
<jedule version="1.0">
  <platform>
    <cluster id="0" hosts="8"/>
  </platform>
  <node_infos>
    <node_statistics>
      <node_property name="id" value="1"/>
      <node_property name="type" value="computation"/>
      <node_property name="start_time" value="0.000"/>
      <node_property name="end_time" value="0.310"/>
      <configuration>
        <conf_property name="cluster_id" value="0"/>
        <conf_property name="host_nb" value="8"/>
        <host_lists>
          <hosts start="0" nb="8"/>
        </host_lists>
      </configuration>
    </node_statistics>
  </node_infos>
</jedule>
"""


def _big_schedule(n_tasks: int = 2000) -> Schedule:
    s = Schedule()
    s.new_cluster(0, 64)
    for i in range(n_tasks):
        start = (i // 64) * 1.0
        s.new_task(i, "computation", start, start + 0.9,
                   cluster=0, host_start=i % 64, host_nb=1)
    return s


def test_figure1_document_parses_exactly(benchmark):
    schedule = jedule_xml.loads(FIGURE1_DOC)
    task = schedule.task("1")
    report("Figure 1 (task XML definition)", [
        ("task id", "1", task.id),
        ("type", "computation", task.type),
        ("start_time", "0.000", f"{task.start_time:.3f}"),
        ("end_time", "0.310", f"{task.end_time:.3f}"),
        ("cluster", "0", task.configurations[0].cluster_id),
        ("host_nb", "8", str(task.num_hosts)),
        ("hosts", "0..7", f"{task.hosts_in('0')[0]}..{task.hosts_in('0')[-1]}"),
    ])
    assert task.num_hosts == 8
    assert task.hosts_in("0") == tuple(range(8))

    big = _big_schedule()
    text = jedule_xml.dumps(big)

    def roundtrip():
        return jedule_xml.loads(text)

    assert {"tasks": len(big), "document_bytes": len(text)} == pinned(
        {"tasks": 2000, "document_bytes": 971471})

    back = benchmark(roundtrip)
    assert len(back) == len(big)
