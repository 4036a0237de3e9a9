"""The blocking client against a spawned ``repro serve``.

Result rows stream to a connection as soon as its jobs finish, so a row
can arrive while the client is waiting for a later submit's acks.  The
client must hand that row to ``next_result``/``collect``, never return
it as an ack.
"""

import time

from repro.analysis.triage import TriageJob
from repro.serve.service import ServeClient, ServeConfig, _spawn_service

_DEADLINE = 30.0


def _touch_job(jid: int, log: str) -> TriageJob:
    return TriageJob(
        job_id=jid, name=f"touch-{jid}", kind="pyfunc",
        params={"target": "repro.serve.harness:smoke_touch_job",
                "kwargs": {"log_path": log, "token": f"job-{jid}"}})


def test_result_row_streamed_before_acks_is_held_for_collect(tmp_path):
    log = str(tmp_path / "log")
    config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                         journal_path=str(tmp_path / "serve.journal"),
                         workers=1)
    proc = _spawn_service(config)
    try:
        with ServeClient.connect(config.socket_path, timeout=_DEADLINE,
                                 retry_for=_DEADLINE) as client, \
             ServeClient.connect(config.socket_path,
                                 timeout=_DEADLINE) as probe:
            first = client.submit([_touch_job(1, log)])
            assert [(a["rec"], a.get("job_id")) for a in first] == [("ack", 1)]
            # Wait (on a second connection, so nothing is read off the
            # first) until job 1 is done; its row is then already queued
            # on the first connection, ahead of the next submit's ack.
            end = time.monotonic() + _DEADLINE
            while probe.health()["done"] < 1:
                assert time.monotonic() < end, "job 1 never completed"
                time.sleep(0.05)
            time.sleep(0.2)
            second = client.submit([_touch_job(2, log)])
            assert [(a["rec"], a.get("job_id")) for a in second] == [("ack", 2)]
            rows = client.collect([1, 2])
            assert sorted(rows) == [1, 2]
            assert all(row.status == "OK" for row in rows.values())
            client.shutdown()
        proc.wait(timeout=_DEADLINE)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_bad_lines_get_error_records_and_the_connection_keeps_reading(tmp_path):
    config = ServeConfig(socket_path=str(tmp_path / "serve.sock"),
                         journal_path=str(tmp_path / "serve.journal"),
                         workers=1)
    proc = _spawn_service(config)
    try:
        with ServeClient.connect(config.socket_path, timeout=_DEADLINE,
                                 retry_for=_DEADLINE) as client:
            for line in ([1, 2], "hello", {"op": "await", "job_ids": ["x"]}):
                client._send(line)
                assert client._recv_reply("error", "reject")["rec"] == "error"
            client._send({"op": "submit", "jobs": [
                "abc", {"job_id": [1], "name": "x", "kind": "pyfunc"}]})
            assert [client._recv_reply("error", "reject")["rec"]
                    for _ in range(2)] == ["reject", "reject"]
            assert client.health()["ok"]
            client.shutdown()
        proc.wait(timeout=_DEADLINE)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
