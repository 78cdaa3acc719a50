"""Every corpus bug through every front door.

A bug's direct-mode diagnosis, the triage of its emitted ``.crash``
file, and the daemon's diagnosis of that same file submitted over HTTP
must all name the same causality chain: the crash text and ftrace log
in the artifact carry everything the diagnosis needs.
"""

import pytest

from repro import api
from repro.corpus.registry import all_bugs, get_bug
from repro.service.artifacts import emit_artifact

from test_daemon_server import daemon_test

BUG_IDS = [bug.bug_id for bug in all_bugs()]


@pytest.mark.parametrize("bug_id", BUG_IDS)
def test_direct_triage_and_daemon_chains_agree(bug_id, tmp_path):
    direct = api.diagnose(bug_id)
    assert direct.reproduced

    intake = tmp_path / "intake"
    intake.mkdir()
    path = emit_artifact(get_bug(bug_id), str(intake))
    [triaged] = api.triage(str(intake)).results
    assert triaged.outcome == "succeeded", triaged.error
    assert triaged.reproduced

    with open(path) as fh:
        text = fh.read()
    served = {}

    async def scenario(daemon, client):
        accepted = (await client.submit(text)).json()
        assert accepted["status"] == "accepted"
        assert accepted["digest"] == triaged.digest
        job = await client.wait_for_job(accepted["job_id"], timeout_s=120)
        assert job["status"] == "succeeded", job
        served.update(job["result"]["row"])

    daemon_test(tmp_path, scenario, diagnoser=None)
    assert served["reproduced"]
    assert direct.chain.render() == triaged.chain == served["chain"]
