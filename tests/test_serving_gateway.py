"""ServingGateway request path and the stdlib HTTP transport.

Every robustness property is asserted through the gateway's async
methods directly — the in-process transport — because that is where
the behaviour lives; one end-to-end class then drives the same flows
over a real socket to prove the HTTP adapter is honest about framing
and status codes.  No external HTTP client, no third-party framework:
raw asyncio streams on a port-0 listener.

All tests are plain sync functions running their coroutine with
``asyncio.run`` (the container has no async pytest plugin).
"""

import asyncio
import json

import pytest

from repro.chaos.fleet_soak import FleetSoakConfig, generate_jobs
from repro.errors import (
    ServingDrainingError,
    TenantAuthError,
    TenantQuotaExceededError,
    UserInputError,
)
from repro.serving.config import ServingConfig, TenantSpec
from repro.serving.gateway import ServingGateway
from repro.serving.http import HttpServer
from repro.serving.session import KernelSession

SOAK = FleetSoakConfig(jobs=4, seed=7, replicas=("U280", "U50"))
TENANTS = (
    TenantSpec(name="acme", api_key="acme-key"),
    TenantSpec(name="tiny", api_key="tiny-key", max_pending=1),
)


def _config(**overrides):
    kwargs = dict(tenants=TENANTS, fsync=False)
    kwargs.update(overrides)
    return ServingConfig(**kwargs)


@pytest.fixture(scope="module")
def payloads():
    return [job.to_dict() for job in generate_jobs(SOAK)]


@pytest.fixture(scope="module")
def reference_digest(payloads):
    session = KernelSession(_config().session_spec())
    session.replay(payloads)
    return session.digest()


class TestGatewayRequestPath:
    def test_submit_ack_stream_and_status(self, payloads):
        async def run():
            gateway = ServingGateway(_config())
            try:
                ack = await gateway.submit("acme-key", payloads[0])
                assert ack["status"] == "accepted"
                assert ack["seq"] == 1  # sqlite sequence starts at 1
                assert ack["tenant"] == "acme"
                assert ack["duplicate"] is False
                updates = [
                    u async for u in gateway.stream(payloads[0]["job_id"])
                ]
                assert updates[-1]["status"] != "pending"
                status = gateway.status(payloads[0]["job_id"])
                assert status["status"] == updates[-1]["status"]
                assert "result" in status
            finally:
                gateway.close()
        asyncio.run(run())

    def test_auth_failures_are_typed(self, payloads):
        async def run():
            gateway = ServingGateway(_config())
            try:
                with pytest.raises(TenantAuthError):
                    await gateway.submit(None, payloads[0])
                with pytest.raises(TenantAuthError):
                    await gateway.submit("wrong-key", payloads[0])
            finally:
                gateway.close()
        asyncio.run(run())

    def test_unknown_job_is_typed(self):
        gateway = ServingGateway(_config())
        try:
            with pytest.raises(UserInputError):
                gateway.status("never-submitted")
        finally:
            gateway.close()

    def test_bad_payload_is_typed(self):
        async def run():
            gateway = ServingGateway(_config())
            try:
                with pytest.raises(UserInputError):
                    await gateway.submit("acme-key", {"not": "a job"})
            finally:
                gateway.close()
        asyncio.run(run())

    def test_draining_gateway_turns_work_away(self, payloads):
        async def run():
            gateway = ServingGateway(_config())
            try:
                gateway.draining = True
                with pytest.raises(ServingDrainingError):
                    await gateway.submit("acme-key", payloads[0])
            finally:
                gateway.close()
        asyncio.run(run())

    def test_resubmission_is_idempotent(self, payloads):
        async def run():
            gateway = ServingGateway(_config())
            try:
                first = await gateway.submit("acme-key", payloads[0])
                again = await gateway.submit("acme-key", payloads[0])
                assert again["duplicate"] is True
                assert again["seq"] == first["seq"]
                await gateway.drain()
                # Terminal now; the job ran exactly once end to end.
                status = gateway.status(payloads[0]["job_id"])
                assert "result" in status
                assert gateway.store.job_count() == 1  # never ran twice
            finally:
                gateway.close()
        asyncio.run(run())

    def test_tenant_pending_cap_sheds(self, payloads):
        async def run():
            gateway = ServingGateway(_config())
            try:
                # Pin one unfinished job on the tenant by hand (racing
                # the worker to keep a real one pending is flaky; the
                # cap only counts entries, so a stub is faithful).
                stub = type("P", (), {"tenant": "tiny"})()
                gateway._pending["stuck-job"] = stub
                with pytest.raises(TenantQuotaExceededError) as exc:
                    await gateway.submit("tiny-key", payloads[0])
                assert exc.value.tenant == "tiny"
                assert exc.value.reason == "tenant-pending"
                assert gateway.admission.stats.shed_tenant_quota == 1
                # "acme" is uncapped by "tiny"'s backlog.
                ack = await gateway.submit("acme-key", payloads[1])
                assert ack["status"] == "accepted"
            finally:
                gateway.close()
        asyncio.run(run())

    def test_drain_digest_matches_the_pure_kernel(
        self, payloads, reference_digest
    ):
        async def run():
            gateway = ServingGateway(_config())
            try:
                for payload in payloads:
                    await gateway.submit("acme-key", payload)
                summary = await gateway.drain()
                assert summary["drained"] is True
                assert summary["outstanding"] == []
                assert summary["served"] == len(payloads)
                # The facade adds nothing to the outcome: serving the
                # stream through asyncio, a thread-pool worker and the
                # store lands on the same digest as a bare replay.
                assert summary["digest"] == reference_digest
            finally:
                gateway.close()
        asyncio.run(run())

    def test_health_and_report_surface_counters(self, payloads):
        async def run():
            gateway = ServingGateway(_config())
            try:
                assert gateway.report() == {"digest": "", "jobs": 0}
                await gateway.submit("acme-key", payloads[0])
                await gateway.drain()
                health = gateway.health()
                assert health["status"] == "draining"
                assert health["admission"]["admitted"] == 1
                assert health["store"]["results"] == 1
                report = gateway.report()
                assert report["jobs"] == 1
                assert len(report["digest"]) == 64
            finally:
                gateway.close()
        asyncio.run(run())


async def _http(port, method, path, body=None, key=None):
    """One raw HTTP/1.1 exchange; returns (status, parsed_json_lines)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = json.dumps(body).encode() if body is not None else b""
    head = [f"{method} {path} HTTP/1.1", "Host: t"]
    if key:
        head.append(f"Authorization: Bearer {key}")
    if payload:
        head.append(f"Content-Length: {len(payload)}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    header, _, rest = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    if b"chunked" in header:
        docs = []
        while rest:
            size_line, _, rest = rest.partition(b"\r\n")
            size = int(size_line, 16)
            if size == 0:
                break
            docs.append(json.loads(rest[:size]))
            rest = rest[size + 2:]
        return status, docs
    return status, [json.loads(rest)] if rest.strip() else []


class TestHttpTransport:
    def test_end_to_end_over_a_real_socket(self, payloads):
        async def run():
            gateway = ServingGateway(_config())
            server = HttpServer(gateway, port=0)
            await server.start()
            try:
                port = server.port
                assert port != 0  # port 0 resolved to the bound one

                status, body = await _http(
                    port, "POST", "/v1/jobs",
                    body=payloads[0], key="acme-key",
                )
                assert status == 202
                assert body[0]["status"] == "accepted"

                status, updates = await _http(
                    port, "GET",
                    f"/v1/jobs/{payloads[0]['job_id']}/stream",
                )
                assert status == 200
                assert updates[-1]["status"] != "pending"

                status, body = await _http(port, "GET", "/v1/health")
                assert status == 200
                assert body[0]["status"] == "serving"

                status, body = await _http(
                    port, "POST", "/v1/jobs",
                    body=payloads[1], key="wrong-key",
                )
                assert status == 401
                assert body[0]["error"] == "TenantAuthError"

                status, body = await _http(
                    port, "GET", "/v1/jobs/never-submitted"
                )
                assert status == 404

                status, body = await _http(port, "GET", "/v1/nope")
                assert status == 405

                status, body = await _http(port, "POST", "/v1/drain")
                assert status == 200
                assert body[0]["drained"] is True

                status, body = await _http(
                    port, "POST", "/v1/jobs",
                    body=payloads[1], key="acme-key",
                )
                assert status == 503  # draining: typed turn-away
            finally:
                await server.stop()
                gateway.close()
        asyncio.run(run())

    def test_bad_fault_plan_is_a_400(self, payloads):
        # An out-of-range fault model would otherwise be accepted and
        # silently inject nothing, or fail its run inside the worker; it
        # is a bad payload like any other, and the worker stays up.
        bad_plans = [
            ("channel", {"dead_channels": [
                {"channel": -1, "onset_cycle": 0.0}
            ]}),
            ("onset_cycle", {"bit_flips": [
                {"probability": 0.5, "detectable": False,
                 "onset_cycle": "abc"}
            ]}),
            ("onset_cycle", {"bit_flips": [
                {"probability": 0.5, "onset_cycle": -1.0}
            ]}),
            ("onset_cycle", {"stalls": [
                {"probability": 0.5, "onset_cycle": "abc"}
            ]}),
        ]

        async def run():
            gateway = ServingGateway(_config())
            server = HttpServer(gateway, port=0)
            await server.start()
            try:
                for i, (needle, plan) in enumerate(bad_plans):
                    bad = dict(payloads[0], job_id=f"bad-fault-plan-{i}")
                    bad["fault_plan"] = dict(plan, seed=1)
                    with pytest.raises(UserInputError, match=needle):
                        await gateway.submit("acme-key", bad)
                    status, _ = await _http(
                        server.port, "POST", "/v1/jobs", body=bad,
                        key="acme-key",
                    )
                    assert status == 400
                assert gateway.store.job_count() == 0
                ack = await gateway.submit("acme-key", payloads[1])
                assert ack["status"] == "accepted"
                await gateway.drain()
                status = gateway.status(payloads[1]["job_id"])
                assert status["status"] == "completed"
            finally:
                await server.stop()
                gateway.close()
        asyncio.run(run())

    def test_bad_json_is_a_400(self):
        async def run():
            gateway = ServingGateway(_config())
            server = HttpServer(gateway, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                junk = b"{not json"
                writer.write(
                    b"POST /v1/jobs HTTP/1.1\r\nHost: t\r\n"
                    b"Authorization: Bearer acme-key\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(junk), junk)
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                assert b" 400 " in raw.split(b"\r\n", 1)[0]
            finally:
                await server.stop()
                gateway.close()
        asyncio.run(run())
