"""Remote (SIGMA-style) and local attestation."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.api import HyperTEE, local_attest
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.ems.attestation import Certificate, RemoteSession, dh_binding
from repro.errors import AttestationError, SanityCheckError


@pytest.fixture
def tee() -> HyperTEE:
    return HyperTEE(SystemConfig(cs_memory_mb=48, ems_memory_mb=4))


def test_quote_requires_measured_enclave(tee: HyperTEE):
    shard = tee.system.shard_pool.shards[0]
    result, _, _ = shard.enclaves.ecreate(EnclaveConfig())
    with pytest.raises(SanityCheckError):
        shard.attestation.eattest(result["enclave_id"])


def test_quote_verifies_against_ca(tee: HyperTEE):
    enclave = tee.launch_enclave(b"attested-code")
    with enclave.running():
        quote = enclave.attest(report_data=b"nonce")
    ca = tee.system.certificate_authority()
    assert ca.verify_quote(quote, enclave.measurement)


def test_ca_rejects_wrong_measurement(tee: HyperTEE):
    enclave = tee.launch_enclave(b"attested-code")
    with enclave.running():
        quote = enclave.attest()
    ca = tee.system.certificate_authority()
    assert not ca.verify_quote(quote, b"\x00" * 32)


def test_ca_rejects_forged_signature(tee: HyperTEE):
    enclave = tee.launch_enclave(b"attested-code")
    with enclave.running():
        quote = enclave.attest()
    forged = dataclasses.replace(
        quote, enclave=Certificate("enclave", quote.enclave.measurement,
                                   quote.enclave.report_data, b"\x00" * 32))
    ca = tee.system.certificate_authority()
    assert not ca.verify_quote(forged, enclave.measurement)


def test_ca_from_other_device_rejects(tee: HyperTEE):
    """A quote only verifies against the issuing device's CA record."""
    enclave = tee.launch_enclave(b"attested-code")
    with enclave.running():
        quote = enclave.attest()
    other = HyperTEE(SystemConfig(cs_memory_mb=48, ems_memory_mb=4, seed=99))
    assert not other.system.certificate_authority().verify_quote(
        quote, enclave.measurement)


def test_full_remote_session(tee: HyperTEE):
    enclave = tee.launch_enclave(b"service-enclave")
    session = RemoteSession(ca=tee.system.certificate_authority(),
                            expected_enclave_measurement=enclave.measurement)
    with enclave.running():
        enclave_key = enclave.remote_attest(session)
    assert session.session_key == enclave_key  # both sides agree


def test_remote_session_rejects_unbound_quote(tee: HyperTEE):
    """A quote not bound to the DH transcript is a replay — rejected."""
    enclave = tee.launch_enclave(b"service-enclave")
    session = RemoteSession(ca=tee.system.certificate_authority(),
                            expected_enclave_measurement=enclave.measurement)
    session.challenge(lambda n: b"\x05" * n)
    with enclave.running():
        stale_quote = enclave.attest(report_data=b"not-a-dh-binding")
    with pytest.raises(AttestationError):
        session.complete(12345, stale_quote)


def test_remote_session_requires_challenge_first(tee: HyperTEE):
    enclave = tee.launch_enclave(b"service-enclave")
    session = RemoteSession(ca=tee.system.certificate_authority(),
                            expected_enclave_measurement=enclave.measurement)
    with enclave.running():
        quote = enclave.attest(report_data=dh_binding(7))
    with pytest.raises(AttestationError):
        session.complete(7, quote)


def test_local_attestation_succeeds(tee: HyperTEE):
    challenger = tee.launch_enclave(b"challenger")
    verifier = tee.launch_enclave(b"verifier")
    assert local_attest(challenger, verifier) == verifier.measurement


def test_local_attestation_rejects_forged_report(tee: HyperTEE):
    challenger = tee.launch_enclave(b"challenger")
    fake = Certificate("local", b"fake-measurement-000000000000000",
                       b"", b"\x00" * 32)
    with challenger.running():
        with pytest.raises(Exception):
            challenger.local_verify(fake)


def test_local_report_bound_to_challenger(tee: HyperTEE):
    """A report produced for challenger A does not verify for B."""
    a = tee.launch_enclave(b"challenger-a")
    b = tee.launch_enclave(b"challenger-b")
    verifier = tee.launch_enclave(b"verifier")
    with verifier.running():
        cert_for_a = verifier.local_report_for(a.measurement)
    with b.running():
        with pytest.raises(Exception):
            b.local_verify(cert_for_a)
