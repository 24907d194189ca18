"""HostApp SDK and the host<->enclave transfer buffer."""

from __future__ import annotations

import pytest

from repro.core.api import HyperTEE
from repro.core.config import SystemConfig
from repro.core.enclave import EnclaveConfig
from repro.cs.sdk import HostApp
from repro.errors import ConfigurationError


@pytest.fixture
def tee() -> HyperTEE:
    return HyperTEE()


@pytest.fixture
def app(tee: HyperTEE) -> HostApp:
    app = HostApp(tee, "hostapp")
    app.launch(b"enclave code", EnclaveConfig(name="svc",
                                              host_shared_pages=2))
    return app


def _control(app: HostApp):
    """The app's enclave control block, on the shard that holds it."""
    enclave_id = app.enclave.enclave_id
    return app.tee.system.enclaves_of(enclave_id).enclaves[enclave_id]


def test_launch_requires_buffer_declaration(tee: HyperTEE):
    app = HostApp(tee, "hostapp")
    with pytest.raises(ConfigurationError):
        app.launch(b"code", EnclaveConfig(name="nobuf"))


def test_host_to_enclave_transfer(app: HostApp):
    enclave_vaddr = app.send(b"encrypted user payload")
    with app.enclave.running():
        assert app.enclave.read(enclave_vaddr, 22) == b"encrypted user payload"


def test_enclave_to_host_transfer(app: HostApp):
    with app.enclave.running():
        app.enclave.write(HostApp.enclave_buffer_vaddr(100), b"public result")
    assert app.receive(13, offset=100) == b"public result"


def test_buffer_is_plaintext_shared(app: HostApp):
    """The transfer buffer is intentionally host-visible plaintext: the
    confidentiality of its contents comes from application-level
    encryption (remote users send ciphertext), not the hardware."""
    app.write_buffer(0, b"visible to both")
    control = _control(app)
    frame = control.host_shared_frames[0]
    raw = app.tee.system.memory.read_raw(frame * 4096, 15)
    assert raw == b"visible to both"


@pytest.mark.parametrize("shards", [1, 4])
def test_hostapps_round_trip_their_buffers_on_every_shard(shards: int):
    """Each HostApp finds its enclave's buffer on the shard that holds it."""
    tee = HyperTEE(SystemConfig(ems_shards=shards))
    apps = [HostApp(tee, f"hostapp{index}") for index in range(4)]
    for index, app in enumerate(apps):
        app.launch(b"enclave code %d" % index,
                   EnclaveConfig(name=f"svc{index}", host_shared_pages=1))
    homes = {tee.system.shard_pool.resolve(app.enclave.enclave_id)
             for app in apps}
    assert (homes == {0}) == (shards == 1)
    for index, app in enumerate(apps):
        payload = b"payload for enclave %d" % index
        vaddr = app.send(payload)
        with app.enclave.running():
            assert app.enclave.read(vaddr, len(payload)) == payload
            app.enclave.write(HostApp.enclave_buffer_vaddr(100), payload[::-1])
        assert app.receive(len(payload), offset=100) == payload[::-1]


def test_buffer_bounds(app: HostApp):
    with pytest.raises(ValueError):
        app.write_buffer(2 * 4096 - 4, b"spills over")
    with pytest.raises(ValueError):
        app.read_buffer(-1, 4)


def test_buffer_not_bitmap_marked(app: HostApp):
    control = _control(app)
    for frame in control.host_shared_frames:
        assert not app.tee.system.bitmap.is_enclave(frame)


def test_enclave_private_memory_still_private(app: HostApp):
    """The transfer buffer does not weaken the enclave's own memory."""
    with app.enclave.running():
        vaddr = app.enclave.ealloc(1)
        app.enclave.write(vaddr, b"still secret")
        control = _control(app)
        frame = control.page_table.lookup(vaddr >> 12).ppn
    assert app.tee.system.memory.read_raw(frame * 4096, 12) != b"still secret"


def test_destroy_releases_buffer_frames(app: HostApp):
    control = _control(app)
    frames = list(control.host_shared_frames)
    free_before = app.tee.system.os.free_frame_count()
    app.enclave.destroy()
    assert app.tee.system.os.free_frame_count() >= free_before + len(frames)


def test_two_hostapps_have_separate_buffers(tee: HyperTEE):
    a = HostApp(tee, "a")
    a.launch(b"code-a", EnclaveConfig(name="a", host_shared_pages=1))
    b = HostApp(tee, "b")
    b.launch(b"code-b", EnclaveConfig(name="b", host_shared_pages=1))
    a.write_buffer(0, b"for-a")
    b.write_buffer(0, b"for-b")
    assert a.read_buffer(0, 5) == b"for-a"
    assert b.read_buffer(0, 5) == b"for-b"


class TestOnFourShards:
    """The ``tee`` and ``app`` tests above, on four EMS shards.

    One enclave is launched first, so the enclave under test is minted
    ID 2, whose home is shard 3: every control-block read has to go
    through the shard that holds it.
    """

    @pytest.fixture
    def tee(self) -> HyperTEE:
        tee = HyperTEE(SystemConfig(ems_shards=4))
        tee.launch_enclave(b"padding", EnclaveConfig(name="pad"))
        return tee

    test_launch_requires_buffer_declaration = staticmethod(
        test_launch_requires_buffer_declaration)
    test_host_to_enclave_transfer = staticmethod(
        test_host_to_enclave_transfer)
    test_enclave_to_host_transfer = staticmethod(
        test_enclave_to_host_transfer)
    test_buffer_is_plaintext_shared = staticmethod(
        test_buffer_is_plaintext_shared)
    test_buffer_bounds = staticmethod(test_buffer_bounds)
    test_buffer_not_bitmap_marked = staticmethod(
        test_buffer_not_bitmap_marked)
    test_enclave_private_memory_still_private = staticmethod(
        test_enclave_private_memory_still_private)
    test_destroy_releases_buffer_frames = staticmethod(
        test_destroy_releases_buffer_frames)
    test_two_hostapps_have_separate_buffers = staticmethod(
        test_two_hostapps_have_separate_buffers)
