import os
import stat
import sys
import threading

import pytest

from talentrank.fileio import atomic_write


class TestAtomicWrite:
    def test_concurrent_writers_leave_one_full_payload(self, tmp_path):
        path = tmp_path / "artifact.txt"
        payloads = [f"{k}:" + chr(ord("a") + k) * 50_000 + "\n" for k in range(6)]
        errors = []

        def writer(payload):
            try:
                for _ in range(20):
                    with atomic_write(str(path)) as f:
                        for start in range(0, len(payload), 4096):
                            f.write(payload[start:start + 4096])
            except Exception as e:  # recorded and asserted on below
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_text() in payloads
        assert os.listdir(tmp_path) == ["artifact.txt"]

    def test_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as f:
            f.write("x")
        atomic = tmp_path / "atomic.txt"
        with atomic_write(str(atomic)) as f:
            f.write("x")
        assert stat.S_IMODE(atomic.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)

    def test_error_removes_own_temp_file_only(self, tmp_path):
        path = tmp_path / "artifact.txt"
        other = tmp_path / "artifact.txt.tmp"
        other.write_text("another writer's temp file")
        with pytest.raises(RuntimeError):
            with atomic_write(str(path)) as f:
                f.write("partial")
                raise RuntimeError("boom")
        assert sorted(os.listdir(tmp_path)) == ["artifact.txt.tmp"]
        assert other.read_text() == "another writer's temp file"
