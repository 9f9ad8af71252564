from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import platform
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from cricseg import kernels
from cricseg.scenario import bundled_scripts, frame_stream, load_script, synthetic_backend
from cricseg.segmenter import segment

ROOT = Path(__file__).resolve().parents[1]
FALLBACK = kernels._Impl("fallback", kernels._fallback)


def reference_bg_update(mean, luma, lr, thresh):
    """Straight-line numpy oracle, independent of both implementations."""
    diff = luma.astype(np.float64) - mean.astype(np.float64)
    count = int((np.abs(diff) > thresh).sum())
    new_mean = mean.astype(np.float64) + lr * diff
    return new_mean, count


def c_compiler() -> str:
    """The compiler ``setup.py build_ext`` runs."""
    return (os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc").split()[0]


@pytest.fixture(scope="module")
def built_native(tmp_path_factory):
    """``_native.c`` built by ``setup.py build_ext`` into a scratch directory."""
    cc = c_compiler()
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc}) found")
    tmp = tmp_path_factory.mktemp("native")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(tmp / "lib"), "--build-temp", str(tmp / "temp")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    path = tmp / "lib" / "cricseg" / "kernels" / f"_native{suffix}"
    assert path.is_file(), f"setup.py built no extension:\n{proc.stdout}{proc.stderr}"
    spec = importlib.util.spec_from_file_location("_native", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return kernels._Impl("native", module)


@pytest.fixture()
def use_kernel(monkeypatch):
    """Bind ``kernels.ACTIVE``, which every stage calls, for this test."""
    return lambda impl: monkeypatch.setattr(kernels, "ACTIVE", impl)


class TestFallback:
    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        impl = FALLBACK
        mean = rng.uniform(0, 255, size=(37, 53)).astype(np.float32)
        luma = rng.integers(0, 256, size=mean.shape, dtype=np.uint8)
        want_mean, want_count = reference_bg_update(mean.copy(), luma, 0.05, 25.0)
        assert impl.bg_update(mean, luma, 0.05, 25.0) == want_count
        np.testing.assert_allclose(mean, want_mean, atol=1e-3)

    def test_band_diff_matches_reference(self):
        rng = np.random.default_rng(1)
        impl = FALLBACK
        a = rng.integers(0, 256, size=(15, 31), dtype=np.uint8)
        b = rng.integers(0, 256, size=(15, 31), dtype=np.uint8)
        want = np.abs(a.astype(int) - b.astype(int)).mean()
        assert impl.band_abs_diff_mean(a, b) == pytest.approx(want)

    def test_returns_count_and_updates_mean(self):
        impl = FALLBACK
        mean = np.zeros((4, 4), dtype=np.float32)
        luma = np.full((4, 4), 200, dtype=np.uint8)
        assert impl.bg_update(mean, luma, 0.1, 25.0) == 16
        assert mean[0, 0] == pytest.approx(20.0)


class TestNativeEquivalence:
    # (65, 67) spans a 4096-pixel count block plus a tail that is not a
    # multiple of the AVX2 width; (720, 1280) is larger than a core's L2.
    @pytest.mark.parametrize("shape", [(90, 160), (360, 640), (37, 53), (65, 67), (720, 1280)])
    def test_repeated_updates_agree(self, built_native, shape):
        rng = np.random.default_rng(2)
        fallback = FALLBACK
        mean_n = rng.uniform(0, 255, size=shape).astype(np.float32)
        mean_f = mean_n.copy()
        # A static scene with noise plus occasional cuts, so counts span
        # everything from none to all pixels.
        scene = rng.integers(0, 256, size=shape, dtype=np.uint8)
        for step in range(30):
            if step % 10 == 9:
                scene = rng.integers(0, 256, size=shape, dtype=np.uint8)
            noise = rng.integers(-30, 31, size=shape)
            luma = np.clip(scene + noise, 0, 255).astype(np.uint8)
            count_n = built_native.bg_update(mean_n, luma, 0.05, 25.0)
            count_f = fallback.bg_update(mean_f, luma, 0.05, 25.0)
            assert count_n == count_f
            assert mean_n.tobytes() == mean_f.tobytes()

    def test_threshold_rounds_like_numpy(self, built_native):
        # float32(0.1) > 0.1: a deviation of exactly float32(0.1) must not
        # count in either implementation.
        fallback = FALLBACK
        means = [np.full((2, 3), 0.1, dtype=np.float32) for _ in range(2)]
        luma = np.zeros((2, 3), dtype=np.uint8)
        counts = [impl.bg_update(m, luma, 0.5, 0.1) for impl, m in zip((built_native, fallback), means)]
        assert counts == [0, 0]
        assert means[0].tobytes() == means[1].tobytes()

    def test_band_diff_agrees(self, built_native):
        rng = np.random.default_rng(3)
        fallback = FALLBACK
        a = rng.integers(0, 256, size=(9, 200), dtype=np.uint8)
        b = rng.integers(0, 256, size=(9, 200), dtype=np.uint8)
        assert built_native.band_abs_diff_mean(a, b) == fallback.band_abs_diff_mean(a, b)

    @pytest.mark.parametrize(
        "mean,luma",
        [
            (np.zeros((4, 4), np.float32), np.zeros((4, 5), np.uint8)),
            (np.zeros((4, 4), np.float64), np.zeros((4, 4), np.uint8)),
            (np.zeros((4, 4), np.float32), np.zeros((4, 4), np.int8)),
            (np.zeros((4, 4), np.float32), np.zeros((4, 4), np.uint16)),
            (np.zeros(16, np.float32), np.zeros(16, np.uint8)),
            (np.zeros((4, 8), np.float32)[:, ::2], np.zeros((4, 4), np.uint8)),
            (np.zeros((4, 4), np.float32), np.zeros((4, 4), np.uint8).T[::-1]),
        ],
        ids=["shape", "mean-dtype", "luma-dtype", "luma-itemsize", "ndim",
             "mean-strided", "luma-reversed"],
    )
    def test_bg_update_rejects_bad_buffers(self, built_native, mean, luma):
        with pytest.raises(ValueError):
            built_native.bg_update(mean, luma, 0.1, 25.0)

    def test_bg_update_rejects_read_only_mean(self, built_native):
        mean = np.zeros((4, 4), np.float32)
        mean.flags.writeable = False
        with pytest.raises(ValueError):
            built_native.bg_update(mean, np.zeros((4, 4), np.uint8), 0.1, 25.0)

    def test_band_diff_rejects_bad_buffers(self, built_native):
        a = np.zeros((3, 8), np.uint8)
        for other in (np.zeros((3, 7), np.uint8), np.zeros((3, 8), np.int16),
                      np.zeros((3, 16), np.uint8)[:, ::2]):
            with pytest.raises(ValueError):
                built_native.band_abs_diff_mean(a, other)

    @pytest.mark.parametrize("name", sorted(bundled_scripts()))
    def test_bundled_manifests_agree(self, built_native, use_kernel, name):
        script = load_script(bundled_scripts()[name])

        def clips(impl):
            use_kernel(impl)
            return list(segment(frame_stream(script), synthetic_backend(script), script.fps))

        assert clips(built_native) == clips(FALLBACK)


class TestNativeBuild:
    def test_update_plane_has_avx2_clone(self, built_native):
        if platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc":
            pytest.skip("the AVX2 clone is built on x86-64 glibc only")
        nm = shutil.which("nm")
        if nm is None:
            pytest.skip("no nm found")
        macros = subprocess.run([c_compiler(), "-dM", "-E", "-x", "c", os.devnull],
                                capture_output=True, text=True, check=True).stdout.split()
        if "__GNUC__" not in macros or "__clang__" in macros:
            pytest.skip("clone symbol names are checked for gcc only")
        symbols = subprocess.run([nm, built_native._mod.__file__],
                                 capture_output=True, text=True, check=True).stdout.split()
        assert "update_plane.avx2" in symbols


class TestSelection:
    def test_fallback_run_never_calls_native(self, built_native, use_kernel, monkeypatch):
        # The in-place build when there is one, else the temporary one.
        native = kernels.ACTIVE if kernels.NATIVE_AVAILABLE else built_native
        calls = []
        for name in ("bg_update", "band_abs_diff_mean"):
            def spy(*args, _real=getattr(native._mod, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(native._mod, name, spy)
        script = load_script(bundled_scripts()["delivery_plus_replay"])

        def run(impl):
            calls.clear()
            use_kernel(impl)
            return list(segment(frame_stream(script), synthetic_backend(script), script.fps))

        assert [c.liveness for c in run(native)] == ["live", "replay"]
        assert set(calls) == {"bg_update", "band_abs_diff_mean"}
        assert [c.liveness for c in run(FALLBACK)] == ["live", "replay"]
        assert calls == []

    def test_active_impl_is_available(self):
        assert kernels.ACTIVE.name == kernels.ACTIVE_IMPL
        assert kernels.ACTIVE._mod is (kernels._native if kernels.NATIVE_AVAILABLE
                                       else kernels._fallback)
