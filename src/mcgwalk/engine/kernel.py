"""Replay-kernel selection: compiled extension when available, else pure Python."""

from __future__ import annotations

try:  # pragma: no cover - depends on build environment
    from . import _replay as _impl

    BACKEND = "compiled"
except ImportError:  # pragma: no cover
    from . import kernel_py as _impl

    BACKEND = "python"

replay = _impl.replay
prepare = _impl.prepare
run = _impl.run
run_all = _impl.run_all
