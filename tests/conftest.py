"""Settings and helpers shared by the test modules."""
import pytest

from onlinelp import native


@pytest.fixture(scope="session", autouse=True)
def private_build_cache(tmp_path_factory):
    """Build the compiled one-pass loop into a temporary cache, not the user's ``~/.cache``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


def force_numpy(patch, reason="numpy: forced"):
    """Run the numpy engines, the one-pass kernel's and the LP's, while ``patch`` lasts.

    ``patch`` is a ``pytest.MonkeyPatch``; ``native.engine`` answers
    ``reason`` as it would where the compiled library did not load.
    """
    patch.setattr(native, "engine", lambda: reason)
