"""Settings shared by the test modules."""
import pytest


@pytest.fixture(scope="session", autouse=True)
def private_build_cache(tmp_path_factory):
    """Build the compiled one-pass loop into a temporary cache, not the user's ``~/.cache``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield
