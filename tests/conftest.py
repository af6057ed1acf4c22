import pytest
from hypothesis import settings

# A failing example prints the blob that @reproduce_failure replays.
settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run exhaustive cross-checks (each 2^27-subset oracle takes 1-4 s)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
