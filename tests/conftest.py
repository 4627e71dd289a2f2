from pinned import GOLDEN_SET


def pytest_report_header(config):
    return f"golden set: {GOLDEN_SET}"
