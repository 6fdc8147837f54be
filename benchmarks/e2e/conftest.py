"""``--quick`` runs the smoke test at tiny campaign sizes."""


def pytest_addoption(parser):
    try:
        parser.addoption("--quick", action="store_true", default=False,
                         help="run the end-to-end smoke test at tiny sizes")
    except ValueError:
        pass  # benchmarks/conftest.py already defines the same flag
