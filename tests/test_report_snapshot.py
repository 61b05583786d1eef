import importlib.util
import json
import os

TOOL = os.path.join(os.path.dirname(__file__), "..", "tools",
                    "report_snapshot.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("report_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(**body):
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def test_compare_names_each_key_of_a_rename():
    # a renamed key is one line per name, and the keys both reports share
    # are still compared, at every depth; identical runs print nothing
    old = {
        "solve-ivp --config a.json": [0, report(
            command="solve-ivp", condition_estimate=4.08, grid=512,
            residual=1e-5), "", "ab12"],
        "certify --config b.json": [0, "", "", report(
            certified=True, certificate={"m": 1, "norm": 0.5}, grid=64)],
        "probe --config c.json": [0, "", "", report(verdict="minimal")],
    }
    new = {
        "solve-ivp --config a.json": [0, report(
            command="solve-ivp", condition_bound=3.0, grid=512,
            residual=2e-5), "", "ab12"],
        "certify --config b.json": [0, "", "", report(
            certified=True, certificate={"m": 1, "q": 0.5}, grid=64)],
        "probe --config c.json": [0, "", "", report(verdict="minimal")],
    }
    assert load_tool().compare(old, new, 0.0) == [
        "certify --config b.json: report /certificate/norm only in OLD",
        "certify --config b.json: report /certificate/q only in NEW",
        "solve-ivp --config a.json: report /condition_estimate only in OLD",
        "solve-ivp --config a.json: report /condition_bound only in NEW",
        "solve-ivp --config a.json: report /residual 1e-05 -> 2e-05",
    ]

