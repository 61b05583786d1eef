import importlib.util
import json
import os

import pytest

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


def test_compare_measures_moved_csvs_on_sampled_rows(tmp_path):
    # a CSV keeps its hash beside 257 evenly spaced rows; a moved CSV's
    # line gives the largest relative change of those rows, and under a
    # positive --rtol a change within it passes
    tool = load_tool()
    path = tmp_path / "out.csv"

    def entry(values):
        path.write_text("t,value\n" + "".join(
            f"{i!r},{v!r}\n" for i, v in enumerate(values)))
        return tool._take_out(path, csv=True)

    values = [1.0 + 0.5 * i for i in range(1000)]
    old = entry(values)
    assert not path.exists()
    assert (old["header"], old["rows"], len(old["sample"])) == \
        ("t,value", 1000, 257)
    assert old["sample"][0] == "0,1.0" and old["sample"][-1] == "999,500.5"
    values[999] *= 1.0 + 1e-13    # a sampled row: the last
    new = entry(values)
    key = "solve-bvp --config c.json"

    def diffs(rtol):
        return tool.compare({key: [0, "", "", old]}, {key: [0, "", "", new]},
                            rtol)
    [line] = diffs(0.0)
    head = f"{key}: CSV sha256 {old['sha256']} -> {new['sha256']}, " \
        "largest relative change "
    assert line.startswith(head) and line.endswith(" in 257 sampled rows")
    assert float(line[len(head):].split()[0]) == pytest.approx(1e-13,
                                                               rel=0.01)
    assert diffs(1e-12) == []
    assert len(diffs(1e-14)) == 1
    # a CSV that passes is still listed, as passed on its sampled rows
    [line] = tool.sampled_passes({key: [0, "", "", old]},
                                 {key: [0, "", "", new]}, 1e-12)
    assert line.startswith(f"{key}: CSV sha256 {old['sha256']} -> "
                           f"{new['sha256']} passed on its 257 sampled rows "
                           "only, largest relative change ")
    assert tool.sampled_passes({key: [0, "", "", old]},
                               {key: [0, "", "", new]}, 1e-14) == []

    def compare_to(entry):
        [line] = tool.compare({key: [0, "", "", old]},
                              {key: [0, "", "", entry]}, 1.0)
        return line
    assert compare_to(entry(values[:-1])).endswith(
        "rows 1000 -> 999, not compared")
    # a refused solve-bvp writes its report where the CSV would be
    words = entry(["refused"] * 1000)
    assert compare_to(words).endswith(", not numbers, not compared")
    path.write_text("t,other\n" + "".join(
        f"{i!r},{v!r}\n" for i, v in enumerate(values)))
    assert compare_to(tool._take_out(path, csv=True)).endswith(
        ", header changed, not compared")


MODULE = '''"""A small module."""


def used(x):
    if x > 0:
        return [y for y in range(x)]
    return []


def unused():
    return 3


class Shape:
    area = staticmethod(lambda: 0)

    def scale(self, k):
        def by(v):
            return k * v
        return by
'''


def test_lines_groups_unreached_lines_by_function(tmp_path):
    # the lines of a comprehension or lambda belong to the function or
    # class around them, a nested function's to its own qualified name;
    # lines no call reached are listed, the module's own lines are not
    tool = load_tool()
    path = tmp_path / "small.py"
    path.write_text(MODULE)
    spec = importlib.util.spec_from_file_location("small", path)
    module = importlib.util.module_from_spec(spec)

    def run():
        spec.loader.exec_module(module)
        return module.used(2)

    result, reached = tool.traced(run, {str(path)})
    assert result == [0, 1]
    assert tool.code_lines(path)[6] == "used"
    assert tool.code_lines(path)[15] == "Shape"
    assert tool.unreached([str(path)], reached) == {str(path): {
        "used": [7], "unused": [11],
        "Shape.scale.<locals>.by": [18, 19], "Shape.scale": [20]}}
    assert tool._spans([7, 11, 18, 19, 20, 22]) == "7, 11, 18-20, 22"
