import json

from golden import PATH, differences, outputs


def test_outputs_match_the_golden_file():
    # regenerate with tests/golden.py only when a change alters outputs on purpose
    want = json.loads(PATH.read_text(encoding="utf-8"))
    assert differences(outputs(), want) == []


def test_differences_reads_every_entry():
    want = {"a": {"b": [1.0, 2], "c": "x"}}
    assert differences(json.loads(json.dumps(want)), want) == []
    assert differences({"a": {"b": [1.0 + 1e-11, 2], "c": "x"}}, want) == ["/a/b[0]: 1.00000000001 != 1.0"]
    assert differences({"a": {"b": [1.0, 2.0], "c": "x"}}, want) == ["/a/b[1]: 2.0 != 2"]
    assert differences({"a": {"b": [1.0, 2]}}, want) == ["/a: keys ['b'] != ['b', 'c']"]
    assert differences({"a": {"b": [1.0], "c": "x"}}, want) == ["/a/b: [1.0] != [1.0, 2]"]
