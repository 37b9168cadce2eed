import numpy as np

from mergosim.io import (write_correlation_csv, write_csv, write_json,
                         write_jsonl)


def test_csv_and_json_writers_deterministic(tmp_path):
    rows = [(0.5, 1), (1.5, 2)]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_csv(a, ["x", "n"], rows)
    write_csv(b, ["x", "n"], rows)
    assert open(a, "rb").read() == open(b, "rb").read()
    pa, pb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    write_json(pa, {"z": 1, "a": [1.25, None]})
    write_json(pb, {"a": [1.25, None], "z": 1})
    assert open(pa, "rb").read() == open(pb, "rb").read()


def test_jsonl(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(path, [{"a": 1}, {"b": 2.5}])
    lines = open(path).read().splitlines()
    assert len(lines) == 2
    write_jsonl(path, [])
    assert open(path).read() == ""


def test_correlation_csv(tmp_path):
    path = str(tmp_path / "corr.csv")
    write_correlation_csv(path, np.array([0.0, 1.0]),
                          np.array([1.0 + 0.0j, 0.5 - 0.5j]))
    lines = open(path).read().splitlines()
    assert lines[0] == "t_au,re,im"
    assert lines[2] == "1.0,0.5,-0.5"
