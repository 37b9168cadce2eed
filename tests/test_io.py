import numpy as np

from mergosim.io import write_csv, write_json, write_jsonl


def row_writer_bytes(header, rows):
    """The per-cell CSV formatting ``write_csv`` keeps: the repr of a
    Python float, the str of an int or a name."""
    def cell(x):
        if isinstance(x, (float, np.floating)):
            return repr(float(x))
        return str(int(x)) if isinstance(x, (int, np.integer)) else str(x)
    lines = [",".join(header)] + [",".join(map(cell, r)) for r in rows]
    return ("\n".join(lines) + "\n").encode()


def test_csv_and_json_writers_deterministic(tmp_path):
    columns = [[0.5, 1.5], [1, 2]]
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_csv(a, ["x", "n"], columns)
    write_csv(b, ["x", "n"], columns)
    assert open(a, "rb").read() == open(b, "rb").read() == \
        b"x,n\n0.5,1\n1.5,2\n"
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
    times = np.array([0.0, 1.0])
    values = np.array([1.0 + 0.0j, 0.5 - 0.5j])
    # the table ``cmd_evolve`` yields as correlation.csv
    write_csv(path, ["t_au", "re", "im"], [times, values.real, values.imag])
    lines = open(path).read().splitlines()
    assert lines[0] == "t_au,re,im"
    assert lines[2] == "1.0,0.5,-0.5"


def test_float_column_writers_keep_the_row_writer_bytes(tmp_path):
    """The correlation and spectrum tables, as ``cmd_evolve`` yields
    them, give the bytes of the per-cell row formatting over rows of
    Python floats, on random values and on the edge cases of repr."""
    rng = np.random.default_rng(3)
    special = np.array([0.0, -0.0, 1.0, -2.5, 5e-324, 1e-300, 1.7e308,
                        0.1 + 0.2, np.inf, -np.inf, np.nan, 1e16, 123456.0])
    times = np.concatenate([np.linspace(0.0, 400.0, 499), special])
    values = np.concatenate([rng.normal(size=499), special[::-1]]) \
        .astype(complex)
    values.imag = np.concatenate([rng.normal(size=499) * 1e-9, special])
    intensity = np.concatenate([np.abs(rng.normal(size=508)),
                                [0.0, np.inf, np.nan, 1e-45, 3e38]]) \
        .astype(np.float32)
    cases = [
        (["t_au", "re", "im"], [times, values.real, values.imag],
         [(float(t), float(c.real), float(c.imag))
          for t, c in zip(times, values)]),
        (["freq_au", "intensity"], [times, intensity],
         [(float(f), float(i)) for f, i in zip(times, intensity)]),
    ]
    for header, columns, rows in cases:
        path = str(tmp_path / "new.csv")
        write_csv(path, header, columns)
        assert open(path, "rb").read() == row_writer_bytes(header, rows)


def test_table_columns_keep_the_row_writer_bytes(tmp_path):
    """Name, int and float columns, as the lz and cost tables write them,
    Python or numpy scalars alike."""
    rows = [("base", 2, np.int64(6), 0.1 + 0.2, np.float64(2.6e-20)),
            ("2x bits", 4, np.int64(12), -0.0, np.float64(1e16))]
    header = ["scenario", "n", "branches", "alpha", "repetitions"]
    path = str(tmp_path / "table.csv")
    write_csv(path, header, list(zip(*rows)))
    assert open(path, "rb").read() == row_writer_bytes(header, rows)
