import hashlib
import io
import json
import sys
import time
from math import comb
from pathlib import Path

import pytest

from tropmod import divisors, moduli, serialization, trees
from tropmod.cli import EXIT_CERTIFICATE, EXIT_OK, EXIT_USAGE, main
from tropmod.moduli import ModuliPoint, embed
from tropmod.serialization import point_to_json, vector_to_json
from tropmod.trees import CombinatorialType


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def write_point(tmp_path, point, name="point.json"):
    path = tmp_path / name
    path.write_text(json.dumps(point_to_json(point)))
    return str(path)


def test_enumerate_text():
    code, out = run(["enumerate", "--n", "5", "--dim", "2"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "15"
    assert len(lines) == 16


def test_enumerate_json_counts():
    for n, dim, expected in ((4, 1, 3), (5, 2, 15), (5, 0, 1)):
        code, out = run(["enumerate", "--n", str(n), "--dim", str(dim), "--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["count"] == expected
        assert len(payload["types"]) == expected


def test_enumerate_usage_errors():
    code, _ = run(["enumerate", "--n", "5", "--dim", "9"])
    assert code == EXIT_USAGE
    code, _ = run(["enumerate", "--n", "5"])
    assert code == EXIT_USAGE


def test_enumerate_writes_each_type_as_made(monkeypatch):
    made = []
    trusted = CombinatorialType._trusted

    def counted(labels, splits):
        made.append(splits)
        return trusted(labels, splits)

    monkeypatch.setattr(CombinatorialType, "_trusted", counted)

    class Out(io.StringIO):
        made_at_writes = []

        def write(self, text):
            self.made_at_writes.append(len(made))
            return super().write(text)

    out = Out()
    assert main(["enumerate", "--n", "8", "--dim", "5"], out=out) == EXIT_OK
    # the count line comes before any type, the first type before the second
    assert out.made_at_writes[:2] == [0, 1] and len(made) == 10395
    assert out.getvalue().startswith("10395\n")


@pytest.mark.parametrize(
    "argv, count",
    [
        (["enumerate", "--n", "11", "--dim", "8"], 34459425),
        (["enumerate", "--n", "24", "--dim", "1", "--format", "json"], 8388583),
        (["check", "balancing", "--n", "11"], 91891800),
        (["check", "smooth", "--n", "11", "--format", "json"], 91891800),
        (["check", "psi", "--n", "11", "--k", "1"], 94594500),
        (["export", "fan", "--n", "11"], 34459425),
        (["export", "link", "--n", "15"], 6896046),
    ],
)
def test_refuses_more_types_than_the_limit_before_making_any(monkeypatch, capsys, argv, count):
    def refuse(*args):
        raise AssertionError("a type was made")

    monkeypatch.setattr(trees, "_stream_types", refuse)
    monkeypatch.setattr(trees, "_search", refuse)
    code, out = run(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(count) in err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="int-to-str conversion has no digit limit"
)
def test_type_limit_names_an_unprintable_count_by_its_digits(capsys):
    count = trees._count_types(300, 296)
    digits = str(count)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError):
            str(count)
        code, out = run(["check", "balancing", "--n", "300"])
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err == (
        f"error: {digits[:40]}... ({len(digits)} characters) combinatorial types at n = 300"
        " exceed the limit of 5000000\n"
    )


def test_huge_mid_range_requests_are_refused_on_a_lower_bound_at_once(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the exact count was taken")

    monkeypatch.setattr(trees, "_count_types", refuse)
    floor = comb(1997, 1000)  # sets of 1000 splits of one facet
    start = time.perf_counter()
    code, out = run(["enumerate", "--n", "2000", "--dim", "1000"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == "" and elapsed < 0.2
    floor = str(floor)
    assert err == (
        f"error: at least {floor[:40]}... ({len(floor)} characters) combinatorial types"
        " at n = 2000 exceed the limit of 5000000\n"
    )
    if hasattr(sys, "set_int_max_str_digits"):
        digits = str(comb(3997, 2000))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out = run(["enumerate", "--n", "4000", "--dim", "2000"])
        finally:
            sys.set_int_max_str_digits(limit)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE and out == "" and len(digits) > 640
        assert err == (
            f"error: at least {digits[:40]}... ({len(digits)} characters) combinatorial types"
            " at n = 4000 exceed the limit of 5000000\n"
        )


@pytest.mark.parametrize(
    "argv, power, n",
    [
        (["enumerate", "--n", "2000000", "--dim", "1000000"], 1999978, 2000000),
        (["enumerate", "--n", "1000000", "--dim", "1"], 999997, 1000000),
        (["check", "balancing", "--n", "5000000"], 4999975, 5000000),
    ],
    ids=["enumerate-mid-dim", "enumerate-rays", "check-balancing"],
)
def test_many_labels_are_refused_on_the_ray_bound_at_once(monkeypatch, capsys, argv, power, n):
    # each floor comb(n - 3, dim) or exact count here once ran past 10 s
    def refuse(*args):
        raise AssertionError("the exact count was taken")

    monkeypatch.setattr(trees, "_count_types", refuse)
    start = time.perf_counter()
    code, out = run(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == "" and elapsed < 1
    assert err == (
        f"error: at least 2^{power} combinatorial types at n = {n} exceed the limit of 5000000\n"
    )
    assert len(err.encode()) < 200


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_labels_past_the_limit_are_refused_at_dim_zero(monkeypatch, capsys, fmt):
    # the one type of dimension 0 passes every count, but is made on the n labels
    def refuse(*args):
        raise AssertionError("a type was counted or made")

    monkeypatch.setattr(trees, "_count_types", refuse)
    monkeypatch.setattr(trees, "_search", refuse)
    start = time.perf_counter()
    code, out = run(["enumerate", "--n", "10000000", "--dim", "0", "--format", fmt])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == "" and elapsed < 1
    assert err == "error: 10000000 labels at n = 10000000 exceed the limit of 5000000\n"


def test_the_ray_bound_is_a_lower_bound():
    # c(n, d) >= (2^(n-1) - n - 1) / d >= 2^(n - 2 - d.bit_length()) for n >= 5
    for n in range(5, 40):
        for d in range(1, n - 2):
            assert trees._count_types(n, d) >= 2 ** (n - 2 - d.bit_length())
            assert trees._count_types(n, d) * d >= 2 ** (n - 1) - n - 1


@pytest.mark.parametrize("n, size", [(82, 5247180), (200, 194054850)])
@pytest.mark.parametrize(
    "argv",
    [["embed", "--point"], ["export", "embed", "--point"], ["check", "balancing", "--fan"]],
    ids=["embed", "export-embed", "check-fan"],
)
def test_refuses_dense_vectors_past_the_limit_before_building_any(
    tmp_path, monkeypatch, capsys, argv, n, size
):
    # refused on the file's "n", before the point or fan is read: reading
    # makes the n labels
    def refuse(*args, **kwargs):
        raise AssertionError("the file was read or a dense vector was built")

    monkeypatch.setattr(moduli, "embed", refuse)
    monkeypatch.setattr(divisors, "_face_reports", refuse)
    monkeypatch.setattr(serialization, "point_from_json", refuse)
    monkeypatch.setattr(serialization, "fan_from_json", refuse)
    if argv[-1] == "--fan":
        path = tmp_path / "fan.json"
        path.write_text(json.dumps({"n": n, "dim": 1, "cones": [{"splits": [[2, 3]]}]}))
        path = str(path)
    else:
        path = write_point(tmp_path, ModuliPoint.of(n, {(2, 3): 1}))
    code, out = run(argv + [path])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {size} embedding coordinates at n = {n} exceed the limit of 5000000\n"


def test_fan_past_the_limit_is_refused_before_its_labels_are_made(tmp_path, monkeypatch, capsys):
    # reading the fan makes its n labels: 1.4 GB at n = 10^7
    def refuse(*args, **kwargs):
        raise AssertionError("the fan was read")

    monkeypatch.setattr(serialization, "fan_from_json", refuse)
    n = 10**12
    path = tmp_path / "fan.json"
    path.write_text(json.dumps({"n": n, "dim": 1, "cones": [{"splits": [[2, 3]]}]}))
    code, out = run(["check", "balancing", "--fan", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    size = str(3 * comb(n, 4))
    assert err == (
        f"error: {size[:40]}... ({len(size)} characters) embedding coordinates at n = {n}"
        " exceed the limit of 5000000\n"
    )


def _cut(value):
    """An int as an error line shows it: in full up to 40 characters, else
    its first 40 and its length, printed here past the int-to-str limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = str(value)
    finally:
        sys.set_int_max_str_digits(limit)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


@pytest.mark.parametrize("n", [10**12, int("7" * 1100)], ids=["n-10^12", "n-1100-digits"])
@pytest.mark.parametrize(
    "argv, size",
    [
        (["forget", "--j", "2", "--point"], lambda n: n),
        (["section", "--k", "2", "--point"], lambda n: n),
        (["decompose", "--point"], lambda n: n),
        (["embed", "--point"], lambda n: 3 * comb(n, 4)),
    ],
    ids=["forget", "section", "decompose", "embed"],
)
def test_a_point_past_the_limit_is_refused_on_its_n_in_one_short_line(
    tmp_path, monkeypatch, capsys, argv, size, n
):
    # reading the point makes its n labels, so every command refuses it on
    # its "n" first: the maps on the n labels, embed on the 3·C(n,4)
    # coordinates, which at 1,100 digits of n are past the int-to-str limit
    def refuse(*args, **kwargs):
        raise AssertionError("the point was read")

    monkeypatch.setattr(serialization, "point_from_json", refuse)
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"n": n, "splits": []}))
    code, out = run(argv + [str(path)])
    err = capsys.readouterr().err
    what = "labels" if argv[0] != "embed" else "embedding coordinates"
    assert code == EXIT_USAGE and out == ""
    assert err == (
        f"error: {_cut(size(n))} {what} at n = {_cut(n)} exceed the limit of 5000000\n"
    )
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--dim", "1", "--n"],
        ["check", "balancing", "--n"],
        ["check", "psi", "--k", "1", "--n"],
        ["export", "link", "--n"],
        ["reconstruct", "--vector", str(Path(__file__).with_name("vector_n6_off.json")), "--n"],
    ],
    ids=["enumerate", "check-balancing", "check-psi", "export-link", "reconstruct"],
)
@pytest.mark.parametrize("digits", [300, 1200])
def test_a_long_n_and_the_counts_made_from_it_are_shortened(capsys, argv, digits):
    # the counts made from n have up to 4 * 1,200 digits, past the
    # int-to-str limit, and are shown as an int of 40 digits would be
    n = int("7" * digits)
    code, out = run(argv + [str(n)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 200
    assert f"n = {'7' * 40}... ({digits} characters)" in err
    if argv[0] == "reconstruct":
        assert err == f"error: expected {_cut(3 * comb(n, 4))} coordinates for n = {_cut(n)}\n"


POINT_N13 = str(Path(__file__).with_name("point_n13.json"))
INT_FLAGS = [
    ["section", "--point", POINT_N13, "--k"],
    ["forget", "--point", POINT_N13, "--j"],
    ["reconstruct", "--vector", POINT_N13, "--n"],
    ["enumerate", "--dim", "2", "--n"],
    ["enumerate", "--n", "5", "--dim"],
    ["check", "psi", "--n", "5", "--k"],
    ["export", "fan", "--n"],
]
INT_FLAG_IDS = ["section-k", "forget-j", "reconstruct-n", "enumerate-n", "enumerate-dim",
                "psi-k", "export-n"]


@pytest.mark.parametrize("argv", INT_FLAGS, ids=INT_FLAG_IDS)
def test_a_long_int_flag_is_shortened_in_its_error(capsys, argv):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # 5,000 digits are past it
    try:
        code, out = run(argv + ["7" * 5000])
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: argument {argv[-1]}: invalid int value: '{'7' * 39}... (5002 characters)\n"
    assert len(err.encode()) < 150


@pytest.mark.parametrize("argv", INT_FLAGS, ids=INT_FLAG_IDS)
def test_a_short_int_flag_keeps_its_error_as_it_was(capsys, argv):
    for value in ("abc", "1.5", ""):
        code, out = run(argv + [value])
        assert code == EXIT_USAGE and out == ""
        assert capsys.readouterr().err == f"error: argument {argv[-1]}: invalid int value: {value!r}\n"


def test_a_repeated_label_is_refused_and_named(tmp_path, capsys):
    # each read as if the repeat were not there before: 45, a point on
    # 1..5, and 23
    point = {"n": 5, "splits": [{"side": [4, 5, 5], "length": "1"}]}
    labelled = {"n": 5, "labels": [1, 2, 3, 4, 4, 5], "splits": [{"side": [4, 5], "length": "1"}]}
    fan = {"n": 5, "dim": 1, "cones": [{"splits": [[2, 2, 3]]}]}
    for obj, argv, message in (
        (point, ["embed", "--point"], '"side" repeats label 5'),
        (labelled, ["embed", "--point"], '"labels" repeats label 4'),
        (labelled, ["forget", "--j", "2", "--point"], '"labels" repeats label 4'),
        (fan, ["check", "balancing", "--fan"], '"side" repeats label 2'),
    ):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        code, out = run(argv + [str(path)])
        assert code == EXIT_USAGE and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"


def test_embed_and_reconstruct_roundtrip(tmp_path):
    point = ModuliPoint.of(5, {(4, 5): "3/2", (3, 4, 5): 7})
    path = write_point(tmp_path, point)
    code, out = run(["embed", "--point", path])
    assert code == EXIT_OK
    vector = json.loads(out)
    assert vector == vector_to_json(embed(point))

    vec_path = tmp_path / "vector.json"
    vec_path.write_text(out)
    code, out = run(["reconstruct", "--vector", str(vec_path), "--n", "5"])
    assert code == EXIT_OK
    assert json.loads(out) == point_to_json(point)


def test_check_balancing_pass():
    code, out = run(["check", "balancing", "--n", "5"])
    assert code == EXIT_OK
    assert "all checks passed" in out


def test_check_smooth_pass():
    code, out = run(["check", "smooth", "--n", "5"])
    assert code == EXIT_OK
    assert "smooth" in out


def test_check_smooth_needs_four_leaves(capsys):
    for n in ("3", "2"):
        code, out = run(["check", "smooth", "--n", n])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE and out == ""
        assert err == "error: check smooth needs --n >= 4\n"


def count_solved(monkeypatch):
    """Count, through the per-face function, the faces solved so far."""
    solved = []
    report = divisors._vertex_report

    def counted(*args, **kwargs):
        solved.append(args[0])
        return report(*args, **kwargs)

    monkeypatch.setattr(divisors, "_vertex_report", counted)
    return solved


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("balancing", "cc494c1af340b9c1c2697a29cfcf7803f6dbfd8134fc2a1bf1080816d9ceb35b"),
        ("smooth", "53e9b1c96e3d2392979e07b92d6f8855b2204af8d14eb1adb7d79df90c25853c"),
    ],
    ids=["balancing", "smooth"],
)
def test_check_text_writes_each_face_as_solved(monkeypatch, kind, digest):
    solved = count_solved(monkeypatch)

    class Out(io.StringIO):
        solved_at_first_write = None

        def write(self, text):
            if self.solved_at_first_write is None:
                self.solved_at_first_write = len(solved)
            return super().write(text)

    out = Out()
    assert main(["check", kind, "--n", "6"], out=out) == EXIT_OK
    assert out.solved_at_first_write == 1 and len(solved) == 105
    # the stdout of the reports computed in full before the first was written
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("balancing", "16401588a0691893ea59b110c6196f2a0c626b66514db9c357c9c06e340dcb1e"),
        ("smooth", "e70b0bdf30fdc5e7e7e806dd724d7e146ad99375a01b8c7419588b982ad24201"),
    ],
    ids=["balancing", "smooth"],
)
def test_check_json_writes_each_face_as_solved(monkeypatch, kind, digest):
    solved = count_solved(monkeypatch)

    class Out(io.StringIO):
        solved_at_writes = []

        def write(self, text):
            self.solved_at_writes.append((len(solved), text))
            return super().write(text)

    out = Out()
    assert main(["check", kind, "--n", "6", "--format", "json"], out=out) == EXIT_OK
    writes = out.solved_at_writes
    first_report = next(i for i, (_, text) in enumerate(writes) if text.startswith("[\n    {"))
    assert writes[0][0] == 0 and writes[first_report][0] == 1 and len(solved) == 105
    assert writes[-2:] == [(105, "true"), (105, "\n}\n")]
    # the stdout of the reports listed in full before the first was written
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_check_moduli_fan_builds_no_facets_or_contractions(monkeypatch):
    def refused(*args):
        raise AssertionError("the moduli fan is certified from its codimension-1 types")

    monkeypatch.setattr(divisors, "moduli_fan", refused)
    monkeypatch.setattr(divisors, "contract", refused)
    for kind in ("balancing", "smooth"):
        code, out = run(["check", kind, "--n", "7"])
        assert code == EXIT_OK and out.endswith("all checks passed\n")


def test_check_psi_lists_no_cones_or_contractions(monkeypatch):
    def refused(*args):
        raise AssertionError("the psi faces are read off their vertices")

    monkeypatch.setattr(divisors, "psi_divisor", refused)
    monkeypatch.setattr(divisors, "contract", refused)
    code, out = run(["check", "psi", "--n", "7", "--k", "3"])
    assert code == EXIT_OK and out.endswith("all checks passed\n")


def test_check_psi_pass_and_usage():
    code, out = run(["check", "psi", "--n", "5", "--k", "1"])
    assert code == EXIT_OK
    code, _ = run(["check", "psi", "--n", "5"])
    assert code == EXIT_USAGE
    code, _ = run(["check", "psi", "--n", "4", "--k", "1"])
    assert code == EXIT_USAGE


def test_check_broken_fan_fails(tmp_path):
    bad = {
        "n": 4,
        "dim": 1,
        "cones": [
            {"splits": [[3, 4]], "weight": 1},
            {"splits": [[2, 4]], "weight": 1},
        ],
    }
    path = tmp_path / "bad_fan.json"
    path.write_text(json.dumps(bad))
    code, out = run(["check", "balancing", "--fan", str(path)])
    assert code == EXIT_CERTIFICATE
    assert "UNBALANCED" in out


def test_check_fan_roundtrip_via_export(tmp_path):
    code, out = run(["export", "fan", "--n", "4"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["cones"]) == 3
    path = tmp_path / "fan.json"
    path.write_text(out)
    code, _ = run(["check", "balancing", "--fan", str(path)])
    assert code == EXIT_OK


def test_fan_file_reproduces_in_memory_verdicts(tmp_path):
    code, in_memory = run(["check", "balancing", "--n", "5", "--format", "json"])
    assert code == EXIT_OK
    _, exported = run(["export", "fan", "--n", "5"])
    path = tmp_path / "fan5.json"
    path.write_text(exported)
    code, from_file = run(["check", "balancing", "--fan", str(path), "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(from_file) == json.loads(in_memory)


def test_check_json_format():
    code, out = run(["check", "balancing", "--n", "4", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["reports"]) == 1
    assert payload["reports"][0]["sum"] == [0, 0, 0]


def test_export_link_dot():
    code, out = run(["export", "link", "--n", "5"])
    assert code == EXIT_OK
    assert out.startswith("graph link_n5 {")
    assert out.count(" -- ") == 15


def test_export_embed(tmp_path):
    point = ModuliPoint.of(4, {(3, 4): 1})
    path = write_point(tmp_path, point)
    code, out = run(["export", "embed", "--point", path])
    assert code == EXIT_OK
    assert json.loads(out) == ["0", "1", "1"]


def test_export_to_file(tmp_path):
    target = tmp_path / "link.dot"
    code, out = run(["export", "link", "--n", "5", "--output", str(target)])
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text().startswith("graph link_n5 {")


def test_export_builds_no_fan_or_link_graph_and_writes_as_it_goes(monkeypatch):
    # export streams its cones and edges as enumerate streams its types:
    # no whole fan, link graph or output text is held
    def refused(*args):
        raise AssertionError("export built the whole fan or link graph")

    monkeypatch.setattr(divisors, "moduli_fan", refused)
    monkeypatch.setattr(serialization, "fan_to_json", refused)
    monkeypatch.setattr(moduli, "link_graph", refused)

    class Out(io.StringIO):
        longest = 0

        def write(self, text):
            self.longest = max(self.longest, len(text))
            return super().write(text)

    for argv in (["fan", "--n", "7"], ["link", "--n", "7"], ["link", "--n", "7", "--format", "json"]):
        out = Out()
        assert main(["export", *argv], out=out) == EXIT_OK
        assert out.longest * 20 < len(out.getvalue())
    payload = json.loads(run(["export", "fan", "--n", "6"])[1])
    assert (payload["n"], payload["dim"], len(payload["cones"])) == (6, 3, 105)
    payload = json.loads(run(["export", "link", "--n", "6", "--format", "json"])[1])
    assert (len(payload["vertices"]), len(payload["edges"])) == (25, 105)


@pytest.mark.parametrize(
    "argv",
    [["fan", "--n", "6"], ["link", "--n", "6"], ["link", "--n", "6", "--format", "json"], ["embed"]],
    ids=["fan", "link-dot", "link-json", "embed"],
)
def test_export_output_file_holds_the_bytes_of_stdout(tmp_path, argv):
    if argv == ["embed"]:
        argv = ["embed", "--point", write_point(tmp_path, ModuliPoint.of(6, {(4, 5): "3/2"}))]
    code, out = run(["export", *argv])
    assert code == EXIT_OK and out
    target = tmp_path / "out.txt"
    assert run(["export", *argv, "--output", str(target)]) == (EXIT_OK, "")
    assert target.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv",
    [["fan", "--n", "11"], ["link", "--n", "4"], ["fan", "--n", "3"], ["embed", "--point", "absent"]],
    ids=["fan-past-the-limit", "link-too-small", "fan-too-small", "embed-missing-point"],
)
def test_a_refused_export_creates_no_output_file(tmp_path, capsys, argv):
    argv = [str(tmp_path / a) if a == "absent" else a for a in argv]
    target = tmp_path / "out.txt"
    code, out = run(["export", *argv, "--output", str(target)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == "" and not target.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_an_unwritable_output_is_one_cannot_write_line(tmp_path, capsys):
    target = tmp_path / "absent" / "link.dot"
    code, out = run(["export", "link", "--n", "5", "--output", str(target)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_export_embed_writes_the_bytes_of_embed(tmp_path):
    path = write_point(tmp_path, ModuliPoint.of(7, {(4, 5): "3/2", (3, 4, 5): "inf"}))
    code, out = run(["export", "embed", "--point", path])
    assert code == EXIT_OK and (code, out) == run(["embed", "--point", path])


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("check smooth --n 5 --fan FAN", "--fan"),
        ("check psi --n 6 --k 1 --fan FAN", "--fan"),
        ("check balancing --n 5 --k 2", "--k"),
        ("check balancing --n 5 --fan FAN", "--fan"),
        ("export fan --n 4 --format dot", "--format"),
        ("export embed --point POINT --n 5", "--n"),
        ("export link --n 5 --point POINT", "--point"),
        ("check balancing", "--n --fan"),
        ("check psi --n 6", "--k"),
    ],
)
def test_unread_or_missing_flag_is_one_error_line(tmp_path, capsys, argv, flag):
    # valid files, so that a command that ignored the flag would succeed
    fan = tmp_path / "fan.json"
    fan.write_text(run(["export", "fan", "--n", "5"])[1])
    point = write_point(tmp_path, ModuliPoint.of(5, {(4, 5): 1}))
    capsys.readouterr()
    argv = [{"FAN": str(fan), "POINT": point}.get(a, a) for a in argv.split()]
    code, out = run(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and flag in err


@pytest.mark.parametrize(
    "argv, choices",
    [
        ("", "{enumerate,embed,reconstruct,check,forget,section,decompose,export}"),
        ("check", "{balancing,smooth,psi}"),
        ("export", "{link,fan,embed}"),
        ("check --format json balancing --n 5", "{balancing,smooth,psi}"),
    ],
    ids=["bare", "check", "export", "flag-before-kind"],
)
def test_missing_or_unknown_kind_names_the_choices(capsys, argv, choices):
    code, out = run(argv.split())
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and choices in err
    assert not any(dest in err for dest in ("what", "target", "command"))


def test_forget_section_decompose(tmp_path):
    point = ModuliPoint.of(5, {(4, 5): "3/2", (3, 4, 5): 7})
    path = write_point(tmp_path, point)

    code, out = run(["forget", "--point", path, "--j", "3"])
    assert code == EXIT_OK
    assert json.loads(out)["labels"] == [1, 2, 4, 5]

    code, out = run(["forget", "--point", path, "--j", "3", "--relabel"])
    assert code == EXIT_OK
    assert "labels" not in json.loads(out)

    code, out = run(["section", "--point", path, "--k", "2"])
    assert code == EXIT_OK
    section_path = tmp_path / "section.json"
    section_path.write_text(out)

    code, out = run(["decompose", "--point", str(section_path)])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["components"]) == 2
    assert len(payload["gluings"]) == 1


def test_deterministic_output():
    for argv in (
        ["enumerate", "--n", "6", "--dim", "3", "--format", "json"],
        ["export", "link", "--n", "5"],
        ["check", "balancing", "--n", "5", "--format", "json"],
    ):
        assert run(argv) == run(argv)


def test_deterministic_across_processes():
    # set iteration order varies with the hash seed; output must not
    import subprocess
    import sys

    def run_seeded(seed):
        return subprocess.run(
            [sys.executable, "-m", "tropmod.cli", "export", "fan", "--n", "5"],
            capture_output=True,
            text=True,
            env={"PATH": "", "PYTHONHASHSEED": seed, "PYTHONPATH": ":".join(sys.path)},
        ).stdout

    outputs = {run_seeded(seed) for seed in ("0", "1", "31337")}
    assert len(outputs) == 1 and outputs.pop().startswith("{")


@pytest.mark.parametrize(
    "argv, first",
    [
        ("check balancing --n 8 --format text", b"face {"),
        ("check balancing --n 7 --format json", b"{"),
        ("export fan --n 8", b"{"),
        ("export link --n 9", b"graph link_n9 {"),
    ],
    ids=["text-8-face {", "json-7-{", "export-fan-8", "export-link-9"],
)
def test_closed_stdout_ends_quietly_with_exit_1(argv, first):
    # `tropmod ... | head -1`: every output is far larger than a pipe buffer,
    # so the command is still writing when the reader goes
    import subprocess

    proc = subprocess.Popen(
        [sys.executable, "-m", "tropmod.cli", *argv.split()],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PATH": "", "PYTHONPATH": ":".join(sys.path)},
    )
    line = proc.stdout.readline()
    proc.stdout.close()
    errors = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_USAGE
    assert line.startswith(first) and errors == b""


def test_thread_env_is_ignored(monkeypatch):
    fan = str(Path(__file__).with_name("fan_n6_weight2.json"))
    for argv, code in (
        (["check", "balancing", "--n", "5"], EXIT_OK),
        (["check", "balancing", "--fan", fan, "--format", "json"], EXIT_CERTIFICATE),
    ):
        monkeypatch.delenv("TROPMOD_THREADS", raising=False)
        expected = run(argv)
        assert expected[0] == code
        for value in ("zero", "0", "4"):
            monkeypatch.setenv("TROPMOD_THREADS", value)
            assert run(argv) == expected


def test_missing_file_is_usage_error(tmp_path):
    code, _ = run(["embed", "--point", str(tmp_path / "absent.json")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "splits",
    [
        [{"side": [4, 5], "length": 1.5}],  # float length
        [{"side": [4, 5]}],  # no length
        [{"side": [4, 5], "length": True}],  # boolean length
        [{"side": "45", "length": "1"}],  # side as a string of digits
    ],
    ids=["float-length", "missing-length", "bool-length", "digit-string-side"],
)
def test_malformed_point_is_one_error_line(tmp_path, capsys, splits):
    path = tmp_path / "bad_point.json"
    path.write_text(json.dumps({"n": 5, "splits": splits}))
    for argv in (["embed", "--point", str(path)], ["section", "--point", str(path), "--k", "1"]):
        code, out = run(argv)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1



# strings outside the "p/q" grammar, each with the value a looser reader
# took it for ("1/0" has none)
_OFF_GRAMMAR = {
    " 3/2": "3/2", "+3/2": "3/2", "1.5": "3/2", ".5": "1/2", "1e3": "1000", "1_000": "1000",
    "+inf": "inf", " inf": "inf", "\u0663": "3", "1/0": None,
}


# "1e20000000" once ran for half a minute before an unrelated error
@pytest.mark.parametrize("length", [*_OFF_GRAMMAR, "1e20000000"])
def test_length_outside_the_grammar_is_one_error_line(tmp_path, capsys, length):
    path = tmp_path / "bad_point.json"
    path.write_text(json.dumps({"n": 5, "splits": [{"side": [4, 5], "length": length}]}))
    for argv in (["embed"], ["forget", "--j", "2"], ["decompose"]):
        code, out = run(argv + ["--point", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="int-to-str conversion has no digit limit"
)
def test_numbers_past_the_digit_limit_are_one_short_error_line(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        point = tmp_path / "long_point.json"
        point.write_text(json.dumps({"n": 5, "splits": [{"side": [4, 5], "length": "1" * 5000}]}))
        vector = vector_to_json(embed(ModuliPoint.of(5, {(4, 5): "3/2"})))
        vector[0] = "1" * 5000
        vector_path = tmp_path / "long_vector.json"
        vector_path.write_text(json.dumps(vector))
        for argv in (
            ["embed", "--point", str(point)],
            ["reconstruct", "--vector", str(vector_path), "--n", "5"],
        ):
            code, out = run(argv)
            err = capsys.readouterr().err
            assert code == EXIT_USAGE and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert len(err.encode()) < 200 and "4300 digits" in err
        # within the limit a long length is read
        point.write_text(json.dumps({"n": 5, "splits": [{"side": [4, 5], "length": "1" * 4000}]}))
        code, out = run(["embed", "--point", str(point)])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == EXIT_OK and "1" * 4000 in out


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="int-to-str conversion has no digit limit"
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_embed_entry_past_the_digit_limit_writes_no_line(tmp_path, capsys, fmt):
    # each length is within the limit, but their common denominator is not
    lengths = {(4, 5): "1/" + "1" * 4000, (1, 2): "1/" + "1" * 3999 + "3"}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(point_to_json(ModuliPoint.of(5, lengths))))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out = run(["embed", "--point", str(path), "--format", fmt])
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("entry", _OFF_GRAMMAR)
def test_vector_entry_outside_the_grammar_is_one_error_line(tmp_path, capsys, entry):
    # a finite entry spells a value the vector has there, so only the grammar refuses it
    value = _OFF_GRAMMAR[entry]
    finite = value not in (None, "inf")
    vector = vector_to_json(embed(ModuliPoint.of(5, {(4, 5): value if finite else 1})))
    vector[vector.index(value) if finite else 0] = entry
    path = tmp_path / "bad_vector.json"
    path.write_text(json.dumps(vector))
    code, out = run(["reconstruct", "--vector", str(path), "--n", "5"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


_FAN_CONE = {"splits": [[4, 5], [3, 4, 5]], "weight": 1}


@pytest.mark.parametrize(
    "fan",
    [
        {"n": 5, "dim": 2, "cones": [{"weight": 1}]},  # cone without splits
        {"n": 5, "dim": 2, "cones": [dict(_FAN_CONE, weight=2.5)]},  # float weight
        {"n": 5, "dim": 2, "cones": [dict(_FAN_CONE, weight=True)]},  # boolean weight
        {"n": "5", "dim": 2, "cones": [_FAN_CONE]},  # n as a string
        {"n": 5, "dim": 2, "cones": [{"splits": ["45", [3, 4, 5]]}]},  # side as a string
        {"n": 5, "dim": 1, "cones": []},  # no cones
    ],
    ids=["missing-splits", "float-weight", "bool-weight", "string-n", "digit-string-side", "no-cones"],
)
def test_malformed_fan_is_one_error_line(tmp_path, capsys, fan):
    path = tmp_path / "bad_fan.json"
    path.write_text(json.dumps(fan))
    code, out = run(["check", "balancing", "--fan", str(path)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("entry", [1.5, True, None], ids=["float", "bool", "null"])
def test_malformed_vector_is_one_error_line(tmp_path, capsys, entry):
    vector = vector_to_json(embed(ModuliPoint.of(5, {(4, 5): "3/2"})))
    vector[0] = entry
    path = tmp_path / "bad_vector.json"
    path.write_text(json.dumps(vector))
    code, out = run(["reconstruct", "--vector", str(path), "--n", "5"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1

def test_check_json_carries_witnesses(tmp_path):
    code, out = run(["check", "smooth", "--n", "5", "--format", "json"])
    assert code == EXIT_OK
    for rep in json.loads(out)["reports"]:
        assert len(rep["witness"]["coefficients"]) == 1
        assert len(rep["witness"]["minor"]) == 3

    code, out = run(["check", "balancing", "--n", "5", "--format", "json"])
    for rep in json.loads(out)["reports"]:
        assert set(rep["witness"]) == {"coefficients"}

    bad = {"n": 4, "dim": 1, "cones": [{"splits": [[3, 4]]}, {"splits": [[2, 4]]}]}
    path = tmp_path / "bad_fan.json"
    path.write_text(json.dumps(bad))
    code, out = run(["check", "balancing", "--fan", str(path), "--format", "json"])
    assert code == EXIT_CERTIFICATE
    assert [rep["witness"] for rep in json.loads(out)["reports"]] == [None]


def test_reconstruct_shows_a_long_entry_off_the_image_short(tmp_path, capsys):
    # a 4,200-digit entry makes quartet 1234 (m, 0, 0), which is off the image
    vector = ["0"] * 15
    vector[0] = "1" * 4200
    path = tmp_path / "long_vector.json"
    path.write_text(json.dumps(vector))
    code, out = run(["reconstruct", "--vector", str(path), "--n", "5"])
    err = capsys.readouterr().err
    shown = "Fraction(" + "1" * 40 + "... (4200 characters), 1)"
    assert code == EXIT_USAGE and out == ""
    assert err == (
        f"error: quartet (1, 2, 3, 4): coordinates ({shown}, Fraction(0, 1), Fraction(0, 1))"
        " are not of the form (0, m, +-m)\n"
    )


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="int-to-str conversion has no digit limit"
)
@pytest.mark.parametrize(
    "argv, lengths",
    [
        (["section", "--k", "99"], {(7, 8): "1" * 4000, (6, 7, 8): "2" * 3999 + "/3"}),
        (["forget", "--j", "99"], {(7, 8): "1" * 4000, (6, 7, 8): "2" * 3999 + "/3"}),
        (["embed"], {(7, 8): "-" + "3" * 4000, (6, 7, 8): "1"}),
    ],
    ids=["section-bad-label", "forget-bad-label", "embed-negative-length"],
)
def test_error_lines_shorten_a_long_point_or_length(tmp_path, capsys, argv, lengths):
    path = tmp_path / "long_point.json"
    path.write_text(json.dumps({"n": 8, "splits": [
        {"side": list(side), "length": length} for side, length in lengths.items()
    ]}))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out = run([argv[0], "--point", str(path), *argv[1:]])
    finally:
        sys.set_int_max_str_digits(limit)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 150 and "characters)" in err


def test_error_lines_keep_a_short_point_or_length_as_it_was(tmp_path, capsys):
    path = write_point(tmp_path, ModuliPoint.of(5, {(4, 5): "3/2"}))
    for argv in (["section", "--k", "9"], ["forget", "--j", "9"]):
        code, out = run([argv[0], "--point", path, *argv[1:]])
        assert code == EXIT_USAGE and out == ""
        assert capsys.readouterr().err == (
            f"error: label 9 is not a leaf of ModuliPoint(n=5, {{45:3/2}})\n"
        )
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"n": 5, "splits": [{"side": [4, 5], "length": "-3/2"}]}))
    assert run(["embed", "--point", str(path)]) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "error: edge lengths must be positive, got -3/2\n"


def test_forget_cone_shortens_a_long_type_in_its_error():
    from tropmod import maps

    caterpillar = CombinatorialType.of(60, [range(k, 61) for k in range(3, 59)])
    with pytest.raises(ValueError) as caught:
        maps.forget_cone(caterpillar, 99)
    assert len(f"error: {caught.value}\n".encode()) < 150
    with pytest.raises(ValueError, match=r"^label 9 is not a leaf of CombinatorialType\(n=5, \{45\}\)$"):
        maps.forget_cone(CombinatorialType.of(5, [(4, 5)]), 9)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="int-to-str conversion has no digit limit"
)
def test_fan_weight_error_shortens_a_long_weight(tmp_path, capsys):
    fan = json.loads(Path(__file__).with_name("fan_n6_weight2.json").read_text())
    path = tmp_path / "fan.json"
    for weight, shown in ((-7, "-7"), (-int("9" * 4000), None)):
        fan["cones"][0]["weight"] = weight
        path.write_text(json.dumps(fan))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out = run(["check", "balancing", "--fan", str(path)])
        finally:
            sys.set_int_max_str_digits(limit)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE and out == ""
        if shown is not None:
            assert err == f"error: weights must be positive integers, got {shown}\n"
        else:
            assert err.count("\n") == 1 and len(err.encode()) < 150
