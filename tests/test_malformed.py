"""Malformed input files: every reader returns a value or raises its
format's error with a message that starts with the file's path.

Mutation fuzzing (Zeller et al., The Fuzzing Book): each property starts
from a file the program wrote, applies one mutation (truncate, flip,
insert or delete a byte, drop or repeat a line, open a quote, add a
200,000-character field, put nan or inf in a number) and reads it back.
A blank line between rows cannot matter, so a mutant with blank lines
inserted after the top lines must read back equal to the original.  The
deterministic tests below pin each case that must be rejected.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsitriage.adaptation import AdapterModel, DomainStats, load_adapter, save_adapter
from wsitriage.aggregation import (SlideResult, SpecimenResult, load_specimen_results,
                                   save_class_scores, save_specimen_results)
from wsitriage.classifier import (N_FEATURES, N_HIDDEN, NetParams, load_params,
                                  save_params)
from wsitriage.cli import main
from wsitriage.config import Config, ConfigError, load_config
from wsitriage.confidence import (THRESHOLDS_HEAD, UNREACHABLE, ThresholdSet,
                                  load_thresholds, save_thresholds)
from wsitriage.manifest import (ClassLabel, DatasetManifest, SlideRecord, Split,
                                load_manifest, save_manifest)
from wsitriage.pipeline import (StageTiming, load_run_manifest, load_timings,
                                save_run_manifest, save_timings)
from wsitriage.pnm import PNMError, read_pgm, read_ppm, write_pgm, write_ppm
from wsitriage.roi import N_PIXEL_FEATURES, PixelSegmenter, load_segmenter, save_segmenter
from wsitriage.tables import TableError

MUTATIONS = settings(max_examples=60, deadline=None)
LONG_FIELD = b"x" * 200_000
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data with one mutation applied."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "delete", "drop_line",
                                 "repeat_line", "open_quote", "long_field",
                                 "non_finite"]))
    at = draw(st.integers(0, len(data) - 1))
    byte = draw(st.one_of(st.sampled_from(b'\x00\xff",\n\r'), st.integers(0, 255)))
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
    if kind == "insert":
        return data[:at] + bytes([byte]) + data[at:]
    if kind == "delete":
        return data[:at] + data[at + 1:]
    lines = data.split(b"\n")
    k = draw(st.integers(0, len(lines) - 1))
    if kind == "drop_line":
        return b"\n".join(lines[:k] + lines[k + 1:])
    if kind == "repeat_line":
        return b"\n".join(lines[:k + 1] + lines[k:])
    if kind in ("open_quote", "long_field"):
        # at the start of a field: a line start or just after a comma
        starts = [0] + [m.end() for m in re.finditer(rb"[,\n]", data)]
        at = draw(st.sampled_from(starts))
        return data[:at] + (b'"' if kind == "open_quote" else LONG_FIELD + b",") + data[at:]
    numbers = list(NUMBER.finditer(data))
    if not numbers:
        return data
    m = draw(st.sampled_from(numbers))
    return data[:m.start()] + draw(st.sampled_from([b"nan", b"inf", b"-inf"])) + data[m.end():]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """One file of each format, as the program writes it, by name."""
    out = tmp_path_factory.mktemp("written")
    rng = np.random.default_rng(3)
    paths = {name: out / name for name in (
        "manifest.txt", "reference.adapter", "segmenter.txt", "classifier.txt",
        "reference.thresholds", "timings.csv", "specimen_results.csv",
        "class_scores.csv", "run_manifest.txt", "config.cfg", "slide.ppm", "mask.pgm")}
    records = [SlideRecord(f"s{i}", f"sp{i // 2}", "lab_a", ClassLabel(i % 4),
                           f"/data/s{i}.ppm") for i in range(4)]
    save_manifest(DatasetManifest(records, {"s0": Split.TRAIN, "s1": Split.TRAIN,
                                            "s2": Split.TEST}), paths["manifest.txt"])
    save_adapter(AdapterModel(DomainStats(rng.normal(size=3), rng.random(3) + 0.5),
                              DomainStats(rng.normal(size=3), rng.random(3) + 0.5)),
                 paths["reference.adapter"])
    save_segmenter(PixelSegmenter(rng.normal(size=N_PIXEL_FEATURES), 0.25,
                                  rng.normal(size=N_PIXEL_FEATURES),
                                  rng.random(N_PIXEL_FEATURES) + 0.5),
                   paths["segmenter.txt"])
    save_params(NetParams(rng.normal(size=(N_FEATURES, N_HIDDEN)), rng.normal(size=N_HIDDEN),
                          rng.normal(size=(N_HIDDEN, 4)), rng.normal(size=4)),
                paths["classifier.txt"])
    thresholds = ThresholdSet((0.9, 0.95, 0.98), (0.5, 0.75, UNREACHABLE))
    save_thresholds(thresholds, paths["reference.thresholds"])
    save_timings([StageTiming(f"s{i}", "Classified", 10, 3, *(0.5 + i + j for j in range(9)))
                  for i in range(3)], paths["timings.csv"])
    specimens = [SpecimenResult("sp0", ClassLabel.SQUAMOUS, 0.8, "s1",
                                np.array([0.1, 0.8, 0.2, 0.3])),
                 SpecimenResult("sp1", None, None, None, None),
                 SpecimenResult("sp2", ClassLabel.OTHER, 0.6, "s4",
                                np.array([0.1, 0.2, 0.2, 0.6]))]
    save_specimen_results(specimens, thresholds, paths["specimen_results.csv"])
    save_class_scores(specimens, paths["class_scores.csv"])
    save_run_manifest(paths["run_manifest.txt"], "run_a", 5, 2, paths["manifest.txt"],
                      {"classifier": paths["classifier.txt"]}, Config(), wall_ms=1234.5,
                      slide_results=[SlideResult("s0", "sp0", ClassLabel.SQUAMOUS, 0.8),
                                     SlideResult("s1", "sp1")])
    # a config file as the run manifest's snapshot states it
    paths["config.cfg"].write_text("".join(f"{key[len('config.'):]}={value}\n"
                                           for key, value in Config().snapshot()))
    write_ppm(paths["slide.ppm"], rng.integers(0, 256, (3, 4, 3), dtype=np.uint8))
    write_pgm(paths["mask.pgm"], rng.integers(0, 256, (3, 4), dtype=np.uint8))
    return paths


# file name -> (reader of one path, the error it may raise)
READERS = {
    "manifest.txt": (load_manifest, TableError),
    "config.cfg": (load_config, ConfigError),
    "reference.adapter": (load_adapter, TableError),
    "segmenter.txt": (load_segmenter, TableError),
    "classifier.txt": (load_params, TableError),
    "reference.thresholds": (load_thresholds, TableError),
    "timings.csv": (load_timings, TableError),
    "run_manifest.txt": (load_run_manifest, TableError),
    "slide.ppm": (read_ppm, PNMError),
    "mask.pgm": (read_pgm, PNMError),
}


def _check_mutant(mutant, data, reader, error, *paths):
    """reader on data written to mutant: it returns, or raises error with
    a message that starts with one of paths (mutant's own by default)."""
    mutant.write_bytes(data)
    try:
        reader(mutant)
    except error as exc:
        assert str(exc).startswith(tuple(str(p) for p in paths or (mutant,))), str(exc)[:300]


def test_written_files_read_back(written):
    for name, (reader, _) in READERS.items():
        reader(written[name])
    load_specimen_results(written["specimen_results.csv"], written["class_scores.csv"])


@pytest.mark.parametrize("name", sorted(READERS))
@MUTATIONS
@given(data=st.data())
def test_mutated_file_is_read_or_rejected_with_its_path(written, tmp_path_factory, name,
                                                       data):
    reader, error = READERS[name]
    _check_mutant(tmp_path_factory.getbasetemp() / f"mutant-{name}",
                  data.draw(mutated(written[name].read_bytes())), reader, error)


@pytest.mark.parametrize("name", ["specimen_results.csv", "class_scores.csv"])
@MUTATIONS
@given(data=st.data())
def test_mutated_specimen_tables_read_or_rejected_with_a_path(written, tmp_path_factory,
                                                             name, data):
    """Either table of the pair mutated; the error may name the other one,
    as when a classified specimen's class-score row went missing."""
    mutant = tmp_path_factory.getbasetemp() / f"mutant-{name}"
    paths = {**written, name: mutant}
    _check_mutant(mutant, data.draw(mutated(written[name].read_bytes())),
                  lambda _: load_specimen_results(paths["specimen_results.csv"],
                                                  paths["class_scores.csv"]),
                  TableError, paths["specimen_results.csv"], paths["class_scores.csv"])


# file name -> its top lines, for every table format and the config file
TOP_LINES = {"manifest.txt": 1, "config.cfg": 0, "reference.adapter": 2,
             "segmenter.txt": 2, "classifier.txt": 2, "reference.thresholds": 2,
             "timings.csv": 2, "run_manifest.txt": 2, "specimen_results.csv": 2,
             "class_scores.csv": 2}


def _read(paths, name):
    """What the reader of paths[name] returns; a specimen table is read
    with the other table of its pair."""
    if name in READERS:
        return READERS[name][0](paths[name])
    return load_specimen_results(paths["specimen_results.csv"], paths["class_scores.csv"])


def _assert_same(a, b):
    """a equals b: dataclasses field by field, arrays elementwise."""
    assert type(a) is type(b), (a, b)
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert a.shape == b.shape and np.array_equal(a, b), (a, b)
    elif isinstance(a, dict):
        assert list(a) == list(b), (a, b)
        for key in a:
            _assert_same(a[key], b[key])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), (a, b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    else:
        assert a == b, (a, b)


@pytest.mark.parametrize("name", sorted(TOP_LINES))
@MUTATIONS
@given(data=st.data())
def test_blank_lines_after_the_top_lines_read_back_equal(written, tmp_path_factory, name,
                                                         data):
    lines = written[name].read_bytes().split(b"\n")   # the last one is empty
    at = data.draw(st.lists(st.integers(TOP_LINES[name], len(lines) - 1),
                            min_size=1, max_size=4))
    for k in sorted(at, reverse=True):
        lines.insert(k, data.draw(st.sampled_from([b"", b"\r"])))   # LF or CRLF
    mutant = tmp_path_factory.getbasetemp() / f"blank-{name}"
    mutant.write_bytes(b"\n".join(lines))
    _assert_same(_read({**written, name: mutant}, name), _read(written, name))


def _edited(written, tmp_path, name, edit):
    """A copy of written[name] with edit applied to its bytes."""
    path = tmp_path / name
    path.write_bytes(edit(written[name].read_bytes()))
    return path


class TestTables:
    """Every CSV reader: bytes, quoting, field size and repeated keys."""

    def test_byte_not_utf8_names_its_line(self, written, tmp_path):
        path = _edited(written, tmp_path, "manifest.txt",
                       lambda b: b.replace(b"s2,", b"s\xff2,"))
        with pytest.raises(TableError, match=f"^{path}:4: byte 0xff is not UTF-8"):
            load_manifest(path)

    def test_field_above_the_csv_limit(self, written, tmp_path):
        path = _edited(written, tmp_path, "manifest.txt",
                       lambda b: b.replace(b"lab_a", b"x" * 200_001, 1))
        with pytest.raises(TableError, match=f"^{path}:2: field larger than field limit"):
            load_manifest(path)

    def test_unclosed_quote_at_end_of_file(self, written, tmp_path):
        path = _edited(written, tmp_path, "manifest.txt",
                       lambda b: b + b's9,sp9,lab_a,Other,,"/data/s9.ppm\n')
        with pytest.raises(TableError, match=f"^{path}:6: unexpected end of data"):
            load_manifest(path)

    def test_text_after_a_closing_quote(self, written, tmp_path):
        path = _edited(written, tmp_path, "manifest.txt",
                       lambda b: b.replace(b"s1,", b'"s1"x,'))
        with pytest.raises(TableError, match=f"^{path}:3: ',' expected after"):
            load_manifest(path)

    @pytest.mark.parametrize("name, line", [
        ("manifest.txt", 3), ("timings.csv", 4), ("run_manifest.txt", 4),
        ("reference.thresholds", 4), ("specimen_results.csv", 4),
        ("class_scores.csv", 4), ("reference.adapter", 4), ("segmenter.txt", 4),
        ("classifier.txt", 4)])
    def test_repeated_key_rejected_at_its_line(self, written, tmp_path, name, line):
        def repeat_first_row(data):
            lines = data.split(b"\n")
            return b"\n".join(lines[:line - 1] + [lines[line - 2]] + lines[line - 1:])

        path = _edited(written, tmp_path, name, repeat_first_row)
        with pytest.raises(TableError, match=rf"^{path}:{line}: repeated key '.*', "
                                             rf"first on line {line - 1}$"):
            _read({**written, name: path}, name)


class TestModelFiles:
    def _array_row(self, written, tmp_path, name, row, replacement):
        return _edited(written, tmp_path, name, lambda b: re.sub(
            rb"(?m)^" + row + rb",.*$", replacement, b))

    def test_unknown_array(self, written, tmp_path):
        path = _edited(written, tmp_path, "reference.adapter",
                       lambda b: b + b"scale,1,2.0\n")
        with pytest.raises(TableError, match=f"^{path}:7: unknown array 'scale'"):
            load_adapter(path)

    def test_six_weight_segmenter(self, written, tmp_path):
        path = self._array_row(written, tmp_path, "segmenter.txt", b"weights",
                               b"weights,6,1.0 2.0 3.0 4.0 5.0 6.0")
        with pytest.raises(TableError, match=rf"^{path}:3: array 'weights' of shape "
                                             rf"\(6,\) with 6 values, expected shape \(7,\)"):
            load_segmenter(path)

    def test_adapter_mean_of_two_values(self, written, tmp_path):
        path = self._array_row(written, tmp_path, "reference.adapter", b"source_mean",
                               b"source_mean,2,1.0 2.0")
        with pytest.raises(TableError, match=f"^{path}:3: array 'source_mean'"):
            load_adapter(path)

    def test_shape_and_value_count_disagree(self, written, tmp_path):
        path = self._array_row(written, tmp_path, "classifier.txt", b"b2",
                               b"b2,4,1.0 2.0 3.0")
        with pytest.raises(TableError, match=f"^{path}:6: array 'b2' of shape"):
            load_params(path)

    @pytest.mark.parametrize("value", [b"nan", b"inf", b"-inf"])
    def test_non_finite_value(self, written, tmp_path, value):
        path = self._array_row(written, tmp_path, "segmenter.txt", b"bias",
                               b"bias,," + value)
        with pytest.raises(TableError, match=f"^{path}:4: expected a finite number"):
            load_segmenter(path)


class TestNonFinite:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_timings_ms(self, written, tmp_path, value):
        path = _edited(written, tmp_path, "timings.csv",
                       lambda b: b.replace(b",1.5,", f",{value},".encode(), 1))
        with pytest.raises(TableError, match=f"^{path}:3: expected a finite number"):
            load_timings(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_run_manifest_wall_ms(self, written, tmp_path, value):
        path = _edited(written, tmp_path, "run_manifest.txt",
                       lambda b: b.replace(b"wall_ms,1234.5", f"wall_ms,{value}".encode()))
        with pytest.raises(TableError, match=f"^{path}:7: expected a finite number"):
            load_run_manifest(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_config_float_key(self, tmp_path, value):
        path = tmp_path / "c.cfg"
        path.write_text(f"seed=1\ntiling.s_min={value}\n")
        with pytest.raises(ConfigError, match=f"^{path}:2: bad value for 'tiling.s_min'"):
            load_config(path)


class TestCounts:
    @pytest.mark.parametrize("level, message", [
        (b"banana", "invalid literal for int"), (b"-1", "must be at least 0, got -1$")],
        ids=["not-a-number", "negative"])
    def test_specimen_level(self, written, tmp_path, level, message):
        path = _edited(written, tmp_path, "specimen_results.csv",
                       lambda b: b.replace(b"0.8,2,s1", b"0.8," + level + b",s1"))
        with pytest.raises(TableError, match=f"^{path}:3: {message}"):
            load_specimen_results(path, written["class_scores.csv"])

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_run_manifest_worker_count(self, written, tmp_path, count):
        path = _edited(written, tmp_path, "run_manifest.txt",
                       lambda b: b.replace(b"worker_count,2", f"worker_count,{count}".encode()))
        with pytest.raises(TableError, match=f"^{path}:5: must be at least 1, got {count}$"):
            load_run_manifest(path)


class TestOtherReaders:
    def test_config_byte_not_utf8(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"seed=1\n# caf\xe9\nworkers=2\n")
        with pytest.raises(ConfigError, match=f"^{path}:2: byte 0xe9 is not UTF-8"):
            load_config(path)

    def test_decreasing_thresholds_name_path(self, tmp_path):
        path = tmp_path / "t.thresholds"
        path.write_text("\n".join(THRESHOLDS_HEAD) + "\n1,0.9,0.7\n2,0.95,0.6\n")
        with pytest.raises(TableError, match=f"^{path}: thresholds must be non-decreasing"):
            load_thresholds(path)

    @pytest.mark.parametrize("name, reader", [("slide.ppm", read_ppm), ("mask.pgm", read_pgm)])
    def test_pnm_bytes_after_pixel_data(self, written, tmp_path, name, reader):
        path = _edited(written, tmp_path, name, lambda b: b + b"\x00" * 4)
        with pytest.raises(PNMError, match=f"^{path}: bytes after the"):
            reader(path)


class TestCli:
    """The CLI's one error path: exit 2 with the path first on stderr."""

    def test_directory_as_manifest(self, tmp_path, capsys):
        assert main(["split", "--manifest", str(tmp_path),
                     "--out", str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"

    def test_missing_model_file(self, written, tmp_path, capsys):
        assert main(["run", "--manifest", str(written["manifest.txt"]),
                     "--models", str(tmp_path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}/")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit", [
        lambda b: b.replace(b"s2,", b"s\xff2,"),
        lambda b: b.replace(b"lab_a", b"x" * 200_001, 1),
    ], ids=["byte_not_utf8", "long_field"])
    def test_malformed_manifest(self, written, tmp_path, capsys, edit):
        path = _edited(written, tmp_path, "manifest.txt", edit)
        assert main(["split", "--manifest", str(path),
                     "--out", str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:")

    def test_config_byte_not_utf8_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"seed=\xff\n")
        assert main(["synth", "--config", str(path), "--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}:1:")
