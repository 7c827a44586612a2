"""The pin store and its one command: every stored value belongs to one
pin, a moved pin names both builds, and the command rewrites only what
moved."""

import shutil

import pytest

import pins

def stored_files(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for folder in pins.FILE_DIRS
            for path in sorted((root / folder).rglob("*")) if path.is_file()}


def copy_store(root):
    for folder in pins.FILE_DIRS:
        shutil.copytree(pins.ROOT / folder, root / folder)


def test_every_stored_value_belongs_to_exactly_one_pin():
    # no orphan file and no pin without a value: each demo has its expected
    # output and each golden case its CSV, and pins.json holds one digest
    # for each digest pin and no other
    file_pins = {name for name in pins.PINS if pins.is_file_pin(name)}
    assert set(stored_files(pins.ROOT)) - {pins.STORE} == file_pins
    store = pins.read_store()
    assert set(store["digests"]) == set(pins.PINS) - file_pins
    assert set(store["build"]) == {"numpy", "openblas", "simd"}


@pytest.mark.parametrize("name", ["tests/golden/sgd_sls-giveup.csv",
                                  "golden/sgd_sls-giveup"],
                         ids=["csv", "digest"])
def test_a_moved_pin_names_both_builds(tmp_path, name):
    copy_store(tmp_path)
    store = pins.read_store(tmp_path)
    store["build"] = {"numpy": "1.26.4", "openblas": "Prescott",
                      "simd": "X86_V2"}
    old = store["digests"]["golden/sgd_sls-giveup"]
    store["digests"]["golden/sgd_sls-giveup"] = old[::-1]
    pins.write_store(store, tmp_path)
    csv = tmp_path / "tests/golden/sgd_sls-giveup.csv"
    lines = csv.read_text().splitlines(True)
    csv.write_text("".join(lines[:3] + ["altered\n"] + lines[4:]))

    with pytest.raises(AssertionError) as moved:
        pins.check(name, root=tmp_path)
    message = str(moved.value)
    recorded = message.index(pins.describe(store["build"]))
    current = message.index(pins.describe(pins.current_build()))
    if pins.is_file_pin(name):
        what = message.index(f"line 4 moved\n  stored: altered\n"
                             f"  run:    {lines[3].rstrip()}")
    else:
        what = message.index(f"stored: {old[::-1]}\n  run:    {old}")
    assert message.startswith(f"{name} moved\n")
    assert recorded < current < what


def test_the_command_rewrites_only_what_moved(tmp_path, capsys):
    copy_store(tmp_path)
    store = pins.read_store(tmp_path)
    digest = "golden/adam_sls-giveup"
    store["digests"][digest] = store["digests"][digest][::-1]
    pins.write_store(store, tmp_path)
    csv = "tests/golden/sgd_sls-giveup.csv"
    lines = (tmp_path / csv).read_text().splitlines(True)
    (tmp_path / csv).write_text("".join(lines[:2] + ["altered\n"] + lines[3:]))
    names = [csv, "golden/sgd_sls-giveup", digest,
             "tests/golden/adam_sls-giveup.csv", "run-json/sgd-epochs0"]

    pins.rerecord(names, root=tmp_path)

    out = capsys.readouterr().out
    reported = dict(line.split() for line in out.splitlines()
                    if not line.startswith(" "))
    assert reported == {name: "moved" if name in (csv, digest) else "same"
                        for name in names}
    assert (f"{csv} moved\n  line 3 moved\n  stored: altered\n"
            f"  run:    {lines[2].rstrip()}\n") in out
    assert stored_files(tmp_path) == stored_files(pins.ROOT)


def test_the_command_takes_no_arguments(capsys):
    with pytest.raises(SystemExit, match="no arguments"):
        pins.main(["--write"])
    assert capsys.readouterr().out == ""
