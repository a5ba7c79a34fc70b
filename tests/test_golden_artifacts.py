"""Golden bytes: `gdfif run` on the bundled configs writes exactly these files.

Each digest is the sha256 of one artifact, or of the summary printed on
standard output, recorded before the transfer operator was batched
(x86-64, Python 3.11, numpy 2.4). Speed work must leave every byte as it
is; a change that means to alter an artifact updates its digest here and
says why in CHANGES.md.

example1 is the only bundled config that writes a chaos CSV, and its one
vertex draws no random word for the vertex choice. The example2 chaos
digest covers a two-vertex walk; it was recorded before the chaos game's
draws were batched.
"""

import hashlib

import pytest

from gdfif.cli import bundled_config_path, main

GOLDEN = {
    "example1": {
        "<stdout>":
            "c5edc739ab383d6ce8b522b1ed998314379b31ea257f76bfea7e4071fe5f9232",
        "example1.svg":
            "055a13e80171023aa0a2a0ed540e50238450eb334a5398f292022f1d6ace29d0",
        "example1_attractor.pgm":
            "a600b3208b62f56abc6a61be624c09042656aefd5d2992d0990a82d6588e5531",
        "example1_chaos.csv":
            "7eeddfdb18e55fcba463250b6c70bea85a1c62fe30bd545a46483556da7cf51c",
        "example1_curve.csv":
            "050f4dfcfb8608d31d07bdb2208ccf27938db7a40a71b248cef9e3271435233b",
        "example1_summary.json":
            "c5edc739ab383d6ce8b522b1ed998314379b31ea257f76bfea7e4071fe5f9232",
    },
    "example2": {
        "<stdout>":
            "6ced117e149c9768426c5927e7dfe1d5fcf63d9d92cfffef8a6e3c3fac841f2d",
        "example2.svg":
            "9617a63d4fc74d9dec61bdc8bc3ddc46506f4ce5d0c1ec04d1ca92578d32b9f9",
        "example2_attractor.pgm":
            "ad788d45c648c28cb7bd99a5c2e0f667c0fb11d38c1421a20653a39c96d06bcd",
        "example2_curve.csv":
            "63d90cf0a468aa0e0de6cfac53301ffce3caa9f71a8229aed11fde872db23933",
        "example2_summary.json":
            "6ced117e149c9768426c5927e7dfe1d5fcf63d9d92cfffef8a6e3c3fac841f2d",
    },
    "example2b": {
        "<stdout>":
            "ed93f315fd36bf4f647f68b27b536539e63e7ecda20ddbaaab5b0511e0a2d745",
        "example2b.svg":
            "c26ed200481ec13f3bfb015bfa1a5ed6106dec1aa41a809ae765cc6292f27a80",
        "example2b_attractor.pgm":
            "0096b9b9c850ecdaac4fcfae260e48af72accf2d96c2bb796bdfe5c2da340b46",
        "example2b_curve.csv":
            "5dfb6ce37c266801193b7c105046192e7e4c211e626ea6ab6ab56cecda694562",
        "example2b_summary.json":
            "ed93f315fd36bf4f647f68b27b536539e63e7ecda20ddbaaab5b0511e0a2d745",
    },
    "flat": {
        "<stdout>":
            "a0858040064391d85e331ef4b1921524ecb411f504de16e8738305e184e8211f",
        "flat.pgm":
            "384f99ad10aba32a5857dfe79bb1edbdfde7d64adeef4a0d6afb8f5aa0cbb0c4",
        "flat_curve.csv":
            "551af47b8c65cfb36ab13543471f2702a8b245c6e6f010c9beac03f0deece885",
        "flat_summary.json":
            "a0858040064391d85e331ef4b1921524ecb411f504de16e8738305e184e8211f",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_run_artifacts_are_byte_identical(name, tmp_path, capsys):
    assert main(["run", name, "--outdir", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    digests["<stdout>"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == GOLDEN[name]


EXAMPLE2_CHAOS_CSV = "580be09d3a5decf985e81a2fdc09b0be44e715e2e7b1ce4cb2582f0bb55e35d3"


def test_example2_chaos_csv_is_byte_identical(tmp_path):
    # example2.yaml lists no chaos_csv output, so the test adds one.
    config = tmp_path / "example2.yaml"
    config.write_text(bundled_config_path("example2").read_text()
                      + "  chaos_csv: example2_chaos.csv\n")
    outdir = tmp_path / "out"
    assert main(["run", str(config), "--chaos-points", "5000", "--outdir", str(outdir)]) == 0
    digest = hashlib.sha256((outdir / "example2_chaos.csv").read_bytes()).hexdigest()
    assert digest == EXAMPLE2_CHAOS_CSV
