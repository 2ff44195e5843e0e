"""The files a few small commands write, pinned by sha256.

Each command below writes a run directory; its files must match the
digests byte for byte, and what it prints on stderr must match the text.
Together they cover a fit window whose ceiling the Dirichlet floor sets
(``window_hi``), on the default grid and on the earlier [1, 1e8] one,
windows that collapse on that ceiling (the ceiling is named on stderr),
the floor's fallback bracket (``--lambda-lo 1e4`` puts the grid above the
floor), the renewal and excursion routes, and the bracketing check. Two
more reach the counting sweep's less common paths: a depth-11 replica,
whose first round rakes and compresses 59,049 vertices in two column
tiles, and the ``crt-route-2e16`` benchmark command, whose excursion tree
rakes without fusing, in blocks of several shifts, and scatters through
``np.add.at``. A change meant to keep every number must keep every
digest; one meant to move them re-pins the digests and says so.

The digests were taken with numpy ``PINNED_NUMPY``; the floating-point
results may round differently under another numpy, so the test skips
there.
"""

import hashlib

import numpy as np
import pytest

from crt_spectra import cli

PINNED_NUMPY = "2.4.6"

_NO_WINDOW = "warning: no resolved window ({}); curves written without fit\n"

# command -> (stderr, {file written: sha256})
PINNED = {
    ("ensemble", "--depth", "8", "--replicas", "4", "--seed", "2"): ("", {
        "config.json": "556656f528ead2627bb00a1ad6640cd5f8f8c4a3ee08debf06a5d6c9aff3b42b",
        "curves.csv": "275bf3f568f4604725403e74cdd85f15deea4222d43ba0ebe109205d7971b601",
        "fit.json": "5f64725f8a89eb4a951c1cf68859125865f17a9e539b30ab0ff5bd64a1e017bc",
    }),
    # the same run on the earlier default grid, 97 points on [1, 1e8]
    ("ensemble", "--depth", "8", "--replicas", "4", "--seed", "2", "--lambda-hi", "1e8", "--points", "97"): ("", {
        "config.json": "9f23f440473b0f96f8738501c8c207d0dc883b78ee4987f649581422020f6e1f",
        "curves.csv": "7a92a412476cce3fdf07e71fde4e89e91f71cfdea2fb9a0096ad4dd5edd49a95",
        "fit.json": "5f64725f8a89eb4a951c1cf68859125865f17a9e539b30ab0ff5bd64a1e017bc",
    }),
    ("ensemble", "--depth", "8", "--replicas", "4", "--seed", "1"): (
        _NO_WINDOW.format("window [121.15276586285876, 247.9404740153777] spans less than half a decade"), {
            "config.json": "84faeba987ffaafe76a10e6e15ea2889b2b6f3292fd7abd2c7ad4779e0a0eb40",
            "curves.csv": "9d0c3dd5159877e924c63d133b1a471da9bf3423872c66c599a6deb8ca2d9ec6",
        }),
    ("ensemble", "--depth", "5", "--replicas", "2", "--seed", "3", "--lambda-lo", "1e4"): (
        _NO_WINDOW.format(
            "resolution ceiling 65.19534356732866 lies below 10000.0, the lambda where the mean count reaches 6"
        ), {
            "config.json": "8f196678aee5e0104c923f2885ec4f0466ba31d48d2102847e30fed7f7b5be57",
            "curves.csv": "73d8c3fb4f9ae9b887bb39aad53f7cc5c899d1562d33388d30a1310ff7811155",
        }),
    ("renewal", "--depth", "4", "--replicas", "4", "--seed", "2"): (
        _NO_WINDOW.format(
            "resolution ceiling 56.700168268045886 lies below 177.82794100389228, "
            "the lambda where the mean count reaches 6"
        ), {
            "config.json": "74fcd0c90599626ee5ea37527bb5c204ebc17dcd5edc22582e13f4521c06d60e",
            "curves.csv": "e0ff7be81b40bf3d6b9c4f25cf1ce3964e15f0a23a304f5a4a992f861b0b013a",
            "renewal.json": "8ebfa21e6de60de5522590edbf250a619e4ad40a48e28b1efdcf2a07841f0494",
        }),
    ("crt-route", "--steps", "4096", "--leaves", "200", "--replicas", "2", "--seed", "1"): ("", {
        "config.json": "0944783a69c8f2265e1559a4f45d1a94cdeb509311053ac5273443f3e0de5074",
        "curves.csv": "6d8f778d1612a41de68046c7eb439c0ce0efce62fce23c98421334eee5fefcf1",
        "fit.json": "a1a4f02b764340a52206e0b10cc1d4e4b9ee402768b46d586a3a5891d76bdded",
    }),
    ("spectrum", "--depth", "4", "--seed", "1", "--check-bracketing"): ("", {
        "meta.json": "613d62f89862f0824f4d02df1e8b0e70281386d1353907e9e0bf254b867321d8",
        "spectrum_dirichlet.csv": "e896c19cabd38d2bc2eb7065444826e14a911524c8ef6dce9c2db9e8643a5393",
        "spectrum_neumann.csv": "ed86d5b04044daa39974086be9737d142d80e910e9ce5e7003d799fbe7953974",
    }),
    ("ensemble", "--depth", "11", "--replicas", "1", "--seed", "2"): ("", {
        "config.json": "edd49d984ac2da036012ede27757a144a7f04fba1014211be89da30a5bef21e3",
        "curves.csv": "88280396750ff1c3668cc5ef3a185e0675c1a3d1656378c725b43185b37b9244",
        "fit.json": "3b807aaf342dadcc0a374407768ef290c035d68339d44566a336499a2b20e643",
    }),
    ("crt-route", "--steps", "65536", "--leaves", "3000", "--replicas", "1", "--seed", "7"): ("", {
        "config.json": "4179ce2e2e5b530df36f49292110f6361481b967eccb9696fcd361f92656995c",
        "curves.csv": "d58b5b1beb5c5ce4253eedebc1a9b6daf32ccc769d39e9de986b0b3503f71ee2",
        "fit.json": "7ac478f0b15a5873c12b9c08cfa1a1300e12fbb5cabe5f0d58dbac4596038cc9",
    }),
}


@pytest.mark.skipif(np.__version__ != PINNED_NUMPY, reason=f"digests taken with numpy {PINNED_NUMPY}")
@pytest.mark.parametrize("argv", list(PINNED), ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_command_writes_pinned_bytes(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert cli.main([*argv, "--out", str(out)]) == 0
    stderr, digests = PINNED[argv]
    assert capsys.readouterr().err == stderr
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out.iterdir())} == digests
