"""Golden CSV bytes: every pinned argv must reproduce its recorded sha256.

The benchmark's seed-0 argv and their digests are read from
``perfbench/digests.json``, the one record of those bytes (re-recorded
with ``perfbench/record_digests.py`` after a declared change of output).
``EXTRA`` pins argv the benchmark workloads do not run: the incompressible
kind, ``--E``, other ``tangent-check`` and ``dilatation`` inputs, mixed
``limits``, mixed ``sweep`` of the power pair at q = 1/12 and at nu = 0
where J h' overflows, small ``stability`` scans, ``table-repro`` at
moduli whose finite targets (``+mu``, ``-lambda``, ``-3K``) depend on mu,
vol-iso ``limits`` whose probes need the continuation ladder, a
vol-iso ``limits`` whose finite constant is the bisection's root, and
vol-iso ``ul``/``elp`` sweeps at extreme moduli and stretches, whose every
point also evaluates the full stress tensor.
Each argv runs in-process through ``cli.main`` with ``--out`` and must
exit 0.
"""

import hashlib
import json
from pathlib import Path

import pytest

from nhcomp import cli

_DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"

EXTRA = {
    "sweep --case ul --model inc --lam-min 0.2 --lam-max 5 --points 7 --log":
        "f33bf315433b9ddf5a7f4bb8482b63126c659fff4593eeb3391d5bb54b9a8e74",
    "sweep --case elp --model inc --lam-min 0.2 --lam-max 5 --points 7 --log":
        "40cfd6b311b8350fca822acb2eb827c8c5501920340c231df5b8e92511a65aad",
    "sweep --case ulp --model inc --lam-min 0.2 --lam-max 5 --points 7 --E 3.3":
        "9424da19e2f18d86487a1a4955183e72aaee5ee8f7fe5df0bbdb99132e65696d",
    "sweep --case ul --model voliso --volfun 3 --nu 0.3 --E 2.5 --lam-min 0.4 --lam-max 3 "
    "--points 6":
        "2478549671e762d67516cedeb132bcd05f70abc374508846625a79f564041458",
    "sweep --case ulp --model mixed --volfun 6 --nu-set paper --E 1.7 --lam-min 0.3 "
    "--lam-max 4 --points 5 --log":
        "025b3b4175554df6bc6df6390fbd3925021dc1c6ee14bacc653987003ceb598a",
    "tangent-check --volfun all --nu 0.45 --motions 3":
        "60495def6b399c5238c69574d47feb7e66371f4598ec844de09386576ad1ff1a",
    "tangent-check --volfun ogden:-0.8 --nu 0.2 --mu 3.1":
        "4c04787239cc78cd0ff0e985228c61f5411ac71c04bfb681c529e3db9b8153ec",
    "dilatation --model mixed --volfun 4 --nu 0.3 --points 11":
        "9ccd9adafcda0da3c51767d5b7f9039168337c85a1fea26310128a57f6943c95",
    "dilatation --model mixed --volfun hn:2.5 --nu 0.45 --mu 1.3 --k-min 0.3 --k-max 3 "
    "--points 9":
        "2e0b7f9c5d01c74ee3c9cd3166a2e4d36ff6a09dd38fd2ed60534372967eb26c",
    # mixed sweeps of the power pair at q = 1/12, the two-point power approximation of ln J
    "sweep --case ul --model mixed --volfun hn:0.08333333333333333 --nu 0.3 --lam-min 0.3 "
    "--lam-max 3 --points 6 --log":
        "5cd8e6c1958c99fdfea06ce92f5e71d55ab7b333b0b98490e4cddd2bf224a055",
    "sweep --case elp --model mixed --volfun hn:0.08333333333333333 --nu-set paper "
    "--lam-min 0.5 --lam-max 2 --points 4":
        "787a031daa3fec9d668b1f931d12ade3beb5dd982d765ee65ab15ec4d7043e04",
    "sweep --case ul --model mixed --volfun hn:0.08333333333333333 --nu 0.3 --lam-min 0.1 "
    "--lam-max 50 --points 11":
        "fa5f0d36288e57eca048112dd1f6c901d0c329e3e136f38f21e2eb63a59a6271",
    "sweep --case elp --model mixed --volfun hn:0.08333333333333333 --nu 0.3 --lam-min 0.1 "
    "--lam-max 50 --points 11":
        "9ae31fcb42d58142e31bdc3bfc4e4bd65464ff0418b7113932a562a96f5bf9db",
    "sweep --case ulp --model mixed --volfun hn:0.08333333333333333 --nu 0.3 --lam-min 0.1 "
    "--lam-max 50 --points 11":
        "59796688a09759d139ace559e0cd9c61e9c26ac79050d170ffda093afeb229a1",
    "stability --grid-n 6 --nu-set paper --mu 1.3":
        "b87b7398021568c3aaa4ab762870e778388f041d6d68799b317efb076335e76d",
    "stability --grid-n 5 --volfun hn:0.5 --nu 0.3":
        "aaf67581787d448840ca46cfd4a8d6ccda287d4ce84d90cc8a8349d3c0cbacd7",
    "limits --case ul --model mixed --volfun 5 --nu 0.3":
        "243a5259b982e461a638d99ef9ccbef74fe8634fd1de5b34d34f914d6c229c3a",
    "limits --case ulp --model mixed --volfun 1 --nu 0.45":
        "6bc0ab536007a19d77b9eae93b11d11c7899ed5fa21ea7dcea644091b526eed2",
    # vol-iso #7 near incompressibility: the uniaxial compression probes find
    # three roots, and these bytes hold only if limit_probe walks its ladder
    "limits --case ul --model voliso --volfun 7 --nu 0.499999":
        "eed74b15e2214703c3816e1661a4e76bddcdb64b777005831ff6d5a0def7794f",
    "limits --case ul --model voliso --volfun 7 --nu 0.4999999":
        "3fa25ff44091671b882296f91d47d18eb63d0478d0c687e6a411556ef565a29e",
    # the to_zero lamT constant is the bisection's root at lam = 1e-6, where
    # the residual changes sign between u = ln lamT and a neighbouring float
    "limits --case ulp --model voliso --volfun 7 --nu 0":
        "37cb766f3af674cd842c189fe7ad7ab092f892d4c15d48ebfb86c80e890eb8c5",
    "table-repro --table 6 --mu 2.2":
        "7fcab9975649d492f098950ded8963d4718bd8751d2e02122143da4549371219",
    "table-repro --table 3 --mu 0.7":
        "872a2c7d66d8c5349b1d9405961026b9513af7733903d3da59c4abf29dec972c",
    "tangent-check --volfun 5 --nu 0.3":
        "f7ec5042819fa2deb3f862c113d7cfeafc6f4832b1c08c112cf5aa56bc82701b",
    # mixed at nu = 0 has no volumetric term, even where J h' overflows
    "sweep --case ul --model mixed --volfun 4 --nu 0 --lam-min 1e100 --lam-max 1e100 "
    "--points 1":
        "b709a5e0f1c8f1ce2eeef4affa32fe0f7abe86cc50ff0740fb5ecbd1d9cc54ec",
    # vol-iso sweeps whose every point runs the tensor cross-check: a modulus
    # near the float range, stretches to 1e+-4 near incompressibility, and
    # stretches to 1e+-5 at every paper nu
    "sweep --case ul --model voliso --volfun 2 --nu 0.3 --mu 1e300 --lam-min 1e-3 "
    "--lam-max 1e3 --points 5":
        "d5af614dfd2fcf4a59c21d81cce4efdfbe0716f5fb50ade2aa831ca1bf941dbf",
    "sweep --case elp --model voliso --volfun 4 --nu 0.4999 --lam-min 1e-4 --lam-max 1e4 "
    "--points 5":
        "6443e9cd909b50fd806c1cd5e4021779b6ab2354c61a99449d34a75e8f6ddd9b",
    "sweep --case ul --model voliso --volfun 8 --nu-set paper --lam-min 1e-5 --lam-max 1e5 "
    "--points 4":
        "0d27cb72ca263987dac1609f7191f1c47c520c3533066859787d48f0f3360026",
}


def _pinned():
    with open(_DIGESTS) as fh:
        pinned = json.load(fh)
    assert pinned, "perfbench/digests.json holds no digests"
    overlap = set(pinned) & set(EXTRA)
    assert not overlap, f"argv pinned twice: {sorted(overlap)}"
    return sorted({**pinned, **EXTRA}.items())


_PINNED = _pinned()


@pytest.mark.parametrize("argv, digest", _PINNED, ids=[argv for argv, _ in _PINNED])
def test_csv_bytes_match_the_pinned_digest(argv, digest, tmp_path):
    out = tmp_path / "out.csv"
    assert cli.main([*argv.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
