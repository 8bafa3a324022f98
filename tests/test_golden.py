"""Golden bit-exact hashes of the integer engine's outputs and containers.

Every {lstm, bilstm, encdec} x {8/8, 16/16, 8/8 + MadNorm} x {8, 32}-piece
model is built at seed 42 from small float weights, then run on fixed
inputs.  OUTPUT_SHA256 pins the integer outputs (every trace array of
`run_model_int`, dequantized as float64), CONTAINER_SHA256 pins the
bytes of `save()` and REF_SHA256 pins the float64 oracle's outputs
(`run_model_ref` on the exported float model).  A kernel or graph refactor
must leave all three unchanged; a change meant to alter bits regenerates
them with `python tests/test_golden.py` and says why.
"""

import hashlib

import numpy as np
import pytest

from irnn import model_io as mio
from irnn.cli import build_model, run_model_int, run_model_ref
from irnn.rnn import CellConfig

SEED = 42
N = M = 16
T = 12
SEQS = 4

CONFIGS = {
    "q8": dict(cell_bits=8, preact_bits=8),
    "q16": dict(cell_bits=16, preact_bits=16),
    "q8mn": dict(cell_bits=8, preact_bits=8, use_madnorm=True),
}
CASES = [
    (kind, cfg, pieces)
    for kind in ("lstm", "bilstm", "encdec")
    for cfg in CONFIGS
    for pieces in (8, 32)
]

OUTPUT_SHA256 = {
    "lstm-q8-p8": "41263f90053b7d3dbbf62329599187ec5f4b564da215e84d7cffadf299e3dee5",
    "lstm-q8-p32": "72890720f84f075e455bb43a65c722335a6ee07b6b266b2e12f1e97b44b47b2f",
    "lstm-q16-p8": "df3e807499084c7251c1ff343c01fce6f6ae9b6846fee306376e1923d8235009",
    "lstm-q16-p32": "d43109deb24f1c669f278bcffc4691af80d3e1022f381b20607d73a3030152df",
    "lstm-q8mn-p8": "134b851d6c429bd8fb4198254cdf2589d7a12b2ba9361d916f6b409763cc21f0",
    "lstm-q8mn-p32": "665039356eb740b0cbf009b87078e24ea8b0250b22ce2b71631e46794401af88",
    "bilstm-q8-p8": "1ba386c1e116aec60cfa290d7e5183e18792d04a9e8203dd2dcfb6bfae392764",
    "bilstm-q8-p32": "2947112210088a74607adf80c7e9e3e936f4d237d6d252753e72c1e02ae889e1",
    "bilstm-q16-p8": "a7757067d19973b71bc58b0652bce038ac1bb9c0256f8266a74c1d43c7b6218d",
    "bilstm-q16-p32": "bde12e557bb972717b82b18f48f305c8aad4fc4c4143cfab223b05737096f682",
    "bilstm-q8mn-p8": "b75dc817494ed0c1c962636005d524b4bd7186598059a0abc09b6c8b3dbbfe27",
    "bilstm-q8mn-p32": "d7a57b50685e93c721bfadc699cac0fb0fb9408261d6fc1fac7861e9128917fe",
    "encdec-q8-p8": "73cf3024f1cb10266aa6bdd93c9378db0606888aa8c13878d56b221bcc4b73ca",
    "encdec-q8-p32": "77ae8450454a7bde90f1e732f8216b2f56b3d9de2b512143838d9d57ec3d13ef",
    "encdec-q16-p8": "bef98795ce8b5ab76849fe024e01ac261bdd57ff8ae44b69ac251ea065923251",
    "encdec-q16-p32": "c7d9a95b0e5375b779b221d05b4382d746c5e9471967d37014e508b87c784893",
    "encdec-q8mn-p8": "d0832e519021dd3f436f58676348d3cf7a79a5bb9728fc8caab02f9ee49a9f9d",
    "encdec-q8mn-p32": "5327581c14bd3b3cd0c93abd537b2054834f629a6ab516e2149b4836d5cde0f5",
}
CONTAINER_SHA256 = {
    "lstm-q8-p8": "74258ffe240cb511fcaa0fcdbfcf69870463dc90bce97f6299ea59be34f004b8",
    "lstm-q8-p32": "58df51bb429803f273d03e6b8be4e1c93d10ad5ff193a301045c759460788176",
    "lstm-q16-p8": "ee52b55ff476a0f4484d107a7311a5aac06b0b2bee534e5ebb040a1f210b8608",
    "lstm-q16-p32": "8d85f3a58f7c9c5a17349387d0a69f8931a61d441cece3747a2636e30ec844b8",
    "lstm-q8mn-p8": "73cf34ac68b712bfcfa197f263532108604e7310e85608a2c1e77d1b790d8cd3",
    "lstm-q8mn-p32": "0d2ac031aa523e1c99926ad8c2ae38c2164b8f47b3d8f79b5bc7ff64205515af",
    "bilstm-q8-p8": "7e4892f0f94d81a3f6f8b4ef8433943dab4d712fd03d54ff71f826bb3c5406e7",
    "bilstm-q8-p32": "f02a2d59eadfcea8324bd1c13f33ee3a6f5ac4c69a90f3489a568d483f6b65b7",
    "bilstm-q16-p8": "dbbb85e7d2016dcc2332359a061cdf8374ad0324bb27fa3df34f5e6822047ca3",
    "bilstm-q16-p32": "e7bca02a00d14545412c6f13b2fab91aeb3a29f5d79ecb2230c5ff7d5535f3f8",
    "bilstm-q8mn-p8": "211a82f22e57660b41a25a8ffb002c1a0c2ae53d0bc4c36d2eaa6889a4cf8512",
    "bilstm-q8mn-p32": "1641a7dfe28354f039017764dc563873c92a49bd4104480e897b2ad3fd1fc40c",
    "encdec-q8-p8": "9f15a9055f77c2db2994b897bec137accbb992a27094a18edafd3c0c2ff0052e",
    "encdec-q8-p32": "cf09d4d5016d273182366afab60d44674141ba6b5291c03ad552e5ef7d474747",
    "encdec-q16-p8": "02ddf2cefb17681ccd87921111f3ccc00ee2673cd037b502ae131fa01370bb0f",
    "encdec-q16-p32": "0c4fa7ef08ba4765a59590164c6ed19ad0e8935619e549964794ceddbf7e7d12",
    "encdec-q8mn-p8": "8087cff6742f51cf79e0a082e828e004a3caf87e684626be63852b623f2452a2",
    "encdec-q8mn-p32": "a7d6695cd3314f4d51866d31f91c1a1efc2aec6c26fb24292ef5c097280894de",
}

# the oracle reads only the 8-bit weights and the MadNorm flag, so cases
# that differ only in cell bits or pieces share a hash
REF_SHA256 = {
    "lstm-q8-p8": "3f6f43d774d63a1f4cae971dbd3738bb777f28fbcce46e611e5809f625ecfc3e",
    "lstm-q8-p32": "3f6f43d774d63a1f4cae971dbd3738bb777f28fbcce46e611e5809f625ecfc3e",
    "lstm-q16-p8": "3f6f43d774d63a1f4cae971dbd3738bb777f28fbcce46e611e5809f625ecfc3e",
    "lstm-q16-p32": "3f6f43d774d63a1f4cae971dbd3738bb777f28fbcce46e611e5809f625ecfc3e",
    "lstm-q8mn-p8": "f6cf403f2aa48bc21bfcc1dd389ee1b1b875b2a02ed8f9f07bafa74f8758dffc",
    "lstm-q8mn-p32": "f6cf403f2aa48bc21bfcc1dd389ee1b1b875b2a02ed8f9f07bafa74f8758dffc",
    "bilstm-q8-p8": "f90a66625f90252545e2661fb0db9de7ff0d908ec5dd9523465730d77384c521",
    "bilstm-q8-p32": "f90a66625f90252545e2661fb0db9de7ff0d908ec5dd9523465730d77384c521",
    "bilstm-q16-p8": "f90a66625f90252545e2661fb0db9de7ff0d908ec5dd9523465730d77384c521",
    "bilstm-q16-p32": "f90a66625f90252545e2661fb0db9de7ff0d908ec5dd9523465730d77384c521",
    "bilstm-q8mn-p8": "2f92bb1a9e8c33cd35694c529191870b4c34b7399fa1335891aaa6bf710fc1e0",
    "bilstm-q8mn-p32": "2f92bb1a9e8c33cd35694c529191870b4c34b7399fa1335891aaa6bf710fc1e0",
    "encdec-q8-p8": "4c92d910f65207ece57648f76605e326412e052928eabd65404c4939c3e800cc",
    "encdec-q8-p32": "4c92d910f65207ece57648f76605e326412e052928eabd65404c4939c3e800cc",
    "encdec-q16-p8": "4c92d910f65207ece57648f76605e326412e052928eabd65404c4939c3e800cc",
    "encdec-q16-p32": "4c92d910f65207ece57648f76605e326412e052928eabd65404c4939c3e800cc",
    "encdec-q8mn-p8": "2de0a45b7bef4f3ee50c6d0f93646fe8b900ee722b2435781a610510bfe277c6",
    "encdec-q8mn-p32": "2de0a45b7bef4f3ee50c6d0f93646fe8b900ee722b2435781a610510bfe277c6",
}


def _float_model(kind: str, rng) -> mio.FloatModel:
    def cell(prefix, context=None):
        arrays = {
            prefix + "wx": rng.normal(0.0, 0.3, size=(4 * M, N)),
            prefix + "wh": rng.normal(0.0, 0.3, size=(4 * M, M)),
            prefix + "bias": rng.normal(0.0, 0.1, size=4 * M),
        }
        if context is not None:
            arrays[prefix + "ws"] = rng.normal(0.0, 0.3, size=(4 * M, context))
        return arrays

    if kind == "lstm":
        arrays = cell("")
    elif kind == "bilstm":
        arrays = {**cell("fwd_"), **cell("bwd_")}
    else:
        arrays = {
            **cell("enc_"),
            **cell("dec_", context=M),
            "att_wq": rng.normal(0.0, 0.4, size=(M, M)),
            "att_wk": rng.normal(0.0, 0.4, size=(M, M)),
            "att_v": rng.normal(0.0, 0.4, size=M),
        }
    return mio.FloatModel(kind, {k: v.astype(np.float32) for k, v in arrays.items()})


def _case_id(kind, cfg, pieces) -> str:
    return f"{kind}-{cfg}-p{pieces}"


def _digest(outs: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(outs):
        h.update(key.encode())
        h.update(np.ascontiguousarray(outs[key], dtype="<f8").tobytes())
    return h.hexdigest()


def _run_case(kind, cfg, pieces):
    """(container bytes, outputs of the built model, outputs after load,
    oracle outputs of the exported float model)."""
    rng = np.random.default_rng(SEED)
    fm = _float_model(kind, rng)
    calib = rng.normal(0.0, 1.0, size=(SEQS, T, N))
    inputs = rng.normal(0.0, 1.0, size=(SEQS, T, N))
    model = build_model(fm, calib, CellConfig(pwl_pieces=pieces, **CONFIGS[cfg]))
    blob = mio.save(model)
    ref = run_model_ref(mio.export_float(model), inputs)
    return blob, run_model_int(model, inputs), run_model_int(mio.load(blob), inputs), ref


@pytest.mark.parametrize("kind,cfg,pieces", CASES, ids=[_case_id(*c) for c in CASES])
def test_golden(kind, cfg, pieces):
    blob, built, loaded, ref = _run_case(kind, cfg, pieces)
    for key in built:
        np.testing.assert_array_equal(built[key], loaded[key])
    assert mio.save(mio.load(blob)) == blob
    case = _case_id(kind, cfg, pieces)
    assert hashlib.sha256(blob).hexdigest() == CONTAINER_SHA256[case]
    assert _digest(built) == OUTPUT_SHA256[case]
    assert _digest(ref) == REF_SHA256[case]


if __name__ == "__main__":
    outputs, containers, refs = {}, {}, {}
    for case in CASES:
        blob, built, _, ref = _run_case(*case)
        containers[_case_id(*case)] = hashlib.sha256(blob).hexdigest()
        outputs[_case_id(*case)] = _digest(built)
        refs[_case_id(*case)] = _digest(ref)
    for name, table in (
        ("OUTPUT_SHA256", outputs), ("CONTAINER_SHA256", containers), ("REF_SHA256", refs)
    ):
        print(f"{name} = {{")
        for case, digest in table.items():
            print(f'    "{case}": "{digest}",')
        print("}")
