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
    "lstm-q8-p8": "cfed2e140ee4b9be179616f2179df559d1a9c1f8725017b8d2e21f9139978801",
    "lstm-q8-p32": "4e3d4acf2862d05e8f736fc3bc6ff3afb59436a4beef7e2066e1ec721afd6723",
    "lstm-q16-p8": "a77a401cf965a2a403a25087129b88057630bb571cafe32b2f466d99e137747f",
    "lstm-q16-p32": "721d80da436dc18aeb8b75934693fd1210c2ca9aa4df689cf29d2c1c34fc7b46",
    "lstm-q8mn-p8": "f15c5a627567170347fa2cf307dacb639d23c45ae546b093d2d57848fe441379",
    "lstm-q8mn-p32": "3c8af04ec8de45d4dbba2e8b94780ac0f37941cae4ce63ec243724142449f80e",
    "bilstm-q8-p8": "4b611a344f75a940076c553b08cbc1a353cfafc2ad8719edfb7d40fccb9eeab5",
    "bilstm-q8-p32": "2212b7eb4f18ddb174966ed78717e106e0433edbda1adc0b6b12baf386e2cda1",
    "bilstm-q16-p8": "a8706639c288fe7b0d35ef3a78f7d83071f51631954b91b538b28aacffc10710",
    "bilstm-q16-p32": "2da1eae8cd7f74da899482f021fe469ee8f70afa4ac13b3e76db17df7578152b",
    "bilstm-q8mn-p8": "4c4b2bb524bd38cca5a0a4e89030a1227f0866f45adc4205de34a0889d7084fd",
    "bilstm-q8mn-p32": "ea302a092f6dd63af3518647c3032e68c2bdf17391c4c9e59a24100d28a4da37",
    "encdec-q8-p8": "e3cab0f07f7bce2bbc4e86748a7ef5d295965d01ad6f8d96e41fa0c3f9183097",
    "encdec-q8-p32": "20549addd52b0c31963b8fdb894292b77719701cbd4c9269c9d40034af3ec392",
    "encdec-q16-p8": "37036d4974c2b00626d6294a8261479cb42bf8c78c0469b0e1949beb715f1a37",
    "encdec-q16-p32": "293d31de4b1b38b83a1eec128d266195ef1005a6b50c438e4fb97554499a5e0c",
    "encdec-q8mn-p8": "78d2dcf80e92a8146eb88f546a0c457c718ea6f1924165792505af7376800fa1",
    "encdec-q8mn-p32": "2d3e11c3d60acb02cc27b9c3bd5484e31523a03f03695a7b54b0385dc44405fa",
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
