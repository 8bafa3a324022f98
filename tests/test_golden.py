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
    "lstm-q8-p8": "b4f7a956eeb5ebda0d4e8ede29bfedd5f519bb1bc7056b482742f4650e1bef6e",
    "lstm-q8-p32": "10b7ffdafa083bc6bcf0c18c4db915c2ac3a54a719f31c9b3657b397a12123f8",
    "lstm-q16-p8": "6d88c4fc1ef547568bf060dd5de5757ebda3dfc3614cf03d7aa428e7fa27699e",
    "lstm-q16-p32": "e6e02f4dba37669f2fdf97319d0c693b7528dccf1088021171cb46be5fb9944a",
    "lstm-q8mn-p8": "9b44327f6e43a580c87adacec11268e4cb805ae2b470851f3905968788eba6dd",
    "lstm-q8mn-p32": "aaa369ce41703379a6b413f03e618b4eb7606ae506ff322deef981b1380e2b7c",
    "bilstm-q8-p8": "f231b3ea041c0727f423a7cbdbc16dac27cdbe5e228d229e5fb496881d5d6d14",
    "bilstm-q8-p32": "61523d9d5d7f0d43d0025194a610f2a1ef10c224b6a1247d4c441ec051aa50db",
    "bilstm-q16-p8": "752a3aa3359974b73da5ee23ac44891a85fe793fbf874c175a71e986098bf0a5",
    "bilstm-q16-p32": "037564453dfa652643a6e6893aae7f63eed7e0aa1f52f0fb89a2a69e03471723",
    "bilstm-q8mn-p8": "e99ed98505ea446b66d675c62d86b7cb0570d84f9a9ea760c739875f89c9847b",
    "bilstm-q8mn-p32": "e9bd971b808238c1bd695fba273a9fb8c5e1db16f5c7769d77e6ecbb4f6fb686",
    "encdec-q8-p8": "1015317bcf5526303f581c6170e26f608016fb4a0f5c565c12af6b487b3953b4",
    "encdec-q8-p32": "f18795e800f802872ddfeee2a33ad027be5afb1621078fa422bf48d7fa49d783",
    "encdec-q16-p8": "07ab78bd13b6cf6d1a73137f19896b68a1ba71e715e09f3b50fb669bb3328cd4",
    "encdec-q16-p32": "a57fdb6c818f355f49a9af3c4e1c37a460020f6733bc0c49622cc15889cacfe6",
    "encdec-q8mn-p8": "552394b2456ad05a36a5538feca765b6ad58aa887fa3e3ac9143d906b720eb46",
    "encdec-q8mn-p32": "8e1095d9e20868579b848d2186eece7d464a3cf8323bd4689c3d4f25cd16b79f",
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
