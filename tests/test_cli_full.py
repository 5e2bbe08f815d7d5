import hashlib

import pytest

from leechdesign.cli import main


@pytest.mark.slow
def test_cli_all_passes_end_to_end(tmp_path, block_calls, coset_calls):
    out = tmp_path / "out"
    code = main(["all", "--out", str(out)])
    assert code == 0
    # two shells for the design, one for the twin, one for the Y families:
    # each coset key is filtered once
    assert len(coset_calls) == 4 and len(set(coset_calls)) == 4
    # one histogram per layer block of each point set (the design and its
    # twin); the labels and the candidate split stream their own slabs
    design_blocks = [(275, 275), (275, 2025), (2025, 2025)]
    assert sorted(block_calls) == sorted(2 * design_blocks)
    for stage in ("design", "coherent", "unique", "seven"):
        assert (out / f"report_{stage}.json").exists()
        assert (out / f"report_{stage}.canonical.json").exists()
    assert (out / "design.txt").exists()
    # the outputs on the canonical anchors, as written before the claim runner
    digests = {
        "report_design.canonical.json":
            "270d2d1806d9bf78384110f49c0dd29c0d0fb66cc54c0136e166460b806c4a78",
        "report_coherent.canonical.json":
            "dfff756ba5701b79b061eb7f79e575420ac300d26d5eb6edc6bad1a7045d8beb",
        "report_unique.canonical.json":
            "f222fd5aa6b3f1d34b58da70441b25d7c33222fbfeaeafdc74d26af81c82f8bf",
        "report_seven.canonical.json":
            "adbc90ce68aefdf28832577984aff207bbd7eae82f7e70b2b83ca41495b2cc0a",
        "tensor.txt": "539e2f77573d9fb473e5a4961c67d76dfe5644cb93756b99c64eb4447245d476",
        "candidates.txt": "9e7838f43abbc6353f1be6c1d94599a6dcca70b3f39e991b564d77bd1acd3feb",
    }
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.slow
def test_cli_alternate_anchors_give_identical_tensor(tmp_path):
    alt = "0,0,4,4" + ",0" * 20 + ";1,1,1,-3" + ",1" * 20
    out1 = tmp_path / "canonical"
    out2 = tmp_path / "alternate"
    assert main(["build", "--out", str(out1)]) == 0
    assert main(["build", "--anchors", alt, "--out", str(out2)]) == 0
    assert (
        main(["verify-coherent", "--in", str(out1 / "design.txt"), "--out", str(out1)])
        == 0
    )
    assert (
        main(["verify-coherent", "--in", str(out2 / "design.txt"), "--out", str(out2)])
        == 0
    )
    assert (out1 / "tensor.txt").read_bytes() == (out2 / "tensor.txt").read_bytes()
