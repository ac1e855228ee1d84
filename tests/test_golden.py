"""Golden outputs: stdout digests and exit codes of representative CLI runs.

Each case runs ``cli.main`` in-process and compares sha256(stdout) and the
exit code with a digest recorded from a known-good build.  Together the
cases cover every ``val`` series, every ``verify`` target and every
``figure``, including counterexample (exit 1) and inconclusive (exit 2)
verdicts, so a refactor that changes any byte of output fails here.

Re-record the digests only in a change that alters output on purpose,
and say which outputs changed and why.  To re-record, print
``_digest(capsys, argv)`` for each case and paste the results.
"""

import hashlib

import pytest

from stirval import cli

GOLDEN = [
    (("val", "--series", "stirling", "--k", "5", "--n-min", "1", "--n-max", "60"), 0,
     "a363ada17b0528147416a320ed8452ce68a56c2b144974d10a7ce283fd124e63"),
    (("val", "--series", "stirling", "--k", "64", "--n-min", "60", "--n-max", "90"), 0,
     "28d439cdee3013e3bec3d29497b16cf1f2a806e28f30a4ce20111e0d6464336d"),
    (("val", "--series", "stirling", "--k", "68",
      "--n-min", "1099511627776", "--n-max", "1099511629776"), 0,
     "f5a84b0debeb45efa3889f69a69f58dfa9cdf22696cefbc73227a8eee77582fe"),
    (("val", "--series", "stirling", "--k", "150", "--n-min", "299", "--n-max", "4000"), 0,
     "5d1a7f92da406004923f35eff4e0c517f102eb4779e5fb4a65dee605a027e7e6"),
    (("val", "--series", "factorial", "--p", "3", "--n-min", "1", "--n-max", "40"), 0,
     "4a21c4e5af31dbdccf6f93faf056b82bac05060d0b9ef5420827dc5b213e93f9"),
    (("val", "--series", "int", "--p", "2", "--n-min", "1", "--n-max", "64"), 0,
     "298c0a8d7e8fceeb122a4c77e380326e5c852d243f213d977f1ff8cb24e319c0"),
    (("val", "--series", "stirling", "--k", "5", "--n", "70852429451248237777821285421212"), 0,
     "fc86684f890204addb8a98164d53ce790677e5f60a457908103a40ba6dc815be"),
    (("val", "--series", "stirling", "--k", "5",
      "--n", "230563174363160548952057867146600138036789163944469907794497692"), 0,
     "747f0f18c61326d4b8cd0915bcd80d78bd8ddca216b11672266f5b59fb727fd8"),
    (("val", "--series", "cohen", "--k", "2", "--n-min", "1", "--n-max", "40"), 0,
     "09b02cc572b1b2c9a0e69df8c78bbbde786497078f2bb3e814edb8dc12cb0137"),
    (("val", "--series", "cohen", "--k", "3", "--n-min", "1", "--n-max", "200"), 0,
     "dbb5b0ced45ca777a1a1ae02ede1eca78ef733dc0dfd02db8ee870a830491e66"),
    (("verify", "main-conjecture", "--k", "11", "--levels", "5", "--samples", "16"), 0,
     "c68420a9be9778fe17469453efabb50653ccb2fba479290a737b73ec5e244dcf"),
    (("verify", "main-conjecture", "--k", "16", "--levels", "6", "--samples", "16"), 1,
     "22da177304ac1ad76e0127c3b9ab6f3a7d90e46bdf033dcbb125c8f741dd2175"),
    (("verify", "main-conjecture", "--k", "64", "--levels", "8", "--samples", "64"), 1,
     "cdabfc79fa616d6b16c6c3cebc81d17b0dd3ccee7e511b5fa58b952c993c516f"),
    (("verify", "main-conjecture", "--k", "21", "--levels", "9", "--samples", "32"), 1,
     "ce0f41ff3197d74eeb01ae885d8ed36e77fae5a15887588b6df3138cab22748d"),
    (("verify", "main-conjecture", "--k", "45", "--levels", "9", "--samples", "32"), 1,
     "8797f7977c07937a6893f481e929debcdc4e16110fd5eb9fb9c5d25bd9c974f3"),
    # deep trees, where the level tree carries odd powers past its column levels
    (("verify", "main-conjecture", "--k", "128", "--levels", "12"), 1,
     "3de89a9b41ece562564d7a5db4db1c5ed13641dd7f84fc4d94f25f4a68983bf1"),
    (("verify", "main-conjecture", "--k", "64", "--levels", "14"), 1,
     "80678d4bfaaf81508e004ccf7b742d90711a40c8d94bdb0d79dff222121e9abb"),
    # --samples bounds nothing: the tree at 32 samples, with "samples": 2 recorded
    (("verify", "main-conjecture", "--k", "45", "--levels", "9", "--samples", "2"), 1,
     "f8a5c2b6a7e242fa68e457ea284e702d6f943cb6bb559456bea64cedbdae475b"),
    (("verify", "main-conjecture", "--k", "3"), 2,
     "0048ae1cb745c9bb2de2dda4f4fbb75bdd576fcbc4e2a642445b7c493342146e"),
    (("verify", "k5-theorem", "--levels", "4", "--i-max", "20"), 0,
     "9b5a2b26c650d783ba4774eed64a917fad8e3428714559f812110c3b7bb0d5d8"),
    (("verify", "k5-theorem", "--levels", "20"), 0,
     "e855123b71a23f00909800777665eddf7b8e20e9f7c400e948ac4a71abac5ff8"),
    (("verify", "exceptional", "--i-max", "110"), 0,
     "bf6a8337c4a19dcbf93f541343e2a8b94dacc4bfaf5aa6262eadc9d674e14295"),
    (("verify", "approx", "--m-max", "400"), 0,
     "f6674388d431c868bb3948cc7a5752683825ee1741409bc46260be355294ad5c"),
    (("verify", "clarke", "--scan-n-max", "40", "--n-max", "200"), 0,
     "20cce7834cd362442d46dca6528b9c04d9f2fc4fd0e447e14e8cc8a613e90d5a"),
    (("verify", "clarke"), 0,
     "4bf93c1638c680529b17533de8b633547567ac6a568d24f723ce773c2115405f"),
    (("verify", "clarke", "--scan-n-max", "5", "--n-max", "300"), 0,
     "4729c2004e29f077461f97e19c036b997f7b4c854db2f533d52df0225764f848"),
    (("verify", "identities", "--n-max", "40", "--q-max", "5", "--k-max", "8"), 0,
     "d591c9bb3f38937ae7281829827a473994dea4e64f7954ac52562d6612ce3650"),
    (("verify", "identities", "--n-max", "260", "--q-max", "10", "--k-max", "64"), 0,
     "0ee6a5243c01f9a19be4ef6b80ae3c8ced4d04f51974ecd678687616f573e156"),
    # closed forms for every n <= n_max, above 500
    (("verify", "identities", "--n-max", "600", "--q-max", "10", "--k-max", "64"), 0,
     "20dd2b86167635c3ca0736331cd8c8540b7283321f5087d13f625fcde150e963"),
    # special-value rows up to k = 130 at n = 2^12 + 2
    (("verify", "identities", "--n-max", "100", "--q-max", "12", "--k-max", "128"), 0,
     "867838e17794be6bc3c42fb98adedf8b807f0f7d177c262e1a798e87f2c0fa3c"),
    (("verify", "lemmas", "--m-max", "8"), 0,
     "c1fa1c487f5b262a5af9b6c18c7bb02d8db34f858c7e1632beeb50ac775007d2"),
    (("verify", "alm", "--l-max", "8", "--m-max", "12"), 0,
     "4b11035c1dc6a4a4d704f4a80ee7f1ec2edabc78370505fa93455a2890c4e8a9"),
    (("verify", "cohen", "--m-min", "1", "--m-max", "7"), 1,
     "0eb1054b05909944be09fb1a79ef93cb46ae9b41e90c1ac565e7bcd4d769832c"),
    (("verify", "cohen", "--m-min", "4", "--m-max", "13"), 1,
     "3a01496bcc99544a897bd350f5fe74cf310f708eca74dbc94aa0888b70270bc6"),
    (("verify", "cohen", "--m-min", "1", "--m-max", "16"), 1,
     "2e9ff39b28d5f6a6cde0b97778cf0af528bbc02909aedd166301c78d4f18be52"),
    (("figure", "val-n", "--n-max", "40"), 0,
     "38e210229f6b2ccb7f2e5cf915cc2697b7e94278687808616b3196ae17627525"),
    (("figure", "val-factorial", "--n-max", "40"), 0,
     "211ef5b0309b955f9b70891b6c2f570541b8b485235d068b490144f57082c13c"),
    (("figure", "err-factorial", "--n-max", "40"), 0,
     "f8fe391c3cfe7cfce8f17fb0d457f245d1eccf5cc2da2f641df9d81e8ce11eaa"),
    (("figure", "cohen", "--k", "1", "--n-max", "40"), 0,
     "fa40be87f92298c460aef0230d109485683fb504b54b1841bc9581b28cbdcdfa"),
    (("figure", "stirling-k", "--k", "7", "--n-max", "60"), 0,
     "37f41eae90af008fce40a4c3849fbd1faffd79a6a90b384989e29f2529e9ed74"),
    (("figure", "stirling-k", "--k", "33", "--n-max", "5000"), 0,
     "dda6ce8147d0c41f88c1fce4f6f6dbfd9ae83bb1b1d84c648135bdf0b6810d1b"),
    (("figure", "wannemacker-diff", "--k", "6", "--n-max", "60"), 0,
     "dbc19a39d0c7d43b3ded56cd8e74298c33125a3e8be814c61c523886c26e72e6"),
]


def _digest(capsys, argv) -> tuple[int, str]:
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv, code, sha", GOLDEN, ids=[" ".join(a) for a, _, _ in GOLDEN])
def test_golden_output(capsys, argv, code, sha):
    assert _digest(capsys, argv) == (code, sha)
