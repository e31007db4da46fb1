"""Benchmark workloads: one batch of small experiments per workload and seed.

Every workload runs at genus 2 with ``workers=1``.  A workload seed
gives a batch of ``SUBSEEDS`` experiments whose ``seed`` fields are
``subseed(seed, j)``, so the same seed gives the same inputs and
byte-identical ``samples.jsonl`` files.  Each experiment is sized to
take about one second with the pure-Python kernel on a 2-core x86-64
VM: a forty-second benchmark run repeats the batch two to four
times, and the batch averages over eight sets of inputs.
perfbench/README.md says why each workload is here.
"""

from __future__ import annotations

DEFAULT_SEED = 1
SUBSEEDS = 8

WORKLOADS = {
    # homology and the periodic screen dominate; bypasses the engine
    "pa_humphries": dict(
        experiment="pa_fraction",
        generators="humphries",
        lengths=(5, 10, 20, 40, 80),
        samples=40,
    ),
    # no homology certificate: multicurve search and growth on big integers
    "torelli_growth": dict(
        experiment="torelli_pa_fraction",
        generators="torelli",
        lengths=(5, 10, 20, 40),
        samples=2,
    ),
    # exact convolutions use the engine breadth-wise; nothing is classified
    "lemma_convolution": dict(
        experiment="exact_lemma",
        generators="two_twist",
        lengths=(3, 5),
        k_values=(3, 5),
        samples=1,
        set_count=1,
    ),
    # canonical keys under k-dense subsets; not in BENCHMARK.json because
    # its cost is quadratic in a seed-dependent |R|
    "transience_keys": dict(
        experiment="transience_rk",
        generators="humphries",
        lengths=(5, 10, 20, 40),
        samples=1,
    ),
}

# sha256 of samples.jsonl for each experiment of the batch at
# DEFAULT_SEED and the sizes above.  A change that alters a byte of
# these files is a bug, except a deliberate change of the canonical-key
# form, which re-pins transience_keys here in its own benchmark change.
PINNED_SHA256 = {
    "pa_humphries": (
        "bd7907674d9d8e8b3e57d480a69ad10734a91cf9a89ffa2a0e25e069d1cca6b0",
        "6cf78ed1ae02fba57b6cbad132e90ae097e64e8c8948d17f69ede22ca69a8587",
        "875d875baf001db7001c17a5ec68dbba325a3a2aaf0cb7d2a9c4727a012f21a6",
        "d8602ea9c30df4626f3477fc94b1e2ddae9ab0a14f4c6f503452b7cd1394dba2",
        "f8a6ef57b71334accb6aaf7649acec872e45dedd48e85c8805a4bf5875855e02",
        "2f12d530dfa380fe604d61af42223ce3738f2a26497b129b2293325a84e3bbc7",
        "576342ad7c06d264396681ac0639b5343ab5088cec9bb7f1e982355eba379f36",
        "75360b8fbc60805cc266a7ab8e67404eb840925b2f00979b1259194d7d7b5322",
    ),
    "torelli_growth": (
        "67ea0b74dfa30d7ba3573e0d52fc13813124f0bb6d301a0718a8d68e4c90e4ff",
        "9005aa38688cf13cd520f0f899269f964206eb0317a2d8d7b00fff8fdf7c23b1",
        "efe90439ddf14a1a7a1f685ceedad65f4ee24abb3dc14f832a194dee896fb1ab",
        "161b393bb22c3c9a600b05a14d97d02b7c6b4ffaca491505a3714ce06edebaa1",
        "19f7b493d7e2ef65a8900155a227f910309794cd31f0e1da8209c6e77cef793f",
        "0841567361344bce8e0a5277e8ad4f3df76916ea78e118f227534bbadb7b45c9",
        "c162cf7d5852656f85527ef2487ac84bb33e98dd5271a8d11baaafa7eb486edd",
        "dd0b6c85a5e91bf194444ae9e6a6bdbd2194c6f5733ce7c1ae2c1997dd7985b4",
    ),
    "lemma_convolution": (
        "8163d1385ec3643addf09f99e80c5bb769d35d85596ba1683fc3d4ecb7c9638e",
        "99b7e9a0e8416f5b476d9abc37e24052cf922715902df4c0c5513999dbf67303",
        "786bfe9e83d8647567dad8a7312ab2e6c756f9996d3be666389bfa5e29a0bbd1",
        "fd0673f9fa23982edea19c2ddf8f5ff096241fad0ba3ca06840fa5a4cbe800d4",
        "f17b4a877494837bd38c325bf2de71e52557ce41a51cd6287fec1b58ee5ea088",
        "45fb60ea1c91925eaaddecd07195cc47e6f48603f7e87f0994a20e4ab0e62682",
        "46893848ee718c5de0ba12c535e2aebf99fa75fd9a8377b97de8fcb869606400",
        "3978c5a5f5123066924f2d311a8f178042d1676e626f9fa5236d479120c45397",
    ),
    "transience_keys": (
        "b8ebbb2711ebcc494e7b27e90a75a88e21cdc950ba5863a0b777e08ad285d696",
        "53d4884c392de91da78532c3871471758db20589e4f15bc8ba957d71abebe7c2",
        "de97518d0a65918df71dd9e523553ea74d0c82864294211d3593dd48b7ebaf0f",
        "d54e07696af7340d0adbc821a659780c9f634f7618c24aeb148266722463c19b",
        "f7cd546c48a084e80befb66ba7ac7ab1b9b6cc0183bf7d6fa037f24bedfb6934",
        "8f9aa6d22283628ad24d2ea140eaa18d20f8609402c0fa335f416fbf9db29234",
        "bfb5f1851b749069aa21f9089d23f7113fe32990545e5461ed6e7a12a0e00fd9",
        "6ad57c58085a6a456324e4a3c164c0b9ac82f64012d159b0141f5fd47b087752",
    ),
}


def subseed(seed: int, index: int) -> int:
    """The experiment seed of the ``index``-th experiment of ``seed``'s batch."""
    return seed * SUBSEEDS + index


def config(name: str, seed: int, out_dir: str, **sizes):
    """The ExperimentConfig for workload ``name`` at ``seed``.

    ``sizes`` replaces size fields; the smoke tests use it to run a tiny
    version of each workload.
    """
    from mcgwalk.harness import ExperimentConfig

    return ExperimentConfig(
        **{**WORKLOADS[name], **sizes}, seed=seed, workers=1, out_dir=out_dir
    )


def generator_set(cfg):
    """The walk's generator set, built through the public surface API."""
    from mcgwalk.surface import (
        GeneratorSet,
        humphries_generators,
        make_surface,
        torelli_generators,
    )

    s = make_surface(cfg.genus, cfg.punctures)
    if cfg.generators == "torelli":
        return torelli_generators(s, cfg.pair_budget)
    full = humphries_generators(s)
    if cfg.generators == "two_twist":
        return GeneratorSet(
            s,
            full.generators[0:2],
            tuple(row[0:2] for row in full.intersection_matrix[0:2]),
        )
    return full
