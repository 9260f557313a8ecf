"""Golden content streams: every generation path reproduces the pinned bytes.

The SHA-256 digests below were recorded from the per-frame ``next_frame``
stream of the original eager generator (scalar ``np.clip`` clamps, one
``FrameContent`` per call), before content generation became columnar and
lazy.  They cover every catalog entry at its default length at three seeds,
plus two stress profiles at 500 frames: a scene change on every frame, and
a variability high enough to hit both clamps of both the complexity and the
motion process.  Each case pins three digests: the complexity column and the
motion column as float64 bytes, and the scene-change column as bool bytes.

The columnar kernel (whole and in chunks), ``generate``, ``next_frame`` and
``VideoSequence`` frames and columns must all reproduce them bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.video.catalog import SEQUENCE_CATALOG, make_sequence
from repro.video.content import ContentModel, ContentProfile
from repro.video.sequence import VideoSequence

SEEDS = (0, 1, 271828)
STRESS_FRAMES = 500

STRESS_PROFILES = {
    "scene_every_frame": ContentProfile(
        complexity=1.2, motion=0.5, variability=0.05, scene_change_rate=1.0
    ),
    "clamp_both_ends": ContentProfile(
        complexity=1.2, motion=0.5, variability=1.5, scene_change_rate=0.05
    ),
}

#: case -> (complexity sha256, motion sha256, scene-change sha256)
GOLDEN = {
    "Kimono@0": (
        "7373396912771579e60b54572cecb7347a6a0b6749c48c87187770aaf7d7832e",
        "621783f82347446d07cd5b9941d8c300e4123f8fba4ad76fab9ac35a9de34b76",
        "2dfba633817046c7f559ed4b93076048435f7e1a90f14eb8035c04b9ebae2537",
    ),
    "Kimono@1": (
        "130ceddf286331352f49a5901970c28d88468f9df5df11a1604b7e523720da5c",
        "a08ac2e9b8c6a87ad874e494650d0e368c1b3ce4aa954270824e1bbd6412f857",
        "2dfba633817046c7f559ed4b93076048435f7e1a90f14eb8035c04b9ebae2537",
    ),
    "Kimono@271828": (
        "57e81e793e1b10b2f9c45201174161883de0eebc5d2a03c49374e366b9226fde",
        "eb9e484000b09b8540a9ed8bee9ec89f10cac5e1fd2aae214c75df67109ac078",
        "45786a79e673d8baeaeca89c5f91231a94ebc3c576d23e7b336fd8e9bb4285be",
    ),
    "ParkScene@0": (
        "d047d6307b01c4a5ba520315544f330f38514efe26d9cb2e7a231e3ed2e751b9",
        "551aea2356d0a0d9561b67f91294c0405fd8d8e2b2588fc2e962b7396ff3e8fd",
        "2dfba633817046c7f559ed4b93076048435f7e1a90f14eb8035c04b9ebae2537",
    ),
    "ParkScene@1": (
        "3df5a1403458514ec2b4e31f53bcf2e757ebc96f91ea0f740fb2662d3482e2b3",
        "6b74f945894178042ae6d1af6b2f2773a561c6633a3b66e69fb82a3b5fac037a",
        "2dfba633817046c7f559ed4b93076048435f7e1a90f14eb8035c04b9ebae2537",
    ),
    "ParkScene@271828": (
        "558b806d079152aa6b36b62e3899aaed7bc702a0719025ac36d1daf7cfc578e5",
        "1dc7aaa6fce28a384298025f1d228ad9f59498c0d76512cc03ea8e0ea2d246e4",
        "45786a79e673d8baeaeca89c5f91231a94ebc3c576d23e7b336fd8e9bb4285be",
    ),
    "Cactus@0": (
        "c1b457e915ab55954615b2b6e5cb41608b5e254281c81b6bb046b491dd579038",
        "ae6315fae96f6f7acdee2a2763afa691c09bb65124526b6f9399ba22a3934e4f",
        "bfd98613d5797f954f5e420f5bec69b4f27e2e615f5b49a92b7acbed9e499bdc",
    ),
    "Cactus@1": (
        "1e5fb38226a7fa31f93c03717df42e6fbe42cf8df6aa60821cd1e9ccb4ff82bb",
        "26415894971fbe3b18651cb5465af2ee4bfb9e4b36be750c6f084f7859de764a",
        "e6304a473c65ecd0ccffbd2f5925a8f51c44b11f59b66cfcc055e4bb911b8fa0",
    ),
    "Cactus@271828": (
        "0d08972c0c40bb54fee5b9dd97e9e72f4678620484de18bf4d8a3cd30d7924cc",
        "5cd2864bd2d13104ddb0f106531200a971cf244c8294cb6ace5ee1cb191a5b2a",
        "46c72f06aa1474e997c5be267235d99ea8a33fc7a042ac381a3cecf73e6283ae",
    ),
    "BasketballDrive@0": (
        "94ab2749caefc7ee78ae42acdb257ccd64a366ec0119632a152dbedb529d79c1",
        "42556aaf25eedee45ebebfd10c6db960f66e64c0ee05eda1b00400001805fc92",
        "bfd98613d5797f954f5e420f5bec69b4f27e2e615f5b49a92b7acbed9e499bdc",
    ),
    "BasketballDrive@1": (
        "a8437f93dd8ef0e6ea87916a115e4f1c0263081e802e528d4ea3eddb06d96688",
        "1b88f4988e4e511edd4b3e5b2b17e37b29afd0c17966884bbcc8c7dc28b5cc29",
        "e6304a473c65ecd0ccffbd2f5925a8f51c44b11f59b66cfcc055e4bb911b8fa0",
    ),
    "BasketballDrive@271828": (
        "af1ce67010412fb12e2e66584c5058ec981455e2ef918d9466b2cdaf5f622878",
        "c0d5936fbbbf989173eb0410f0afd1161e7c04bfcdd330745cdadbd3d2a0a0aa",
        "d0354614f63a281fc6ea4630a401c0ab732db9827f2e9416154a63f7d32f0058",
    ),
    "BQTerrace@0": (
        "724456502bf9b8964bfa3b39449a07090db69f38ea2467e7302824d3ed9bf07e",
        "1db412a841a400a7153ebebfa6121dccf44ac4b729d10df743f922c6d5e98aea",
        "d723b13f6e6fa4eacbdc53295248d48c9d1828a2e4b35c04fcd7a7a0aa4ec48c",
    ),
    "BQTerrace@1": (
        "124b14239470f112bf7f1310dea2fe012a3a7cec7a5dd5c757013f03f3bffac8",
        "fe68844d74b09ae4eae7f79fd9347178900a7d1c8f52b40f309d79612ed6062c",
        "bd50e12c55dda3ee443c1cb6d71c7bcf6351c4ec96f7bc8d6adec015d1192eea",
    ),
    "BQTerrace@271828": (
        "6fe295647432d96c62fa3cf5b9a47b8c5da9a3e6d53bdfb7834f658db99f8e97",
        "f2ed040c7937dd8a5a3c4e3959f6406d554e7a0612ea710f7f657708aa28bba2",
        "cdd22eb9ad456033cec13fd4725c6734a9e37ef71c334a5a10b1ac88047adab6",
    ),
    "BasketballDrill@0": (
        "2d5c253e37fd59f260bbb5b24b8154afd0c525837618a5cbad2412c628ecbf0c",
        "c4182d8be6b51dfd57e633ee5ca26ff12dc80b2d878371e5bc3abaf855fba5e8",
        "bfd98613d5797f954f5e420f5bec69b4f27e2e615f5b49a92b7acbed9e499bdc",
    ),
    "BasketballDrill@1": (
        "97df7109de2d0128d2b706cf4a1fef830c500edd1964d42c9299819f767733c1",
        "cc606e021213747171d0eadb0635d6da5b6b0eed58bc4b1b51f9f92645b61cc9",
        "e6304a473c65ecd0ccffbd2f5925a8f51c44b11f59b66cfcc055e4bb911b8fa0",
    ),
    "BasketballDrill@271828": (
        "d5be28c94a16d527a94c150cafede6d7f8059bfc2b638a4370c3eb6ca3c4ca2b",
        "532e468d1ca1534f3521d0667e92e296ba3918ffaad8c4e63ad7c4670d793c29",
        "46c72f06aa1474e997c5be267235d99ea8a33fc7a042ac381a3cecf73e6283ae",
    ),
    "BQMall@0": (
        "a1881b4fa8f0ebabefeaa26c3f3cf4daaa6550eab84a5fb35b77a56c2ba18c3d",
        "33e0a90cb524e67c507f60b12ac12126c55f75000785496bc64909eeff8a6a1e",
        "1fc1fff7b7af1b51eab6eedc4d3ea99f23e81996cae0aa63e6053ab35747a880",
    ),
    "BQMall@1": (
        "6330b0dac9df314aa2faf8bfde7186e04f5f41238fe530b6bd2bdcdc05b15db7",
        "5f7bbcaf1e73a1f92610ad82638693e20e7a103749aeadc4cf9a010fcd3c78c0",
        "bd50e12c55dda3ee443c1cb6d71c7bcf6351c4ec96f7bc8d6adec015d1192eea",
    ),
    "BQMall@271828": (
        "8c8aba6a6c4e9254cd76e42e04a034a0f61ce7258b5b6b082285bf8b17ad24b6",
        "cf06ef2c1b7ad1669e1a4f3422a499583ea0102a2d5db01026dc33bbe3740023",
        "cdd22eb9ad456033cec13fd4725c6734a9e37ef71c334a5a10b1ac88047adab6",
    ),
    "PartyScene@0": (
        "87a99e519306ae47b28bd799d3b78da49c3cd92415bba92a2c9d5bec69098f38",
        "da8ef10e254a7c133704695b3772def8bde4e9fac9a2330c960771f7f6f5e565",
        "bfd98613d5797f954f5e420f5bec69b4f27e2e615f5b49a92b7acbed9e499bdc",
    ),
    "PartyScene@1": (
        "7eba3731fd0f5a6e76aa5be94bb781e97fcf33a56e74ad29951e54671d90fb12",
        "cc7bb855eeef0e424dcf53de27cb8cd8e272fca09290fa9a8054d041c1308259",
        "e6304a473c65ecd0ccffbd2f5925a8f51c44b11f59b66cfcc055e4bb911b8fa0",
    ),
    "PartyScene@271828": (
        "30f43414be0637546ad56a60f61827b20588c588b8fb53973c6335bfff3b8372",
        "9ef3077c07022a134b165b0bb61ba85ccf1353c4a066d70164e93a15498f583d",
        "d0354614f63a281fc6ea4630a401c0ab732db9827f2e9416154a63f7d32f0058",
    ),
    "RaceHorses@0": (
        "5ed39ee5b9e254ca6410758131fdbbe374a2d2a872e7a4fa059ad476754b4ef4",
        "ae5688693691754e29419d5d86507845cd03ae599399ae3737c6fd7d50b972d9",
        "d13d4a8b3b8add19b5970157f09d00c12cbda4fed4d74d8493156523f7069b66",
    ),
    "RaceHorses@1": (
        "144332323105e131ef2dbdd2686e062e7e79b2d852cb0f644f1dacc0d29a358f",
        "c367d44963386621742f04ab8e9602b6680e575ec0628c968171f9b2a3e0f3cc",
        "d13d4a8b3b8add19b5970157f09d00c12cbda4fed4d74d8493156523f7069b66",
    ),
    "RaceHorses@271828": (
        "b93bd51b21691f166bff52c249c1136d13200915f40a99d4c7397ec3493fc35d",
        "ebc5bfca41859338be96c315787ee769dc83870360a0568ae5736c37b88aaeae",
        "1a3df75a8cc474f7041a9ef763936a65c321132509cb8f32c15c9654851aba69",
    ),
    "scene_every_frame@0": (
        "6fe5b581156e3c27aa90325d2c9a390e0b10c8c50c47a8ea21738b312388ba7c",
        "942e0e6baf9c31e24556445cdab6349f3b4d9d37804e2dfc7d2ec648e94a90a0",
        "13330b8c195c265485dfdd286579e2c161e47cc3d54356b90bbbf751eec8682d",
    ),
    "scene_every_frame@1": (
        "52cb25b72dcc2db8d6ecd83c499b96d10f59479362c3df79503bc6a0223346ba",
        "793dac3a284c2d8cfd3b463a250efd6defb18a54ad930ef84572e247f4148536",
        "13330b8c195c265485dfdd286579e2c161e47cc3d54356b90bbbf751eec8682d",
    ),
    "scene_every_frame@271828": (
        "aca61b180c53c8b843b4e616423eeea656813613bf425452395c7d99dc5200c0",
        "125219e68c3d9fdb718c429361952447eee81ecb4a3f9fc3cde77f8987a1e7b3",
        "13330b8c195c265485dfdd286579e2c161e47cc3d54356b90bbbf751eec8682d",
    ),
    "clamp_both_ends@0": (
        "4ca6eed4dc7201d251805da7ae8d41e4114970364331e07a88ef06345b232b4b",
        "9a0e35d3f2ba18ec2d5f6e7917543507065efe07120f5c239e1379aa5344d0be",
        "c4fbc21f63ca533ce8d3b585e8646888e4f57434a247723cb999ee155c4d51c0",
    ),
    "clamp_both_ends@1": (
        "99f4b343ef2bf085c1cb89019117131d15976f68602f4f7d94ec826669150403",
        "ab5900313d9c284be5276b59753b325d09fe9180eab305abab3185b8b2adea76",
        "d686fef66ce75c809479e6cf76a013bebdc8ffae98e477a6b95ace3170d48f0f",
    ),
    "clamp_both_ends@271828": (
        "dcf9839973635b716b965a670ae3da4853c0b948ee2816a6f4ce1ec8256df795",
        "aae8f5f1d4da705c1affc3adf6a6ad521585792f57789108aecc05e53a267168",
        "6fa00c87b8d73bec31c66bcbacb8b0babb7325d7cdf2295bd74b0213a4bb59ca",
    ),
}


def _cases() -> dict[str, tuple[ContentProfile, int, int]]:
    cases = {
        f"{name}@{seed}": (entry.profile, entry.num_frames, seed)
        for name, entry in SEQUENCE_CATALOG.items()
        for seed in SEEDS
    }
    cases.update(
        {
            f"{name}@{seed}": (profile, STRESS_FRAMES, seed)
            for name, profile in STRESS_PROFILES.items()
            for seed in SEEDS
        }
    )
    return cases


CASES = _cases()


def digests(complexity, motion, scene) -> tuple[str, str, str]:
    return tuple(  # type: ignore[return-value]
        hashlib.sha256(np.asarray(values, dtype=dtype).tobytes()).hexdigest()
        for values, dtype in (
            (complexity, np.float64),
            (motion, np.float64),
            (scene, np.bool_),
        )
    )


def content_digests(contents) -> tuple[str, str, str]:
    return digests(
        [c.complexity for c in contents],
        [c.motion for c in contents],
        [c.scene_change for c in contents],
    )


def sequence_for(case: str) -> VideoSequence:
    name, seed = case.rsplit("@", 1)
    if name in SEQUENCE_CATALOG:
        return make_sequence(name, seed=int(seed))
    return VideoSequence(
        name, 1920, 1080, 24.0, STRESS_FRAMES, STRESS_PROFILES[name], seed=int(seed)
    )


def test_every_case_is_pinned():
    assert set(CASES) == set(GOLDEN)


def test_stress_profile_hits_every_clamp():
    profile = STRESS_PROFILES["clamp_both_ends"]
    complexity, motion, _ = ContentModel(profile, seed=0).columns(STRESS_FRAMES)
    assert {0.4, 2.0} <= set(complexity)
    assert {0.0, 1.0} <= set(motion)


@pytest.mark.parametrize("case", sorted(CASES))
class TestGoldenContent:
    def model(self, case: str) -> tuple[ContentModel, int]:
        profile, num_frames, seed = CASES[case]
        return ContentModel(profile, seed=seed), num_frames

    def test_kernel(self, case):
        model, num_frames = self.model(case)
        assert digests(*model.columns(num_frames)) == GOLDEN[case]

    def test_kernel_in_chunks_carries_state(self, case):
        model, num_frames = self.model(case)
        complexity, motion, scene = [], [], []
        done = 0
        while done < num_frames:
            chunk = model.columns(min(7, num_frames - done))
            complexity += chunk[0]
            motion += chunk[1]
            scene += chunk[2]
            done += 7
        assert digests(complexity, motion, scene) == GOLDEN[case]

    def test_generate(self, case):
        model, num_frames = self.model(case)
        assert content_digests(model.generate(num_frames)) == GOLDEN[case]

    def test_next_frame_stream(self, case):
        model, num_frames = self.model(case)
        contents = [model.next_frame() for _ in range(num_frames)]
        assert content_digests(contents) == GOLDEN[case]

    def test_sequence_columns(self, case):
        assert digests(*sequence_for(case).content_columns) == GOLDEN[case]

    def test_sequence_frames(self, case):
        sequence = sequence_for(case)
        assert [f.index for f in sequence] == list(range(len(sequence)))
        assert content_digests([f.content for f in sequence.frames]) == GOLDEN[case]
