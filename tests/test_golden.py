"""Golden outputs: SHA-256 digests of transcripts and decoded files.

The digests were written by the code that preceded the batched delivery
and decode kernels and must never be regenerated.  A deliberate format
change bumps the transcript version and records new digests, with the
reason, in CHANGES.md.

Each case is ``default_config(K, K, replication)`` (or the given modulus)
with the distinct demand.  The transcript digest covers the sidecar that
``save_transcript`` writes (``PREFIX.transcript.bin``); the decoded digest
covers every user's decoded file, users in order, as little-endian uint32.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from synergy.bounds import gap_certificate
from synergy.cli import main
from synergy.decoder import decode_user
from synergy.field import SeededRng
from synergy.placement import fill_caches, random_library, subpacketize
from synergy.scheduler import default_config
from synergy.simulator import (
    CHANNEL_STREAM,
    LIBRARY_STREAM,
    DegenerateChannelError,
    save_transcript,
    simulate,
)

# (K, replication, seed) -> (transcript sidecar sha256, decoded files sha256)
GOLDEN = {
    (1, 0, 0): ("aa559639fb42560809b1430c563eb15815178e4fe1f57413e61aff5fc136f7a5", "d17a88f78ca83908260322a057567c4e21b10c3d925797212e47e5be4494bc10"),
    (1, 0, 1): ("6a28fd9d8f4e8c3ffdffd8594b94d68fb95c613948e2fdc186d979fa25bd38f5", "b957920a81ba465e833c8c2bc0298dad3878791cd278bc3797a1b4ce2ead01c7"),
    (1, 0, 2): ("5504fd05bca4ea7debe2fc56412a0cc808a96d6b983bf94b6da8df3a317367cd", "0026a41ddc55368b4382db1b9255a27028f3721e271beb1b5feb489edbe2d9a2"),
    (1, 1, 0): ("8b83b1b5e94908e483be8a88aa920d25396261b60d65e2304188da4d916edee3", "d17a88f78ca83908260322a057567c4e21b10c3d925797212e47e5be4494bc10"),
    (1, 1, 1): ("8b83b1b5e94908e483be8a88aa920d25396261b60d65e2304188da4d916edee3", "b957920a81ba465e833c8c2bc0298dad3878791cd278bc3797a1b4ce2ead01c7"),
    (1, 1, 2): ("8b83b1b5e94908e483be8a88aa920d25396261b60d65e2304188da4d916edee3", "0026a41ddc55368b4382db1b9255a27028f3721e271beb1b5feb489edbe2d9a2"),
    (2, 0, 0): ("3cccc8097b5112d28ae011ad4aaa3b12f8327bb5e8f33d4aa17888dbe5ebbe99", "da9d429f221fd6a19b81147fe349e96e7ff3654c4c476678ed8e7608f8668928"),
    (2, 0, 1): ("1d051d93a276ea91395d96a1035fc0e9db93bc5235d828d6534fd24f0e8f9707", "c6555a2106cf78387cebff9fafc760991a75e422740ebef1e03ec585c7bddde9"),
    (2, 0, 2): ("817e7cfa77b7cae2254104685aacae3ee990569261de058bc3dce6517a8481c7", "2bdd91d15f527e9f51e419499682e1e92acac4f3e4d0eb78bff18c48bdda0d09"),
    (2, 1, 0): ("9c018883dcb46760250b379ecaf8033c219bcccc1ad2602a1a2a986932f02d08", "da9d429f221fd6a19b81147fe349e96e7ff3654c4c476678ed8e7608f8668928"),
    (2, 1, 1): ("38f4fc91674d8d370c9d11ea7356f25524d280203b24b604f72fdeea5bb82b5f", "c6555a2106cf78387cebff9fafc760991a75e422740ebef1e03ec585c7bddde9"),
    (2, 1, 2): ("4b7d61347a6acc709cdc00a152750ea0f7912fb5f0f80236499647d54716d65e", "2bdd91d15f527e9f51e419499682e1e92acac4f3e4d0eb78bff18c48bdda0d09"),
    (2, 2, 0): ("53c888a11e56f5bc7de504e16f92fff3a6962426e0a4f5ce7f5d1d077417a5c3", "35850036d74e1dcff0f14bca97391a288b2c1bba493eb0dd906c042a68344b63"),
    (2, 2, 1): ("53c888a11e56f5bc7de504e16f92fff3a6962426e0a4f5ce7f5d1d077417a5c3", "15570f932e17d05e5972e43340946680d5d87add355a2243c8d084090613979a"),
    (2, 2, 2): ("53c888a11e56f5bc7de504e16f92fff3a6962426e0a4f5ce7f5d1d077417a5c3", "f2d612316581eaa95364c9605f13a00b1c41f74a808c7e6ec46333353db72579"),
    (3, 0, 0): ("5f28ac9002043474a3f93c2f3beee478bc274dc36b11475be1d453a64e3af522", "0df4ac1b604fb67a1144011f71bb4e05e3098f1664e04612d6aff14488421954"),
    (3, 0, 1): ("15298b4ef371f1908b26d9e2abe51abc6eb23022cbc5802c0e591bfe22013ebe", "b47c685cd16120baeb61b6add349c7764f1999ccd08010be097e5e488aa172d7"),
    (3, 0, 2): ("a00c634cc72f79610a393b6e75ec3ad4b8681ad1922ba2a11f2675b25cf05e4a", "15072e8656d5c50a186b0f3e71b06fa3f872f60a00408bba3c64c2e2ba5f8cd9"),
    (3, 1, 0): ("aee924045af69aed04204d1a14e381e18869523bf608c5596e87072aaf06b4a4", "0df4ac1b604fb67a1144011f71bb4e05e3098f1664e04612d6aff14488421954"),
    (3, 1, 1): ("0f267b851af8856c90cc26e1547d709f80df8900ec6159b8b7612e38c2875759", "b47c685cd16120baeb61b6add349c7764f1999ccd08010be097e5e488aa172d7"),
    (3, 1, 2): ("40bab9810ccc59a4be1677f6a36ab6a771eea1c97417f7babc55e152499ed72e", "15072e8656d5c50a186b0f3e71b06fa3f872f60a00408bba3c64c2e2ba5f8cd9"),
    (3, 2, 0): ("b0d54e6ee3e58f03cf21370a3d1ab2cc31da651ae88246cc527d3e0e59114470", "37a9bdf6f0391f11f6f6d996dc7509d6c0108c85c57c181b7e797b3b1ed955b4"),
    (3, 2, 1): ("5bcbc423561d23cf88098d6b691cf69e8aab412730e8703b9039546b62ea29c4", "ae77c686975621f5b23d32e0dbe0ae30df18b596c76bfdd11ed5b2c8a9f974f8"),
    (3, 2, 2): ("66cdb9b243801dccaa9d69bf5f642763532e8c5acca173263be846afccdc4a04", "6d5dc9ccad2a3095d4107e47311fd5d32f806048b101f8eb43f2f52ff2e902cb"),
    (3, 3, 0): ("ec6f53510eea0b08c05c325a607e568548d005977e389909fe548395af3a2b47", "d22f49b660087cfd99d80e84841f9980de4949a5115f5b3559b5dc9ac302fb5b"),
    (3, 3, 1): ("ec6f53510eea0b08c05c325a607e568548d005977e389909fe548395af3a2b47", "378287f52c0485d1a2beb1f37f1f5d9f647114ad9c053e4377b451ba45a86e67"),
    (3, 3, 2): ("ec6f53510eea0b08c05c325a607e568548d005977e389909fe548395af3a2b47", "cba66202b0ab86a861bb6e435694169096c0d9b5cd6d22b4f5c96b4269b11729"),
    (4, 0, 0): ("09da1ed248faba12543e351254a2ab9e10c400af08df3643f3cd438062f08533", "7c37dbe978b009b1df143b4e65dcfa11cc66db81c1b07bda936becc29c31d5ec"),
    (4, 0, 1): ("4b832be49decc592fb1213d2b9bcb6f54a936b3d9e62ac7b37f531faa4276e0f", "a4662392d33e751cad5b4e3b098194add845ea40baa2e6a0fd4ce3311b53c400"),
    (4, 0, 2): ("5d03461ed6969d19cdac50173b0a0fec506cc9da94fe352d4ae38f7b977c2653", "cf12cf2f39c376f787eb6e34bde5bba1ae40d7e7e25d97ea05ad6df09e370bac"),
    (4, 1, 0): ("aaf042d41887b2f1a20c5c97fc3477b88d11c13011fb036a970e418334c805dc", "7c37dbe978b009b1df143b4e65dcfa11cc66db81c1b07bda936becc29c31d5ec"),
    (4, 1, 1): ("047c85940337c1bb8bb4f0bf452fa66122fe36106d5637162b9d8c7c09fde171", "a4662392d33e751cad5b4e3b098194add845ea40baa2e6a0fd4ce3311b53c400"),
    (4, 1, 2): ("3088b6fcbf71867920003a27056e2c1c607d2235adaee72522bb3d17b23601ce", "cf12cf2f39c376f787eb6e34bde5bba1ae40d7e7e25d97ea05ad6df09e370bac"),
    (4, 2, 0): ("2d907e5f997dfd85b48645078195cac8d3ef74439a3459a7b71f18723f813a03", "7c37dbe978b009b1df143b4e65dcfa11cc66db81c1b07bda936becc29c31d5ec"),
    (4, 2, 1): ("60f84a3cb3449c972f291e8010c5f814c95f660c3ae3e80a5f17a102ff37d7d7", "a4662392d33e751cad5b4e3b098194add845ea40baa2e6a0fd4ce3311b53c400"),
    (4, 2, 2): ("f21f2b708c58a26c7a54f10e3412f9f7a6ef8883b7598341310184992961f529", "cf12cf2f39c376f787eb6e34bde5bba1ae40d7e7e25d97ea05ad6df09e370bac"),
    (4, 3, 0): ("e2b5f856b397fe5909eb7a83cbc6e199e1865be152327eaa92d647641cab71a7", "034fd87cd8caff47cf2f0c0e1d208f4b47ed8c61f9d2cd7cbe3092297785b9dd"),
    (4, 3, 1): ("8a4d2fecf215c62d3a9d28aedf95a509da97e1160db5dd98d943d1458a8612dc", "ca0a1c069c0f8b059ddb37472f9d9af3ea8224a85b275885aec55f96c3b1f917"),
    (4, 3, 2): ("3675f2c25552dbc3dc52f91d9c85cfa06016b67f50493fba4ab54c69cebf305a", "d0ed88de190707c87a16a3695383531faf3851181d206b34061754d268d7e5d9"),
    (4, 4, 0): ("23696970332e4d05a434d07a18aea708583961b57fe4efef0ae1f08ec2613f8a", "da9d429f221fd6a19b81147fe349e96e7ff3654c4c476678ed8e7608f8668928"),
    (4, 4, 1): ("23696970332e4d05a434d07a18aea708583961b57fe4efef0ae1f08ec2613f8a", "c6555a2106cf78387cebff9fafc760991a75e422740ebef1e03ec585c7bddde9"),
    (4, 4, 2): ("23696970332e4d05a434d07a18aea708583961b57fe4efef0ae1f08ec2613f8a", "2bdd91d15f527e9f51e419499682e1e92acac4f3e4d0eb78bff18c48bdda0d09"),
    (5, 0, 0): ("dda77875ff1b27c6a0e0cb4ed78a5f6940fe471892befcb68f0658234108797a", "c647ecd2039fee577201e1c0aca41ad4bad7e2c5bd1384e17abeea135e497140"),
    (5, 0, 1): ("9864f70313f38aaee63c37f67fe1c7d1d1afef7e85823905dd41e549e1bcb7c0", "bca3091056770d51e50bf1e933b0adc596eb0a332bd31c86c7b3d708011d875a"),
    (5, 0, 2): ("cd2fcff31a926afe3b13ee9a970579d2df0411932d54fbedd7def0810eb34a25", "8fd5b7a20a093ddab317aa7413bc6679d54f5ffe6eab4e8261934b89789ee912"),
    (5, 1, 0): ("578633f8016b1ac4541ba22b5dbcb18d3a22acd26a91d5370a400c9b7aef5cc6", "c647ecd2039fee577201e1c0aca41ad4bad7e2c5bd1384e17abeea135e497140"),
    (5, 1, 1): ("741fbac7526ff88bc2b6d8d9a1171bf47489124fce19c0b390ec6f96f8271e9a", "bca3091056770d51e50bf1e933b0adc596eb0a332bd31c86c7b3d708011d875a"),
    (5, 1, 2): ("b0ec1e4db84985c4d7a6bf1162d54de8949e7a80ac014dedfdb47bdfea637570", "8fd5b7a20a093ddab317aa7413bc6679d54f5ffe6eab4e8261934b89789ee912"),
    (5, 2, 0): ("665afb23ec3c168f8576a68567dd9faf7898006a7095a6dd16bf2695fd52fb7b", "c647ecd2039fee577201e1c0aca41ad4bad7e2c5bd1384e17abeea135e497140"),
    (5, 2, 1): ("1a21a4a40c33f9defaead965ce8eef800d916260c617b5c89d2dc88092a591bc", "bca3091056770d51e50bf1e933b0adc596eb0a332bd31c86c7b3d708011d875a"),
    (5, 2, 2): ("95c96f4bdb4983930d20bfdd83886ec533d24e3bff30f14f16994251c72bd38c", "8fd5b7a20a093ddab317aa7413bc6679d54f5ffe6eab4e8261934b89789ee912"),
    (5, 3, 0): ("561bfb7f3bc3853f3d6960ccf18675c2b305a717813c53f0134e160f3bea7bbf", "7183073ccf74923c12fcb9914770ac669d3d516a38fa7e1b25dff7c70f21c623"),
    (5, 3, 1): ("0c8840fa0d4c17af7d63d0ab8e778e8d58dbb08cdca7bf4be02fb508384fdcb5", "da4ba595b0a3a98a83491ada4f740009ee62257b6319cd0b6681f1634ea9a590"),
    (5, 3, 2): ("dc715df530c7f9470213ea7a691f887b44852f60f5328dd2743fa291ea790c07", "04b29b10229c066926fd2a7f1ca92139c8661a548920d221074f54119b86b22e"),
    (5, 4, 0): ("09eb359854ab282b2c515c20366ee45f2f4435c2176044b1c889523463da0f0b", "673623899a23f2305e7a1d5cb9efdd4068ee6a99f20c3355727b2b51aa913b04"),
    (5, 4, 1): ("d04a41c6d2e3ab3731489d5be4fc32f9ff4989a4f1c80b23a24a147b17833ce4", "372f9171fb3ca31864d71ef2a6a1a88012f999e817dc06e64d75db7fbd0e6eca"),
    (5, 4, 2): ("0b09fd83dccef70b4fc6dad91e7b06cc940dffa73aea0e3a97c9fffb969aa035", "17860d441bf7e356ee0e11043d59639077f3af5ef67e27053111e3f3965e0f6b"),
    (5, 5, 0): ("e538052fde01c580eaf6d23a8509a9461e04219b6e145d8490302c35b665bcd7", "b14478fda3584a17d213e18e2713dbe17abcb0ac5bc4405a07ae2f705269872f"),
    (5, 5, 1): ("e538052fde01c580eaf6d23a8509a9461e04219b6e145d8490302c35b665bcd7", "9e9107bfde8be5c11d9a6dc539fa5ee7fe3a6a75fc701b62141563893656ee6c"),
    (5, 5, 2): ("e538052fde01c580eaf6d23a8509a9461e04219b6e145d8490302c35b665bcd7", "acd1cbdb29989f705aaafa2c3ad263390c31a8d1a6965688747512831f4ad667"),
    (6, 0, 0): ("35be05d469903f5975ba8cb20244f356b6d7109997d6fbf6e557d836f1141e80", "9cec1b5397a18ad4951e1ea6617173d9903eeef71adbb1f132c798d281472e22"),
    (6, 0, 1): ("0a7762b4dd6955259087b88795b8fb329926a187990d0a2950a5c777832f1d07", "5a857b396d7a7cace183253c028ab90867fee4f5bd34148b0e3633c99ef63bd9"),
    (6, 0, 2): ("9d5afb081edb7ae800f3ad56f1f61a4f4d8d7170b15cde647d08caf4f8494804", "7ede4086619cf88c60f871f75912719f6e4bd7569c3f2431fb0b9282ee3f7f56"),
    (6, 1, 0): ("222d9c50f3c2a997b0ad3f274c5818e3082c7d77d0c234bbccaa26f6a4426b94", "9cec1b5397a18ad4951e1ea6617173d9903eeef71adbb1f132c798d281472e22"),
    (6, 1, 1): ("79480b52b5d20cd9db83b42283c93804f9f251d22c0d12614615d6500b5d2645", "5a857b396d7a7cace183253c028ab90867fee4f5bd34148b0e3633c99ef63bd9"),
    (6, 1, 2): ("bc9bd75067c87d0dd053b13257bde8e281bcf3c7df69954855135ae2c99ca784", "7ede4086619cf88c60f871f75912719f6e4bd7569c3f2431fb0b9282ee3f7f56"),
    (6, 2, 0): ("73d5d85c4d4efcd22f3da1cf93eacac225247336eddfceba25727da84c8202fa", "9cec1b5397a18ad4951e1ea6617173d9903eeef71adbb1f132c798d281472e22"),
    (6, 2, 1): ("a21e1448ea2325c91f2ef39909c7a605f5be70f9be91098f45127dfe97b569c2", "5a857b396d7a7cace183253c028ab90867fee4f5bd34148b0e3633c99ef63bd9"),
    (6, 2, 2): ("972128818fd4dbd9f926c2ba024dde0fca89d564f31037c3fd2be41c16b0674a", "7ede4086619cf88c60f871f75912719f6e4bd7569c3f2431fb0b9282ee3f7f56"),
    (6, 3, 0): ("15f048963841d2738832a5bdbd86a95955f998151d37a098c2226e53c4a8a167", "9cec1b5397a18ad4951e1ea6617173d9903eeef71adbb1f132c798d281472e22"),
    (6, 3, 1): ("d6c63a040506bc9ccb2b76067ed943ef86360b07c4ecc8e49a51b463d26e3e4d", "5a857b396d7a7cace183253c028ab90867fee4f5bd34148b0e3633c99ef63bd9"),
    (6, 3, 2): ("1c02d6695d5530ea927cae40f0b30d39e8cb320c94b2279c69c7b00f62d0c2df", "7ede4086619cf88c60f871f75912719f6e4bd7569c3f2431fb0b9282ee3f7f56"),
    (6, 4, 0): ("12583c3ead4d74cddd2285a246946a4cc65a6111894c63faa132590b2afd5cd3", "d879fb0b0571e0c690c02b796074e472ef8386716abeebe884495ea64f028d8a"),
    (6, 4, 1): ("d32db1a824fe8cef28615ffc2f09f294c0cf85b9fcf2c51f33dcc7a860ab541b", "4c29c835126f58e302b862ad84e8702e29eb451ae98aae333edb9ccfdd647158"),
    (6, 4, 2): ("2c47e1fc9e7e6d99b70da9d5b0d1d098f4ee81a0fa074e50ec0f02e5e0fe451b", "884250a31974b32dba502418dc6e48189400039c4fc74828181b00b1bf39bf49"),
    (6, 5, 0): ("dc031b7b7e47accf76fa78b9c3f1d2df2ca7be776207e2cf0294e50f07ae7879", "551319c4a7a86463ba2fee57d080ca52c2d39785d238222ad60d6e1198f7085b"),
    (6, 5, 1): ("3af17f4348830a5a3e82637124463c98859c82da2bd1e23d80aab13772e21c16", "b13e61589ca23b9d39888cf28c871fec9c4aa62f2ddd3dd6bf8d496b1dadf79c"),
    (6, 5, 2): ("3383450ca4a5113232e384dbe9f1a0084623fc494f8d67a3503e44983c8a8e5d", "45439f8758781edb66563409d4d2a4ad44367a6a1e1330d348c5647c2dbdd5de"),
    (6, 6, 0): ("1839936fa27ca48ba8b8df0f11a953be8331cbb40914981245b902c5214aef37", "6c9beadbaef65374383cf3e0e52b227b724c68417d4e12abf67c0e7dbb0be3ae"),
    (6, 6, 1): ("1839936fa27ca48ba8b8df0f11a953be8331cbb40914981245b902c5214aef37", "ee55c9f1b3a95187acb03828eff479b7b03894a98f78b4be19fd6c710f797afd"),
    (6, 6, 2): ("1839936fa27ca48ba8b8df0f11a953be8331cbb40914981245b902c5214aef37", "4184d688ee84843314725b6c01a54c908ed4bd3788aea6ba8d78e2f15fbcd292"),
}

# (K, replication, seed) over GF(13) with on_degenerate="resample": zero
# rejections and degenerate-channel redraws both occur in these runs.
GOLDEN_RESAMPLE_13 = {
    (4, 0, 0): ("61555c8f2220f7736f40f2a35f1886dbec184cb4dfb78b345162f40c46f46579", "6a54f87ab1737a2b689f6f5f88f1b4c36a8cf80cf14a8f863172f8feb4615453"),
    (5, 0, 0): ("91aaa6776b617e4202b4dfdee1202d452c57f0ecc383cd96b1567280236d804f", "786e2719e717e565f46a004530eddcd06efe1d8d008f94dc1f140d366207f195"),
    (6, 3, 1): ("25b9fc32811f4d8a7aaa858bdd0b80c59611fe818a1d96099128af61366b06b4", "7c3bf57a43faeb8a41644be1a30a5ae8a8bdfbf1313ad8f76c5664f84bd1ff39"),
}

GAP_64 = Fraction(514863537817907878630834171, 243021526176691243877335440)

# SHA-256 of the ``sweep --mode <mode> --kmax 64`` CSV files: they pin
# every exact ``num/den`` cell and every float's repr.
SWEEP_64_CSV = {
    "gap": "4bd1c36a7854db274bfe89386381d9f9676f1a39476f460785f05dd8f868bd4f",
    "dof": "76706b6589fe86ea2a6c2c20a7d3040d0262762ad072e6600542c687dd8f05c6",
}

# The same at the sweep limit, ``--kmax 256``, taken from the parent of
# the block CSV writer: every exact cell and DoF float up to K = 256.
SWEEP_256_CSV = {
    "gap": "22efedb20022ba65c86e695fa034e251e55be09f32a7eee1ff5226bc3c4f4dd6",
    "dof": "556098bdaf9b89af9b6aab213d77265b665f7407adab00073554043233473e9c",
}

# SHA-256 of ``sweep --mode buffer --kmax 20000 --gap-range 1..10``: K
# above the exact-harmonic limit of 10**4, so epsilon(K) takes the fsum
# branch, and every target up to the default range's end.
BUFFER_20000_CSV = "78a445bcc071c322c5c21f8f440c184c4d190b909d566a15c2abdb07ff23c3e9"


def _digests(tmp_path, config, seed, on_degenerate="error"):
    demand = tuple(range(1, config.K + 1))
    transcript = simulate(config, demand, seed, on_degenerate=on_degenerate)
    sidecar = tmp_path / "run.transcript.bin"
    save_transcript(transcript, tmp_path / "run.transcript.json", sidecar)
    library = random_library(config, SeededRng(seed).child(LIBRARY_STREAM))
    caches = fill_caches(config, subpacketize(config, library))
    decoded = hashlib.sha256()
    for user in range(1, config.K + 1):
        decoded.update(decode_user(transcript, user, caches[user - 1]).file.astype("<u4").tobytes())
    return hashlib.sha256(sidecar.read_bytes()).hexdigest(), decoded.hexdigest()


def test_golden_grid_is_complete():
    assert set(GOLDEN) == {
        (K, replication, seed) for K in range(1, 7) for replication in range(K + 1) for seed in range(3)
    }


@pytest.mark.parametrize("K", range(1, 7))
def test_golden_transcripts_and_decoded_files(tmp_path, K):
    for replication in range(K + 1):
        for seed in range(3):
            got = _digests(tmp_path, default_config(K, K, replication), seed)
            assert got == GOLDEN[(K, replication, seed)], (K, replication, seed)


@pytest.mark.parametrize("case", sorted(GOLDEN_RESAMPLE_13))
def test_golden_resample_small_prime(tmp_path, case):
    K, replication, seed = case
    config = default_config(K, K, replication, modulus=13)
    # The same run in "error" mode hits a degenerate channel, so the
    # resample run below really redraws.
    with pytest.raises(DegenerateChannelError):
        simulate(config, tuple(range(1, K + 1)), seed)
    assert _digests(tmp_path, config, seed, "resample") == GOLDEN_RESAMPLE_13[case]


def test_resample_stream_holds_rejected_zeros():
    # Nonzero draws over GF(13) reject zeros: the channel stream of every
    # resample case contains some within its first few hundred outputs.
    for K, replication, seed in GOLDEN_RESAMPLE_13:
        rng = SeededRng(seed).child(CHANNEL_STREAM)
        outputs = np.array([rng.next_u64() % 13 for _ in range(K * K * 20)])
        assert (outputs == 0).any()


def test_golden_gap_certificate():
    assert gap_certificate(64).max_gap == GAP_64


@pytest.mark.parametrize("mode", sorted(SWEEP_64_CSV))
def test_golden_sweep_csv(tmp_path, capsys, mode):
    path = tmp_path / f"{mode}.csv"
    assert main(["sweep", "--mode", mode, "--kmax", "64", "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_64_CSV[mode]


@pytest.mark.parametrize("mode", sorted(SWEEP_256_CSV))
def test_golden_sweep_csv_at_the_limit(tmp_path, capsys, mode):
    path = tmp_path / f"{mode}.csv"
    assert main(["sweep", "--mode", mode, "--kmax", "256", "--output", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SWEEP_256_CSV[mode]


def test_golden_buffer_sweep_csv(tmp_path):
    path = tmp_path / "buffer.csv"
    argv = ["sweep", "--mode", "buffer", "--kmax", "20000", "--gap-range", "1..10", "--output", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BUFFER_20000_CSV
