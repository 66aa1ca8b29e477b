"""Byte-identity guard for the CLI.

Each argv below maps to the exit status and the sha256 of the stdout it
produced when the table was recorded.  The cases cover every builder under
transform-apply and transform-crosscheck, every builder crosschecked against
every closed-form formula, every reflexive-kernel variant, both hilb-moduli
flavours with every variant, the pic1 existence rejection through both
commands that reach it, and the report shapes of strata with its lemma,
the type I classification, a failing and a no-cohomology kernel-check, the
type II reflexive validation and the pic1 oracle, the invalid-choice reports
of --formula, --variant and --flavor, and the --help text of the program and
of every command (its exit status is the SystemExit code).  The commands run
in-process through cli.main from the repository root, with K3FM_FORMAT
unset, so a changed byte or status in any of them fails here.
"""

from hashlib import sha256
from pathlib import Path

import pytest

from k3fm.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFLEXIVE = "surfaces/reflexive.json"
TYPE_I = "surfaces/reflexive-type-i.json"
TYPE_II = "surfaces/reflexive-type-ii.json"

DIGESTS = {
    # transform-apply: every builder on its default surface, JSON and text
    ("transform-apply", "--builder", "no-cohomology", "--ch", "1,0,0"):
        (0, "91a0f0a6e8f5ec3edbe521d8bd14a5ec9cb6e640b9a78fb77d3e2a3d3bcff9b7"),
    ("transform-apply", "--builder", "no-cohomology", "--ch", "2,1,-1", "--format", "text"):
        (0, "8b360f65e35bd2f9d991761db82764a1fc7ae815e7f9e03df4a17acc7672dad4"),
    ("transform-apply", "--builder", "reflexive-nondegenerate", "--ch", "1,0,0,0"):
        (0, "ecfb852bbf135edfc3fd38714b8678b109167cdef86a5cb3e0585b44ffb61f0a"),
    ("transform-apply", "--builder", "reflexive-nondegenerate", "--ch", "2,1,-1,3", "--format", "text"):
        (0, "f6fbd8e4605e8a8627fd944bfd96a60e046f62d4ec670491b407938d91cbeca1"),
    ("transform-apply", "--builder", "reflexive-type-i", "--ch", "1,0,0,0,0"):
        (0, "631e7f6d30b84a246dc595bec3150a59f06694b078845e76844cd40566127835"),
    ("transform-apply", "--builder", "reflexive-type-ii", "--ch", "1,0,0,0,0"):
        (0, "4b64804a898910a903bbfed9ef2bdc05479c9b4a48bcdc56c721e4fa30b968f7"),
    ("transform-apply", "--builder", "reflexive-type-ii", "--ch", "0,1,-1,2,1", "--format", "text"):
        (0, "de25724f3cae6e3c05c1365c46f25862de04d3f9dcf108c6a8e1cc077bec3204"),
    ("transform-apply", "--builder", "pic1", "--lsq", "12", "--ch", "1,0,0"):
        (0, "a02b89bcf94b94a99f5fcd66355bdf712329470965d0614a7ff15ae9b664e6bc"),
    ("transform-apply", "--builder", "pic1", "--lsq", "20", "--ch", "0,1,0", "--format", "text"):
        (0, "0e22d5339492615a36a850e488c1d5dadb36cb9069c9daa9e537cf2496bbbf48"),
    # transform-apply on surface files
    ("transform-apply", "--builder", "no-cohomology", "--surface", REFLEXIVE, "--m-class", "l+2h", "--ch", "1,0,0,0"):
        (0, "f410ccab2c90f4860560965a90b98cf58bca6707774ef283241809ca7e7cae45"),
    ("transform-apply", "--builder", "reflexive-nondegenerate", "--surface", REFLEXIVE, "--ch", "1,1,0,0"):
        (0, "278a5a6e57c8355a9a09946e39b0eb9bd03b723741881e4979b23f966b588c19"),
    ("transform-apply", "--builder", "reflexive-type-i", "--surface", TYPE_I, "--ch", "1,0,1,0,0"):
        (0, "d237da2aa530ebd4aa9b787168d4091c774d43cd78949c01a1cabed6065bc24c"),
    ("transform-apply", "--builder", "reflexive-type-ii", "--surface", TYPE_II, "--ch", "1,0,0,1,0"):
        (0, "bdee473506ab8e9b752739ac87c77cd3e6102ee8834d0ee4dbfe5e5f0f0230dc"),
    # transform-apply rejections and input errors
    ("transform-apply", "--builder", "pic1", "--lsq", "8", "--ch", "1,0,0"):
        (1, "31e131bd4e929bae6f0a62055c49c3cc5420ae048511312f20406340568c3611"),
    ("transform-apply", "--builder", "pic1", "--ch", "1,0,0"):
        (2, "68fc5e717a5c18dac7ff1ece4374d4613643850157dd55615a149ede57d5cefe"),
    ("transform-apply", "--builder", "reflexive-type-i", "--surface", TYPE_II, "--ch", "1,0,0,0,0"):
        (1, "28a8d41ceeae662b42a795c3da5ba9581dac15f65f4adc0bff8132399e3d5a43"),
    ("transform-apply", "--builder", "reflexive-nondegenerate", "--surface", TYPE_I, "--ch", "1,0,0,0,0"):
        (1, "6975e2171922f9f9ec773f2f9f2d1dbf9cd709f492605ba083cbb1e2b5c8ce81"),
    ("transform-apply", "--builder", "reflexive-nondegenerate", "--ch", "1,0,0"):
        (2, "fc59c8f5a76f4342093b666be01a88cdf4fbd864c4c76b37e7b3cc379b4ef15e"),
    # transform-crosscheck: every builder, default --max-entries
    ("transform-crosscheck", "--builder", "no-cohomology"):
        (0, "91825de28a5a7329e6c4a0f7d13e8c9ecc4954c916e9f3536a8833e741cc4cef"),
    ("transform-crosscheck", "--builder", "reflexive-nondegenerate"):
        (0, "40568c2f88a45a484ce4ba9057159cced416b1e13dca1dc0d9383476f2d7f718"),
    ("transform-crosscheck", "--builder", "reflexive-type-i"):
        (0, "1d5ec70e23d515f300f4f18ae6391a4cf067ab7c02ed70b89e344bc5e3585c5c"),
    ("transform-crosscheck", "--builder", "reflexive-type-ii"):
        (0, "62d21a9ff2c2ec75d8c26ce9461eb10b9cd7c9d96d4f2efe5767b0f1e84ce805"),
    ("transform-crosscheck", "--builder", "pic1", "--lsq", "12"):
        (0, "178f8293742b6fbe28d5c301698177d439c0b671e4b608ae53081d408d67b303"),
    ("transform-crosscheck", "--builder", "reflexive-type-i", "--surface", TYPE_I):
        (0, "1d5ec70e23d515f300f4f18ae6391a4cf067ab7c02ed70b89e344bc5e3585c5c"),
    ("transform-crosscheck", "--builder", "reflexive-type-ii", "--formula", "general"):
        (0, "a71bf914da45751d739a735da2b791364248d4f6670a2171e244a07040fb2d6f"),
    ("transform-crosscheck", "--builder", "reflexive-nondegenerate", "--max-entries", "100000"):
        (0, "1761a00664783923891cb876e8ef019b684fda9231e9bbd6d13c2c3b399e69db"),
    ("transform-crosscheck", "--builder", "no-cohomology", "--format", "text"):
        (0, "c80f8b7733df1ffd207f47408d83ab53070df15834e30723d8ea8698a0acb667"),
    ("transform-crosscheck", "--builder", "reflexive-type-i", "--max-entries", "-1"):
        (2, "5ea2c197db065f972eb8072bdbcad038242edabd5432cacb23fce5d4a6a7b57f"),
    ("transform-crosscheck", "--builder", "pic1", "--lsq", "8"):
        (1, "136f70a9125fbf0d4d5d8bf0c34c8716361778a4a534851646680ef252c150fa"),
    # reflexive-kernel: every variant, default and file surfaces
    ("reflexive-kernel", "--variant", "nondegenerate"):
        (0, "7edbe30928f3afc2a0068a7b6eeb5b729e8b84aa0eb543e9e5dfee5c3d126958"),
    ("reflexive-kernel", "--variant", "type-i"):
        (0, "d54a30efd9d995a01550ab8b3dfd729dc5a09258c970f07eaed15f3ebd5600ce"),
    ("reflexive-kernel", "--variant", "type-ii"):
        (0, "8e3c686699aec0b10ada162a1c9e6cde6ff92787e95fb903ab59e270153c3a42"),
    ("reflexive-kernel", "--variant", "nondegenerate", "--surface", REFLEXIVE):
        (0, "7edbe30928f3afc2a0068a7b6eeb5b729e8b84aa0eb543e9e5dfee5c3d126958"),
    ("reflexive-kernel", "--variant", "type-i", "--surface", TYPE_I, "--format", "text"):
        (0, "4ad11d7c06a897f0b1fc900a688da212ba21e9b5de8439fbe169e52ceb390a1c"),
    ("reflexive-kernel", "--variant", "type-ii", "--surface", TYPE_II):
        (0, "8e3c686699aec0b10ada162a1c9e6cde6ff92787e95fb903ab59e270153c3a42"),
    ("reflexive-kernel", "--variant", "type-ii", "--surface", TYPE_I):
        (1, "74af0d23c15ac9b4a258386cde0fcecd0936a64811c815f0d850e06e64acd577"),
    # hilb-moduli: both flavours, every variant
    ("hilb-moduli", "--n", "1", "--flavor", "no-cohomology"):
        (0, "f16b37306addeea4b0a04deb107972f58907ccb31d397bb77b668ddf738eaaa3"),
    ("hilb-moduli", "--n", "3", "--flavor", "no-cohomology", "--variant", "type-i"):
        (2, "d31754e6f08896759e74934a719a1072ae98492edc5bf87c6d04d53444bcbf90"),
    ("hilb-moduli", "--n", "2", "--flavor", "no-cohomology", "--surface", REFLEXIVE, "--m-class", "l+2h"):
        (0, "0efe4f1f08b851d49c98ee3d95c1b14b79e224a0d632c41b5f92bd64773d2ca1"),
    ("hilb-moduli", "--n", "2", "--flavor", "reflexive"):
        (0, "9daf4cfb8b9a684c1bda11cfe59b3b77b110b2d0f34ad7fab6dc18e69697d4df"),
    ("hilb-moduli", "--n", "2", "--flavor", "reflexive", "--variant", "nondegenerate"):
        (0, "9daf4cfb8b9a684c1bda11cfe59b3b77b110b2d0f34ad7fab6dc18e69697d4df"),
    ("hilb-moduli", "--n", "2", "--flavor", "reflexive", "--variant", "type-i"):
        (0, "ed5c7bc6050739df8571ad831c83279f2d0feef0f16cffa39d3cff4c0f7c78b3"),
    ("hilb-moduli", "--n", "4", "--flavor", "reflexive", "--variant", "type-ii"):
        (0, "215a8eb725d2368e4480dec8f0ae5dbc23bad3533f403b3e6eb3c6daadf8dc80"),
    ("hilb-moduli", "--n", "2", "--flavor", "reflexive", "--surface", REFLEXIVE, "--format", "text"):
        (0, "b9c1053f1c62e66fe1c663ce2f6326a66f8257cb2076d342cc8091b9cff69cea"),
    ("hilb-moduli", "--n", "2", "--flavor", "reflexive", "--variant", "type-ii", "--surface", TYPE_II):
        (0, "b5bb76c493d73a2ab4ccb7112a5b3b7f74d26d0a212d5b4940e59a2fdfe7d94d"),
    # pic1, beside the transform-apply rejection above
    ("pic1", "--lsq", "4"):
        (0, "68316d0b2b4f375403c0f0bddb28a5cdf8a3da1b959929747a34a585cb8f5ef6"),
    ("pic1", "--lsq", "8"):
        (1, "e73faa535bbc815939c67d3de10c0541a71092e97025adeb64516d84c895c103"),
    ("pic1", "--lsq", "12", "--oracle"):
        (0, "6510f7a06290c48ce2ab1802aa134cf1d9860daa59481c4d7f27841c494657aa"),
    # surface and reflexive commands
    ("surface-validate", "--surface", REFLEXIVE, "--reflexive"):
        (0, "5d0fa4b02eaa0bfe733f8b0307c535440ca601da536f486481530bc3a48e31a2"),
    ("surface-validate", "--surface", TYPE_I, "--reflexive", "--format", "text"):
        (0, "5d29106ca27b8468570f0220329422df07d3390ddb25fa0fbcb1b49081ae9931"),
    ("reflexive-decompose", "--surface", TYPE_I, "--oracle"):
        (0, "fef29e8a729bc2b4467097991fb164bf5b3a62e105a12b5cb322a64741ca1693"),
    ("reflexive-decompose", "--surface", TYPE_II, "--oracle"):
        (0, "fef29e8a729bc2b4467097991fb164bf5b3a62e105a12b5cb322a64741ca1693"),
    ("reflexive-decompose", "--surface", REFLEXIVE):
        (1, "ea4cea72eeaa31495ceb69af5d74ad6b275b4f878ff4ded11b8ffd32196c13b4"),
    ("reflexive-classify", "--surface", TYPE_II):
        (0, "d146740483af2ea1da4889a8a83d1eecb6c39dcf0e0cf49956c097a469a178f7"),
    ("chi", "--surface", REFLEXIVE, "--class", "l+2h"):
        (0, "46bd1c4d96fdbab379687f964f5e740a83c8b142a9b92b84d6f35f31ff0d5013"),
    ("kernel-check", "--surface", REFLEXIVE, "--a=-h", "--b", "3l+7h", "--c", "l+h", "--d", "2l+5h"):
        (0, "cb2bc93e2211dc34f43d51da3dc2a9885136da0151fb9154927a0574ef8d907c"),
    ("strata", "--surface", REFLEXIVE, "--l", "l", "--m", "l+2h", "--h", "h", "--z", "3"):
        (0, "37b19b23f7146726f7cc97169317eedfd3cc6f3cbd1bed44f05c26849228ee95"),
    ("primitive-check", "--surface", REFLEXIVE, "--h", "h", "--n", "2"):
        (0, "9a0a436f5fcd1c85c5baf9e51b914445b077aed3d98f394519c92db441b8f986"),
    # transform-crosscheck: every builder against every formula, all entries
    ("transform-crosscheck", "--builder", "no-cohomology", "--formula", "general", "--max-entries", "100000"):
        (0, "6ff3155457d484d4692c6d3f897da633e356b8a049b7f42204016974a1cd9272"),
    ("transform-crosscheck", "--builder", "no-cohomology", "--formula", "no_cohomology", "--max-entries", "100000"):
        (0, "91825de28a5a7329e6c4a0f7d13e8c9ecc4954c916e9f3536a8833e741cc4cef"),
    ("transform-crosscheck", "--builder", "no-cohomology", "--formula", "reflexive_nondegenerate", "--max-entries", "100000"):
        (2, "2e57e9ee2cbc62e6b064452b87036955230bd763349dc15a8a662f0e30a521b7"),
    ("transform-crosscheck", "--builder", "no-cohomology", "--formula", "reflexive_type_i", "--max-entries", "100000"):
        (2, "c290e4bba7674e9ea69c93078da54e64703eb1dce0347b0a69a0cd36ca052afb"),
    ("transform-crosscheck", "--builder", "no-cohomology", "--formula", "reflexive_type_ii", "--max-entries", "100000"):
        (2, "c290e4bba7674e9ea69c93078da54e64703eb1dce0347b0a69a0cd36ca052afb"),
    ("transform-crosscheck", "--builder", "no-cohomology", "--formula", "picard_rank_one", "--max-entries", "100000"):
        (2, "c6ea2f5e235e5f6beb99ffa40a17df2bd2d1d98c52ad27b6d1b7ceb97967967b"),
    ("transform-crosscheck", "--builder", "reflexive-nondegenerate", "--formula", "general", "--max-entries", "100000"):
        (0, "d6b32ac6174f0ec0899f8b42f167cbab3a0d798607da7ff855039a2cb5002025"),
    ("transform-crosscheck", "--builder", "reflexive-nondegenerate", "--formula", "no_cohomology", "--max-entries", "100000"):
        (2, "82930a5b357b3f244099bc5711dfc3514c7a35b8880bd272739ccf62fa1df202"),
    ("transform-crosscheck", "--builder", "reflexive-nondegenerate", "--formula", "reflexive_nondegenerate", "--max-entries", "100000"):
        (0, "1761a00664783923891cb876e8ef019b684fda9231e9bbd6d13c2c3b399e69db"),
    ("transform-crosscheck", "--builder", "reflexive-nondegenerate", "--formula", "reflexive_type_i", "--max-entries", "100000"):
        (2, "ac07f4f1cf492aa71632ff6a3fd2ec2c9da8a1ada3bfaaeac945f8e416a1d444"),
    ("transform-crosscheck", "--builder", "reflexive-nondegenerate", "--formula", "reflexive_type_ii", "--max-entries", "100000"):
        (2, "ac07f4f1cf492aa71632ff6a3fd2ec2c9da8a1ada3bfaaeac945f8e416a1d444"),
    ("transform-crosscheck", "--builder", "reflexive-nondegenerate", "--formula", "picard_rank_one", "--max-entries", "100000"):
        (2, "c6ea2f5e235e5f6beb99ffa40a17df2bd2d1d98c52ad27b6d1b7ceb97967967b"),
    ("transform-crosscheck", "--builder", "reflexive-type-i", "--formula", "general", "--max-entries", "100000"):
        (0, "92564c55eeac68d86060c9b4543239ac2f1d9fe32c8def6a4928e23d371112d4"),
    ("transform-crosscheck", "--builder", "reflexive-type-i", "--formula", "no_cohomology", "--max-entries", "100000"):
        (2, "82930a5b357b3f244099bc5711dfc3514c7a35b8880bd272739ccf62fa1df202"),
    ("transform-crosscheck", "--builder", "reflexive-type-i", "--formula", "reflexive_nondegenerate", "--max-entries", "100000"):
        (0, "aeffcabf5b9c73c54a823d279aff2c8832bc28a27869c86e099ec6177c8929a5"),
    ("transform-crosscheck", "--builder", "reflexive-type-i", "--formula", "reflexive_type_i", "--max-entries", "100000"):
        (0, "80667820ab5a18f46cc7034a1249e69db3f7e96f807d8252db6e4459ff0590fb"),
    ("transform-crosscheck", "--builder", "reflexive-type-i", "--formula", "reflexive_type_ii", "--max-entries", "100000"):
        (0, "73f005276fefbe489d5957d3b966b7f59ab42d4a70a5bd0725a9dcbb2bbe94f8"),
    ("transform-crosscheck", "--builder", "reflexive-type-i", "--formula", "picard_rank_one", "--max-entries", "100000"):
        (2, "c6ea2f5e235e5f6beb99ffa40a17df2bd2d1d98c52ad27b6d1b7ceb97967967b"),
    ("transform-crosscheck", "--builder", "reflexive-type-ii", "--formula", "general", "--max-entries", "100000"):
        (0, "a71bf914da45751d739a735da2b791364248d4f6670a2171e244a07040fb2d6f"),
    ("transform-crosscheck", "--builder", "reflexive-type-ii", "--formula", "no_cohomology", "--max-entries", "100000"):
        (2, "82930a5b357b3f244099bc5711dfc3514c7a35b8880bd272739ccf62fa1df202"),
    ("transform-crosscheck", "--builder", "reflexive-type-ii", "--formula", "reflexive_nondegenerate", "--max-entries", "100000"):
        (0, "1313e4da3eb2da2b29ee9dee407e4acddb9aa640883650e4e038c95c30e2c6c6"),
    ("transform-crosscheck", "--builder", "reflexive-type-ii", "--formula", "reflexive_type_i", "--max-entries", "100000"):
        (0, "3ffb0864ddfb96ca86b95604fa8fbc0dc8d4f6f900ed500a96247fe4e87d958f"),
    ("transform-crosscheck", "--builder", "reflexive-type-ii", "--formula", "reflexive_type_ii", "--max-entries", "100000"):
        (0, "0cf9dea9b9428519ad86fb9952a045ec2312ce065f29f9eb7067167c6f90c522"),
    ("transform-crosscheck", "--builder", "reflexive-type-ii", "--formula", "picard_rank_one", "--max-entries", "100000"):
        (2, "c6ea2f5e235e5f6beb99ffa40a17df2bd2d1d98c52ad27b6d1b7ceb97967967b"),
    ("transform-crosscheck", "--builder", "pic1", "--lsq", "12", "--formula", "general", "--max-entries", "100000"):
        (2, "2089e9248992068040808af281f1e0cdd260a88594426534668a34f408dd10c6"),
    ("transform-crosscheck", "--builder", "pic1", "--lsq", "12", "--formula", "no_cohomology", "--max-entries", "100000"):
        (2, "82930a5b357b3f244099bc5711dfc3514c7a35b8880bd272739ccf62fa1df202"),
    ("transform-crosscheck", "--builder", "pic1", "--lsq", "12", "--formula", "reflexive_nondegenerate", "--max-entries", "100000"):
        (2, "2e57e9ee2cbc62e6b064452b87036955230bd763349dc15a8a662f0e30a521b7"),
    ("transform-crosscheck", "--builder", "pic1", "--lsq", "12", "--formula", "reflexive_type_i", "--max-entries", "100000"):
        (2, "c290e4bba7674e9ea69c93078da54e64703eb1dce0347b0a69a0cd36ca052afb"),
    ("transform-crosscheck", "--builder", "pic1", "--lsq", "12", "--formula", "reflexive_type_ii", "--max-entries", "100000"):
        (2, "c290e4bba7674e9ea69c93078da54e64703eb1dce0347b0a69a0cd36ca052afb"),
    ("transform-crosscheck", "--builder", "pic1", "--lsq", "12", "--formula", "picard_rank_one", "--max-entries", "100000"):
        (0, "e4078f36d0769b73ff9b49c496e4dc096d9a93796178740ba2482fa4da5f388d"),
    # report shapes: strata lemma, type I classification (no e key), a
    # failing and a no-cohomology kernel-check, type II validation, pic1 oracle
    ("strata", "--surface", REFLEXIVE, "--l", "l", "--m", "l+2h", "--h", "h", "--z", "3", "--a", "1"):
        (0, "aed96628c0574a29b7e358dfcf51ee03074294fc4c0b5eb3ceff3a705611c8b6"),
    ("strata", "--surface", REFLEXIVE, "--l", "l", "--m", "l+2h", "--h", "h", "--z", "3", "--a", "1", "--format", "text"):
        (0, "8a444c63506e4595907709fe3b469adf40a501323109a260028faa1655a15272"),
    ("reflexive-classify", "--surface", TYPE_I):
        (0, "5ea72f283b26e31b48a340c1648ccc238c38aafaff7b77c275498dcbc3706254"),
    ("reflexive-classify", "--surface", TYPE_I, "--format", "text"):
        (0, "78c180290a1e8a421c452759eef6b479d9c692e5a30649e5e928621895cbe604"),
    ("kernel-check", "--surface", REFLEXIVE, "--a", "h", "--b", "h", "--c", "l", "--d", "l"):
        (1, "3580d85af417d5138783f780c00f63e045229d01ad9956d34accaa7117409dd1"),
    ("kernel-check", "--surface", REFLEXIVE, "--a", "h", "--b", "h", "--c", "l", "--d", "l", "--format", "text"):
        (1, "8d4bb9a8b594745a53ff16dfb09264feaf4096f12690128ce6db70ac663e7453"),
    ("kernel-check", "--surface", REFLEXIVE, "--a", "0,0", "--b", "0,0", "--c", "l+2h", "--d=-l-2h"):
        (0, "8523ca76474c88d59765581b34ae03eb81f92e1f6103fa8065623eff16d4d657"),
    ("kernel-check", "--surface", REFLEXIVE, "--a", "0,0", "--b", "0,0", "--c", "l+2h", "--d=-l-2h", "--format", "text"):
        (0, "d5e6458006d696c1f056a5e88416753db220dfec030064f32e343c83ddfda457"),
    ("surface-validate", "--surface", TYPE_II, "--reflexive"):
        (0, "1482a14243a5465a114d13df402233f2e761c3836af752958e9939d5408c3d48"),
    ("surface-validate", "--surface", TYPE_II, "--reflexive", "--format", "text"):
        (0, "aae643e2331295569edf5bb098c7326104f58f95df23699817ceaef745ba468b"),
    ("pic1", "--lsq", "28", "--oracle", "--bound", "40"):
        (0, "2edec67b071528cdfbee06310b01d2bc4f7a2b5ab22f3da169445d77bee77f73"),
    ("pic1", "--lsq", "28", "--oracle", "--bound", "40", "--format", "text"):
        (0, "d1cc3a5808a1b7a69a6164c5dcfce7a3358bff0e1b29bf44d4c3e00dd63e0a48"),
    # the invalid-choice report of each option whose choices a library module defines
    ("transform-crosscheck", "--builder", "pic1", "--lsq", "4", "--formula", "nope"):
        (2, "211649260cf58e5b715d18d22d31e0f8a9b6b85c8a3dbe9f4734ba59acf08d34"),
    ("reflexive-kernel", "--variant", "nope"):
        (2, "2d948ffe54a4cd79157188dc3676da277705e872bad99aa271225f1d5fb6d065"),
    ("hilb-moduli", "--n", "1", "--flavor", "nope"):
        (2, "943dad282bed1cf29e5c24859caa39134248558870efa8f1ef2d00bfd77baeca"),
    # --help of the program and of every command, at 80 columns
    ("--help",):
        (0, "b67c3a02013024f5fac7600e428bf738f6cebd35c65add6c7b6e2bf842f672c1"),
    ("surface-validate", "--help"):
        (0, "aede26b45b04ae0dafea3672676d526676b4274a6cebebbe644a850c2e2db639"),
    ("chi", "--help"):
        (0, "11c3f65a0c87e816c3beb0ad127135e45d94747cc47ea2580d74aa33e6c344e1"),
    ("kernel-check", "--help"):
        (0, "dbf5bfbbcffbb5de1312e19ad734cc277e0428bcb07038ee4d139a25b4fc9fc4"),
    ("transform-apply", "--help"):
        (0, "dc5963763f658ad281699f22ffe166ad86a96eec2b27517f93e7dd4e91b4ef16"),
    ("transform-crosscheck", "--help"):
        (0, "01ae07e6276ef83a8143a1a53fd7f15673762c3c7e43247e71e48382d4cdd355"),
    ("pic1", "--help"):
        (0, "2ff4b6c59c9bc30abe12d7e8dff0aee93070c36fc54cbef217faa8c0ab881103"),
    ("reflexive-decompose", "--help"):
        (0, "a1912397fc546444c120cd20f69251f4f7a6cb4e9e23b59ac5bba03d74206d6d"),
    ("reflexive-classify", "--help"):
        (0, "78d3a58876fc1ba746efc3e48a8a7001b7bc9bb104de01243073f7ed24c5c472"),
    ("reflexive-kernel", "--help"):
        (0, "044e09df42ecccbddd8e6648b751697ca3202df61f9f7d07c93c35d30f45a7c5"),
    ("hilb-moduli", "--help"):
        (0, "52783ffb7ee3317a544e4c6380ecb7010cf921e40f6610742e28516d0ce373c5"),
    ("strata", "--help"):
        (0, "31b3c5ee49e71897da546a277bc1af91fe4cf0bbe0c5129972b4a21ece7fa106"),
    ("primitive-check", "--help"):
        (0, "4ce04232a93e15637a9cdedf098ee10316f948537beb6ed09f4697973d5bc85c"),
}


@pytest.mark.parametrize("argv", list(DIGESTS), ids=" ".join)
def test_cli_stdout_and_status_are_unchanged(argv, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("K3FM_FORMAT", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    try:
        status = main(list(argv))
    except SystemExit as done:  # --help prints and exits
        status = done.code
    out = capsys.readouterr().out
    assert (status, sha256(out.encode()).hexdigest()) == DIGESTS[argv]
