"""Content digests of every subject system, facet by facet.

Each system is pinned at every level the pipeline consumes: the
rendered template, the decoder/effective/manual tables, the ground
truth, the inference-cache fingerprint, the emulated world, the
constraint report and the complete campaign verdict set.  A change to
a system module that moves none of these (a refactor of how the
system is declared) leaves every digest in place; a change that does
move one fails here, naming the system and facet.

A deliberate change to a system updates its row below: the failure
message prints the system's fresh row, ready to paste.
"""

import hashlib
import json
from functools import lru_cache

import pytest

from repro.pipeline.cache import spex_fingerprint
from repro.systems import get_system

DIGESTS = {
    "apache": {
        "template": "60612b8f61ad92c5a1dbf2bdad78d85277f06f75ecaca37a7062892aadaa83d7",
        "tables": "2e1265ae3baf9c0a0330c976103478ec27891c316d4a2a6949679fafa3f3743a",
        "truth": "6168648f7f71934fa7fe4f795d940ade38f19e9a05cafe9793e4c81320386deb",
        "fingerprint": "8e2254c260fc0dec3324d3d5a47ffe1426523047ed8564ab147dcfcf34a3c897",
        "world": "26db8e44ee31d2355a97443d5298b69cf31b236b85f64b4a5ab102f2ef18d5f3",
        "spex": "dd56e6bd6ab9799162977e8d18d5688e75da5716c9400209f55dde4ee4f0907d",
        "verdicts": "4c32e1a5a11675910bbaa7faf125d6bf636c84ff810def81650b147446bf0263",
    },
    "mysql": {
        "template": "2409d6191c3476cca471bd41040de2f7d0e4e4231aea428f6ecf499cdffc2355",
        "tables": "05da15bae20afa7e69012b99e55d00175dbdebdcb30d71a0e99097b92e8a7876",
        "truth": "a6aa7739d6c8ce18be4457676d05c43491c6247c35cd59eb5660cd0cdb8cc0f6",
        "fingerprint": "4fe92ca22a940246b5633d0600f7bf892dc5e7c952bb12bacbdacab93a24534e",
        "world": "2620a0457f5dac2cfbc7f180666e86831a2a57bceee2230c7e5b35a41ff9ebb4",
        "spex": "62e158729ba51c780fbb26d28481dbffd0ca2e2a0cf821d54eb4e5a9ccdd80fa",
        "verdicts": "930bf30f753ace922ab427ac01ab63073e6eed7f9b88441b4be986a9cdcc5944",
    },
    "nginx": {
        "template": "3fd405e3ac8ad62dd79fe766bd33a24022d7914f551b74b5ff1eb45f2eea05db",
        "tables": "f7d0e8042e7e1e98dffa7c5263d314316815f11f0957d0d392f19de3e162c9ff",
        "truth": "61a68aa8fb52e829046d6a067a5dc8d2800a863d20619197629b2a04f3508886",
        "fingerprint": "10e4bdafeac7d6cab4d7657560efe9c73cdbb3a1814735245357b68f5cfb4815",
        "world": "67584a6208e3a1b40ac65356f69fbf0b1b0791799ec122dd09df74811fc9065d",
        "spex": "4ae01c02b97c37203e2a48702ac3e90c096b7fed2102671e640747b247149af7",
        "verdicts": "d227263a32180081774f9b074977f2ce20a8f943447ebf0b521fe0713dfee4a7",
    },
    "openldap": {
        "template": "e370c1203488b163357bc53fb51b61ae3a9340ce28785cfe02a49086ede6ff2d",
        "tables": "839a2bdf79e002217bc5e1b19839060aa4d3058b0400c7e71b4f90206246a638",
        "truth": "d8f202e7da86fb4d4932568231f2f1a728501a928842804d1481621ff1a4e195",
        "fingerprint": "f84ae04609d3bb86a5e2ce3467399d073ace393c2b62e8c9695792663b9bd9e4",
        "world": "22c9c7638d6fbac34b56911f7d1b0ab85245a4566a6a1fbf2b67af021f619152",
        "spex": "96b4d7591dc900cdf5dc3dca13f179e7f229ac9b8fb12c2bcf0187ea59d61d42",
        "verdicts": "6d796343cf4760148ae54d72c409ea9082b1f5d5725ec8d3763da78fc33cb38a",
    },
    "postgresql": {
        "template": "370aaa5f2d7fe009bd08fbb918f3565bf03bc7a4aab2ce970d301ad57efd6ec3",
        "tables": "b437e09bfd3e4dfb8ded779c86ef4bbe83409ffeccf56ecc6881a80a6994bf29",
        "truth": "4614c47622c329f3240b050bbbf206d8c82cdbdc5b4d18ea8df41237a043ac64",
        "fingerprint": "3311fc292cd0c98e5b63c03a03651365d46bb4b0eaa91acf84767f2795d71400",
        "world": "c6cd34f2bb9d9b77e9f265cf24676f85041c8cb104ba9eb6a2670a6f20693d4b",
        "spex": "cfa12ab43729710b98c5f9635512db47215612f62c0a05df77bcf700c486c8b8",
        "verdicts": "ec620ad03d37a308a3940d9f174c4ec823582937e9ab097b384317d2c778d9b8",
    },
    "squid": {
        "template": "39135f5fa0819fd9883d8b799965656d6a7c7f8e5b175bd3dc79372bb401e575",
        "tables": "6d37ddea412ffdd3853007f7a0558eba185b01c7ad879f6bc11196e21e47fd0f",
        "truth": "5b0b88f77254ed64f5cd6c6c4d6948e750751e5e0655aa9f654a7bcf26286c00",
        "fingerprint": "55c864535c8a6671b4a22882c46aa6f48105d0f22bd74fc96fa90059a21e1731",
        "world": "2b8a93864e4983b470acf8db0ba9fa3b77dd3ecb80ec42f6126d7653544e1706",
        "spex": "f3721f5119d416fb37c7a15d1e93a984e990bc454cad03723e5bfaaf20882b3a",
        "verdicts": "8beafb6d9549b5f4541a9104bff00ee7e2d52cdb1710084ee26f6203889164eb",
    },
    "storage_a": {
        "template": "3f28fe1bffa8b44570e0ac4fca40b3b5a93a6781c6d0a7b666e8f37abe7f8e02",
        "tables": "e31102daf71656c2135b6be12ea6c129c19837f2d195a39c020e31ae1cfea534",
        "truth": "eb9c0eb8c4605142f469b236ed50a0f55f9a3bd76d72c99c03ba08d3c6fa567f",
        "fingerprint": "98c2209df70d8fd4181f6675b6a283ae036565fa7d20dfed5be0e7d12b6d5b19",
        "world": "0054ab2a74c9678bf48b9f11d3e721361d7a52c4b4554fe70339ae266cc1e86d",
        "spex": "6fe09a382afdbc605953c30d2e85207de3b7c1bf3b3bd14a53fbe9d9edc3b6bf",
        "verdicts": "9ef4165ffa6cede7f710e53e7224c5a3e8d531c5b54f490e0c5d36e2c526caad",
    },
    "vsftpd": {
        "template": "48b0764e02ecde7b01460b4214c3747afe0ca745b2d7c2b520934b6275d332a0",
        "tables": "a4da86299890563226e6d908720ed1619c05d50288d94a29902f31a800dbfda8",
        "truth": "bca747e56b68f6e616bee6e3599a8bfd81c1d5c347bf4f4f7e3ce6e07ffc6734",
        "fingerprint": "8fa6e3fdcb0ec5688c082032b826b4e21c10d4df5f2fac11e76352fef96d2474",
        "world": "0054ab2a74c9678bf48b9f11d3e721361d7a52c4b4554fe70339ae266cc1e86d",
        "spex": "1487dc176e26d4a77ea9d4d92dc572a6367b5561c03973fb24a3ea65f256cd64",
        "verdicts": "8f4029857120e741823720073d30d472cf99060a7f91cb83dd1d18f952258f64",
    },
}

FACETS = (
    "template",
    "tables",
    "truth",
    "fingerprint",
    "world",
    "spex",
    "verdicts",
)


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _static_facets(system) -> dict:
    template = system.template_ar()
    world = system.make_os()
    return {
        "template": template.serialize(),
        "tables": {
            "effective": system.effective_locations,
            "manual": system.manual,
            "decoders": {
                param: system.decoder_for(param).__name__
                for param in (e.name for e in template.entries)
            },
        },
        "truth": sorted(repr(entry) for entry in system.ground_truth),
        "fingerprint": spex_fingerprint(system.sources, system.annotations),
        "world": sorted(
            (path, node.is_dir, node.mode, node.owner, node.content)
            for path, node in world.files.items()
        ),
    }


def _verdict_signature(campaign) -> list:
    return [
        (
            v.misconfiguration.settings,
            v.misconfiguration.rule,
            v.reaction.category,
            v.reaction.pinpointed,
            v.failed_tests,
        )
        for v in campaign.verdicts
    ]


@lru_cache(maxsize=None)
def _fresh_row(name: str, evaluation) -> tuple:
    result = evaluation.result(name)
    facets = _static_facets(get_system(name))
    facets["spex"] = result.spex.summary_dict()
    facets["verdicts"] = _verdict_signature(result.campaign)
    return tuple((facet, _digest(facets[facet])) for facet in FACETS)


def _format_row(name: str, row: dict) -> str:
    lines = [f'    "{name}": {{']
    lines += [f'        "{facet}": "{row[facet]}",' for facet in FACETS]
    lines.append("    },")
    return "\n".join(lines)


@pytest.mark.parametrize("facet", FACETS)
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_digest(name, facet, evaluation):
    row = dict(_fresh_row(name, evaluation))
    assert row[facet] == DIGESTS[name][facet], (
        f"{name}/{facet} digest moved; fresh row for {name}:\n"
        + _format_row(name, row)
    )


def test_every_registered_system_is_pinned():
    from repro.systems import system_names

    assert sorted(DIGESTS) == system_names()
