"""Differential test: the indexed search plan against the naive scan.

`LdapDirectory.search` plans equality/AND/OR filters against the attribute
index; `search_naive` is the retained reference implementation (full
enumeration, filter re-parsed, same final DN sort).  On randomized seeded
directories the two must return *exactly* the same entries in the same
order for every scope and every filter operator — this is what makes the
index a pure optimization and keeps recorded outputs bit-identical.
"""

import random

import pytest

from repro.catalog.ldapsim import LdapDirectory

ATTRS = ["objectClass", "cn", "run", "filetype", "size", "owner"]
VALUES = {
    "objectClass": ["top", "organization", "collection", "logicalFile"],
    "cn": [f"n{i}" for i in range(12)],
    "run": [f"run{i}" for i in range(6)],
    "filetype": ["objectivity", "root", "flat"],
    "size": [str(s) for s in (10, 250, 4000, 98765)],
    "owner": ["cms", "atlas", "alice"],
}


def random_directory(rng: random.Random, n_entries: int) -> LdapDirectory:
    """A random DN tree (up to 4 levels) with random attribute values."""
    directory = LdapDirectory()
    directory.add("o=grid", {"objectClass": ["organization"]})
    dns = ["o=grid"]
    for i in range(n_entries):
        parent = rng.choice(dns)
        if parent.count(",") >= 3:  # cap the depth
            parent = "o=grid"
        rdn_attr = rng.choice(["cn", "run", "owner"])
        dn = f"{rdn_attr}=e{i},{parent}"
        attributes = {"objectClass": [rng.choice(VALUES["objectClass"])]}
        for attr in rng.sample(ATTRS[1:], rng.randint(1, 4)):
            attributes[attr] = rng.sample(
                VALUES[attr], rng.randint(1, min(2, len(VALUES[attr])))
            )
        directory.add(dn, attributes)
        dns.append(dn)
    return directory


def random_filter(rng: random.Random, depth: int = 0) -> str:
    """A random filter exercising every operator the parser knows."""
    if depth < 2 and rng.random() < 0.45:
        op = rng.choice(["&", "|", "!"])
        if op == "!":
            return f"(!{random_filter(rng, depth + 1)})"
        n = rng.randint(1, 3)
        inner = "".join(random_filter(rng, depth + 1) for _ in range(n))
        return f"({op}{inner})"
    attr = rng.choice(ATTRS)
    kind = rng.choice(["eq", "present", "substring", "ge", "le"])
    if kind == "present":
        return f"({attr}=*)"
    if kind == "substring":
        value = rng.choice(VALUES[attr])
        pattern = rng.choice([f"{value[:2]}*", f"*{value[-2:]}", f"*{value[1:-1]}*"])
        return f"({attr}={pattern})"
    if kind in ("ge", "le"):
        value = rng.choice(VALUES[attr])
        return f"({attr}>={value})" if kind == "ge" else f"({attr}<={value})"
    # equality — sometimes against a value that no entry carries
    value = rng.choice(VALUES[attr] + ["nosuchvalue"])
    return f"({attr}={value})"


@pytest.mark.parametrize("seed", range(8))
def test_indexed_search_matches_naive_scan(seed):
    rng = random.Random(1000 + seed)
    directory = random_directory(rng, n_entries=rng.randint(30, 120))
    bases = ["o=grid"] + rng.sample(
        directory.dns(), min(5, len(directory))
    )
    for _ in range(40):
        base = rng.choice(bases)
        scope = rng.choice(["base", "one", "subtree"])
        filter_text = random_filter(rng)
        indexed = directory.search(base, filter_text, scope=scope)
        naive = directory.search_naive(base, filter_text, scope=scope)
        assert [e.dn for e in indexed] == [e.dn for e in naive], (
            f"diverged for {filter_text!r} scope={scope} base={base!r}"
        )
        # identical objects, not merely identical DNs
        assert indexed == naive


@pytest.mark.parametrize("seed", range(4))
def test_differential_survives_mutation(seed):
    """The incremental index stays consistent through modify/delete."""
    rng = random.Random(7000 + seed)
    directory = random_directory(rng, n_entries=60)
    leaves = [
        dn for dn in directory.dns()
        if not directory.children(dn) and dn != "o=grid"
    ]
    for dn in rng.sample(leaves, min(15, len(leaves))):
        action = rng.choice(["delete", "add_value", "replace", "del_value"])
        if action == "delete":
            directory.delete(dn)
            continue
        attr = rng.choice(ATTRS[1:])
        if action == "add_value":
            directory.modify_add(dn, attr, rng.choice(VALUES[attr]))
        elif action == "replace":
            if attr in directory.get(dn).attributes:
                directory.modify_delete(dn, attr)
            directory.modify_add(dn, attr, rng.choice(VALUES[attr]))
        else:
            entry = directory.get(dn)
            values = entry.attributes.get(attr)
            if values:
                directory.modify_delete(dn, attr, values[0])
    for _ in range(25):
        filter_text = random_filter(rng)
        scope = rng.choice(["one", "subtree"])
        indexed = directory.search("o=grid", filter_text, scope=scope)
        naive = directory.search_naive("o=grid", filter_text, scope=scope)
        assert [e.dn for e in indexed] == [e.dn for e in naive]
