"""Property test: LDAP subtree search equals brute-force filtering."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.ldapsim import LdapDirectory, parse_filter

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)
values = st.sampled_from(["red", "blue", "green", "10", "200", "3000"])


@st.composite
def directory_and_filter(draw):
    directory = LdapDirectory()
    directory.add("o=grid", {"objectClass": ["org"]})
    n = draw(st.integers(min_value=1, max_value=15))
    for i in range(n):
        attrs = {"objectClass": ["thing"]}
        for attr in ("color", "size"):
            if draw(st.booleans()):
                attrs[attr] = [draw(values)]
        directory.add(f"cn=e{i},o=grid", attrs)
    # build a random but valid filter
    kind = draw(st.sampled_from(["eq", "ge", "present", "and", "or", "not"]))
    if kind == "eq":
        text = f"(color={draw(values)})"
    elif kind == "ge":
        text = f"(size>={draw(st.integers(min_value=0, max_value=5000))})"
    elif kind == "present":
        text = f"({draw(st.sampled_from(['color', 'size']))}=*)"
    elif kind == "and":
        text = f"(&(objectClass=thing)(color={draw(values)}))"
    elif kind == "or":
        text = f"(|(color={draw(values)})(size>=100))"
    else:
        text = f"(!(color={draw(values)}))"
    return directory, text


@settings(max_examples=80, deadline=None)
@given(data=directory_and_filter())
def test_subtree_search_equals_brute_force(data):
    directory, filter_text = data
    matcher = parse_filter(filter_text)
    found = {e.dn for e in directory.search("o=grid", filter_text)}
    brute = {
        e.dn
        for e in (directory.get(dn) for dn in directory.dns())
        if matcher(e)
    }
    assert found == brute


@settings(max_examples=60, deadline=None)
@given(data=directory_and_filter())
def test_negation_partitions_the_directory(data):
    directory, filter_text = data
    positive = {e.dn for e in directory.search("o=grid", filter_text)}
    negative = {e.dn for e in directory.search("o=grid", f"(!{filter_text})")}
    everything = set(directory.dns())
    assert positive | negative == everything
    assert positive & negative == set()
