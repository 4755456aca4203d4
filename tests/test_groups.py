import itertools
import re

import numpy as np
import pytest

from muharmonic import (
    CapacityError,
    ConstructionError,
    cyclic_group,
    dihedral_group,
    generated_subgroup,
    group_from_table,
    left_cosets,
    product_group,
    symmetric_group,
)
from muharmonic.experiments import _group_from_spec


def _check_cayley_invariants(g):
    e = g.identity
    n = g.order
    assert np.array_equal(g.cayley[e], np.arange(n))
    assert np.array_equal(g.cayley[:, e], np.arange(n))
    for x in range(n):
        assert g.mul(x, g.inv(x)) == e
        assert g.mul(g.inv(x), x) == e
    for x in range(n):
        for y in range(n):
            assert np.array_equal(g.cayley[g.cayley[x, y], :], g.cayley[x, g.cayley[y, :]])


def test_cyclic4_table():
    g = cyclic_group(4)
    assert g.order == 4
    assert g.mul(1, 3) == 0
    _check_cayley_invariants(g)


def test_symmetric3_nonabelian():
    g = symmetric_group(3)
    assert g.order == 6
    t12 = g.labels.index("(1 2)")
    t13 = g.labels.index("(1 3)")
    assert g.mul(t12, t13) != g.mul(t13, t12)
    _check_cayley_invariants(g)


def test_broken_associativity_names_triple():
    table = np.arange(3)[None, :] + np.arange(3)[:, None]
    table %= 3
    table[2, 2] = 2  # identity and inverses survive, associativity does not
    with pytest.raises(ConstructionError) as err:
        group_from_table(table)
    # the first failing triple in (x, y, z) order
    assert str(err.value) == ("cayley: associativity fails at triple (x=1, y=1, z=2): "
                              "(xy)z=2 but x(yz)=1")


def test_missing_identity_rejected():
    with pytest.raises(ConstructionError, match="identity"):
        group_from_table([[0, 0], [0, 0]])


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_table_is_composition(n):
    # element a is the a-th permutation in lexicographic order, and a * b
    # applies b first: (a * b)(i) = a(b(i))
    perms = list(itertools.permutations(range(n)))
    g = symmetric_group(n)
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            assert perms[g.mul(a, b)] == tuple(p[q[i]] for i in range(n))
    assert len(g.labels) == len(perms)
    assert g.labels[0] == "e"


def test_symmetric_labels():
    assert symmetric_group(3).labels == ("e", "(2 3)", "(1 2)", "(1 2 3)", "(1 3 2)", "(1 3)")
    s5 = symmetric_group(5)
    assert s5.labels.index("(1 2)") == 24
    assert s5.labels.index("(1 2 3 4 5)") == 33


def test_dihedral_and_product_validate():
    _check_cayley_invariants(dihedral_group(4))
    v4 = product_group(cyclic_group(2), cyclic_group(2))
    assert v4.order == 4
    assert v4.is_abelian()
    _check_cayley_invariants(v4)


def test_symmetric5_allowed_beyond_exhaustive_cap():
    g = symmetric_group(5)
    assert g.order == 120
    # spot-check associativity on random triples (full sweep is capped at 64)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y, z = rng.integers(0, 120, size=3)
        assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))


def test_order_cap():
    with pytest.raises(CapacityError):
        cyclic_group(121)


@pytest.mark.parametrize("build, n, order", [
    (cyclic_group, 10**8, 10**8),  # an n x n table would take 80 PB
    (dihedral_group, 61, 122),
    (dihedral_group, 10**6, 2 * 10**6),  # its table is filled by a Python double loop
], ids=["cyclic-1e8", "dihedral-61", "dihedral-1e6"])
def test_order_cap_is_checked_before_the_table_is_built(build, n, order):
    with pytest.raises(CapacityError, match=f"^group order {order} exceeds the cap of 120$"):
        build(n)


@pytest.mark.parametrize("build, n", [
    (cyclic_group, True),  # was Z1
    (symmetric_group, True),  # was S1
    (dihedral_group, "3"),  # ended in a bare '<' comparison error
    (cyclic_group, 4.7),
    (dihedral_group, 2.0),
], ids=["cyclic-True", "symmetric-True", "dihedral-str", "cyclic-float", "dihedral-float"])
def test_constructors_refuse_an_n_that_is_not_an_integer(build, n):
    with pytest.raises(TypeError, match=f"^n: expected a positive integer, got {n!r}$"):
        build(n)


def test_constructors_take_any_integer_type():
    assert cyclic_group(np.int64(5)).order == 5
    assert dihedral_group(np.int32(3)).order == 6


def test_cyclic_group_does_not_round_its_size():
    # int() once made n = 4.7 the group Z4
    with pytest.raises(TypeError, match="^n: expected a positive integer, got 4.7$"):
        cyclic_group(4.7)
    assert cyclic_group(4).order == 4


@pytest.mark.parametrize("labels", ["es", ["e", 1], ("e",), 7],
                         ids=["string", "non-string-label", "too-few", "not-a-sequence"])
def test_group_from_table_refuses_labels_that_are_not_one_string_per_element(labels):
    # a string was split into its characters: "es" gave the labels ('e', 's')
    with pytest.raises(ConstructionError,
                       match=r"^labels: expected 2 strings, one per element, got "):
        group_from_table([[0, 1], [1, 0]], labels=labels)
    assert group_from_table([[0, 1], [1, 0]], labels=["e", "s"]).labels == ("e", "s")


@pytest.mark.parametrize("call, error, message", [
    # each built a group: 1.5 and True were taken as the element 1
    (lambda: generated_subgroup(cyclic_group(6), [1.5]), TypeError,
     "support: expected an element index, got 1.5"),
    (lambda: generated_subgroup(cyclic_group(6), [True]), TypeError,
     "support: expected an element index, got True"),
    (lambda: group_from_table([[0, 1.5], [1, 0]]), TypeError,
     "cayley: expected an element index, got 1.5"),
    (lambda: group_from_table([[0, True], [True, 0]]), TypeError,
     "cayley: expected an element index, got True"),
    (lambda: group_from_table(np.array([[0.0, 1.0], [1.0, 0.0]])), ConstructionError,
     "cayley: expected a square list of rows of element indices"),
    # numpy's "inhomogeneous shape" error, which named no parameter
    (lambda: group_from_table([[0, 1], [1]]), ConstructionError,
     "cayley: expected a square list of rows of element indices"),
    (lambda: group_from_table(np.array([[0, 1], [1, 2]])), ConstructionError,
     "cayley: element index 2 outside 0..1"),
], ids=["subgroup-float", "subgroup-bool", "table-float", "table-bool", "table-float-array",
        "table-ragged", "table-array-outside"])
def test_group_constructors_refuse_what_is_not_an_element_index(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_group_from_table_keeps_its_own_copy():
    # the caller's array was frozen in place by the group
    t = np.array([[0, 1], [1, 0]])
    g = group_from_table(t)
    assert t.flags.writeable
    t[0, 0] = 1
    assert g.cayley[0, 0] == 0 and not g.cayley.flags.writeable


def test_generated_subgroup_examples():
    z6 = cyclic_group(6)
    assert generated_subgroup(z6, [2]).members == (0, 2, 4)
    z4 = cyclic_group(4)
    assert generated_subgroup(z4, [1]).members == (0, 1, 2, 3)
    s3 = symmetric_group(3)
    gens = [s3.labels.index("(1 2)"), s3.labels.index("(1 3)")]
    assert generated_subgroup(s3, gens).order == 6


def test_generated_subgroup_idempotent():
    s3 = symmetric_group(3)
    h = generated_subgroup(s3, [s3.labels.index("(1 2 3)")])
    again = generated_subgroup(s3, h.members)
    assert again.members == h.members


def test_generated_subgroup_empty_errors():
    with pytest.raises(ConstructionError):
        generated_subgroup(cyclic_group(4), [])


def test_left_cosets_examples():
    z6 = cyclic_group(6)
    h = generated_subgroup(z6, [2])
    part = left_cosets(z6, h)
    assert part.blocks == ((0, 2, 4), (1, 3, 5))

    whole = generated_subgroup(z6, [1])
    assert left_cosets(z6, whole).block_count == 1

    s3 = symmetric_group(3)
    h2 = generated_subgroup(s3, [s3.labels.index("(1 2)")])
    part2 = left_cosets(s3, h2)
    assert part2.block_count == 3
    assert all(len(b) == 2 for b in part2.blocks)


def test_left_cosets_partition_properties():
    s3 = symmetric_group(3)
    h = generated_subgroup(s3, [s3.labels.index("(1 2 3)")])
    part = left_cosets(s3, h)
    seen = [x for b in part.blocks for x in b]
    assert sorted(seen) == list(range(6))
    assert all(len(b) == h.order for b in part.blocks)


def test_json_round_trip():
    # the config's group specs, read by the experiment runner
    g = dihedral_group(3)
    again = _group_from_spec({"kind": "from_table", "cayley": g.cayley.tolist(),
                              "labels": list(g.labels)}, "group")
    assert np.array_equal(g.cayley, again.cayley)
    assert again.labels == g.labels
    nested = _group_from_spec(
        {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}]},
        "group")
    assert nested.order == 6
