"""Node-weighted quivers: correspondence, mutation, folding, text."""

import pytest

from gencluster.errors import ParseError, ValidationError
from gencluster.matrix_mutation import modify, mutate
from gencluster.randomgen import random_seed
from gencluster.unfolding import build, group_mutate
from weighted_quiver import (
    FoldingPartition,
    FoldingViolation,
    FrozenVertexMutation,
    NodeWeightedQuiver,
    NotSkewSymmetric,
    check_folding,
    from_matrix,
    group_mutation_quiver,
    parse_quiver,
    to_matrix,
    weighted_matrix_mutation,
    weighted_mutation,
    write_quiver,
)


def quiver_of(seed, **kwargs):
    return from_matrix(modify(seed.matrix, seed.divisors), seed.divisors, **kwargs)


def unfolded_quiver(seed):
    fm = build(seed)
    partition = FoldingPartition(
        tuple(tuple(fm.layout.group_range(i)) for i in range(fm.layout.n_groups))
        + ((tuple(fm.layout.f_block),) if fm.m_original else ())
        + tuple(tuple(fm.layout.t_range(i)) for i in range(fm.layout.n_groups))
        + tuple(tuple(fm.layout.s_range(i)) for i in range(fm.layout.n_groups))
    )
    return from_matrix(fm.matrix, (1,) * fm.layout.total), partition, fm


class TestCorrespondence:
    def test_fix_b_arrows(self, fix_b):
        quiver = quiver_of(
            fix_b, names=("x", "y"), frozen_names=("a", "b", "p1x", "p2x", "p1y")
        )
        a = quiver.vertex("a")
        b = quiver.vertex("b")
        x = quiver.vertex("x")
        y = quiver.vertex("y")
        assert quiver.arrow_count(a, x) == 4
        assert quiver.arrow_count(x, b) == 2
        assert quiver.arrow_count(x, y) == 1
        assert quiver.arrow_count(b, y) == 3
        assert quiver.weights[x] == 3 and quiver.weights[y] == 2

    def test_bijection_on_random(self, rng):
        for _ in range(200):
            seed = random_seed(rng)
            modified = modify(seed.matrix, seed.divisors)
            matrix, weights = to_matrix(from_matrix(modified, seed.divisors))
            assert matrix == modified
            assert weights == seed.divisors

    def test_rejects_non_skew_symmetric(self, fix_b):
        with pytest.raises(NotSkewSymmetric):
            from_matrix(fix_b.matrix, fix_b.divisors)

    def test_empty_quiver(self):
        from gencluster.matrix_mutation import ExtendedExchangeMatrix

        empty = ExtendedExchangeMatrix(0, 0, ())
        matrix, weights = to_matrix(from_matrix(empty, ()))
        assert matrix == empty and weights.entries == ()


class TestWeightedMutation:
    def test_matches_matrix_rule_on_random(self, rng):
        for _ in range(200):
            seed = random_seed(rng)
            quiver = quiver_of(seed)
            k = rng.randrange(seed.matrix.n)
            image_matrix, image_weights = to_matrix(weighted_mutation(quiver, k))
            assert image_matrix == weighted_matrix_mutation(
                modify(seed.matrix, seed.divisors), seed.divisors, k
            )
            assert image_matrix == modify(mutate(seed.matrix, k), seed.divisors)
            assert image_weights == seed.divisors

    def test_involution(self, rng):
        for _ in range(50):
            seed = random_seed(rng)
            quiver = quiver_of(seed)
            k = rng.randrange(seed.matrix.n)
            assert weighted_mutation(weighted_mutation(quiver, k), k) == quiver

    def test_mutation_by_name(self, fix_b):
        quiver = quiver_of(fix_b, names=("x", "y"))
        assert weighted_mutation(quiver, "x") == weighted_mutation(quiver, 0)

    def test_frozen_vertex_rejected(self, fix_b):
        quiver = quiver_of(fix_b, names=("x", "y"), frozen_names=("a", "b", "c", "d", "e"))
        with pytest.raises(FrozenVertexMutation):
            weighted_mutation(quiver, "a")

    def test_unit_weights_reduce_to_plain_rule(self, rng):
        from gencluster.matrix_mutation import mutate

        for _ in range(50):
            seed = random_seed(rng, max_divisor=1)
            quiver = quiver_of(seed)
            k = rng.randrange(seed.matrix.n)
            image_matrix, _ = to_matrix(weighted_mutation(quiver, k))
            assert image_matrix == mutate(seed.matrix, k)


class TestFolding:
    def test_unfolded_partition_is_valid(self, fix_a):
        quiver, partition, _ = unfolded_quiver(fix_a)
        witness = check_folding(quiver, partition)
        assert witness.class_count == len(partition.classes)
        assert witness.mutated_classes == (0, 1)

    def test_group_mutation_matches_folded_matrix(self, fix_a):
        quiver, partition, fm = unfolded_quiver(fix_a)
        image = group_mutation_quiver(quiver, partition, 0)
        matrix, _ = to_matrix(image)
        assert matrix == group_mutate(fm, 0).matrix

    def test_order_independence(self, fix_a, rng):
        quiver, partition, _ = unfolded_quiver(fix_a)
        members = list(partition.classes[1])
        first = quiver
        for i in members:
            first = weighted_mutation(first, i)
        second = quiver
        for i in reversed(members):
            second = weighted_mutation(second, i)
        assert first == second == group_mutation_quiver(quiver, partition, 1)

    def test_intra_class_arrow_rejected(self, fix_a):
        quiver = quiver_of(fix_a)
        partition = FoldingPartition(((0, 1), (2,), (3,)))
        with pytest.raises(FoldingViolation) as info:
            check_folding(quiver, partition)
        assert info.value.class_index == 0

    def test_singleton_classes_always_fold(self, rng):
        for _ in range(20):
            seed = random_seed(rng)
            quiver = quiver_of(seed)
            partition = FoldingPartition(
                tuple((i,) for i in range(len(quiver.names)))
            )
            check_folding(quiver, partition)

    def test_partition_validation(self, fix_a):
        quiver = quiver_of(fix_a)
        with pytest.raises(ValidationError):
            FoldingPartition(((0, 1), (1, 2)))
        with pytest.raises(ValidationError):
            check_folding(quiver, FoldingPartition(((0,), (1,))))
        with pytest.raises(ValidationError):
            check_folding(quiver, FoldingPartition(((0, 3), (1, 2),)))


class TestTextForms:
    def test_roundtrip_on_random(self, rng):
        for _ in range(100):
            quiver = quiver_of(random_seed(rng))
            assert parse_quiver(write_quiver(quiver)) == quiver

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_quiver("not a quiver")
        with pytest.raises(ParseError):
            parse_quiver("quiver v1\nvertex a mutable weight w")
        with pytest.raises(ParseError):
            parse_quiver("quiver v1\nvertex a mutable weight 1\narrow a -> b : 1")

    def test_validation_rejects_two_cycles_encoded_directly(self):
        with pytest.raises(ValidationError):
            NodeWeightedQuiver(
                ("a", "b"),
                (True, True),
                (1, 1),
                ((0, 1), (1, 0)),
            )
