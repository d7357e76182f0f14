"""Closed-form witnesses against the general Hermite/Smith oracles."""

import itertools
import json
import random
from math import comb
from pathlib import Path

import pytest

from tropmod import divisors, moduli
from tropmod.divisors import (
    WeightedFan,
    _determinant,
    _face_reports,
    _isolating_coordinates,
    _minor_determinant,
    _moduli_reports,
    check_balanced,
    check_psi_balanced,
    check_smooth_local,
    moduli_fan,
    psi_divisor,
    span_witness,
    verify_witness,
)
from tropmod.errors import DimensionMismatch
from tropmod.moduli import (
    _quartet_ray,
    _quartets,
    _split_direction,
    _split_support,
    direction_vector,
)
from tropmod.serialization import fan_from_json
from tropmod.trees import (
    CombinatorialType,
    Split,
    _branch_masks,
    _resolution_splits,
    _stream_types,
    contract,
    enumerate_types,
    to_tree,
)

import oracles
from oracles import rebuilt

FAN_FILE = Path(__file__).with_name("fan_n6_weight2.json")


def face_directions(face):
    return [_split_direction(s) for s in face.splits]


def oracle_verdicts(vector, rows):
    return oracles.in_rational_span(vector, rows), oracles.in_integer_span(vector, rows)


def span_verdict(face, vector):
    _, residual = span_witness(face, vector)
    return not any(residual)


def assert_matches_oracle(reports, solved):
    """Each report equals its oracle report, its weighted sum is the
    oracle's dense sum, and each direction is its split's walked one."""
    reports = list(reports)
    assert len(reports) == len(solved)
    for rep, (expected, total) in zip(reports, solved):
        assert rep == expected
        assert rep.weighted_sum == total
        for extra in rep.extra_splits:
            assert direction_vector(rep.face, extra) == oracles.walked_split_direction(extra)


def test_split_support_is_the_dense_direction():
    for n in range(4, 10):
        labels = frozenset(range(1, n + 1))
        for size in range(2, n - 1):  # every side without leaf 1
            for side in itertools.combinations(range(2, n + 1), size):
                s = Split(labels, frozenset(side))
                dense = _split_direction(s)
                assert dense == oracles.walked_split_direction(s)
                assert _split_support(s) == tuple((i, x) for i, x in enumerate(dense) if x)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_isolating_coordinates_match_the_scan_oracle(n):
    for dim in range(n - 2):
        for t in _stream_types(n, dim):
            assert _isolating_coordinates(t) == oracles.scanned_isolating_coordinates(t)


def test_isolating_coordinates_on_every_type():
    for n in range(4, 8):
        for dim in range(n - 2):
            for t in enumerate_types(n, dim):
                for s, (index, sign) in zip(t.splits, _isolating_coordinates(t)):
                    assert sign in (1, -1)
                    for u in t.splits:
                        assert _split_direction(u)[index] == (sign if u == s else 0)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_balancing_witness_matches_oracles(n):
    rng = random.Random(n)
    for rep in check_balanced(moduli_fan(n)):
        rows = face_directions(rep.face)
        assert oracle_verdicts(rep.weighted_sum, rows) == (rep.balanced, rep.balanced)
        assert rep.balanced and verify_witness(rep)
        # vectors off the span: each adjacent direction, alone and shifted
        # by an integer combination of the face directions
        for extra in rep.extra_splits:
            direction = _split_direction(extra)
            combo = [rng.randint(-3, 3) for _ in rows]
            shifted = tuple(
                x + sum(c * row[i] for c, row in zip(combo, rows))
                for i, x in enumerate(direction)
            )
            for vector in (direction, shifted):
                verdict = span_verdict(rep.face, vector)
                assert oracle_verdicts(vector, rows) == (verdict, verdict) == (False, False)
            on_span = tuple(s - d for s, d in zip(shifted, direction))
            coefficients, residual = span_witness(rep.face, on_span)
            assert coefficients == tuple(combo) and not any(residual)
            assert oracle_verdicts(on_span, rows) == (True, True)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_smoothness_witness_matches_oracles(n):
    for tau in enumerate_types(n, n - 4):
        rep = check_smooth_local(n, tau)
        rows = face_directions(tau)
        first_two = [_split_direction(s) for s in rep.extra_splits[:2]]
        in_lattice = oracles.in_integer_span(rep.weighted_sum, rows)
        saturated = oracles.is_saturated(rows + first_two)
        assert rep.smooth == (in_lattice and saturated) is True
        assert rep.minor is not None and len(rep.minor) == n - 2
        assert verify_witness(rep)
        # a doubled resolution direction is not saturated, and the same
        # minor then has determinant +-2
        doubled = rows + [tuple(2 * x for x in first_two[0]), first_two[1]]
        assert oracles.is_saturated(doubled) is False
        det = _determinant([[row[c] for c in rep.minor] for row in doubled])
        assert abs(det) == 2


def test_verifier_rejects_tampering():
    tau = enumerate_types(6, 2)[7]
    rep = check_smooth_local(6, tau)
    assert verify_witness(rep)
    coefficients = list(rep.witness)
    coefficients[0] += 1
    assert not verify_witness(rebuilt(rep, witness=tuple(coefficients)))
    assert not verify_witness(rebuilt(rep, witness=rep.witness[:-1]))
    minor = list(rep.minor)
    minor[-1] = minor[0]  # a repeated column: determinant 0
    assert not verify_witness(rebuilt(rep, minor=tuple(minor)))
    rows = face_directions(tau) + [_split_direction(s) for s in rep.extra_splits[:2]]
    blind = next(i for i in range(len(rows[0])) if not any(row[i] for row in rows))
    minor = list(rep.minor)
    minor[0] = blind  # a column every row vanishes on
    assert not verify_witness(rebuilt(rep, minor=tuple(minor)))
    assert not verify_witness(rebuilt(rep, minor=rep.minor[:-1]))
    assert not verify_witness(rebuilt(rep, minor=rep.minor[:-1] + (10**6,)))
    # the sum and the directions are read off the splits, so no report
    # carries a sum or a direction to forge
    wrong_sum = (rep.weighted_sum[0] + 1,) + rep.weighted_sum[1:]
    with pytest.raises(TypeError, match="keyword argument 'weighted_sum'"):
        rebuilt(rep, weighted_sum=wrong_sum)
    # a smooth verdict needs its minor
    assert not verify_witness(rebuilt(rep, minor=None))
    # forgeries: zero coefficients with no smoothness claim; zero directions
    # and a truncated sum, which no report can carry; the extra splits of
    # another face, and these extra splits on another face
    zeroed = rebuilt(rep, witness=(0,) * len(rep.witness), smooth=None, minor=None)
    assert not verify_witness(zeroed)
    with pytest.raises(TypeError, match="keyword argument 'direction'"):
        rebuilt(rep, direction=(0,) * len(rep.weighted_sum))
    with pytest.raises(TypeError, match="keyword argument 'weighted_sum'"):
        rebuilt(rep, weighted_sum=(), smooth=None, minor=None)
    unrelated = enumerate_types(6, 2)[-1]
    assert unrelated != tau
    other = check_smooth_local(6, unrelated)
    assert not verify_witness(rebuilt(rep, extra_splits=other.extra_splits))
    assert not verify_witness(rebuilt(rep, face=unrelated))
    # a smoothness report must list the three resolutions in key order
    for face in enumerate_types(6, 2):
        rep = check_smooth_local(6, face)
        assert verify_witness(rep)
        assert not verify_witness(rebuilt(rep, extra_splits=rep.extra_splits[::-1]))
        assert not verify_witness(
            rebuilt(rep, extra_splits=rep.extra_splits[:2], weights=rep.weights[:2])
        )


def test_verifier_refuses_facets_that_name_no_cone_or_no_weight():
    # 24 and 25 cross the face's 23, so no cone holds them, though the
    # directions of 24, 25 and 345 sum to -1 times that of 23
    face = CombinatorialType.of(5, [{2, 3}])
    crossing = tuple(Split.of(5, side) for side in ({2, 4}, {2, 5}, {3, 4, 5}))
    forged = divisors.BalancingReport(face, crossing, (1, 1, 1), True, None, (-1,))
    assert forged.weighted_sum == tuple(-x for x in _split_direction(face.splits[0]))
    assert not verify_witness(forged)
    rep = check_balanced(moduli_fan(5))[0]
    assert rep.face == face and verify_witness(rep)
    extras, weights = rep.extra_splits, rep.weights
    doubled = tuple(s for s in extras for _ in range(2))
    forgeries = [
        # weight 0 everywhere, and the sum and the witness are zero
        rebuilt(rep, weights=(0, 0, 0), witness=(0,)),
        # True adds as 1, but a weight is an int
        rebuilt(rep, weights=(True, True, True)),
        rebuilt(rep, weights=(1, 1, 1.0)),
        # every facet twice, the witness doubled: extras must increase strictly
        rebuilt(rep, extra_splits=doubled, weights=(1,) * 6, witness=(2 * rep.witness[0],)),
        rebuilt(rep, extra_splits=extras[::-1]),
        # the sides, not the splits
        rebuilt(rep, extra_splits=tuple(s.key for s in extras)),
        # one weight more, or one fewer, than there are facets
        rebuilt(rep, weights=weights + (1,)),
        rebuilt(rep, weights=weights[:2]),
    ]
    assert [verify_witness(f) for f in forgeries] == [False] * len(forgeries)
    with pytest.raises(ValueError):
        forgeries[-1].weighted_sum
    # every genuine report still verifies
    for n in range(4, 7):
        assert all(verify_witness(rep) for rep in check_balanced(moduli_fan(n)))
    for k in range(1, 8):
        assert all(verify_witness(rep) for rep in check_psi_balanced(7, k))
    reports = check_balanced(fan_from_json(json.loads(FAN_FILE.read_text())))
    assert [verify_witness(rep) for rep in reports] == [rep.balanced for rep in reports]
    assert {rep.balanced for rep in reports} == {True, False}


def test_weight_two_cone_fails_exactly_at_its_faces():
    cones = list(moduli_fan(6).cones)
    heavy, _ = cones[40]
    cones[40] = (heavy, 2)
    reports = check_balanced(WeightedFan.of(6, cones))
    failing = {rep.face for rep in reports if not rep.balanced}
    assert failing == {contract(heavy, s) for s in heavy.splits}
    assert len(failing) == 6 - 3
    for rep in reports:
        rows = face_directions(rep.face)
        assert oracle_verdicts(rep.weighted_sum, rows) == (rep.balanced, rep.balanced)
        _, residual = span_witness(rep.face, rep.weighted_sum)
        if rep.balanced:
            assert verify_witness(rep) and not any(residual)
        else:
            assert rep.witness is None and any(residual)
            assert not verify_witness(rep)


def dense_reports(fan):
    faces = {}
    for cone, weight in fan.cones:
        for s in cone.splits:
            faces.setdefault(contract(cone, s), []).append((cone, weight, s))
    out = []
    for face in sorted(faces, key=lambda f: f.key):
        coordinates = _isolating_coordinates(face)
        out.append(oracles.dense_balance_at(face, faces[face], face.splits, coordinates))
    return out


def reweighted(n, weights):
    """The moduli fan on n leaves with its cones (in key order) weighted."""
    cones = [t for t, _ in moduli_fan(n).cones]
    return WeightedFan.of(n, zip(cones, weights))


def fans_across_field_widths():
    # one weight v against two of 1 at n = 4 gives sum entries v - 1 of
    # either sign, so the weights bracket each width's 2^(w-1); scaled
    # balanced fans bracket it for W * (d + 1) at n = 5
    for base in (2**6, 2**7, 2**14, 2**15, 2**23, 2**30, 2**31, 2**39, 2**62, 2**63, 2**70):
        for v in (base - 1, base, base + 1):
            for weights in ((v, v, v), (v, 1, 1), (1, v, 1), (1, 1, v), (v, v, v + 1)):
                yield reweighted(4, weights)
            yield reweighted(5, [v] * 15)
            yield reweighted(5, [v] * 14 + [1])


def test_packed_face_solve_matches_dense_oracle():
    fans = []
    for n in range(4, 8):
        fans.append(moduli_fan(n))
        fans += [psi_divisor(n, k) for k in range(1, n + 1)]
    cones = list(moduli_fan(7).cones)
    heavy = random.Random(7).randrange(len(cones))
    cones[heavy] = (cones[heavy][0], 2)
    fans.append(WeightedFan.of(7, cones))
    fans += fans_across_field_widths()
    verdicts = set()
    for fan in fans:
        reports = check_balanced(fan)
        assert_matches_oracle(reports, dense_reports(fan))
        verdicts |= {rep.balanced for rep in reports}
    assert verdicts == {True, False}
    for n in range(4, 8):
        for tau in enumerate_types(n, n - 4):
            rep = check_smooth_local(n, tau)
            adjacent = [
                (CombinatorialType(tau.labels, (*tau.splits, s)), 1, s)
                for s in _resolution_splits(tau.labels, _branch_masks(tau))
            ]
            dense = oracles.dense_balance_at(
                tau, adjacent, tau.splits, _isolating_coordinates(tau)
            )
            assert_matches_oracle([rebuilt(rep, smooth=None, minor=None)], [dense])


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_codim_one_stream_matches_contract_listing(n, monkeypatch):
    listing = list(_face_reports(moduli_fan(n)))

    def refused(*args):
        raise AssertionError("the closed-form witness holds at every face")

    # so no report of the stream comes from the fallback
    monkeypatch.setattr(divisors, "_isolating_coordinates", refused)
    assert list(_moduli_reports(n)) == listing


@pytest.mark.parametrize("smooth", [False, True])
def test_each_partition_is_solved_once_and_every_report_verifies(smooth, monkeypatch):
    balance_at = divisors._balance_at
    solved = []

    def counted(face, *rest):
        solved.append(tuple(_branch_masks(face)))
        return balance_at(face, *rest)

    monkeypatch.setattr(divisors, "_balance_at", counted)
    for n in range(4, 8):
        solved.clear()
        reports = list(_moduli_reports(n, smooth))
        # one solve per partition of the n leaves into four blocks
        stirling = (4**n - 4 * 3**n + 6 * 2**n - 4) // 24
        assert len(solved) == len(set(solved)) == stirling
        assert len(reports) == len(enumerate_types(n, n - 4))
        assert all(verify_witness(rep) for rep in reports)
        assert all(rep.weights == (1, 1, 1) for rep in reports)
    # at n = 7, 1,260 faces share 350 partitions: 910 reports are read off one
    assert (len(reports), len(solved)) == (1260, 350)


def test_local_witness_marks_the_splits_on_the_vertex():
    for n in range(4, 9):
        for tau in enumerate_types(n, n - 4):
            tree = to_tree(tau)
            branches = tree.branches(tree.valences().index(4))
            on_vertex = [int(s.side in branches or s.complement in branches) for s in tau.splits]
            masks = [sum(1 << x for x in b) for b in branches]
            assert _branch_masks(tau) == masks
            assert divisors._local_witness(tau.splits, masks) == tuple(on_vertex)
            assert sum(on_vertex) == sum(len(b) > 1 for b in branches)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_smooth_reports_match_bareiss_oracle(n):
    taus = enumerate_types(n, n - 4)
    reports = list(_moduli_reports(n, smooth=True))
    assert len(reports) == len(taus)
    assert all(rep.smooth for rep in reports)
    assert_matches_oracle(reports, [oracles.bareiss_smooth_report(n, tau) for tau in taus])
    if n < 8:
        assert reports == [check_smooth_local(n, tau) for tau in taus]


def test_wrong_local_witness_falls_back_to_the_isolating_solve(monkeypatch):
    local_witness = divisors._local_witness
    isolating_coordinates = divisors._isolating_coordinates
    solved = []

    def wrong(splits, branches, coefficient=1):
        witness = local_witness(splits, branches, coefficient)
        return witness and (1 - witness[0],) + witness[1:]

    def counted(*args):
        solved.append(args[0])
        return isolating_coordinates(*args)

    monkeypatch.setattr(divisors, "_local_witness", wrong)
    monkeypatch.setattr(divisors, "_isolating_coordinates", counted)
    for n in range(4, 8):
        taus = enumerate_types(n, n - 4)
        solved.clear()
        assert_matches_oracle(_moduli_reports(n), dense_reports(moduli_fan(n)))
        # every face with a split fell back; at n = 4 the witness is empty
        assert solved == (list(taus) if n > 4 else [])
        smooth = list(_moduli_reports(n, smooth=True))
        assert_matches_oracle(smooth, [oracles.bareiss_smooth_report(n, tau) for tau in taus])


def test_forged_minor_row_is_not_unimodular(monkeypatch):
    bareiss = []

    def counted(rows):
        bareiss.append(rows)
        return _determinant(rows)

    monkeypatch.setattr(divisors, "_determinant", counted)
    rng = random.Random(12)
    for n in (6, 7):
        size = 3 * comb(n, 4)
        for tau in enumerate_types(n, n - 4):
            rep = check_smooth_local(n, tau)
            rows = (*tau.splits, *rep.extra_splits[:2])
            bareiss.clear()
            assert abs(_minor_determinant(rows, rep.minor)) == 1 and not bareiss
            # face split 0 repeats face split 1: it cuts column 1's quartet,
            # off the block diagonal, and the minor is singular, not the
            # product of the diagonal entries times the 2x2 block
            assert _minor_determinant((rows[1], *rows[1:]), rep.minor) == 0 and bareiss
            # a wrong quartet planted in one face column: either the mask
            # test fails and Bareiss decides on the dense minor, or the
            # closed form holds; the determinant is the dense minor's alike
            columns = list(rep.minor)
            columns[rng.randrange(len(tau.splits))] = rng.randrange(size)
            dense = [[_split_direction(s)[c] for c in columns] for s in rows]
            assert _minor_determinant(rows, columns) == _determinant(dense)
            # two face columns swapped: each face split cuts the other's
            # quartet, so Bareiss decides, and the sign flips
            columns = list(rep.minor)
            columns[0], columns[1] = columns[1], columns[0]
            bareiss.clear()
            dense = [[_split_direction(s)[c] for c in columns] for s in rows]
            assert _minor_determinant(rows, columns) == _determinant(dense) == -_minor_determinant(
                rows, rep.minor
            )
            assert len(bareiss) == 1
            # the last column moved to another quartet: the 2x2 block is no
            # longer one quartet's, so Bareiss decides
            columns = list(rep.minor)
            columns[-1] = (columns[-1] + 3 * rng.randrange(1, size // 3)) % size
            bareiss.clear()
            dense = [[_split_direction(s)[c] for c in columns] for s in rows]
            assert _minor_determinant(rows, columns) == _determinant(dense) and bareiss


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_minor_mask_test_agrees_with_the_dense_zero_pattern(monkeypatch, n):
    def refused(rows):
        raise AssertionError("a moduli-fan minor fell to Bareiss")

    monkeypatch.setattr(divisors, "_determinant", refused)
    for tau in enumerate_types(n, n - 4):
        rep = check_smooth_local(n, tau)
        rows = (*tau.splits, *rep.extra_splits[:2])
        quartets = [_quartets(n)[c // 3][1] for c in rep.minor]
        dense = [[_split_direction(s)[c] for c in rep.minor] for s in rows]
        # each face split cuts its own column's quartet two and two, and no
        # other, and its row is nonzero on its own column alone
        diagonal = [[i == j for j in range(len(rep.minor))] for i in range(len(tau.splits))]
        cuts = [[(s.mask & q).bit_count() == 2 for q in quartets] for s in rows]
        assert cuts[: len(tau.splits)] == diagonal
        assert [[x != 0 for x in row] for row in dense[: len(tau.splits)]] == diagonal
        # every entry of the minor read off a ray is the dense one
        columns = list(zip(quartets, rep.minor))
        assert [[_quartet_ray(s.mask, q)[c % 3] for q, c in columns] for s in rows] == dense
        assert _minor_determinant(rows, rep.minor) == _determinant(dense)


def test_smooth_at_n40_builds_no_dense_row(monkeypatch):
    def refused(split):
        raise AssertionError("a dense row was built")

    monkeypatch.setattr(divisors, "_split_direction", refused)
    monkeypatch.setattr(moduli, "_split_direction", refused)
    n = 40
    # a caterpillar with its middle split dropped: 36 face splits
    face = CombinatorialType.of(n, [range(k, n + 1) for k in range(3, n) if k != 20])
    try:
        rep = check_smooth_local(n, face)
        assert rep.smooth and len(rep.minor) == n - 2
    finally:
        divisors._packed_direction.cache_clear()
        _split_support.cache_clear()


def test_adjacent_order_by_extra_split_is_cone_order():
    for n in range(4, 8):
        faces = {}
        for cone, weight in moduli_fan(n).cones:
            for s in cone.splits:
                faces.setdefault(contract(cone, s), []).append((cone, weight, s))
        for adjacent in faces.values():
            by_extra = sorted(adjacent, key=lambda cw: cw[2].key)
            assert by_extra == sorted(adjacent, key=lambda cw: (cw[0].key, cw[2].key))
        for rep in check_balanced(moduli_fan(n)):
            face = rep.face
            keys = [
                (CombinatorialType(face.labels, (*face.splits, s)).key, s.key)
                for s in rep.extra_splits
            ]
            assert keys == sorted(keys)


def test_bareiss_determinant_matches_oracle():
    rng = random.Random(16)
    assert _determinant([]) == 1
    for _ in range(300):
        size = rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        if rng.random() < 0.2:
            rows[-1] = [2 * x for x in rows[0]]
        assert _determinant(rows) == oracles.determinant(rows)


def test_span_witness_input_checks():
    face = enumerate_types(5, 1)[0]
    with pytest.raises(DimensionMismatch):
        span_witness(face, (0,) * 14)
    with pytest.raises(TypeError):
        span_witness(face, (True,) + (0,) * 14)
    assert span_witness(face, (0,) * 15) == ((0,), (0,) * 15)
    # labels other than 1..n have no coordinates, as in ``direction_vector``
    for labels in ([2, 3, 4, 5, 6], [1, 2, 3, 4, 9]):
        with pytest.raises(ValueError) as refused:
            span_witness(CombinatorialType.of(labels, [labels[-2:]]), (0,) * 15)
        assert str(refused.value) == (
            "embedding coordinates are defined for leaf labels 1..n; relabel first"
        )

