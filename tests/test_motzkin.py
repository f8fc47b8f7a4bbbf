import copy
import json
import pickle
import random
from collections import deque

import pytest

import oracles
from setpart import core, motzkin
from setpart.bijections import phi
from setpart.core import (
    CLOSER,
    OPENER,
    PASSANT,
    SINGLETON,
    PartitionError,
    SetPartition,
    enumerate_partitions,
    parse_ordered,
    parse_partition,
    trace_profile,
)
from setpart.motzkin import (
    E,
    NE,
    SE,
    LabeledMotzkinPath,
    PathError,
    Step,
    ascii_art,
    decode,
    encode,
    enumerate_paths,
    reflect,
)

from test_core import LONG_SEEDED_WORDS, SEEDED_WORDS, seeded_word

P3 = parse_partition("1,4,8/2/3,7,9/5,6")
P3_PATH = "NE(1) E(1*) NE(1) E(1) NE(1) SE(3) E(2) SE(1) SE(1)"
P3_IMAGE_PATH = "NE(1) NE(1) E(2) NE(1) SE(3) E(1) SE(1) E(1*) SE(1)"


def test_encode_small_fixtures():
    assert encode(parse_partition("")).text() == ""
    assert encode(parse_partition("1")).text() == "E(1*)"
    assert encode(parse_partition("1,2")).text() == "NE(1) SE(1)"
    assert encode(parse_partition("1/2")).text() == "E(1*) E(1*)"
    assert encode(parse_partition("1,3/2")).text() == "NE(1) E(1*) SE(1)"


def test_encode_fixture():
    path = encode(P3)
    assert path.text() == P3_PATH
    # height before step i is the trace level l_i
    assert path.heights() == (0, 1, 1, 2, 2, 3, 2, 2, 1)


def test_reflect_fixture():
    path = encode(P3)
    mirrored = reflect(path)
    assert mirrored.text() == P3_IMAGE_PATH
    assert mirrored == encode(phi(P3))
    assert reflect(mirrored) == path


def test_decode_inverts_encode():
    for n in range(8):
        for p in enumerate_partitions(n):
            assert decode(encode(p)) == p


def test_encoded_paths_pass_the_validating_constructor():
    # encode builds its path without the step checks
    partitions = [p for n in range(9) for p in enumerate_partitions(n)]
    partitions += [SetPartition(word) for word in SEEDED_WORDS]
    for p in partitions:
        path = encode(p)
        assert type(path.steps) is tuple
        checked = LabeledMotzkinPath(path.steps)
        assert checked == path and hash(checked) == hash(path)
        assert LabeledMotzkinPath.parse(path.text()) == path


def _path_of_fresh_steps(p):
    # a new Step object for every element
    profile = trace_profile(p)
    steps = []
    for kind, g in zip(profile.kinds, profile.gamma):
        if kind is OPENER:
            steps.append(Step(NE, 1))
        elif kind is SINGLETON:
            steps.append(Step(E, 1, starred=True))
        else:
            steps.append(Step(SE if kind is CLOSER else E, g))
    return LabeledMotzkinPath(tuple(steps))


def _one_object_per_step(paths) -> bool:
    steps = [step for path in paths for step in path.steps]
    return len({id(step) for step in steps}) == len(set(steps))


def test_encode_equals_a_path_of_fresh_steps_and_shares_equal_ones():
    partitions = [p for n in range(9) for p in enumerate_partitions(n)]
    partitions += [SetPartition(word) for word in LONG_SEEDED_WORDS]
    for p in partitions:
        path = encode(p)
        assert path == _path_of_fresh_steps(p), p.text()
        assert _one_object_per_step([path]), p.text()


def test_profile_path_and_phi_equal_the_passes_they_replace():
    # the one step-writing pass against the former trace pass, the former
    # profile-reading encode, the explicit traces and the former phi pass;
    # the long words grow the shared step tables
    rng = random.Random(3003)
    lengths = [rng.randint(1, 200) for _ in range(199)] + [200]
    words = [p.word for n in range(9) for p in enumerate_partitions(n)]
    words += [seeded_word(rng, n, rng.randint(1, n)) for n in lengths]
    for word in words:
        oracles.assert_one_pass_agrees(SetPartition(word))


def test_the_profile_pass_keeps_its_boundaries():
    # the step type, kinds and shared steps live in core and keep their
    # motzkin names (this module imports Step, NE, SE and E from there)
    for name in ("Step", "NE", "SE", "E", "_NE1", "_E1_STAR", "_se_steps", "_e_steps"):
        assert getattr(motzkin, name) is getattr(core, name), name
    assert (NE, SE, E) == ("NE", "SE", "E")
    # an ordered partition, and values that are no partition at all: the
    # canonical check runs before the memo reads the object's views
    for value in (parse_ordered("2/1"), (1, 2, 1), [1, 2, 1], None):
        for route in (encode, trace_profile):
            with pytest.raises(PartitionError) as info:
                route(value)
            assert type(info.value) is PartitionError, (route, value)
            assert str(info.value) == "trace profiles are defined on canonical partitions"


def test_a_copied_partition_reads_its_profile_path_and_image_afresh():
    # a copy or pickle carries the word alone, so the steps kept on the
    # source (which the profile tells apart by identity) are not carried
    # as new objects; each view of the twin equals the oracles'
    rng = random.Random(3001)
    partitions = [*enumerate_partitions(5), *(SetPartition(seeded_word(rng, 40, 9)) for _ in range(5))]
    for p in partitions:
        path, _ = encode(p), phi(p)
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert vars(twin) == {"word": p.word}, p.text()
            oracles.assert_one_pass_agrees(twin)
        for twin in (copy.deepcopy(path), pickle.loads(pickle.dumps(path))):
            assert decode(twin) == p and reflect(twin) == reflect(path), p.text()


def _shared_steps():
    return core._se_steps(0), core._e_steps(0)


def test_encode_reads_its_steps_from_shared_tables_that_only_grow():
    held = _shared_steps()
    copies = [list(table) for table in held]
    # seeded partitions up to n = 200, the longest past any size the tables had
    rng = random.Random(1801)
    lengths = [rng.randint(2, 200) for _ in range(100)] + [200, 2 * len(held[0]) + 2]
    partitions = [SetPartition(seeded_word(rng, n, rng.randint(1, n // 2))) for n in lengths]
    for p in partitions:
        assert encode(p) == _path_of_fresh_steps(p), p.text()
    se, e = _shared_steps()
    assert len(se) > len(held[0]) and len(e) > len(held[1])
    # a table handed out earlier is never changed
    assert [list(table) for table in held] == copies
    assert all(step == Step(SE, g) for g, step in enumerate(se))
    assert all(step == Step(E, g) for g, step in enumerate(e))
    # encoded and enumerated paths hold the tables' steps; shorter ones do not shrink them
    paths = [encode(p) for p in partitions[:20] + [P3]]
    paths += [path for n in range(9) for path in enumerate_paths(n)]
    for path in paths:
        for step in path.steps:
            if step.kind != NE and not step.starred:
                assert step is (se if step.kind == SE else e)[step.label], path.text()
    now = _shared_steps()
    assert now[0] is se and now[1] is e


def test_unchecked_labels_never_grow_the_shared_tables():
    def sizes():
        return len(motzkin._se_steps(0)), len(motzkin._e_steps(0)), len(core._names(0))

    before = sizes()
    huge = 10**9
    ne, se1 = {"kind": NE, "label": 1}, {"kind": SE, "label": 1}
    for text, steps in (
        (f"NE(1) SE({huge})", [ne, {"kind": SE, "label": huge}]),
        (f"NE(1) E({huge}) SE(1)", [ne, {"kind": E, "label": huge}, se1]),
    ):
        with pytest.raises(PathError, match=f"label {huge} outside"):
            LabeledMotzkinPath.parse(text)
        with pytest.raises(PathError, match=f"label {huge} outside"):
            LabeledMotzkinPath.from_json_dict({"steps": steps})
    unchecked = LabeledMotzkinPath._trusted((Step(NE, 1), Step(SE, huge)))
    for route in (reflect, decode):
        with pytest.raises(PathError, match=f"^step 2: label {huge} outside \\[1, 1\\]$"):
            route(unchecked)
    assert sizes() == before


def test_reflect_is_an_involution():
    partitions = [p for n in range(7) for p in enumerate_partitions(n)]
    partitions += [SetPartition(word) for word in LONG_SEEDED_WORDS]
    for p in partitions:
        path = encode(p)
        mirrored = reflect(path)
        assert _one_object_per_step([mirrored])
        assert reflect(mirrored) == path


def _level_reflect(path):
    # the level pairing reflect replaced: scanning NE steps left to right,
    # an NE step leaving height h takes the leftmost unpaired SE step
    # leaving height h + 1
    heights = path.heights()
    se_at = {}
    for idx, step in enumerate(path.steps):
        if step.kind == SE:
            se_at.setdefault(heights[idx], deque()).append(idx)
    out = [Step(NE, 1) if step.kind == SE else step for step in path.steps]
    for idx, step in enumerate(path.steps):
        if step.kind == NE:
            out[idx] = Step(SE, path.steps[se_at[heights[idx] + 1].popleft()].label)
    return LabeledMotzkinPath(tuple(reversed(out)))


def _profile_decode(path):
    # the profile rebuild decode replaced, with all its checks
    kinds, gammas = [], []
    h = 0  # height before the step
    for step in path.steps:
        if step.kind == NE:
            kinds.append(OPENER)
            h += 1
            gammas.append(h)
        elif step.kind == SE:
            kinds.append(CLOSER)
            gammas.append(step.label)
            h -= 1
        elif step.starred:
            kinds.append(SINGLETON)
            gammas.append(h + 1)
        else:
            kinds.append(PASSANT)
            gammas.append(step.label)
    return oracles.rebuild_from_profile(kinds, gammas)


def _reference_paths():
    paths = [path for n in range(9) for path in enumerate_paths(n)]
    # parsed paths share no step objects, and their NE and SE kinds are
    # equal strings but not the module's objects
    paths += [LabeledMotzkinPath.parse(path.text()) for path in paths[::7]]
    paths += [LabeledMotzkinPath.parse(json.dumps(path.to_json_dict())) for path in paths[::11]]
    paths += [LabeledMotzkinPath.parse(P3_PATH), LabeledMotzkinPath.parse(P3_IMAGE_PATH)]
    paths += [encode(SetPartition(word)) for word in LONG_SEEDED_WORDS]
    return paths


def test_reflect_and_decode_equal_the_passes_they_replace():
    for path in _reference_paths():
        mirrored = reflect(path)
        assert mirrored == _level_reflect(path), path.text()
        # one object per output SE label, even when the input shares none
        se_steps = [step for step in mirrored.steps if step.kind == SE]
        assert len({id(step) for step in se_steps}) == len(set(se_steps)), path.text()
        assert decode(path) == _profile_decode(path), path.text()


def test_unchecked_paths_end_in_a_path_error():
    # one label above the height
    too_high = LabeledMotzkinPath._trusted((Step(NE, 1), Step(E, 1), Step(SE, 2)))
    with pytest.raises(PathError, match="^step 3: label 2 outside \\[1, 1\\]$"):
        decode(too_high)
    with pytest.raises(PathError, match="^step 3: label 2 outside \\[1, 1\\]$"):
        reflect(too_high)
    # an SE step below height 0
    below = LabeledMotzkinPath._trusted((Step(SE, 1), Step(NE, 1)))
    for route in (decode, reflect):
        with pytest.raises(PathError, match="^step 1: label 1 outside \\[1, 0\\]$"):
            route(below)
    with pytest.raises(PathError, match="^step 1: no matching SE step at height 1$"):
        reflect(LabeledMotzkinPath._trusted((Step(NE, 1), Step(E, 1))))


def test_path_route_matches_direct_involution():
    for n in range(7):
        for p in enumerate_partitions(n):
            assert decode(reflect(encode(p))) == phi(p)


def test_path_counts():
    for n in range(8):
        paths = list(enumerate_paths(n))
        assert len(paths) == oracles.bell(n)
        assert len(set(paths)) == len(paths)
        assert all(LabeledMotzkinPath(path.steps) == path for path in paths)
        assert _one_object_per_step(paths)
        by_k: dict[int, int] = {}
        for path in paths:
            openings = sum(
                1 for s in path.steps if s.kind == NE or (s.kind == E and s.starred)
            )
            by_k[openings] = by_k.get(openings, 0) + 1
        for k in range(n + 1):
            assert by_k.get(k, 0) == oracles.stirling(n, k)


def test_successor_enumeration_equals_the_recursive_oracle():
    for n in range(11):
        paths = list(enumerate_paths(n))
        assert [path.steps for path in paths] == [path.steps for path in oracles.enumerate_paths(n)]
        assert _one_object_per_step(paths)


def test_every_path_decodes_to_a_distinct_partition():
    for n in range(7):
        images = [decode(path) for path in enumerate_paths(n)]
        assert len({p.word for p in images}) == oracles.bell(n)


def test_validation_cites_the_offending_step():
    with pytest.raises(PathError, match="step 2: label 2 outside \\[1, 1\\]"):
        LabeledMotzkinPath((Step(NE, 1), Step(SE, 2)))
    with pytest.raises(PathError, match="step 1: NE steps carry label 1"):
        LabeledMotzkinPath((Step(NE, 2), Step(SE, 1)))
    with pytest.raises(PathError, match="step 1: label 1 outside \\[1, 0\\]"):
        LabeledMotzkinPath((Step(SE, 1),))
    with pytest.raises(PathError, match="step 2: only E steps may be starred"):
        LabeledMotzkinPath((Step(NE, 1), Step(SE, 1, starred=True)))
    with pytest.raises(PathError, match="step 1: starred E steps carry label 1"):
        LabeledMotzkinPath((Step(E, 2, starred=True),))
    with pytest.raises(PathError, match="ends at height 1"):
        LabeledMotzkinPath((Step(NE, 1),))
    with pytest.raises(PathError, match="label 1 outside \\[1, 0\\]"):
        LabeledMotzkinPath((Step(E, 1),))


def test_text_round_trip():
    for n in range(6):
        for path in enumerate_paths(n):
            assert LabeledMotzkinPath.parse(path.text()) == path
    with pytest.raises(PathError, match="cannot parse step"):
        LabeledMotzkinPath.parse("NE(1) XX(2)")
    assert LabeledMotzkinPath.parse("  ") == LabeledMotzkinPath(())


def test_json_round_trip():
    path = encode(P3)
    assert LabeledMotzkinPath.from_json_dict(path.to_json_dict()) == path
    assert LabeledMotzkinPath.parse(json.dumps(path.to_json_dict())) == path


def test_a_step_is_a_named_tuple():
    assert Step(SE, 2) == (SE, 2, False) and Step(E, 1, True) == (E, 1, True)
    assert Step(NE, 1).text() == "NE(1)" and Step(E, 1, starred=True).text() == "E(1*)"
    assert Step(E, 2)._replace(kind=SE) == Step(SE, 2)


def test_json_errors_are_path_errors():
    ne = {"kind": "NE", "label": 1}
    for data, message in (
        ({"steps": [{"kind": "NE"}]}, "step 1: missing 'label'"),
        ({"steps": [{"label": 1}]}, "step 1: missing 'kind'"),
        ({"steps": [ne, {"kind": "XX", "label": 1}]}, "step 2: unknown kind 'XX'"),
        ({"steps": [{"kind": "NE", "label": "1"}]}, "not an integer"),
        ({"steps": [{"kind": "NE", "label": 1.0}]}, "not an integer"),
        ({"steps": [{"kind": "NE", "label": 1, "starred": "no"}]}, "not true or false"),
        ({"steps": [1]}, "step 1: not an object"),
        ({"steps": {}}, "steps"),
        ([ne], "steps"),
        ("NE(1)", "steps"),
    ):
        with pytest.raises(PathError, match=message):
            LabeledMotzkinPath.from_json_dict(data)
    with pytest.raises(PathError, match="nested too deeply"):
        LabeledMotzkinPath.parse('{"steps": ' + "[" * 100_000)


def test_enumerate_paths_rejects_negative_length():
    with pytest.raises(PathError):
        list(enumerate_paths(-1))


def test_ascii_art_smoke():
    art = ascii_art(encode(P3))
    lines = art.split("\n")
    assert lines[-1] == "1  1* 1  1  1  3  2  1  1"
    assert art.count("/") == 3 and art.count("\\") == 3
    assert ascii_art(LabeledMotzkinPath(())) == "(empty path)"
