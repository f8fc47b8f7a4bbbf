import inspect

import pytest

from setpart import bijections, core
from setpart.bijections import (
    ConsistencyError,
    GammaRow,
    match_openers_closers,
    phi,
    phi_certificate,
    phi_i,
)
from setpart.core import (
    CLOSER,
    PASSANT,
    PartitionError,
    SetPartition,
    classify,
    enumerate_partitions,
    parse_ordered,
    parse_partition,
    trace_profile,
)
from setpart.motzkin import SE, E, Step, encode
from setpart.stats import mak, makp, stat_i

import oracles
from test_core import LONG_SEEDED_WORDS


def test_certificate_fixture():
    cert = phi_certificate(parse_partition("1,4,8/2/3,7,9/5,6"))
    assert cert.image.text() == "1,6,7/2,3,9/4,5/8"
    assert cert.source_f == GammaRow(values=(6, 8, 9), gammas=(3, 1, 1))
    assert cert.source_p == GammaRow(values=(4, 7), gammas=(1, 2))
    assert cert.image_f == GammaRow(values=(5, 7, 9), gammas=(3, 1, 1))
    assert cert.image_p == GammaRow(values=(3, 6), gammas=(2, 1))
    assert phi(cert.image) == cert.source


def test_certificate_json_shape():
    cert = phi_certificate(parse_partition("1,2/3"))
    data = cert.to_json_dict()
    assert data["source"] == "1,2/3"
    assert data["image"] == parse_partition(data["image"]).text()
    assert set(data) == {"source", "image", "source_f", "source_p", "image_f", "image_p"}
    assert data["source_f"] == {"values": [2], "gammas": [1]}


def test_label_transfer_needs_the_level_matching():
    # carrying the closer gamma row over in source order would demand
    # gammas (1, 2, 1) on closers (3, 4, 6), and no partition realizes
    # that; the matched transfer lands on the unique valid image
    p = parse_partition("1,2/3,6/4,5")
    cert = phi_certificate(p)
    assert cert.source_f == GammaRow(values=(2, 5, 6), gammas=(1, 2, 1))
    assert cert.image_f == GammaRow(values=(3, 4, 6), gammas=(2, 1, 1))
    assert cert.image.text() == "1,4/2,3/5,6"
    assert phi(cert.image) == p
    assert mak(p) == makp(cert.image)
    assert makp(p) == mak(cert.image)


def test_transferred_labels_follow_the_greedy_level_matching():
    # phi pairs openers with closers by a stack in its reversed pass; the
    # greedy matching by level must give every image closer the same gamma
    for n in range(9):
        for p in enumerate_partitions(n):
            gamma = trace_profile(p).gamma
            want = {n + 1 - a: gamma[c - 1] for a, c in match_openers_closers(p).items()}
            image_f = phi_certificate(p).image_f
            assert dict(zip(image_f.values, image_f.gammas)) == want


def test_involution_and_exchange_exhaustive():
    for n in range(8):
        for p in enumerate_partitions(n):
            image = phi(p)
            assert phi(image) == p
            assert mak(p) == makp(image)
            assert makp(p) == mak(image)


def test_image_classes_mirror_the_source():
    for n in range(7):
        for p in enumerate_partitions(n):
            cls = classify(p)
            icls = classify(phi(p))
            mirror = lambda xs: tuple(sorted(n + 1 - x for x in xs))
            assert icls.singletons == mirror(cls.singletons)
            assert icls.passants == mirror(cls.passants)
            assert icls.opener_nonsingletons == mirror(cls.closer_nonsingletons)
            assert icls.closer_nonsingletons == mirror(cls.opener_nonsingletons)


def _scanned_row(kinds, gamma, kind) -> GammaRow:
    # one scan over all n kinds per row
    values = tuple(i for i, k in enumerate(kinds, start=1) if k is kind)
    return GammaRow(values, tuple(gamma[i - 1] for i in values))


def test_certificate_rows_equal_a_scan_of_each_profile():
    partitions = [p for n in range(9) for p in enumerate_partitions(n)]
    partitions += [SetPartition(w) for w in LONG_SEEDED_WORDS]
    for p in partitions:
        cert = phi_certificate(p)
        source = trace_profile(p)
        image = trace_profile(cert.image)  # an independent pass over the image's word
        assert (cert.source_f, cert.source_p, cert.image_f, cert.image_p) == (
            _scanned_row(source.kinds, source.gamma, CLOSER),
            _scanned_row(source.kinds, source.gamma, PASSANT),
            _scanned_row(image.kinds, image.gamma, CLOSER),
            _scanned_row(image.kinds, image.gamma, PASSANT),
        ), p.text()
        # and against the former pass, which filed them as it wrote the image
        assert cert.to_json_dict() == oracles.phi_certificate(p).to_json_dict(), p.text()


def test_phi_builds_no_view_of_its_image():
    # a caller that takes only the image pays for no row, no trace profile
    # and no classification of it
    for n in range(8):
        for p in enumerate_partitions(n):
            for image in (phi(p), phi_certificate(p).image):
                assert image.__dict__.keys() == {"word"}, p.text()


def test_phi_checks_the_image_against_the_written_roles(monkeypatch):
    # an image whose word shows other roles than the reader filed must not
    # pass: the first and last occurrences are read off the built word
    p = parse_partition("1,4,8/2/3,7,9/5,6")
    for wrong in ("1,2,3,4,5,6,7,8,9", "1/2/3/4/5/6/7/8/9", p.text()):
        built = parse_partition(wrong)
        monkeypatch.setattr(bijections, "_write_word", lambda steps: built)
        with pytest.raises(ConsistencyError) as info:
            phi_certificate(p)
        assert str(info.value) == "image classification does not mirror the source"


def _mutant(monkeypatch, old: str, new: str):
    # phi with one source line of the reverse reader or the word writer
    # edited, the edited function run in core's namespace
    names = ("_reverse_read", "_write_word")
    sources = {name: inspect.getsource(getattr(core, name)) for name in names}
    ((name, source),) = [(name, source) for name, source in sources.items() if old in source]
    assert source.count(old) == 1, old
    namespace = dict(vars(core))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(bijections, name, namespace[name])


# An edit of the reverse reader or the word writer, and how many of the
# 1,156 partitions with n <= 7 it makes phi raise ConsistencyError.
_MIRROR_MUTANTS = {
    "a passant pops its block": (
        "word.append(incomplete[g])",
        "word.append(incomplete.pop(g))",
        804,
    ),
    "a closer leaves its block open": (
        "word.append(incomplete.pop(g))",
        "word.append(incomplete[g])",
        1148,
    ),
    "a singleton is not filed as an end": (
        "starts.append(i)\n            ends.append(i)",
        "starts.append(i)",
        935,
    ),
    "the first pending gamma instead of the last": ("pending.pop()", "pending.pop(0)", 406),
}


@pytest.mark.parametrize("name", sorted(_MIRROR_MUTANTS))
def test_phi_mutants_raise(name, monkeypatch):
    old, new, want = _MIRROR_MUTANTS[name]
    _mutant(monkeypatch, old, new)
    raised = 0
    for n in range(8):
        for p in enumerate_partitions(n):
            try:
                phi(p)
            except ConsistencyError:
                raised += 1
    assert raised == want


def _with_steps(monkeypatch, steps):
    # phi reads the given source path steps in place of the ones its
    # partition's profile pass writes
    monkeypatch.setattr(bijections, "_path_steps", lambda q: tuple(steps))


def test_phi_rejects_transferred_labels_outside_the_incomplete_blocks(monkeypatch):
    # a source closer's gamma travels to the image closer matched to it by
    # level, which has exactly l_c incomplete blocks to join
    p = parse_partition("1,4,8/2/3,7,9/5,6")
    true, steps = trace_profile(p), encode(p).steps
    cases = 0
    for c in classify(p).closer_nonsingletons + classify(p).passants:
        for bad in (0, true.l[c - 1] + 1):
            faulty = list(steps)
            faulty[c - 1] = steps[c - 1]._replace(label=bad)
            _with_steps(monkeypatch, faulty)
            with pytest.raises(ConsistencyError, match="^transferred labels rejected: element "):
                phi_certificate(p)
            cases += 1
    assert cases == 10
    faulty = list(steps)
    faulty[5] = Step(SE, 4)  # closer 6 at level 3 gives its gamma to 5, the mirror of opener 5
    _with_steps(monkeypatch, faulty)
    with pytest.raises(ConsistencyError) as info:
        phi_certificate(p)
    assert str(info.value) == (
        "transferred labels rejected: element 5: gamma 4 outside the 3 incomplete blocks"
    )


def test_phi_rejects_a_profile_that_leaves_blocks_open(monkeypatch):
    # a passant read as a closer mirrors to an opener that nothing closes
    p = parse_partition("1,4,8/2/3,7,9/5,6")
    faulty = list(encode(p).steps)
    assert faulty[6] == Step(E, 2)
    faulty[6] = faulty[6]._replace(kind=SE)
    _with_steps(monkeypatch, faulty)
    with pytest.raises(ConsistencyError) as info:
        phi_certificate(p)
    assert str(info.value) == "transferred labels rejected: profile ends with unclosed blocks"


def test_phi_trivial_inputs():
    assert phi(parse_partition("")).text() == ""
    assert phi(parse_partition("1")).text() == "1"
    assert phi(parse_partition("1/2")).text() == "1/2"
    assert phi(parse_partition("1,2")).text() == "1,2"


def test_phi_rejects_ordered_input():
    message = "^phi is defined on canonically ordered partitions only$"
    with pytest.raises(PartitionError, match=message):
        phi(parse_ordered("2/1"))
    with pytest.raises(PartitionError, match=message):
        phi_certificate(parse_ordered("2/1"))


def test_matching_fixtures():
    p2 = parse_partition("1,4,8/2,9/3,7/5,6")
    p3 = parse_partition("1,4,8/2/3,7,9/5,6")
    assert match_openers_closers(p2) == {1: 9, 2: 8, 3: 7, 5: 6}
    assert match_openers_closers(p3) == {1: 9, 3: 8, 5: 6}


def test_matching_is_a_level_bijection():
    for n in range(7):
        for p in enumerate_partitions(n):
            cls = classify(p)
            profile = trace_profile(p)
            matching = match_openers_closers(p)
            assert sorted(matching) == list(cls.opener_nonsingletons)
            assert sorted(matching.values()) == list(cls.closer_nonsingletons)
            for a, c in matching.items():
                assert a < c
                assert profile.l[c - 1] == profile.l[a - 1] + 1


ORBIT = [
    ("1,4,8/2/3/5,6,7,9", -3, -6),
    ("1,4,8/2/3,9/5,6,7", -6, -5),
    ("1,4,8/2/3,7/5,6,9", -5, -5),
    ("1,4,8/2/3,7,9/5,6", -5, -4),
    ("1,4,8/2/3,6/5,7,9", -4, -5),
    ("1,4,8/2/3,6,9/5,7", -5, -4),
    ("1,4,8/2/3,6,7/5,9", -4, -4),
    ("1,4,8/2/3,6,7,9/5", -4, -3),
]


def test_block_exchange_orbit_fixture():
    partitions = [parse_partition(text) for text, _, _ in ORBIT]
    for j, (p, (_, shifted, direct)) in enumerate(zip(partitions, ORBIT)):
        assert stat_i(p, 4) - 1 == shifted
        assert stat_i(p, 3) == direct
        image = phi_i(p, 3)
        assert image == partitions[(j + 1) % 8]
        assert stat_i(p, 3) == stat_i(image, 4) - 1
    # period exactly 8: all orbit members distinct
    assert len(set(partitions)) == 8


def test_block_exchange_identity_case():
    p = parse_partition("1,2/3")
    assert phi_i(p, 1) == p


def test_block_exchange_preserves_openers_and_is_injective():
    for n in range(7):
        classes: dict[tuple, list] = {}
        for p in enumerate_partitions(n):
            classes.setdefault(classify(p).openers, []).append(p)
        for members in classes.values():
            k = members[0].k
            for i in range(1, k):
                images = [phi_i(p, i) for p in members]
                assert set(images) <= set(members)
                assert len(set(images)) == len(members)


def test_block_exchange_equals_the_block_list_oracle():
    # the word edit against the former map, which splices and sorts the
    # two blocks and renumbers them through the checked from_blocks
    words = [p.word for n in range(9) for p in enumerate_partitions(n)]
    for word in words + LONG_SEEDED_WORDS:
        p = SetPartition(word)
        for i in range(1, p.k):
            image = phi_i(p, i)
            assert type(image) is SetPartition and type(image.word) is tuple
            assert image.word == oracles.phi_i(p, i).word


def test_block_exchange_errors():
    p = parse_partition("1,2/3")
    with pytest.raises(PartitionError):
        phi_i(p, 0)
    with pytest.raises(PartitionError):
        phi_i(p, 2)
    with pytest.raises(PartitionError):
        phi_i(parse_ordered("2/1"), 1)


def test_consistency_error_is_a_runtime_error():
    # core defines it, so the CLI catches it without loading bijections
    assert issubclass(ConsistencyError, RuntimeError)
    assert ConsistencyError is core.ConsistencyError
