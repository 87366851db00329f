import pytest

from argdissect.corpus import (
    ATTACK,
    Corpus,
    NONE,
    PairingConfig,
    SUPPORT,
    build_instances,
    paragraph_spans,
    parse_standoff,
    split_corpus,
    transform_doc,
)
from argdissect.errors import DataError, IntegrityError, StandoffParseError

TEXT = "Essay title\n\nTherefore, people should not smoke. However, smoking relaxes.\n"
# EAU spans inside the body paragraph
ANN = (
    "T1\tClaim 24 47\tpeople should not smoke\n"
    "T2\tPremise 58 73\tsmoking relaxes\n"
    "R1\tsupports Arg1:T2 Arg2:T1\n"
    "A1\tStance T1 For\n"
)


def parse_example():
    return parse_standoff(TEXT, ANN, doc_id="d1")


def test_parse_standoff_basic():
    parsed = parse_example()
    assert [e.id for e in parsed.eaus] == ["T1", "T2"]
    t1 = parsed.eau_by_id("T1")
    assert parsed.document.text[t1.start : t1.end] == "people should not smoke"
    assert t1.kind == "Claim"
    assert t1.stance == "For"
    assert parsed.eau_by_id("T2").stance is None
    assert parsed.relations == (("T2", "T1", SUPPORT),)


def test_parse_relation_label_mapping():
    ann = ANN.replace("supports", "attacks")
    parsed = parse_standoff(TEXT, ann, doc_id="d1")
    assert parsed.relations[0][2] == ATTACK


def test_paragraph_spans():
    spans = paragraph_spans(TEXT)
    assert spans == ((0, 11), (13, 74))
    assert TEXT[spans[0][0] : spans[0][1]] == "Essay title"


def test_surface_mismatch_names_span():
    bad = ANN.replace("people should not smoke", "people should not smile")
    with pytest.raises(IntegrityError, match="T1"):
        parse_standoff(TEXT, bad, doc_id="d1")


def test_dangling_reference():
    bad = ANN + "R2\tsupports Arg1:T9 Arg2:T1\n"
    with pytest.raises(IntegrityError, match="T9"):
        parse_standoff(TEXT, bad, doc_id="d1")


def test_malformed_line_reports_line_number():
    bad = ANN + "T3\tnot a span\n"
    with pytest.raises(StandoffParseError, match="line 5"):
        parse_standoff(TEXT, bad, doc_id="d1")


@pytest.mark.parametrize(
    "line",
    ["T1\tPremise 58 73\tsmoking relaxes", "R1\tattacks Arg1:T1 Arg2:T2", "A1\tStance T2 For"],
)
def test_duplicate_annotation_id_rejected(line):
    ann_id = line.split("\t")[0]
    with pytest.raises(IntegrityError, match=f"duplicate annotation id {ann_id}"):
        parse_standoff(TEXT, ANN + line + "\n", doc_id="d1")


def test_duplicate_relation_pair_rejected():
    bad = ANN + "R2\tattacks Arg1:T2 Arg2:T1\n"
    with pytest.raises(IntegrityError, match="duplicate relation T2 -> T1"):
        parse_standoff(TEXT, bad, doc_id="d1")


def test_second_stance_for_span_rejected():
    bad = ANN + "A2\tStance T1 Against\n"
    with pytest.raises(IntegrityError, match="second stance for span T1"):
        parse_standoff(TEXT, bad, doc_id="d1")


def test_span_out_of_bounds():
    bad = "T1\tClaim 24 900\tpeople\n"
    with pytest.raises(IntegrityError):
        parse_standoff(TEXT, bad, doc_id="d1")


# ---------------------------------------------------------------------------
# instance building

THREE_EAU_TEXT = "Title\n\naaa bbb. ccc ddd. eee fff.\n"
THREE_EAU_ANN = (
    "T1\tClaim 7 14\taaa bbb\n"
    "T2\tPremise 16 23\tccc ddd\n"
    "T3\tPremise 25 32\teee fff\n"
    "R1\tsupports Arg1:T1 Arg2:T2\n"
)


def three_eau_corpus():
    corpus = Corpus()
    corpus.add(parse_standoff(THREE_EAU_TEXT, THREE_EAU_ANN, doc_id="d1"))
    return corpus


def test_task_g_counts_by_enumeration():
    # 3 EAUs in one paragraph -> 6 ordered pairs; one is linked (T1, T2).
    instances = build_instances(three_eau_corpus(), "g", PairingConfig())
    labels = [i.label for i in instances]
    assert labels.count(SUPPORT) == 1
    assert labels.count(NONE) == 5
    assert len(instances) == 6


def test_task_f_only_annotated_pairs():
    instances = build_instances(three_eau_corpus(), "f")
    assert len(instances) == 1
    inst = instances[0]
    assert (inst.source, inst.target, inst.label) == ("T1", "T2", SUPPORT)


def test_task_h_one_per_sourced_eau():
    instances = build_instances(three_eau_corpus(), "h")
    assert len(instances) == 1
    assert instances[0].target is None
    assert instances[0].label == SUPPORT


def test_task_l_collapses_labels():
    instances = build_instances(three_eau_corpus(), "l")
    labels = {i.label for i in instances}
    assert labels == {"linked", NONE}
    assert sum(1 for i in instances if i.label == "linked") == 1


def test_task_h_rejects_two_outgoing_edges():
    ann = THREE_EAU_ANN + "R2\tattacks Arg1:T1 Arg2:T3\n"
    corpus = Corpus()
    corpus.add(parse_standoff(THREE_EAU_TEXT, ann, doc_id="d1"))
    with pytest.raises(DataError, match="outgoing"):
        build_instances(corpus, "h")


def test_g_label_counts_consistent_with_f():
    corpus = three_eau_corpus()
    g = build_instances(corpus, "g")
    f = build_instances(corpus, "f")
    g_linked = [i for i in g if i.label != NONE]
    assert len(g_linked) == len(f)


def test_instances_deterministic():
    corpus = three_eau_corpus()
    for task in ("l", "h", "f", "g"):
        assert build_instances(corpus, task) == build_instances(corpus, task)


def test_no_instance_crosses_documents():
    corpus = three_eau_corpus()
    corpus.add(parse_standoff(THREE_EAU_TEXT, THREE_EAU_ANN, doc_id="d2"))
    for inst in build_instances(corpus, "g"):
        parsed = corpus.docs[inst.doc_id]
        ids = {e.id for e in parsed.eaus}
        assert inst.source in ids and inst.target in ids


def test_document_scope_pairs_more_pairs():
    text = "Title\n\naaa bbb.\n\nccc ddd.\n"
    ann = "T1\tClaim 7 14\taaa bbb\nT2\tPremise 17 24\tccc ddd\n"
    corpus = Corpus()
    corpus.add(parse_standoff(text, ann, doc_id="d1"))
    par = build_instances(corpus, "g", PairingConfig(scope="paragraph"))
    doc = build_instances(corpus, "g", PairingConfig(scope="document"))
    assert len(par) == 0  # EAUs in different paragraphs
    assert len(doc) == 2


# ---------------------------------------------------------------------------
# transforms


def test_eau_only_transform():
    parsed = parse_standoff(TEXT, ANN, doc_id="d1")
    new_text, new_ann = transform_doc(parsed, "eau_only")
    assert new_text == "people should not smoke\nsmoking relaxes\n"
    reparsed = parse_standoff(new_text, new_ann, doc_id="d1")
    assert len(reparsed.eaus) == 2
    assert reparsed.relations == (("T2", "T1", SUPPORT),)


def test_context_only_transform():
    parsed = parse_standoff(TEXT, ANN, doc_id="d1")
    new_text, new_ann = transform_doc(parsed, "context_only")
    assert "Therefore, MASK MASK MASK MASK." in new_text
    assert "However," in new_text
    reparsed = parse_standoff(new_text, new_ann, doc_id="d1")
    assert len(reparsed.eaus) == 2
    assert reparsed.relations == parsed.relations


def test_transform_round_trip_preserves_graph():
    parsed = parse_standoff(TEXT, ANN, doc_id="d1")
    for mode in ("eau_only", "context_only"):
        new_text, new_ann = transform_doc(parsed, mode)
        reparsed = parse_standoff(new_text, new_ann, doc_id="d1")
        assert len(reparsed.eaus) == len(parsed.eaus)
        assert set(reparsed.relations) == set(parsed.relations)


def test_transform_rejects_overlapping_spans():
    ann = ANN + "T3\tPremise 30 50\t" + TEXT[30:50] + "\n"
    parsed = parse_standoff(TEXT, ann, doc_id="d1")
    with pytest.raises(DataError, match="overlap"):
        transform_doc(parsed, "eau_only")


# ---------------------------------------------------------------------------
# splits


def test_split_corpus_valid():
    corpus = three_eau_corpus()
    corpus.add(parse_standoff(THREE_EAU_TEXT, THREE_EAU_ANN, doc_id="d2"))
    split = split_corpus(corpus, "d1\ttrain\nd2\ttest\n")
    assert split.train_doc_ids == {"d1"}
    assert split.test_doc_ids == {"d2"}


def test_split_doc_in_both_sets():
    corpus = three_eau_corpus()
    with pytest.raises(DataError, match="both"):
        split_corpus(corpus, "d1\ttrain\nd1\ttest\n")


def test_split_missing_doc():
    corpus = three_eau_corpus()
    corpus.add(parse_standoff(THREE_EAU_TEXT, THREE_EAU_ANN, doc_id="d2"))
    with pytest.raises(DataError, match="missing"):
        split_corpus(corpus, "d1\ttrain\n")


def test_split_empty_test_set():
    corpus = three_eau_corpus()
    with pytest.raises(DataError, match="test"):
        split_corpus(corpus, "d1\ttrain\n")
