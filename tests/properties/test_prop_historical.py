"""Differential property test: the sorted-table model vs the dict build.

``HistoricalModel`` is a columnar ranked table: one ``np.lexsort`` on
(tuple, -bytes, link) at build, fsum totals and shares as columns, and a
tuple's ``Prediction``s built the first time it is asked.  The reference
is the dict build it replaced (``tests/core/historical_oracle.py``):
every tuple ranked at once with ``math.fsum``, a keyed ``sorted`` and
``keep_top`` cut after the total.  Whatever the keyed table — tuples of
one, two or many links, tied bytes, byte counts whose running sum is not
their fsum (``1.0, 2**53, 1.0``), rows of several tuples interleaved,
any ``keep_top`` — and whatever is asked first, both must agree to the
bit: ``rankings()`` in key order, link order and ``float.hex``,
``predict`` / ``has_prediction`` under any ``k`` and ``unavailable``
set, and ``to_arrays()`` byte for byte.

Hand mutants this suite kills (each applied in a scratch copy, seen to
fail here, and reverted): ``math.fsum`` replaced by ``sum``, and the
fsum of a tuple of three or more links replaced by ``np.add.reduceat``;
equal bytes ranked by the higher link first; ``keep_top`` applied before
the total; tuples numbered in key order rather than first-seen order;
one slot list shared by every model, whatever its ``keep_top``.
"""

import sys
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import FEATURES_AP, HistoricalModel
from repro.pipeline import FlowContext
from repro.store.codec import encode_keyed_table
from tests.core.historical_oracle import DictHistoricalModel

KEEP_TOPS = (None, 1, 2, 5)
WIDTH = len(FEATURES_AP.fields) + 1

#: (src_asn, src_prefix, dest_region, dest_service): few enough values
#: that the tables below reuse tuples
keys = st.tuples(st.integers(1, 3), st.integers(0, 4), st.integers(0, 1),
                 st.integers(0, 1))
#: byte counts: repeats make ties, 2**53 beside 1.0 makes a running sum
#: that is not the fsum, and the float range makes the rest
byte_counts = st.one_of(
    st.sampled_from([1.0, 2.0 ** 53, 3.0, 0.1, 0.2, 0.3]),
    st.floats(1e-6, 1e12))
#: tuple -> link -> bytes, one to six links a tuple
tables = st.dictionaries(
    keys, st.dictionaries(st.integers(0, 9), byte_counts, min_size=1,
                          max_size=6),
    max_size=12)
unavailable_sets = st.frozensets(st.integers(0, 9), max_size=4)


def context_of(key):
    asn, prefix, region, service = key
    return FlowContext(asn, prefix, 0, region, service)


def rows_of(table, data):
    """The table's (tuple, link) rows with tuples interleaved."""
    rows = [((*key, link), bytes_) for key, links in table.items()
            for link, bytes_ in links.items()]
    return data.draw(st.permutations(rows), label="rows")


def hexed(predictions):
    return [(p.link_id, p.score.hex()) for p in predictions]


def hexed_rankings(model):
    return [(key, hexed(ranking))
            for key, ranking in model.rankings().items()]


def assert_same_arrays(got, want):
    assert list(got) == list(want)
    for column, values in want.items():
        assert got[column].dtype == values.dtype, column
        assert got[column].tobytes() == values.tobytes(), column


def assert_same_model(got, want, contexts):
    assert got.size() == want.size()
    assert got.tuples() == want.tuples()
    assert hexed_rankings(got) == hexed_rankings(want)
    assert_same_arrays(got.to_arrays(), want.to_arrays())
    for context in contexts:
        assert got.bytes_for(context) == want.bytes_for(context)


@given(tables, st.data())
@example({(1, 0, 0, 0): {5: 1.0, 7: 2.0 ** 53, 9: 1.0}}, None)
# numpy's reduce adds 2**37 + (y + z): double rounding, one off the fsum
@example({(2, 1, 0, 0): {3: 2.0 ** 37, 4: 2.0 ** 36 + 2.0 ** -16,
                         6: 2.0 ** -18}}, None)
# first-seen order is not key order; a tie
@example({(3, 2, 1, 1): {1: 5.0, 2: 5.0}, (1, 0, 0, 0): {2: 0.1, 0: 0.3}},
         None)
@settings(max_examples=80, deadline=None)
def test_table_equals_the_dict_build(table, data):
    if data is None:        # the explicit example: rows in table order
        rows = [((*key, link), bytes_) for key, links in table.items()
                for link, bytes_ in links.items()]
    else:
        rows = rows_of(table, data)
    arrays = encode_keyed_table(dict(rows), WIDTH)
    models = {keep_top: (
        HistoricalModel.from_arrays(arrays, FEATURES_AP, keep_top=keep_top),
        DictHistoricalModel.from_arrays(arrays, FEATURES_AP,
                                        keep_top=keep_top))
        for keep_top in KEEP_TOPS}
    contexts = [context_of(key) for key in table] + [
        context_of((9, 9, 0, 0))]
    # ask some tuples first, of every keep_top in turn, so slots fill in
    # an order the full comparison below does not choose
    asks = (data.draw(st.lists(st.tuples(
        st.sampled_from(contexts), st.sampled_from(KEEP_TOPS),
        st.integers(1, 5), unavailable_sets), max_size=20), label="asks")
        if data is not None else [])
    for context, keep_top, k, unavailable in asks:
        got, want = models[keep_top]
        assert (hexed(got.predict(context, k, unavailable))
                == hexed(want.predict(context, k, unavailable)))
        assert (got.has_prediction(context, unavailable)
                == want.has_prediction(context, unavailable))
    for got, want in models.values():
        assert_same_model(got, want, contexts)
        for context in contexts:
            for k in range(1, 6):
                for unavailable in (frozenset(), frozenset({5, 7}),
                                    frozenset(range(10))):
                    assert (hexed(got.predict(context, k, unavailable))
                            == hexed(want.predict(context, k, unavailable)))
                    assert (got.has_prediction(context, unavailable)
                            == want.has_prediction(context, unavailable))


@given(st.lists(st.tuples(keys, st.integers(0, 9), byte_counts),
                max_size=40),
       st.integers(0, 40), st.sampled_from(KEEP_TOPS))
@settings(max_examples=60, deadline=None)
def test_observe_path_equals_the_dict_observe(observations, cut, keep_top):
    """``observe`` -> ``finalize`` folds rows in the order given onto the
    counts so far, a query in the middle included: the running sums of
    ``links.get(link, 0.0) + bytes`` to the bit."""
    got = HistoricalModel(FEATURES_AP, keep_top=keep_top)
    want = DictHistoricalModel(FEATURES_AP, keep_top=keep_top)
    contexts = [context_of(key) for key, _, _ in observations]
    for index, (key, link, bytes_) in enumerate(observations):
        if index == cut:
            assert_same_model(got, want, contexts)
        got.observe(context_of(key), link, bytes_)
        want.observe(context_of(key), link, bytes_)
    got.finalize()
    want.finalize()
    assert_same_model(got, want, contexts)


def test_threads_asking_a_fresh_model_get_one_answer():
    """Slots fill on first ask, from any thread: threads racing to rank
    the same tuples of a fresh model all get the oracle's answers."""
    table = {(asn, prefix, 0, 0): {link: float(1 + (asn * prefix + link) % 7)
                                   for link in range(prefix % 5 + 1)}
             for asn in range(1, 40) for prefix in range(25)}
    arrays = encode_keyed_table({(*key, link): bytes_
                                 for key, links in table.items()
                                 for link, bytes_ in links.items()}, WIDTH)
    want = DictHistoricalModel.from_arrays(arrays, FEATURES_AP)
    contexts = [context_of(key) for key in table]
    expected = [hexed(want.predict(context, 3)) for context in contexts]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            model = HistoricalModel.from_arrays(arrays, FEATURES_AP)
            answers = [None] * 4

            def ask(slot, model=model, answers=answers):
                order = contexts if slot % 2 else contexts[::-1]
                got = {context: hexed(model.predict(context, 3))
                       for context in order}
                answers[slot] = [got[context] for context in contexts]

            threads = [threading.Thread(target=ask, args=(slot,))
                       for slot in range(len(answers))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert answers == [expected] * len(answers)
            assert hexed_rankings(model) == hexed_rankings(want)
    finally:
        sys.setswitchinterval(switch)
