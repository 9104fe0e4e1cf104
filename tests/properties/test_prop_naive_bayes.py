"""Differential property test: the Naive Bayes table build vs the row walk.

``NaiveBayesModel.from_arrays`` reads a finest-grain ``DayCounts``
table and sums bytes per link and per (feature value, link) with
``np.bincount``, the total with a running sum.  The reference is the
model it replaced (``tests/core/naive_bayes_oracle.py``): ``observe``
each row in table order onto dicts, then ``finalize``.  Whatever the
table — no rows, one link, byte counts whose running sum is not their
pairwise one (``1.0, 2**53`` and six more ``1.0``), any feature set —
both must hold the same log tables byte for byte, predict the same
links with the same ``float.hex`` scores under any ``k`` and
availability prior, for seen and unseen feature values alike, and
report the same size.  The tables are compared as well as the answers
because a prediction normalises away a shift common to every link's
score, such as a total off by one ulp.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ALL_FEATURE_SETS, NaiveBayesModel
from repro.pipeline import FlowContext
from repro.store.codec import encode_keyed_table
from tests.core.naive_bayes_oracle import DictNaiveBayesModel

#: (asn, prefix, loc, region, service): training draws from the low
#: values, queries one past them, so some feature values are unseen
contexts = st.builds(FlowContext, st.integers(1, 3), st.integers(0, 3),
                     st.integers(0, 2), st.integers(0, 1),
                     st.integers(0, 1))
queries = st.builds(FlowContext, st.integers(1, 4), st.integers(0, 4),
                    st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))
links = st.integers(0, 7)
byte_counts = st.one_of(
    st.sampled_from([1.0, 2.0 ** 53, 3.0, 0.1, 0.2, 0.3]),
    st.floats(1e-6, 1e12))
#: (flow context, link) -> bytes: distinct keys in row order
tables = st.dictionaries(st.tuples(contexts, links), byte_counts,
                         max_size=30)
priors = st.frozensets(links, max_size=8)


def hexed(predictions):
    return [(p.link_id, p.score.hex()) for p in predictions]


def log_tables(model):
    """The prior, each feature's conditionals and defaults, as bytes."""
    if not model._links:
        return model._links, []
    return model._links, [model._log_prior.tobytes(), *(
        [(value, row.tobytes()) for value, row in cond.items()]
        for cond in model._log_cond), *(
        default.tobytes() for default in model._log_default)]


@given(tables, st.sampled_from(ALL_FEATURE_SETS),
       st.lists(st.tuples(queries, st.integers(1, 9), priors), max_size=12))
@example({((1, prefix, 0, 0, 0), 5 + prefix % 2): bytes_
          for prefix, bytes_ in enumerate((1.0, 2.0 ** 53, *[1.0] * 6))},
         ALL_FEATURE_SETS[0], [((1, 0, 0, 0, 0), 2, frozenset())])
@example({}, ALL_FEATURE_SETS[0], [((1, 0, 0, 0, 0), 1, frozenset())])
@settings(max_examples=150, deadline=None)
def test_table_build_equals_the_row_walk(table, feature_set, asks):
    got = NaiveBayesModel.from_arrays(encode_keyed_table(
        {(*context, link): bytes_ for (context, link), bytes_
         in table.items()}, len(FlowContext._fields) + 1), feature_set)
    want = DictNaiveBayesModel(feature_set)
    for (context, link), bytes_ in table.items():
        want.observe(FlowContext(*context), link, bytes_)
    want.finalize()
    assert (got.name, got.size()) == (want.name, want.size())
    assert log_tables(got) == log_tables(want)
    seen = [FlowContext(*context) for context, _link in table]
    for context, k, prior in [*((c, 3, frozenset()) for c in seen), *asks]:
        context = FlowContext(*context)
        assert (hexed(got.predict(context, k, prior))
                == hexed(want.predict(context, k, prior)))
