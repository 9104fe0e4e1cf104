"""Tables 3 and 11: empirical model costs.

The paper's cost model: historical training is O(n) single-pass,
prediction O(1) lookup, model size O(unique tuples); Naive Bayes
prediction is O(l log l) over all links and its model can exceed the
historical model's size.  This benchmark measures all of it on the
full-size training set and checks the orderings.
"""

import itertools
import time

from repro.core import (
    FEATURES_A,
    FEATURES_AL,
    FEATURES_AP,
    HistoricalModel,
    NaiveBayesModel,
)
from repro.experiments import tables

from repro.experiments.benchlib import print_block


def _train_historical(feature_set, counts):
    start = time.perf_counter()
    model = HistoricalModel.from_arrays(counts.project(feature_set),
                                        feature_set)
    return model, time.perf_counter() - start


def _train_naive_bayes(feature_set, counts):
    start = time.perf_counter()
    model = NaiveBayesModel.from_arrays(counts.to_arrays(), feature_set)
    return model, time.perf_counter() - start


def _predict_micros(model, contexts, k=3):
    start = time.perf_counter()
    for context in contexts:
        model.predict(context, k)
    return (time.perf_counter() - start) / len(contexts) * 1e6


def test_table3_and_11_model_costs(paper_train_counts, benchmark):
    counts = paper_train_counts
    contexts = [context for context, _link, _bytes in
                itertools.islice(counts.rows(), 2000)]

    models = {}
    rows = []
    for train, feature_set in (
            (_train_historical, FEATURES_A), (_train_historical, FEATURES_AP),
            (_train_historical, FEATURES_AL), (_train_naive_bayes, FEATURES_A),
            (_train_naive_bayes, FEATURES_AL)):
        model, train_s = train(feature_set, counts)
        models[model.name] = model
        predict_us = _predict_micros(model, contexts)
        rows.append(tables.CostRow(model.name, train_s, predict_us,
                                   model.size()))
    print_block(tables.format_block(
        "Tables 3/11 — measured model costs", rows, tables.COST_HEADER))

    by_name = {r.model: r for r in rows}
    # Table 1 ordering of model sizes: |A| <= |AL| <= |AP|
    assert (by_name["Hist_A"].size_entries
            <= by_name["Hist_AL"].size_entries
            <= by_name["Hist_AP"].size_entries)
    # historical prediction is a lookup: strictly cheaper than NB's
    # all-links scoring (paper: O(1) vs O(l log l))
    assert (by_name["Hist_AL"].predict_micros
            < by_name["NB_AL"].predict_micros)

    # benchmark the O(1) lookup itself
    hist_ap = models["Hist_AP"]
    sample = contexts[0]
    benchmark(hist_ap.predict, sample, 3)
