"""The per-flow ``what_if`` the grouped spill sum is tested against.

One model walk per flow and a running ``dict`` sum, no grouping and no
numpy: the plainest statement of the §4.4 question, so it agrees with
:func:`repro.core.base.spill_from_groups` to rounding, not to the bit.
"""


def what_if_per_flow(model, flows, withdrawn, k=3):
    """Per-link byte spill of ``flows`` if ``withdrawn`` links go away,
    bytes with no prediction under link ``-1``."""
    prior = frozenset(withdrawn)
    spill = {}
    for context, bytes_ in flows:
        predictions = model.predict(context, k, prior)
        total = sum(p.score for p in predictions)
        if total <= 0.0:
            spill[-1] = spill.get(-1, 0.0) + bytes_
            continue
        for p in predictions:
            spill[p.link_id] = spill.get(p.link_id, 0.0) + (
                bytes_ * p.score / total)
    return spill
