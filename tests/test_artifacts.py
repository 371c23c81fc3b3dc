"""Every file a stage writes is read by a later stage or is a final output."""

from akisub.stages import STAGE_TABLE

# outputs that no stage reads: what the pipeline reports
FINAL_OUTPUTS = {"exclusions.csv", "loss_history.csv", "ktable.csv", "subtype_report.csv",
                 "subtype_report.txt", "heatmap.csv", "stage_composition.csv",
                 "metrics.csv"}
# featurize outputs that no stage reads; this list may only shrink. The benchmark
# pins featurize's summarize_for_baselines calls, so this file goes with that pin
KNOWN_UNREAD = {"baseline_features.csv"}


def _read_later() -> dict[str, set[str]]:
    """Per stage, the files that some later stage reads."""
    specs = list(STAGE_TABLE.values())
    return {stage: {name for later in specs[i + 1:] for name in later.inputs}
            for i, stage in enumerate(STAGE_TABLE)}


def test_every_output_is_read_later_or_listed():
    read_later = _read_later()
    for stage, spec in STAGE_TABLE.items():
        for name in spec.outputs:
            assert name in read_later[stage] | FINAL_OUTPUTS | KNOWN_UNREAD, \
                f"{stage} writes {name}, which no later stage reads"


def test_listed_files_are_outputs_and_known_unread_files_stay_unread():
    outputs = {name for spec in STAGE_TABLE.values() for name in spec.outputs}
    read = {name for spec in STAGE_TABLE.values() for name in spec.inputs}
    assert FINAL_OUTPUTS | KNOWN_UNREAD <= outputs
    assert not KNOWN_UNREAD & read, "a file that is now read leaves KNOWN_UNREAD"
