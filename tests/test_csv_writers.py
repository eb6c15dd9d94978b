"""The CSV writers hand `csv` raw values; these tests pin the bytes that gives.

The reference writers below are written-out copies of the earlier writers,
which formatted each float with `repr` and each None as an empty field. With
Python floats both write the same bytes; with numpy scalars only `csv`'s own
formatting reads back.
"""

import csv
import dataclasses
import math

import numpy as np
import pytest

from dualbid import sim
from dualbid.dsp import DECISION_CSV_HEADER, RowDecisions, write_decisions_csv
from dualbid.landscape import BidObservation, Outcome, read_observations_csv, write_observations_csv
from dualbid.sim import CONSTRAINT_CSV_HEADER, EPOCH_CSV_HEADER, ConstraintRow, EpochMetrics

INF, NAN = math.inf, math.nan


def reference_constraints_csv(path, rows):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CONSTRAINT_CSV_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.k,
                    repr(row.limit),
                    repr(row.consumption),
                    repr(row.surplus),
                    "" if row.alpha is None else repr(row.alpha),
                ]
            )


def reference_epoch_metrics_csv(path, metrics):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(EPOCH_CSV_HEADER)
        for m in metrics:
            writer.writerow(
                [
                    m.epoch,
                    repr(m.revenue),
                    repr(m.cost),
                    repr(m.performance),
                    m.wins,
                    repr(m.actual_roi),
                    repr(m.revenue_per_win),
                    "" if m.param is None else repr(m.param),
                    int(m.degenerate),
                ]
            )


def reference_decisions_csv(path, instance, rows):
    ad_ids = [ad.id for ad in instance.ads]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(DECISION_CSV_HEADER)
        writer.writerows(
            (i, "", "", repr(score)) if j < 0 else (i, ad_ids[j], repr(bp), repr(score))
            for i, j, bp, score in zip(
                instance.ids, rows.ad.tolist(), rows.bp.tolist(), rows.score.tolist()
            )
        )


CONSTRAINT_ROWS = [
    ConstraintRow(k=0, limit=20.0, consumption=-0.0),
    ConstraintRow(k=1, limit=INF, consumption=NAN, alpha=5e-324),
    ConstraintRow(k=2, limit=-INF, consumption=0.1 + 0.2, alpha=-0.0),
    ConstraintRow(k=3, limit=5e-324, consumption=1e300, alpha=INF),
    ConstraintRow(k=4, limit=-0.0, consumption=INF, alpha=NAN),
]

EPOCH_ROWS = [
    EpochMetrics(0, NAN, INF, -0.0, 3, -INF, 5e-324, None, True),
    EpochMetrics(1, 0.1 + 0.2, -INF, 5e-324, 0, NAN, -0.0, 1e-310, False),
    EpochMetrics(2, 1e300, 0.0, INF, 12, 2.5, INF, -0.0, False),
    EpochMetrics(3, -0.0, NAN, NAN, 1, INF, NAN, NAN, True),
]


def _decision_case():
    instance = sim.gen_mock_instance(sim.MockConfig(n_impressions=6))
    ids = [0, 7, "imp,a", 'imp "b"', 2**70, " c"]
    rows = RowDecisions(
        ad=np.array([-1, 0, 1, -1, 1, 0]),
        bp=np.array([0.0, 5e-324, INF, 0.0, -0.0, 0.1 + 0.2]),
        score=np.array([-INF, NAN, -0.0, 1e300, 5e-324, INF]),
        prob=np.zeros(6),
        cost=np.zeros(6),
    )
    return dataclasses.replace(instance, ids=ids), rows


@pytest.mark.parametrize(
    "write, reference, args",
    [
        (sim.write_constraints_csv, reference_constraints_csv, (CONSTRAINT_ROWS,)),
        (sim.write_epoch_metrics_csv, reference_epoch_metrics_csv, (EPOCH_ROWS,)),
        (write_decisions_csv, reference_decisions_csv, _decision_case()),
    ],
    ids=["constraints", "epochs", "decisions"],
)
def test_writer_matches_the_repr_reference_byte_for_byte(write, reference, args, tmp_path):
    write(tmp_path / "new.csv", *args)
    reference(tmp_path / "ref.csv", *args)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_observations_of_numpy_scalars_read_back(tmp_path):
    observations = [
        BidObservation(Outcome.WON, np.float64(1.5), np.float64(0.25)),
        BidObservation(Outcome.LOST, np.float64(0.1) + np.float64(0.2)),
        BidObservation(Outcome.WON, 2.0, np.float64(5e-324)),
    ]
    path = tmp_path / "observations.csv"
    write_observations_csv(path, observations)
    log = read_observations_csv(path)
    columns = (log.won.tolist(), log.bid_price.tolist(), log.paid_cost.tolist())
    assert [
        BidObservation(Outcome.WON, bid, cost) if won else BidObservation(Outcome.LOST, bid)
        for won, bid, cost in zip(*columns)
    ] == observations


def test_constraints_of_numpy_scalars_are_written_as_plain_numbers(tmp_path):
    rows = [ConstraintRow(k=0, limit=np.float64(2.0), consumption=np.float64(0.5),
                          alpha=np.float64(0.25))]
    path = tmp_path / "constraints.csv"
    sim.write_constraints_csv(path, rows)
    assert path.read_text().splitlines() == [",".join(CONSTRAINT_CSV_HEADER), "0,2.0,0.5,1.5,0.25"]
