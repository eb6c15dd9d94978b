"""Build `DspInstance`s from `Impression` rows, for tests written row by row."""

import dataclasses

import numpy as np

from dualbid.dsp import DspInstance
from dualbid.utility import DEFAULT_BID_CAP


def row_columns(impressions, n_ads: int) -> dict:
    """The column fields `ids`, `mu`, `sigma` and `ppi` of `Impression` rows on `n_ads` ads."""
    return {
        "ids": [imp.id for imp in impressions],
        "mu": [imp.prior.mu for imp in impressions],
        "sigma": [imp.prior.sigma for imp in impressions],
        "ppi": np.array([imp.ppi for imp in impressions], dtype=float).reshape(len(impressions), -1)
        if impressions
        else np.zeros((0, n_ads)),
    }


def rows_instance(mode, objective, ads, constraints, impressions, bid_cap=DEFAULT_BID_CAP):
    """A `DspInstance` of `Impression` rows, with the other fields as `DspInstance` takes them."""
    return DspInstance(
        mode, objective, ads, constraints, **row_columns(impressions, len(ads)), bid_cap=bid_cap
    )


def with_rows(instance, impressions, **changes):
    """`instance` with its impressions replaced by `impressions`, and any other `changes`."""
    n_ads = len(changes.get("ads", instance.ads))
    return dataclasses.replace(instance, **row_columns(impressions, n_ads), **changes)
