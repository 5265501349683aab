"""Frozen reference copies of the earlier per-record split assignment and
manifest writer, kept to check the columnar manifest in `privlens.data_io`
against. The functions are the earlier code verbatim; only the frozen
per-image record class they read and build is named `Record` here. Do not
change these to follow the package.
"""

import csv
import random
from dataclasses import dataclass

from privlens.data_io import Split
from privlens.features import PrivacyLabel


@dataclass(frozen=True)
class Record:
    image_id: str
    binary_label: PrivacyLabel | None = None
    split: Split | None = None


def assign_splits(
    records: list[Record],
    seed: int,
    fractions: tuple[float, float, float] = (0.7, 0.1, 0.2),
) -> list[Record]:
    """Seeded random train/val/test assignment for manifests lacking a split column.

    Only records without a split are assigned; existing assignments are kept.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    order = [i for i, r in enumerate(records) if r.split is None]
    random.Random(seed).shuffle(order)
    n_train = int(round(fractions[0] * len(order)))
    n_val = int(round(fractions[1] * len(order)))
    new_split = {
        idx: Split.TRAIN if rank < n_train else Split.VAL if rank < n_train + n_val else Split.TEST
        for rank, idx in enumerate(order)
    }
    return [
        Record(r.image_id, r.binary_label, new_split.get(i, r.split))
        for i, r in enumerate(records)
    ]


def write_manifest(path, records: list[Record]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "label", "split"])
        for r in records:
            writer.writerow([
                r.image_id,
                r.binary_label.value if r.binary_label else "",
                r.split.value if r.split else "",
            ])
