"""Frozen reference copies of the earlier per-image vote path: the vote
summary, the scalar controversy rule and `controversial_image_ids`, which
read a dict of `AnnotationRecord`s. They are kept to check the count store
(`privlens.data_io.vote_store`) and the mask (`privlens.analysis.
is_controversial`) against. The code is the earlier code verbatim; the
package no longer has `TooFewVotes`, so it is defined here, and
`controversial_image_ids` takes any object with a `manifest` store and an
`annotations` dict. Do not change these to follow the package.
"""

from __future__ import annotations

from dataclasses import dataclass

from privlens.analysis import CONTROVERSY_MAX_SHARE
from privlens.data_io import AnnotationRecord, FiveClassVote


class TooFewVotes(Exception):
    pass


_PRIVATE_VOTES = {FiveClassVote.CLEARLY_PRIVATE, FiveClassVote.PRIVATE}
_PUBLIC_VOTES = {FiveClassVote.CLEARLY_PUBLIC, FiveClassVote.PUBLIC}


@dataclass(frozen=True)
class VoteSummary:
    n_votes: int
    n_private: int
    n_public: int
    n_undecidable: int

    def __post_init__(self):
        if self.n_private + self.n_public + self.n_undecidable != self.n_votes:
            raise ValueError("vote counts must sum to n_votes")


def summarize_votes(record: AnnotationRecord) -> VoteSummary:
    n_private = sum(1 for v in record.votes if v in _PRIVATE_VOTES)
    n_public = sum(1 for v in record.votes if v in _PUBLIC_VOTES)
    n_undecidable = len(record.votes) - n_private - n_public
    return VoteSummary(len(record.votes), n_private, n_public, n_undecidable)


def is_controversial(summary: VoteSummary) -> bool:
    """Both sides voted, and neither side was picked by more than 65% of assessors."""
    if summary.n_votes < 2:
        raise TooFewVotes("controversy is defined only for 2+ assessors")
    if summary.n_private < 1 or summary.n_public < 1:
        return False
    return (
        summary.n_private / summary.n_votes <= CONTROVERSY_MAX_SHARE
        and summary.n_public / summary.n_votes <= CONTROVERSY_MAX_SHARE
    )


def controversial_image_ids(ds) -> list[str]:
    """Manifest-ordered ids of controversial images (2+ votes only)."""
    out = []
    for image_id in ds.manifest.ids:
        ann = ds.annotations.get(image_id)
        if ann is None or len(ann.votes) < 2:
            continue
        if is_controversial(summarize_votes(ann)):
            out.append(image_id)
    return out
