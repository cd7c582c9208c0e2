"""Every job of the seeded output corpus prints and writes its pinned bytes.

The corpus (``tests/corpus.py``) runs about two thousand command-line jobs
in about 10 s.  A change that keeps outputs leaves every digest as pinned; a
change that alters outputs on purpose re-pins them and names the changed
jobs.
"""

import json

import corpus


def test_corpus_outputs_match_their_pinned_digests():
    pinned = json.loads(corpus.DIGESTS.read_text())
    digests = corpus.compute()
    assert sorted(digests) == sorted(pinned)
    changed = [job for job in sorted(digests) if digests[job] != pinned[job]]
    assert not changed, f"{len(changed)} jobs changed their outputs: {changed}"
