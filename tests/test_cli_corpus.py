"""The committed CLI output corpus: every argv in tests/data/cli_corpus.json
still gives the recorded exit code, stdout and stderr, byte for byte.
tests/record_corpus.py lists the argv that differ, and rewrites the file
with --write."""

import shlex
from collections import defaultdict

import pytest

from record_corpus import corpus_argv, digest, load

CORPUS = load()
BY_COMMAND = defaultdict(list)
for _key in sorted(CORPUS):
    BY_COMMAND[shlex.split(_key)[0]].append(_key)


def test_the_corpus_holds_every_generated_argv():
    assert sorted(CORPUS) == sorted(map(shlex.join, corpus_argv()))


@pytest.mark.parametrize("command", sorted(BY_COMMAND))
def test_cli_output_matches_the_corpus(command):
    differ = [key for key in BY_COMMAND[command] if digest(shlex.split(key)) != CORPUS[key]]
    assert not differ, "output changed:\n" + "\n".join(differ)
