"""Settings shared by every test module."""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run and keep no example
# database, so a failure reproduces from the source alone.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# Hypothesis also caches the constants it reads from the source, whatever the
# profile; that cache goes to a directory removed when the session ends, so a
# run writes nothing to .hypothesis/.
_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_STORAGE.name)
