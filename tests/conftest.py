"""Suite-wide test settings.

Property tests run under one registered hypothesis profile: derandomized, so
every run draws the same examples and a failure reproduces without an
example database; no per-example deadline, since a pass can take longer
than hypothesis' default 200 ms on a slow or shared machine; and a bounded
example count that keeps the suite to a few seconds.
"""

from hypothesis import settings

settings.register_profile("beamdiv", derandomize=True, database=None, deadline=None, max_examples=40)
settings.load_profile("beamdiv")
