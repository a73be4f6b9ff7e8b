"""sha256 of every file the ``ingest_recover`` event stream journals.

Builds the benchmark's stream (``bench/wl_ingest.py``: 4000 shops,
seed 11, 34 701 events), appends it to a fresh ``DurableEventLog`` with
the benchmark's ``segment_events``, and prints the byte length and
sha256 of every ``.seg`` and ``.seal`` file, then the total and the
bulk ``append`` and ``encode_event`` cost in µs per event.  Two trees
that write the same journal print the same file lines, so a change to
how events are written (``encode_event``, ``_format_record``, sealing)
is checked by diffing them.  About 5 s per tree::

    python tools/journal_sha.py          # this tree
    python tools/journal_sha.py TREE     # another checkout
"""

import hashlib
import os
import sys
import tempfile
import time
from pathlib import Path

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
tree = Path(sys.argv[1] if len(sys.argv) > 1
            else Path(__file__).resolve().parent.parent).resolve()
sys.path[:0] = [str(tree / "src"), str(tree / "bench")]

import harness  # noqa: E402
import wl_ingest  # noqa: E402

from repro.streaming.durable import DurableEventLog  # noqa: E402
from repro.streaming.durable.log import encode_event  # noqa: E402

world = harness.build_world(
    wl_ingest.NUM_SHOPS, 11, stream=True,
    gaia_kwargs={"channels": 8, "num_scales": 2, "num_layers": 1})
events = world.events
with tempfile.TemporaryDirectory() as tmp:
    log = DurableEventLog(Path(tmp) / "journal",
                          segment_events=wl_ingest.SEGMENT_EVENTS)
    start = time.perf_counter()
    for event in events:
        log.append(event)
    append_us = (time.perf_counter() - start) / len(events) * 1e6
    log.close()
    files = sorted((Path(tmp) / "journal").iterdir())
    total = 0
    for path in files:
        body = path.read_bytes()
        total += len(body)
        print(path.name, len(body), hashlib.sha256(body).hexdigest())
start = time.perf_counter()
for event in events:
    encode_event(event)
encode_us = (time.perf_counter() - start) / len(events) * 1e6
print(f"{len(events)} events, {len(files)} files, {total} bytes; "
      f"append {append_us:.2f} us, encode_event {encode_us:.2f} us per event")
