"""Set-up time of a fresh process: ``import decid`` plus parsing the
documents given on stdin (a JSON list of model texts).  Prints seconds.

Run by ``run.py``; the documents are read before the clock starts so
only the import and the parsing are timed.
"""

import json
import sys
import time
from pathlib import Path

docs = json.load(sys.stdin)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
start = time.perf_counter()
import decid  # noqa: E402

for text in docs:
    decid.parse_document(text)
print(time.perf_counter() - start)
