"""Bytes an object graph keeps alive, as ``tracemalloc`` counts them."""

import gc
import tracemalloc


def retained_bytes(build) -> int:
    """Traced bytes still allocated after ``build()``, its result alive.

    Compare two builds of equal data to compare their object layouts:
    memory the build frees again (temporaries, garbage) is not counted.
    """
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        gc.collect()
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del kept
    return size
