"""Stand-ins for the noise engine's worker, to set which thread runs each part.

``NoiseChunks`` hands every part of a chunk to ``noise._WORKER`` and takes
back, on the stepping thread, each one the worker has not started. A test
replaces ``_WORKER`` with one of these to force either side.
"""

from concurrent.futures import Future, ThreadPoolExecutor, wait


class Inline:
    """An executor whose tasks never start, so the stepping thread takes every part back."""

    def submit(self, fn, *args):
        return Future()


class Pool:
    """A one-thread executor that keeps its futures; ``eager``, it finishes each part before the next submit."""

    def __init__(self, eager: bool):
        self.pool, self.eager, self.futures = ThreadPoolExecutor(1), eager, []

    def submit(self, fn, *args):
        self.futures.append(self.pool.submit(fn, *args))
        if self.eager:
            wait(self.futures[-1:])
        return self.futures[-1]
