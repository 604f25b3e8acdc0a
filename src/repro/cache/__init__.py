"""Memoised translation results: cache keys and the bounded result cache.

The translation pipeline is deterministic for a fixed ``(sentence,
workbook fingerprint, options)`` triple, so identical requests must rank
identically — the memoisation opportunity this package exploits.  It is
integrated at two layers (see ``docs/CACHING.md``):

* :class:`repro.runtime.TranslationService` memoises per degradation-
  ladder rung in process;
* :class:`repro.serve.TranslationGateway` answers repeat requests in the
  front end, before admission control, without touching the worker pool;
  :class:`repro.cluster.ShardedCluster` does the same in front of its
  routing, with the same class and the same entries.

This package has no dependencies on the translation stack: keys are
strings, payloads are opaque, and each layer decides what it stores.
"""

from .keys import CacheKey, normalise_sentence, options_signature
from .result_cache import CacheStats, ResultCache

__all__ = [
    "CacheKey",
    "CacheStats",
    "ResultCache",
    "normalise_sentence",
    "options_signature",
]
