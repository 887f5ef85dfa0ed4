"""Small shared utilities: deterministic RNG plumbing and time helpers."""

from repro._lazy import lazy_exports

__all__ = [
    "spawn_rng",
    "rng_from_seed",
    "MINUTE",
    "HOUR",
    "DAY",
    "WEEK",
    "format_duration",
    "minutes",
    "seconds_to_minutes",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.utils.rng": ("spawn_rng", "rng_from_seed"),
    "repro.utils.timeutils": (
        "MINUTE", "HOUR", "DAY", "WEEK", "format_duration", "minutes", "seconds_to_minutes",
    ),
})
