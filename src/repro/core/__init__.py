"""FlexiWalker configuration.

:class:`~repro.core.config.FlexiWalkerConfig` holds the knobs of the
pipeline of Fig. 6 (compile → profile → select → walk); the pipeline itself
runs behind :class:`~repro.service.WalkService` sessions.
"""

from repro.core.config import FlexiWalkerConfig

__all__ = [
    "FlexiWalkerConfig",
]
