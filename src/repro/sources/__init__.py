"""Autonomous web-database simulation: capabilities, sources, sampling."""

from repro.sources.alignment import (
    RedundancyCandidate,
    find_redundant_attributes,
    merge_redundant_attributes,
)
from repro.sources.autonomous import AccessStatistics, AutonomousSource
from repro.sources.caching import CacheStatistics, CachingSource
from repro.sources.capabilities import SourceCapabilities
from repro.sources.registry import SourceRegistry
from repro.sources.sampler import split_relation
from repro.sources.surface import Source, SourceDecorator

__all__ = [
    "Source",
    "SourceDecorator",
    "SourceCapabilities",
    "AutonomousSource",
    "AccessStatistics",
    "SourceRegistry",
    "split_relation",
    "CachingSource",
    "CacheStatistics",
    "RedundancyCandidate",
    "find_redundant_attributes",
    "merge_redundant_attributes",
]
