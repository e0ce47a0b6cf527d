"""Routing on extended generalized fat-trees.

Single-path baselines (d-mod-k, s-mod-k, random), the paper's limited
multi-path heuristics (shift-1, disjoint, random-K) and unlimited
multi-path routing (UMULTI), plus the path enumeration machinery they all
share.
"""

from repro.routing.base import LimitedMultipathScheme, RouteSet, RoutingScheme
from repro.routing.enumeration import PathCodec, disjoint_order, path_codec
from repro.routing.factory import available_schemes, make_scheme
from repro.routing.heuristics import (
    Disjoint,
    RandomMultipath,
    RandomSingle,
    Shift1,
    UMulti,
)
from repro.routing.modk import DModK, SModK, modk_path_index
from repro.routing.path import Path, build_path, check_path
from repro.routing.table import RouteTable

__all__ = [
    "RoutingScheme",
    "LimitedMultipathScheme",
    "RouteSet",
    "RouteTable",
    "PathCodec",
    "path_codec",
    "disjoint_order",
    "available_schemes",
    "make_scheme",
    "DModK",
    "SModK",
    "modk_path_index",
    "Shift1",
    "Disjoint",
    "RandomMultipath",
    "RandomSingle",
    "UMulti",
    "Path",
    "build_path",
    "check_path",
]
