"""Workload generators (substrate S11) for the five paper benchmarks."""

from .base import Dataset, WorkItem
from .integers import IntegerDataset
from .matrices import MatrixDataset, PanelTask
from .points import KMeansDataset, RegressionDataset
from .readers import DatasetReader, NpySpanReader, TextSpanReader, streamed
from .text import DICTIONARY_WORDS, TextDataset, build_dictionary, tokenize

__all__ = [
    "Dataset",
    "WorkItem",
    "IntegerDataset",
    "MatrixDataset",
    "PanelTask",
    "KMeansDataset",
    "RegressionDataset",
    "TextDataset",
    "build_dictionary",
    "tokenize",
    "DICTIONARY_WORDS",
    "DatasetReader",
    "NpySpanReader",
    "TextSpanReader",
    "streamed",
]
