"""privlens: interpretable privacy features and simple classifiers for
binary image-privacy prediction, plus annotator-disagreement analyses.
"""

__version__ = "0.1.0"
