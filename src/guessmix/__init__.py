"""Self-play corpus mixing laboratory for a synthetic referential guessing game.

Two scripted/learned agents play a "find the secret object" game on small
synthetic scenes: a Questioner asks yes/no questions, an Oracle answers.
The package builds a clean teacher-generated dialogue corpus, trains a
compact recurrent Questioner on it, lets the trained model play against
the Oracle to produce noisy dialogues, mixes those back into the training
data at several proportions, retrains, and measures task accuracy together
with linguistic quality of the generated dialogues.
"""

from . import parallel  # noqa: F401 - sets one BLAS thread before any matrix product

__version__ = "0.1.0"
