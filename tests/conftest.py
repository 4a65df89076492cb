"""Suite-wide test set-up.

This file's presence puts ``tests/`` on ``sys.path`` (pytest's default
``prepend`` import mode), so every sub-suite can ``from toy_crypto import
TOY_DH_GROUP`` -- the one shared helper for toy security parameters.
"""
