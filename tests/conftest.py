"""Shared test settings: every hypothesis property runs derandomized, with
no deadline and no example database, so a run depends on the code alone."""
from hypothesis import settings

settings.register_profile("coreclust", derandomize=True, deadline=None, database=None)
settings.load_profile("coreclust")
