from hypothesis import settings

# More examples for CI (pytest --hypothesis-profile=ci); a failure prints the
# blob that replays it with @reproduce_failure.
settings.register_profile("ci", max_examples=500, deadline=None, print_blob=True)
