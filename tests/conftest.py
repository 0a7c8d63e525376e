from hypothesis import settings

# Property tests must repeat exactly and stay quick on a small machine:
# examples come from a fixed derivation instead of a random seed, and
# slow shared hosts must not turn into deadline failures.
settings.register_profile("dyadwave", derandomize=True, deadline=None,
                          max_examples=40)
settings.load_profile("dyadwave")
