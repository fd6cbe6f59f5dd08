"""Exception types shared across the package."""


class InputError(Exception):
    """Malformed input: a bad file, an ill-formed game, or a violated precondition."""


class DeadlockedRegionError(InputError):
    """A reachable (location, region) pair has no enabled transition.

    Such a vertex would block the arena, so the region game is rejected at
    construction time instead of being silently patched.
    """

    def __init__(self, location: str, region: str) -> None:
        self.location = location
        self.region = region
        super().__init__(
            f"deadlocked region vertex ({location}, {region}): no transition is "
            f"enabled from any time successor; add an always-enabled self-loop "
            f"to the automaton to keep the arena non-blocking"
        )


class SizeCapError(Exception):
    """The extended or region product would exceed the configured vertex cap."""
