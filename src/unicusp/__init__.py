"""Exact arithmetic toolkit for Puiseux pairs of unicuspidal plane curves.

The package answers one family of questions: for which coprime pairs
(a, b), degrees d and genera g can a plane curve of degree d and genus g
carry a single cusp whose local branch has semigroup <a, b>?  Everything
is integer or rational arithmetic; no floats enter any verdict.

`import unicusp` loads no submodule.  Each public name resolves on first
use (`unicusp.check_single`, `from unicusp import ...`), which imports the
module that defines it and keeps the name here, so a caller pays only for
the modules it reads.
"""


__version__ = "0.1.0"

# Each public name, by the module that defines it.
_HOMES = {
    name: module
    for module, names in (
        ("semigroup", ("GapFunction", "Semigroup", "convolve")),
        ("obstruction", ("ObstructionWitness", "Verdict", "check_multi", "check_single")),
        ("quadring", ("PellDecomposition", "QuadInt", "canonical", "coprime_decompose",
                      "fundamental_prime", "generating_set", "has_solution", "phi_power")),
        ("families", ("Candidate", "IdentityReport", "cremona_step",
                      "element_to_pair", "fibonacci", "lucas", "lucas_family",
                      "lucas_family_neg", "orbit_candidates", "pair_to_element",
                      "verify_fibonacci_identities")),
        ("classify", ("EnumerationReport", "Sector", "SlopePair", "asymptote_slopes",
                      "degree_for", "enumerate_candidates", "exceptional_family",
                      "mediant_bound", "sector_bounds", "sector_of", "walk_sectors")),
        ("germs", ("FlexReport", "GermRecord", "flex_check", "germ_sequence")),
    )
    for name in names
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, which -X importtime
    # does not report
    module = __import__(f"{__name__}.{home}", fromlist=(name,))
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Value:
    """An immutable value whose fields are its class's `__slots__`, each set
    by the subclass's `__init__` with `object.__setattr__`.  Two values are
    equal, and hash alike, exactly when they are of one class with equal
    fields; copy and pickle rebuild through the constructor."""

    __slots__ = ()

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._field_values()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._field_values() == other._field_values()

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
