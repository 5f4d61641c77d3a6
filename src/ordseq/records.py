"""Small record classes: named fields, compared and shown by value."""


class Record:
    """Mutable record: its fields are its __init__'s parameters; equal by class and fields; unhashable."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" in vars(cls):  # FrozenRecord and a subclass without __init__ keep what they inherit
            code = cls.__init__.__code__
            if code.co_kwonlyargcount or code.co_flags & 0x0C:  # inspect's CO_VARARGS | CO_VARKEYWORDS
                raise TypeError(f"{cls.__qualname__}.__init__ may take only plain positional parameters")
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self._values()))})"


class FrozenRecord(Record):
    """Record whose fields cannot be assigned or deleted once built; hashed by its fields."""

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
