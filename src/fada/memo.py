"""`memo`: the one way a result is cached on the object it belongs to."""
from functools import wraps


def memo(fn):
    """fn(owner, *args), computed once per owner and arguments and kept in
    `owner._memo`, one table per function named by module and qualified name
    ("roots.Window.root_steps"), keyed by the argument when fn takes one
    besides the owner (a hit is one lookup), else by the argument tuple.  A
    call that raises stores nothing.  Not in `owner.__dict__`, whose reading
    makes later attribute loads three times slower on CPython 3.11; not
    `functools.cache`, which hashes the owner (a `Window` is an unhashable
    `eq=True` dataclass) and would keep every algebra and window alive."""
    name = "%s.%s" % (fn.__module__.rpartition(".")[2], fn.__qualname__)

    def miss(owner, key, args):
        out = fn(owner, *args)
        if not hasattr(owner, "_memo"):
            owner._memo = {}
        owner._memo.setdefault(name, {})[key] = out
        return out

    def holds(owner, *args):
        """Whether fn(owner, *args) is kept already."""
        key = args[0] if fn.__code__.co_argcount == 2 else args
        return key in getattr(owner, "_memo", {}).get(name, ())

    if fn.__code__.co_argcount == 2:
        @wraps(fn)
        def cached(owner, arg):
            try:
                return owner._memo[name][arg]
            except (AttributeError, KeyError):
                pass
            return miss(owner, arg, (arg,))
    else:
        @wraps(fn)
        def cached(owner, *args):
            try:
                return owner._memo[name][args]
            except (AttributeError, KeyError):
                pass
            return miss(owner, args, args)
    cached.holds = holds
    return cached
